"""The two ways a wvsim computation fails, told apart by what a caller can do:
fix the input, or pick a selection with non-zero probability."""


class InvalidData(ValueError):
    """An input wvsim rejects: malformed, out of range, or inconsistent with
    another input. The CLI exits 2."""


class OrthogonalSelection(Exception):
    """The pre- and post-selection have zero overlap, or the post-selection
    has zero probability, so the weak value or the conditioned pointer is
    undefined. The CLI exits 3."""
