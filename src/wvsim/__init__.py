"""Simulator of von Neumann weak measurements on pre- and post-selected
finite-dimensional systems, with exact Gaussian pointer algebra."""

__version__ = "0.1.0"
