"""Run `wvsim.cli` once with the layer probes installed.

    python perfbench/traced_cli.py STATE.json <wvsim cli arguments...>

The CLI's stdout and exit code are unchanged; the span aggregates are written
to STATE.json for the benchmark to merge.
"""

import json
import sys

from probes import Tracer

import wvsim.cli

if __name__ == "__main__":
    tracer = Tracer()
    try:
        with tracer:
            code = wvsim.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)
    sys.exit(code)
