"""``python traced_cli.py SPANS_OUT ARGS...``: ``mfland ARGS...`` with spans.

Runs the CLI like ``python -m mfland.cli`` does, with every public mfland
function wrapped, and writes the spans to SPANS_OUT when the command ends.
"""

import sys

import spans

import mfland.cli
import mfland.verify  # cli imports it lazily; wrap its checks too

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = mfland.cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1])
    sys.exit(code)
