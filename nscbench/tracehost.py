"""Run ``nsc-vpe serve`` with the benchmark's layer spans installed.

    python3 nscbench/tracehost.py SPANS.jsonl serve --port 0 ...

Everything after the spans path goes to the ``nsc-vpe`` command line
unchanged.  Requests whose correlation id marks them as traced are
recorded; the spans are written when the daemon stops.
"""

import os
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from repro import cli
    from repro.server import correlation
    from tracing import Recorder, install_daemon, write_spans

    rec = Recorder(op_of=correlation.current)
    install_daemon(rec)
    try:
        return cli.main(argv[1:])
    finally:
        write_spans(rec.spans, argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
