"""Run one ``cartcodes`` CLI command with layer tracing.

The traced ``cli`` workload starts this file in place of the untraced
child, which runs ``cartcodes.cli`` as ``__main__``.  It binds the tracing
wrappers, runs the CLI's ``main`` with the given arguments, and reports
the layer aggregates as one ``perfbench-trace`` line on stderr.  Stdout is
the CLI's own output.

    python3 perfbench/cli_child.py lcd --field 7 --set 0,1,2 --k 2 --json
"""

import json
import os
import sys

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import cartcodes.cli  # noqa: E402
from tracing import TRACE_MARK, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(span_cap=0)
    tracer.install()
    try:
        return cartcodes.cli.main(sys.argv[1:])
    except SystemExit as exc:
        return exc.code
    finally:
        print(TRACE_MARK + json.dumps(tracer.export()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
