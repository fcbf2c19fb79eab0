"""Run one beatsched CLI command with the span tracer installed.

Usage: python3 perfbench/cli_traced.py SPANS_JSON ARGS...

Behaves like `python3 -m beatsched.cli ARGS...` (same stdout, stderr and
exit code) and afterwards writes the traced spans and per-function
totals to SPANS_JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import beatsched.cli  # noqa: E402
from spans import CLI_TARGETS, Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer(CLI_TARGETS)
    tracer.instance = 0
    tracer.install()
    try:
        code = beatsched.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        summary = tracer.summary()
        summary["spans"] = list(tracer.span_rows())
        out.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
