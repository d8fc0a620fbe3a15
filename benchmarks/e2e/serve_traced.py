"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``serve_traced.py REPORT.json [repro serve flags...]``

Installs the service-side wrappers, then runs
``repro.service.cli.serve_main`` with the remaining flags, so the server
behaves exactly as ``python -m repro serve``.  When the server has
drained it writes the per-layer report (calls, self times, CPU seconds
while serving, events the trace recorder still holds) to REPORT.json and
the raw spans beside it, and exits with the server's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from layers import install_service_layers, report
from spans import SpanLog

from repro.service.cli import serve_main

IMPORTED_AT = time.monotonic()


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    report_path = Path(argv[0])
    log = SpanLog()
    observed = install_service_layers(log)
    cpu_before = cpu_s()
    code = serve_main(argv[1:])
    serving_cpu_s = cpu_s() - cpu_before
    result = report(log, observed, report_path.with_suffix(".npz"))
    result.update(imported_at=IMPORTED_AT, serving_cpu_s=serving_cpu_s)
    report_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
