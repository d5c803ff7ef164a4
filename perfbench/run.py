"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figs --seed 42 --seconds 10 --trace 0

Run it from anywhere inside a source checkout; the program is imported
from the checkout's ``src/``. A run:

1. times three set-ups, each in a fresh interpreter: its own and two
   ``setup_probe.py`` processes, scales each to the nominal host
   (``hostspeed.py``) and reports their median as ``setup_s``;
2. builds the workload in this process and runs one checked pass: every
   operation once, with row multisets compared across strategies and,
   on ``plan_search``, each chosen plan executed once for its charge;
3. runs whole timed passes until ``--seconds`` have passed and at least
   ten latency samples lie beyond p90, checking every operation's charge
   and row count against the checked pass; a fixed reference task runs
   between operations, and each latency is scaled by the host speed
   measured right after it to what a nominal host would have taken;
4. with ``--trace 1``, alternates untraced and traced passes, then sweeps
   the strategies the workload does not run and times instrumented
   against plain executions of the same plans; it prints the per-layer
   metrics and writes the spans to ``perfbench/out/``.

One client runs one operation at a time (a closed loop). The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every check passed, 1 when an
operation failed, 2 when the run could not start. ``WORKLOADS.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    started = time.perf_counter()
    import repro.__main__  # noqa: F401 - timed, the run's own set-up

    import_s = time.perf_counter() - started
    from perfbench.bench import main as run

    return run(sys.argv[1:], import_s)


if __name__ == "__main__":
    sys.exit(main())
