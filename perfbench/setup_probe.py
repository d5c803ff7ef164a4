"""One set-up, timed in a fresh interpreter.

``python3 perfbench/setup_probe.py --workload NAME --seed N`` imports
``repro.__main__`` (what every ``python -m repro`` pays), generates the
workload's database(s) and compiles its queries, measures the host's
speed, then prints one JSON object: ``import_s``, ``datagen_s``,
``compile_ms``, ``total_s``, ``host_scale`` and ``scaled_s``.
``run.py`` takes its own set-up as one more sample and reports the
median.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    started = time.perf_counter()
    import repro.__main__  # noqa: F401 - the import is what is timed

    import_s = time.perf_counter() - started
    from perfbench.trace import SpanRecorder
    from perfbench.workloads import SPECS, timed_setup

    _, sample = timed_setup(
        SPECS[args.workload], args.seed, import_s, SpanRecorder()
    )
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
