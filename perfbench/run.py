"""Repository benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload read --seed 1 --seconds 10 --trace 0

Workloads are ``read``, ``read-4k`` and ``serve-mixed`` (see README.md here).
The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics). The line before it holds the workload's detailed figures.
Data lives in ``.bench_data/`` and span dumps in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=("read", "read-4k", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ino" / "__init__.py").is_file():
        print(f"perfbench: no ino package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    result, detail = workloads.run(args.workload, ROOT, args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
