"""Fresh-process half of the ``setup_s`` measurement.

Usage: python3 perfbench/child.py <workload> <seed> [scale]

Prints ``ready`` once ``blockjacobi`` is imported and the workload's configs
and operators are built; the parent times interpreter start to this line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports blockjacobi)


def main() -> int:
    scale = float(sys.argv[3]) if len(sys.argv) > 3 else 1.0
    workloads.build(sys.argv[1], int(sys.argv[2]), scale)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
