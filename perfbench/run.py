"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                  # every workload, each in its own process

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every answer checked.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Replace this script's directory on the path: the package is imported by name.
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
