"""The repository's one benchmark: served system and simulator.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line (the contract in
``BENCHMARK.json``); ``python3 -m bench`` with no workload runs all
four and prints every metric by name.  See ``bench/README.md``.

The benchmark is measured from outside the program: it imports
``repro`` from the checkout's ``src/`` and touches nothing there.
"""

import sys
from pathlib import Path

#: Root of the checkout (the directory that holds ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave their files (traces, the cluster's stderr); ignored
#: by git and inside the checkout, the only place a run may write.
OUT_DIR = ROOT / ".bench_out"

# The benchmark command may name no path outside ``bench/``, so the
# package finds the program's source itself instead of relying on
# PYTHONPATH.  Without ``src/`` the import of ``repro`` fails and the
# run exits non-zero before printing a result.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
