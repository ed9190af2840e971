"""Set-up probe: start, import crossedprod, load one workload's inputs, say "ready".

    python3 bench/ready.py <workload> <seed>

`run.py` launches this several times and reports the median time from
launch to the "ready" line as `setup_s`.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
