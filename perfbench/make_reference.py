"""Write reference/chain3_kappa262144.npy, the chain3 ramp's final state.

    python3 perfbench/make_reference.py

The file holds the interior values of the three species (shape (3, n)) at
kappa = 262144 after the chain3_ramp workload.  The ramp and probe checks
require their states to match it to round-off, so regenerate it only when
a change is meant to move the solution.
"""

import os
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, THREAD_VARS

sys.path.insert(0, str(SRC))
for var in THREAD_VARS:
    os.environ[var] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ramp = workloads.Ramp(0, Path(tmp))
        ramp.before_run()
        ramp.run(ramp.setup(workloads.Tally()))
    state = ramp.traces[-1].final_state()
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    np.save(workloads.REFERENCE, workloads.interior_array(state))
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
