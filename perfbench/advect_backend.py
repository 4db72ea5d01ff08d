"""External forecast backend used by the external-0p25 workload.

Speaks nwpeval's subprocess protocol (--in, --out, --step-hours): reads
the input archive, shifts every channel east by step_hours // 6 grid
cells, advances valid_time and writes the output archive.
"""

import argparse
import sys
from datetime import timedelta

import numpy as np

from nwpeval.archive import read_archive, write_archive
from workloads import external_cells


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--in", dest="src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--step-hours", type=int, required=True)
    a = p.parse_args()
    state = read_archive(a.src)
    state = state.replace(data=np.roll(state.data, external_cells(a.step_hours), axis=2),
                          valid_time=state.valid_time + timedelta(hours=a.step_hours))
    write_archive(state, a.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
