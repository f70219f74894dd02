"""Set-up probe: import treepack, warm one workload up, print "ready".

run.py starts this in a fresh interpreter several times per run and times
each from process start to the "ready" line, which is the set-up a user of
the workload pays before the first item.

Usage: python3 perfbench/probe.py WORKLOAD SCRATCH_DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.make(sys.argv[1], sys.argv[2]).warm_up()
    print("ready", flush=True)
