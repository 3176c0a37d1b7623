"""Set-up probe: import beamnet, run one workload's set-up, print 'ready', exit.

    python3 perfbench/setup_probe.py WORKLOAD SIZE SEED

run.py spawns it and times it from spawn to 'ready' to measure setup_s in a
fresh process; the child inherits run.py's single-thread environment.
"""

import sys

import workloads

if __name__ == "__main__":
    name, size, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    workloads.WORKLOADS[name](size, seed).setup()
    print("ready", flush=True)
