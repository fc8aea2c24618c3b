"""Build one workload's inputs in a fresh interpreter and exit.

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py times this process from spawn to exit as the set-up time: interpreter
start, ``import sgve``, document parse, ``discretize``, seeded games and maps.
"""
import sys

import checkout

if __name__ == "__main__":
    checkout.prepare()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
