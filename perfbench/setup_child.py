"""The set-up step that run.py times: a fresh interpreter imports totcol and
writes the workload's input graphs with `totcol gen`.

Usage: python3 setup_child.py ROOT WORKLOAD SEED SMOKE(0|1) WORKDIR
"""
import os
import sys


def main(argv):
    root, workload, seed, smoke, workdir = argv
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from totcol import cli

    for inst in workloads.instances(workload, int(seed), smoke == "1"):
        out = os.path.join(workdir, inst["name"] + ".col")
        if cli.main(["gen"] + inst["gen"] + ["-o", out]) != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
