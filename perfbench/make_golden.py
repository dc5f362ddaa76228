#!/usr/bin/env python3
"""Regenerate ``data/cli_golden.json``: the exit code, stdout and stderr of
every cli-mix case, each run cold and in-process as the benchmark runs it.

Run from the checkout root with the package on the path::

    PYTHONPATH=src python3 perfbench/make_golden.py

The goldens pin the output of the commit they were made at; regenerate
them only when a change of output is intended.
"""

import json
import os
import sys

import workloads


def main():
    cases = []
    for name, argv in workloads.CLI_CASES:
        code, out, err = workloads.run_cli(argv)
        cases.append({"name": name, "argv": argv, "exit": code,
                      "stdout": out, "stderr": err})
        print(f"{name}: exit {code}", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main()
