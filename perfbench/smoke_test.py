#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one second, untraced and
traced, and fails unless each run exits 0, reports correct with no
failed operation, and prints exactly the metrics BENCHMARK.json names
(end_to_end untraced, per_layer traced) with their units.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace)]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            where = "%s --trace %d" % (workload, trace)
            before = len(problems)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (where, run.returncode,
                                                     run.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correctness checks failed" % where)
            if result["attempted"] < 1:
                problems.append("%s: nothing attempted" % where)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra or wrong unit %s" % (
                                    where,
                                    sorted(set(expected[trace]) - set(got)),
                                    sorted(set(got.items()) -
                                           set(expected[trace].items()))))
            print("ok  " if len(problems) == before else "bad ", where,
                  flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
