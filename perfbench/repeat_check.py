"""Check that two runs with the same seed repeat exactly.

    python3 perfbench/repeat_check.py --workload cloud --seed 3 --seconds 25

Runs run.py twice with --trace 1 and twice with --trace 0.  The traced
runs must agree exactly on every count metric (calls, points, point
evaluations, bytes, the useful-work ratio) and on every artifact digest of
their fixed op list; the untraced runs must attempt and fail the same ops
and agree on every artifact digest.  Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = {"calls/op", "points/op", "B/op", "ratio"}


def run(args, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    work = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-seed{args.seed}-trace{trace}")
    with open(os.path.join(work, "digests.jsonl"), encoding="utf-8") as fh:
        digests = [json.loads(line) for line in fh]
    return result, digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()

    problems = []
    (r1, d1), (r2, d2) = run(args, 1), run(args, 1)
    for name, m in r1["metrics"].items():
        if m["unit"] in EXACT_UNITS and m["value"] != r2["metrics"][name]["value"]:
            problems.append(f"traced {name}: {m['value']} != "
                            f"{r2['metrics'][name]['value']}")
    if d1 != d2:
        problems.append("traced runs wrote different artifacts")
    exact = sum(m["unit"] in EXACT_UNITS for m in r1["metrics"].values())
    print(f"traced: {exact} count metrics and {len(d1)} ops of artifact "
          "digests compared")

    (e1, u1), (e2, u2) = run(args, 0), run(args, 0)
    for key in ("attempted", "failed"):
        if e1[key] != e2[key]:
            problems.append(f"untraced {key}: {e1[key]} != {e2[key]}")
    if u1 != u2:
        problems.append("untraced runs wrote different artifacts")
    print(f"untraced: attempted, failed and artifact digests of {len(u1)} "
          "ops compared")

    for line in problems:
        print("MISMATCH", line)
    print("repeat check", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
