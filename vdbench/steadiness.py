#!/usr/bin/env python3
"""Two-set steadiness check of the benchmark.

    python3 vdbench/steadiness.py

For every workload in BENCHMARK.json, runs `vdbench/run.py --trace 0`
once per seed, in two sets of ten seeds (1..10, then 11..20), and
reports per end-to-end metric the spread of each set's values
(inter-quartile range as a share of the median, `run.spread`) against
the metric's bound, and how far set 2's median moved from set 1's. A
spread at or under a third of the bound is marked steady. Exits 1 if
any run fails a check, any spread exceeds its bound, or any median
moved by more than its bound in either direction.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import spread  # noqa: E402

SEEDS = 10
SETS = 2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bad = False
    for wl in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            runs = []
            for seed in range(1 + k * SEEDS, 1 + (k + 1) * SEEDS):
                r = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True)
                if r.returncode != 0:
                    sys.exit(f"{wl} seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}")
                res = json.loads(r.stdout.strip().splitlines()[-1])
                if not res["correct"] or res["failed"]:
                    bad = True
                    print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
                runs.append(res["metrics"])
            sets.append(runs)
        print(f"== {wl}: {SETS} sets of {SEEDS} seeds", flush=True)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, line = [], f"  {name:<15}"
            for runs in sets:
                vals = [r[name]["value"] for r in runs]
                sp = spread(vals)
                meds.append(statistics.median(vals))
                flag = "steady" if sp <= bound / 3 else ("ok" if sp <= bound else "OVER")
                bad |= sp > bound
                line += f" median {meds[-1]:<12.6g} spread {sp:6.3f} ({flag:>6}, bound {bound})"
                line += "\n      runs: " + " ".join(f"{v:.4g}" for v in vals)
            shift = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
            bad |= abs(shift) > bound
            print(f"{line}\n      shift of set 2's median: {shift:+.3f}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
