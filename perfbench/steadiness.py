"""Steadiness report: two sets of runs of one commit against the bounds.

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --report perfbench/results/steadiness-....json

Runs two sets of ten runs of ``run.py`` on every workload, each run with
another seed (101-110, then 201-210).  For each workload and end-to-end
metric the report prints each set's median and quartiles, the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, and how
far set 2's median moved from set 1's, in either direction.  Both must
stay within the bound, for every metric.  It also checks that the share
of failed commands is identical in every run.  Raw results go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_sets(spec: dict) -> dict:
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = 100 * (s + 1) + i + 1
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    sys.exit(f"{w} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                out.update(seed=seed, wall_s=wall,
                           passes=[l for l in proc.stderr.splitlines()
                                   if l.startswith(("passes:", "raw passes:"))])
                results[w][s].append(out)
                values = {m: round(v["value"], 4) for m, v in out["metrics"].items()}
                print(f"set {s + 1} {w} seed {seed}: {values} wall {wall:.1f}s", flush=True)
    return results


def report(spec: dict, results: dict) -> bool:
    ok = True
    for w, sets in results.items():
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        fractions = {f / a for f, a in shares}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{w}: {sum(len(r) for r in sets)} runs, correct={correct}, "
              f"failed shares {sorted(fractions)}")
        ok &= correct and len(fractions) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, runs in enumerate(sets):
                q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
                spread = (q3 - q1) / med
                line = (f"  {name:12s} set {s + 1}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                        f"spread {spread:.3f} (bound {bound}, {spread / bound:.2f} of it)")
                ok &= spread <= bound
                if first is None:
                    first = med
                else:
                    # the sets could as well have run in the other order, so the
                    # move counts from the better median in either direction
                    moved = (med - first) / first
                    line += f"; vs set 1: {moved:+.3f}"
                    ok &= max(med, first) / min(med, first) - 1 <= bound
                print(line)
    print("\nsteady" if ok else "\nNOT steady")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", type=Path, help="report on saved results instead of running")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.report:
        results = json.loads(args.report.read_text())
    else:
        results = run_sets(spec)
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / time.strftime("steadiness-%Y%m%d-%H%M%S.json")
        path.write_text(json.dumps(results, indent=1))
        print(f"results written to {path}")
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
