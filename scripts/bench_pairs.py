"""Paired benchmark runs of a parent revision against a change.

    python3 scripts/bench_pairs.py --parent REV --pr N \
        --workload geom-nf:10:1001 --workload geom-q:4:1101 ... \
        [--change REV] [--claim TEXT] [--out BENCH_<N>.json]

Each ``--workload NAME:PAIRS:FIRST_SEED`` runs PAIRS pairs on the seeds
FIRST_SEED, FIRST_SEED + 1, ...  A pair is one run of
``perfbench/run.py --workload NAME --seed S --seconds T --trace 0`` on
each side, with T the ``run_seconds`` of ``BENCHMARK.json``, and each side
an export in a fresh directory: the parent from
``git archive REV``, the change from ``git archive`` of ``--change`` or,
by default, from the working tree (the tracked and the untracked files
that ``.gitignore`` does not exclude).  The side that runs first
alternates from pair to pair.  The result is written after every pair,
in the schema of ``BENCH_6.json``: per metric the median and quartiles
(inclusive method) of each side over the pairs, the number of pairs in
which the change is better and worse, the change of the median in
percent, the parent's interquartile range q3 - q1 (``parent_iqr``) and
``gain_rule_met``: the change is better in at least 9 of 10 pairs and
its median beats the parent's by more than ``parent_iqr`` (a gain is
claimed only over at least ten pairs, which ``pairs`` shows).  The
exports live in a temporary directory (under ``$TMPDIR``) that is
removed at the end.  Run it from the root of the repository, on a quiet
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def export_revision(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout.name} {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: dict, metrics: dict) -> dict:
    """One workload's entry from its pairs: runs[side] lists the results."""
    sides = ("parent", "change")
    out = {
        "seeds": runs["seeds"],
        "pairs": len(runs["seeds"]),
        "correct": all(r["correct"] for s in sides for r in runs[s]),
        "failed_per_run": {s: sorted({r["failed"] for r in runs[s]}) for s in sides},
        "attempted_per_run": {s: [r["attempted"] for r in runs[s]] for s in sides},
        "metrics": {},
    }
    for name, better in metrics.items():
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in sides}
        sign = 1 if better == "lower" else -1
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        entry = {s: quartiles(values[s]) for s in sides}
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        better = sum(d < 0 for d in diffs)
        parent_iqr = round(entry["parent"]["q3"] - entry["parent"]["q1"], 4)
        entry.update({
            "change_better_in_pairs": better,
            "change_worse_in_pairs": sum(d > 0 for d in diffs),
            "median_change_pct": round(100 * (change_median - parent_median) / parent_median, 1),
            "parent_iqr": parent_iqr,
            "gain_rule_met": 10 * better >= 9 * len(diffs)
            and sign * (parent_median - change_median) > parent_iqr,
        })
        out["metrics"][name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: working tree)")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:PAIRS:FIRST_SEED, repeatable")
    parser.add_argument("--claim", default="")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out_path = args.out or ROOT / f"BENCH_{args.pr}.json"
    plan = []
    for spec in args.workload:
        name, pairs, first = spec.split(":")
        plan.append((name, [int(first) + i for i in range(int(pairs))]))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    result = {
        "pr": args.pr,
        "parent": git("rev-parse", "--short", args.parent).strip(),
        "description": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            "--trace 0 on the parent and on the change, each from its files in a fresh "
            "directory, one pair per seed, the side that runs first alternating from "
            "pair to pair; medians and quartiles (inclusive method) over the pairs"
        ),
        "claim": args.claim,
        "machine": f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "run_seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_revision(args.parent, checkouts["parent"])
        if args.change:
            export_revision(args.change, checkouts["change"])
        else:
            export_working_tree(checkouts["change"])
        index = 0
        for name, seeds in plan:
            runs: dict = {"seeds": [], "parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                index += 1
                for side in order:
                    runs[side].append(run_once(checkouts[side], name, seed, seconds))
                runs["seeds"].append(seed)
                result["workloads"][name] = summarize(runs, metrics)
                out_path.write_text(json.dumps(result, indent=1) + "\n")
                pass_s = [runs[s][-1]["metrics"]["pass_s"]["value"] for s in ("parent", "change")]
                print(f"{name} seed {seed}: pass_s {pass_s[0]:.4f} -> {pass_s[1]:.4f}",
                      file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
