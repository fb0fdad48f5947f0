"""Benchmark of the harbourne command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes the workload's
seeded documents, then runs passes for about S seconds.  A pass is one
fresh interpreter that imports harbourne from ``src/``, runs a warm-up
command (set-up) and then the workload's command list through
``harbourne.cli.main`` (the timed pass).  Every output is checked
against the independent oracles in ``oracles.py``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and the object holds the per-layer metrics.  Exits 2
without a result line when the program's sources are missing or a pass
cannot run.

Times are scaled to one reference speed of the machine: each stretch of
a pass or a set-up between two runs of ``passrun.probe()`` in the same
process counts ``REFERENCE_PROBE_S`` over the probes' mean time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# Set-up-only interpreters after each untraced pass, so that a run
# holds many set-ups spread over its window.
SETUP_ONLY_PASSES = 2
PASS_TIMEOUT_S = 150
# The time of passrun.probe() at the faster speed of the 2-vCPU Xeon
# virtual machine of README.md (its median over 30 s was 12.9 ms, its
# tenth percentile 9.6 ms).  A scaled time is what the stretch would
# have taken with the probe at this time.
REFERENCE_PROBE_S = 0.010


def seconds(interval: list, probes: list, scale: bool = True) -> float:
    """Time of ``interval`` outside the probes.  With ``scale``, each gap
    between two probes counts REFERENCE_PROBE_S over their mean time."""
    a, b = interval
    total = 0.0
    for (s0, e0), (s1, e1) in zip(probes, probes[1:]):
        lo, hi = max(a, e0), min(b, s1)
        if hi > lo:
            total += (hi - lo) * (2 * REFERENCE_PROBE_S / (e0 - s0 + e1 - s1) if scale else 1)
    return total


def pass_seconds(result: dict, scale: bool = True) -> float:
    return seconds(result["pass"], result["probes"], scale)


def setup_seconds(result: dict) -> float:
    return seconds(result["setup"], result["probes"])


class PassError(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if not (ROOT / "src" / "harbourne" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        bench = _Bench(wl, workdir, args)
        result = bench.traced() if args.trace else bench.untraced()
    except PassError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


class _Bench:
    def __init__(self, wl, workdir: Path, args):
        self.wl = wl
        self.workdir = workdir
        self.args = args
        self.verdicts: dict = {}
        self.attempted = self.failed = 0
        self.wrong: list = []
        self.count = 0
        commands = [c.argv for c in wl.commands]
        self.specs = {
            "pass": self._write_spec("pass", commands, False),
            "setup": self._write_spec("setup", [], False),
        }
        if args.trace:
            self.specs["traced"] = self._write_spec("traced", commands, True)

    def _write_spec(self, kind: str, commands: list, trace: bool) -> Path:
        path = self.workdir / f"spec-{kind}.json"
        trace_dir = HERE / "traces"
        spec = {
            "root": str(ROOT),
            "warmup": self.wl.warmup,
            "commands": commands,
            "trace": trace,
            "trace_path": str(trace_dir / f"{self.args.workload}-seed{self.args.seed}.spans"),
        }
        if trace:
            trace_dir.mkdir(exist_ok=True)
        path.write_text(json.dumps(spec))
        return path

    def run_pass(self, kind: str) -> dict:
        """One fresh interpreter: a "pass", a "traced" pass or a "setup" alone."""
        self.count += 1
        out_path = self.workdir / f"pass-{self.count}.json"
        cmd = [sys.executable, str(HERE / "passrun.py"), str(self.specs[kind]), str(out_path)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise PassError(f"a pass ran longer than {PASS_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(out_path.read_text())
        out_path.unlink()
        self._verify(result.pop("outputs"))
        return result

    def _verify(self, outputs: list) -> None:
        for i, (command, (rc, out, err)) in enumerate(zip(self.wl.commands, outputs)):
            key = (i, rc, out, err)
            if key not in self.verdicts:
                self.verdicts[key] = command.check(rc, out, err)
            verdict = self.verdicts[key]
            self.attempted += 1
            if verdict == "failed":
                self.failed += 1
            elif verdict != "ok":
                self.wrong.append(f"{' '.join(command.argv)}: {verdict}")

    def _loop(self, step, minimum: int) -> list:
        """Repeat ``step`` while the next one is expected to end in the window."""
        results = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(step())
            last = time.perf_counter() - t0
            if len(results) >= minimum and time.perf_counter() - start + last > self.args.seconds:
                return results

    def _report(self, metrics: dict) -> dict:
        for line in dict.fromkeys(self.wrong):
            print(f"wrong output: {line}", file=sys.stderr)
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }

    def untraced(self) -> dict:
        steps = self._loop(
            lambda: [self.run_pass("pass")] + [self.run_pass("setup") for _ in range(SETUP_ONLY_PASSES)],
            MIN_PASSES,
        )
        passes = [step[0] for step in steps]
        times = [pass_seconds(p) for p in passes]
        print(f"passes: {json.dumps(times)}", file=sys.stderr)
        print(f"raw passes: {json.dumps([pass_seconds(p, False) for p in passes])}", file=sys.stderr)
        return self._report({
            "setup_s": (statistics.median(setup_seconds(p) for step in steps for p in step), "s"),
            # the median of the scaled passes: see README.md, "The pass_s statistic"
            "pass_s": (statistics.median(times), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        })

    def traced(self) -> dict:
        import tracing

        pairs = self._loop(lambda: (self.run_pass("pass"), self.run_pass("traced")), 1)
        layers = [traced["layers"] for _, traced in pairs]
        metrics = {
            name: (statistics.median(layer[name] for layer in layers), unit)
            for name, unit in tracing.METRICS.items()
        }
        ratios = [pass_seconds(traced) / pass_seconds(plain) for plain, traced in pairs]
        metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
        return self._report(metrics)


if __name__ == "__main__":
    sys.exit(main())
