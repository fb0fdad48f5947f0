"""One pass in a fresh interpreter: set up, run the command list, report.

Usage: python3 passrun.py SPEC.json RESULT.json

SPEC names the checkout root, the warm-up command, the commands and
whether to trace.  The untraced pass imports nothing of the benchmark
but this file, so the end-to-end figures come from unpatched code.

The process times ``probe()``, a fixed run of list reads that does no
work of the program, before set-up, after it, every ``PROBE_GAP_S``
seconds of the pass (from a timer signal, so also inside a long command)
and at its end.  The result holds the set-up and pass intervals and every probe's
interval; the runner scales each stretch between two probes to one
reference speed of the machine (see README.md, "The pass_s statistic").
"""

import contextlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback

PROBE_GAP_S = 0.4
# The probe reads random entries of a list larger than the processor's
# caches.  Of the probes measured (README.md, "The pass_s statistic") it
# follows the speed of every workload most closely.
PROBE_TABLE_LEN = 1_000_000
PROBE_READS = 12_000


def probe_table() -> list:
    return [i * 7 for i in range(PROBE_TABLE_LEN)]


def resident_kb() -> int:
    """The resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def probe(table: list) -> float:
    """Seconds this process takes for a fixed run of random list reads."""
    t0 = time.perf_counter()
    rng = random.Random(5)
    n = len(table)
    s = 0
    for _ in range(PROBE_READS):
        s += table[rng.randrange(n)]
    return time.perf_counter() - t0


def run_command(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught program error fails this command only
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    probes = []  # [start, end] of every probe, perf_counter seconds
    rss_kb = resident_kb()
    table = probe_table()
    # the table stays resident to the end; its size is taken off the peak
    table_kb = resident_kb() - rss_kb

    def timed_probe(*_):
        start = time.perf_counter()
        probes.append([start, start + probe(table)])

    timed_probe()
    setup_start = time.perf_counter()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    from harbourne import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported harbourne from {cli.__file__}, not from {src}")
    rc, out, err = run_command(cli, spec["warmup"])
    if rc != 0:
        raise SystemExit(f"warm-up command failed with exit {rc}: {err}")
    setup = [setup_start, time.perf_counter()]
    timed_probe()
    if tracer is not None:
        tracer.reset()
    else:
        # a traced pass probes only at its ends, so that no probe falls
        # inside a span
        signal.signal(signal.SIGALRM, timed_probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)

    outputs = []
    pass_start = time.perf_counter()
    for argv in spec["commands"]:
        outputs.append(run_command(cli, argv))
    pass_end = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    timed_probe()

    result = {
        "probes": probes,
        "setup": setup,
        "pass": [pass_start, pass_end],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - table_kb,
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracer.finish(spec["trace_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
