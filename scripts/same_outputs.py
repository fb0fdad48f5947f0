"""Check that a change leaves every benchmark command's output unchanged.

    python3 scripts/same_outputs.py --parent REV [--change REV]

Both sides are exported as ``scripts/bench_pairs.py`` exports them: the
parent by ``git archive REV``, the change by ``git archive`` of
``--change`` or, by default, from the working tree.  Each side then runs,
in one fresh interpreter, every command of the four benchmark workloads
for the seeds 1, 2 and 3, warm-ups included, through its own
``perfbench/passrun.run_command``, in its own ``perfbench/workloads``
order.  Then it runs ``geom --machine`` on each document of
``ERROR_DOCS``, conic pairs and a line pair that ``geom`` refuses, so the
error paths are compared too, two of them with ``p/q`` coefficients, and
on each of ``FRACTION_DOCS``, which succeed with ``p/q`` coefficients, so
that clearing denominators is compared: 654 benchmark, 10 error and 4
fractional commands in all.
The exit code, stdout and stderr of each command are compared
between the sides, with the directory of the workload documents and the
checkout's root written the same way on both (the ``cli`` parse-error
command prints a document's path).  The script prints how many commands
match, lists the first that differ, and exits 1 if any differs.  The
exports live in a temporary directory (under ``$TMPDIR``) that is
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_revision, export_working_tree  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
import oracles  # noqa: E402
from workloads import CREMONA_LINES, NF_FIELDS, SEVEN_POINTS, SQRT5_SIX_POINTS  # noqa: E402

SEEDS = (1, 2, 3)
SHOWN = 10

_Q = {"kind": "rational"}
_SQRT5 = {"kind": "number-field", "min_poly": [-5, 0, 1]}
_F = [1, 0, 0, 0, 0, -1]  # X^2 - YZ, through (0:0:1) with tangent Y = 0


def _conics(field, *coeffs):
    return {"field": field, "curves": [{"type": "conic", "coeffs": c} for c in coeffs]}


def _rational(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scaled(kind, curves, field=_Q):
    """A document of integer curves, curve i times (-1)^i (2i+3)/(i+2); over
    a number field each coefficient is a list of integers."""
    out = []
    for i, c in enumerate(curves):
        s = Fraction((-1) ** i * (2 * i + 3), i + 2)
        out.append({"type": kind, "coeffs": [
            [_rational(s * y) for y in x] if isinstance(x, list) else _rational(s * x)
            for x in c]})
    return {"field": field, "curves": out}


# Documents that geom refuses, written the same way for both sides.  The
# second conic of each pair is X^2 - YZ plus a multiple of Y = 0 times a
# line: through (1:1:1) and (2:4:1) (tangent), through (0:0:1) and (1:1:1)
# (osculating).  The outside pair meets in (+-sqrt 2 : +-1 : 1).  The
# completed pair is tangent at a point that the first conic finds with both.
# The scaled osculating and outside pairs over Q, each conic times its own
# p/q, meet where the lines of one split pencil member meet the first conic.
ERROR_DOCS = {
    "tangent-q": _conics(_Q, _F, [1, 1, 0, -3, 0, 1]),
    "tangent-sqrt5": _conics(_SQRT5, _F, [1, [0, 1], 0, [0, -3], 0, [-1, 2]]),
    "osculating-q": _conics(_Q, _F, [1, 1, 0, -1, 0, -1]),
    "osculating-sqrt5": _conics(_SQRT5, _F, [1, [0, 1], 0, [0, -1], 0, -1]),
    "outside-q": _conics(_Q, [1, 1, -3, 0, 0, 0], [-1, 1, 1, 0, 0, 0]),
    "outside-sqrt5": _conics(_SQRT5, [1, 1, -3, 0, 0, 0], [-1, 1, 1, 0, 0, 0]),
    "osculating-q-scaled": _scaled("conic", [_F, [1, 1, 0, -1, 0, -1]]),
    "outside-q-scaled": _scaled("conic", [[1, 1, -3, 0, 0, 0], [-1, 1, 1, 0, 0, 0]]),
    "completed-tangent-q": _conics(_Q, [6, 1, 0, -6, -6, 5], _F, [1, 1, 0, -3, 0, 1]),
    "proportional": {"field": _Q, "curves": [{"type": "line", "coeffs": [1, 2, 3]},
                                             {"type": "line", "coeffs": ["1/2", 1, "3/2"]}]},
}


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


_SQRT5_POINTS = [tuple(map(oracles.Field(NF_FIELDS["sqrt5"]), p)) for p in SQRT5_SIX_POINTS]

# Documents that geom accepts, with p/q coefficients: the 21 conics
# through 5-subsets of SEVEN_POINTS, the seven sides of the heptagon
# they span and the diagonal from the first to the fourth, the Cremona
# images a*YZ + b*XZ + c*XY of CREMONA_LINES, and over Q(sqrt 5) the 15
# lines through two of SQRT5_SIX_POINTS, whose crossings are points whose
# lead coordinate is not 1 until it is divided out.
FRACTION_DOCS = {
    "seven-point-conics": _scaled("conic", [
        [int(x.c[0]) for x in oracles.conic_through(
            [tuple(map(oracles.Field(), p)) for p in five])]
        for five in combinations(SEVEN_POINTS, 5)]),
    "eight-lines": _scaled("line", [
        _cross(p, q) for p, q in zip(SEVEN_POINTS, SEVEN_POINTS[1:] + SEVEN_POINTS[:1])
    ] + [_cross(SEVEN_POINTS[0], SEVEN_POINTS[3])]),
    "cremona-conics": _scaled("conic", [[0, 0, 0, c, b, a] for a, b, c in CREMONA_LINES]),
    "sqrt5-lines": _scaled("line", [
        [[int(c) for c in x.c] for x in oracles.cross(p, q)]
        for p, q in combinations(_SQRT5_POINTS, 2)], _SQRT5),
}

# Runs in a fresh interpreter: argv is ROOT DOCS OUT and the seeds; the
# error and fractional documents are DOCS/errors/*.json and
# DOCS/fractions/*.json.
_DUMP = """
import json, os, sys
from pathlib import Path
root, docs, out, *seeds = sys.argv[1:]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import passrun, workloads
from harbourne import cli
rows = []
for name in workloads.WORKLOADS:
    for seed in map(int, seeds):
        wl = workloads.build(name, seed, Path(docs, f"{name}-{seed}"))
        for index, argv in enumerate([wl.warmup] + [c.argv for c in wl.commands]):
            rc, stdout, stderr = passrun.run_command(cli, argv)
            rows.append({"workload": name, "seed": seed, "index": index, "argv": argv,
                         "rc": rc, "stdout": stdout, "stderr": stderr})
for group in ("errors", "fractions"):
    for path in sorted(Path(docs, group).glob("*.json")):
        argv = ["geom", str(path), "--machine"]
        rc, stdout, stderr = passrun.run_command(cli, argv)
        rows.append({"workload": group, "seed": 0, "index": path.stem, "argv": argv,
                     "rc": rc, "stdout": stdout, "stderr": stderr})
with open(out, "w", encoding="utf-8") as fh:
    json.dump(rows, fh)
"""


def dump(checkout: Path, docs: Path, out: Path) -> list:
    """Every command's (exit code, stdout, stderr) on one side, with the
    document directory written as ``<docs>`` and the checkout as ``<root>``."""
    for group, written in (("errors", ERROR_DOCS), ("fractions", FRACTION_DOCS)):
        (docs / group).mkdir(parents=True)
        for name, doc in written.items():
            (docs / group / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", _DUMP, str(checkout), str(docs), str(out),
         *map(str, SEEDS)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout.name}: the commands did not run: "
                         f"{proc.stderr.strip()[-2000:]}")
    text = out.read_text(encoding="utf-8")
    for path, name in ((docs, "<docs>"), (checkout, "<root>")):
        # paths as they appear inside JSON strings
        text = text.replace(json.dumps(str(path))[1:-1], name)
    return json.loads(text)


def compare(parent: list, change: list) -> tuple[int, list[str]]:
    """(matching commands, one line per differing command) of two dumps."""
    same, diffs = 0, []
    for p, c in zip(parent, change):
        where = f"{p['workload']} seed {p['seed']} #{p['index']}: {' '.join(p['argv'])}"
        if [p[k] for k in ("workload", "seed", "index", "argv")] != [
            c[k] for k in ("workload", "seed", "index", "argv")
        ]:
            diffs.append(f"{where}: the change runs {' '.join(c['argv'])} here")
            continue
        fields = [k for k in ("rc", "stdout", "stderr") if p[k] != c[k]]
        if fields:
            diffs.append(f"{where}: {', '.join(fields)} differ")
        else:
            same += 1
    if len(parent) != len(change):
        diffs.append(f"the parent runs {len(parent)} commands, the change {len(change)}")
    return same, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        dumps = {}
        for side in ("parent", "change"):
            checkout = Path(tmp) / side
            rev = args.parent if side == "parent" else args.change
            if rev:
                export_revision(rev, checkout)
            else:
                checkout.mkdir()
                export_working_tree(checkout)
            dumps[side] = dump(checkout, Path(tmp) / f"{side}-docs", Path(tmp) / f"{side}.json")
    same, diffs = compare(dumps["parent"], dumps["change"])
    total = max(len(dumps["parent"]), len(dumps["change"]))
    print(f"{same} of {total} commands byte-identical (workloads x seeds "
          f"{', '.join(map(str, SEEDS))}, warm-ups included, "
          f"{len(ERROR_DOCS)} error and {len(FRACTION_DOCS)} fractional documents)")
    for line in diffs[:SHOWN]:
        print("  " + line)
    if len(diffs) > SHOWN:
        print(f"  ... and {len(diffs) - SHOWN} more")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
