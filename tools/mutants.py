"""Hand mutants of qci, each run against tier-1 on a temporary copy.

Each mutant is one ``(file, old, new, reason)`` text replacement that
must apply exactly once; a mutant that matches zero or several places is
refused before anything runs.  For each mutant the repository (without
``.git``) is copied to a temporary directory, the replacement is made,
and tier-1 runs there with ``-x``.  The mutant is killed when the run
fails; the first failing test is named.  The result is printed as JSON,
and the run exits 1 when any mutant survives.

Run from anywhere (stdlib only):

    python3 tools/mutants.py            # run every mutant (one tier-1 each)
    python3 tools/mutants.py --check    # only check that each applies once

This stays out of tier-1: a surviving mutant costs a full tier-1 run.
"""

import argparse
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

MUTANTS = [
    ("src/qci/invariants.py",
     '"positive": -1}',
     '"positive": 1}',
     "the positive flavor twists by the unit 1 instead of -1"),
    ("src/qci/invariants.py",
     "tuple(-e for e in per[g.source_region])",
     "tuple(e for e in per[g.source_region])",
     "the twisting exponent is +e_j(x), not -e_j(x)"),
    ("src/qci/invariants.py",
     "sum(u[r][k] * coef[k][c] for k in range(d))",
     "sum(coef[r][k] * u[k][c] for k in range(d))",
     "the units compose in the reverse order"),
    ("src/qci/cohomology.py",
     "if v != zero and _degenerate_args(args):",
     "if False and v != zero and _degenerate_args(args):",
     "the cocycle gate skips the degenerate-entry check"),
    ("src/qci/modlinalg.py",
     "            syz[j] -= t\n            rels.append(syz)\n",
     "            syz[j] -= t\n",
     "the quotient drops the Howell basis's annihilator syzygies"),
    ("src/qci/coloring.py",
     "if colors[c] != apply(colors[a], colors[b]):",
     "if False:",
     "the search skips the crossings a level completes"),
    ("src/qci/invariants.py",
     "table[(regions[src] * n + arcs[a]) * n + arcs[b]]",
     "table[(regions[src] * n + arcs[b]) * n + arcs[a]]",
     "the weight reads the cocycle at (b, a) instead of (a, b)"),
    ("src/qci/coloring.py",
     "ids = {orbit_map.of(arc_colors[a]) for a in arcs}",
     "ids = {orbit_map.of(arc_colors[a]) for a in arcs[:1]}",
     "component_orbits reads only the first arc of each component"),
    ("src/qci/diagram.py",
     "else (x.rot[2], x.rot[0])",
     "else (x.rot[0], x.rot[2])",
     "a and c of the crossing relation swap at negative crossings"),
    ("src/qci/coloring.py",
     "ops = (quandle.unapply, apply)",
     "ops = (apply, apply)",
     "the search derives a = c |>^-1 b with |> instead"),
    ("src/qci/diagram.py",
     "source_region=quads[0] if x.sign > 0 else quads[1]",
     "source_region=quads[0] if x.sign < 0 else quads[1]",
     "the source quadrant is taken by the wrong sign"),
    ("src/qci/coloring.py",
     "colors[c] == quandle.apply(colors[a], colors[b])",
     "colors[c] == quandle.unapply(colors[a], colors[b])",
     "is_coloring tests c = a |>^-1 b"),
    ("src/qci/algebra.py",
     "orbit_of = om.index",
     "orbit_of = [0] * q.n",
     "orbit_shadow_module puts every color in orbit 0 whatever the number "
     "of orders"),
    ("src/qci/cohomology.py",
     "link_twisted(alphas, orbits(phi.quandle))",
     "link_twisted(alphas[::-1], orbits(phi.quandle))",
     "the link-twisted gate pairs the units with the orbits in reverse"),
    ("src/qci/cohomology.py",
     "    if spec.group != coeff:",
     "    if False:",
     "the bases, gates and differentials take a spec over another group"),
    ("src/qci/invariants.py",
     "DifferentialSpec.link_twisted(units, orbits(omega.quandle))",
     "DifferentialSpec.link_twisted(units[::-1], orbits(omega.quandle))",
     "the flavor gate pairs the units with the orbits in reverse"),
    ("src/qci/invariants.py",
     'if flavor == "link_twisted":\n            # a per-orbit witness',
     'if True:\n            # a per-orbit witness',
     "every flavor's witness drops the module slot"),
    ("src/qci/invariants.py",
     "_compile(diagram, not all(",
     "_compile(diagram, not any(",
     "the plan skips the region walk when any unit, not every unit, is "
     "the identity"),
    ("src/qci/invariants.py",
     "weighed = self.compiled.get(units)",
     "weighed = next(iter(self.compiled.values()), None)",
     "the plan shares compiled sums between unit tuples that differ"),
    ("src/qci/diagram.py",
     "for target, source, arc in diagram.region_checks:",
     "for target, source, arc in ():",
     "region propagation skips the steps off the walk"),
    ("src/qci/diagram.py",
     "(forward if fwd else backward)(values[source]",
     "(forward if fwd else forward)(values[source]",
     "a backward walk step is derived with the forward map"),
    ("src/qci/diagram.py",
     "        if len(order) != self.n_regions:",
     "        if False:",
     "a rotation system whose walk misses a region is accepted"),
    ("src/qci/algebra.py",
     "        if not report:\n            raise StructureError(\n"
     '                f"not a module',
     "        if False:\n            raise StructureError(\n"
     '                f"not a module',
     "TableModule skips the shared self-distributivity check"),
    ("src/qci/algebra.py",
     "    return _self_distributivity(op, op)",
     "    return AxiomReport(True)",
     "the quandle axioms skip the shared self-distributivity check"),
    ("src/qci/coloring.py",
     "            stack.pop()",
     "            stack.clear()",
     "the search clears the stack where it should pop one level"),
    ("src/qci/coloring.py",
     "elif not all(sa in result.acted for sa in arc):",
     "elif True:",
     "transport pins the arcs a move acts on as well"),
    ("src/qci/invariants.py",
     "        if check:\n            validate_cocycle(",
     "        if False:\n            validate_cocycle(",
     "the compiled state sum skips the cocycle gate"),
    ("src/qci/invariants.py",
     "(scalar.apply(v, power), m) for v, m in self.weights)",
     "(scalar.apply(v, -power), m) for v, m in self.weights)",
     "a scaled multiset applies the inverse power of the scalar"),
    ("src/qci/cohomology.py",
     "inverses = [u.int_matrix(-1) for u in alphas]",
     "inverses = [u.int_matrix(1) for u in alphas]",
     "the per-orbit twisted differential weights by each unit, not its "
     "inverse"),
    ("src/qci/coloring.py",
     "levels[0] = (root, [orbit[0] for orbit in orbits], *levels[0][2:])",
     "levels[0] = (root, range(quandle.n), *levels[0][2:])",
     "the search tries every first-arc color and still transports, so it "
     "yields colorings twice"),
    ("src/qci/coloring.py",
     "yield tuple([g[x] for x in found])",
     "tuple([g[x] for x in found])",
     "the search drops the colorings transported to the rest of an orbit"),
    ("src/qci/invariants.py",
     "        if check:\n            self.multiplicity",
     "        if True:\n            self.multiplicity",
     "the plan weighs one coloring per orbit without the gate (--force)"),
    ("src/qci/invariants.py",
     "self.multiplicity[orbit[0]] = len(orbit)",
     "self.multiplicity[orbit[0]] = 1",
     "the plan counts one coloring's weight once, not once per coloring "
     "of its orbit"),
    ("src/qci/invariants.py",
     "self.tables.setdefault(coef, _Products(coef, values))",
     "self.tables.setdefault(sign, _Products(coef, values))",
     "the plan keys its product tables by the crossing sign alone, so "
     "crossings with different twists share one table"),
    ("src/qci/invariants.py",
     "zip(coeff.zero(), *terms)",
     "zip(*terms)",
     "the per-coordinate sum does not start from zero, so a diagram with "
     "no crossings weighs the empty tuple"),
    ("src/qci/modlinalg.py",
     "for c in sorted(c for c in piv if c > j):",
     "for c in ():",
     "the new row is not reduced against the installed pivots"),
    ("src/qci/modlinalg.py",
     "            if c < j:\n                q = other.get(j, 0) // p",
     "            if False:\n                q = other.get(j, 0) // p",
     "column j is not cleared from the earlier pivot rows"),
    ("src/qci/modlinalg.py",
     "aug[c][left + j] = n - v if n else -v",
     "aug[c][left + j] = v",
     "the kernel lifts through the unit rows with the wrong sign"),
    ("src/qci/modlinalg.py",
     "unit = {j for j, row in h.items() if row[j] == 1}",
     "unit = {j for j, row in h.items() if row[j] in (1, 2)}",
     "the kernel reads a pivot 2 as a unit: its row is lifted through, "
     "not solved in the residual system"),
    ("src/qci/modlinalg.py",
     "aug = {c: {left + c: 1} for c in",
     "aug = {c: {} for c in",
     "the kernel's lift block drops its identity entries, so it keeps "
     "only the unit rows' part of each kernel vector"),
    ("src/qci/modlinalg.py",
     "return None if v else coords",
     "return coords",
     "coordinates over a Howell basis ignore the leftover, so a vector "
     "outside the span reads as a member"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"]
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def check(root, mutants):
    """Refuse (with SystemExit) any mutant that does not apply exactly
    once under ``root``; a missing file counts as zero matches."""
    bad = []
    for i, (path, old, _new, reason) in enumerate(mutants):
        target = pathlib.Path(root) / path
        found = target.read_text().count(old) if target.is_file() else 0
        if found != 1:
            bad.append(f"mutant {i} ({reason}): {path} matches "
                       f"{found} times, not once")
    if bad:
        raise SystemExit("\n".join(bad))


def run_one(root, mutant):
    """Copy ``root``, apply one mutant and run tier-1 there with -x."""
    path, old, new, reason = mutant
    with tempfile.TemporaryDirectory(prefix="qci-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_out"))
        target = copy / path
        target.write_text(target.read_text().replace(old, new, 1))
        env = dict(os.environ, PYTHONPATH="src",
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(TIER1, cwd=copy, env=env, text=True,
                                  capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            killed, killer = True, f"timeout after {TIMEOUT_S} s"
        else:
            killed = proc.returncode != 0
            first = FAILED.search(proc.stdout)
            killer = (first.group(1) if first else
                      f"exit {proc.returncode}") if killed else None
    return {"file": path, "reason": reason,
            "status": "killed" if killed else "survived",
            "killed_by": killer,
            "seconds": round(time.perf_counter() - start, 1)}


def run(root, mutants):
    """Check every mutant, then run each; returns the JSON report."""
    check(root, mutants)
    results = [dict(index=i, **run_one(root, m))
               for i, m in enumerate(mutants)]
    killed = sum(r["status"] == "killed" for r in results)
    return {"killed": killed, "total": len(results), "mutants": results}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="only check that every mutant applies exactly once")
    args = ap.parse_args(argv)
    if args.check:
        check(ROOT, MUTANTS)
        print(json.dumps({"mutants": len(MUTANTS), "apply_once": True}))
        return
    report = run(ROOT, MUTANTS)
    print(json.dumps(report, indent=2))
    return 0 if report["killed"] == report["total"] else 1


if __name__ == "__main__":
    sys.exit(main())
