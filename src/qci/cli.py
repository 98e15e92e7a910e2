"""The qci command: file-based access to every operation.

All I/O is JSON with schema version "v": 1.  Output is canonical (sorted
keys, compact separators), so identical inputs give identical bytes.  Exit
codes: 0 success, 1 a validation failure with a witness, 2 malformed or
unsupported input, 3 an internal error (its traceback on stderr).  --seed
only randomizes test-harness data (random cochains in corpus-verify),
never an invariant computation.

Only what every command needs is imported up front: input digests
(hashlib) are computed for --manifest alone, and corpus-verify imports
its corpus and random generator when it runs.
"""

import argparse
import functools
import json
import sys
import time

from . import __version__
from .algebra import (CoeffGroup, IntUnit, Quandle, StructureError,
                      check_module, check_quandle, cyclic_shadow_module,
                      module_from_json, module_tables, orbits,
                      quandle_tables)
from .cohomology import (Cochain, DifferentialSpec, cohomology_basis,
                         is_cocycle, is_in_span, random_cochain,
                         transport_to_shadow)
from .coloring import enumerate_colorings, propagate_shadow
from .diagram import (checkerboard, compute_indices, parse_diagram,
                      r1_insert, r2_insert)
from .invariants import (FLAVORS, SHADOW, CocycleError, WeightMultiset,
                         check_refinable, invariant_multiset,
                         orbit_refined_multisets, weight_shadow,
                         weight_twisted)


def _sha256(data):
    import hashlib
    return hashlib.sha256(data).hexdigest()


class _Inputs:
    """Reads the input files, and with ``digest`` set records each one's
    digest for the reproducibility manifest.

    Paths of the form ``corpus:<name>`` resolve to the shipped corpus.
    """

    def __init__(self, digest):
        self.digests = {} if digest else None

    def read_json(self, path):
        if path.startswith("corpus:"):
            from importlib import resources
            raw = resources.files("qci.corpus").joinpath(
                f"{path[7:]}.json").read_bytes()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
        if self.digests is not None:
            self.digests[path] = _sha256(raw)
        try:
            return json.loads(raw)
        except ValueError as exc:
            # a syntax error, bytes in no JSON encoding, or an integer too
            # long to convert: bad input all the same
            raise StructureError(str(exc)) from None


def _dump(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _ints(text, flag, expects, count=None):
    """The comma-separated integers of a flag's value.  Anything else, or
    a list that is not ``count`` long, is refused with the message
    "<flag> expects <expects>"."""
    try:
        values = [int(x) for x in text.split(",")]
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    raise StructureError(f"{flag} expects {expects}")


def _parse_spec(text, coeff):
    l, r = _ints(text, "--spec", "two integers like 1,-1", 2)
    return DifferentialSpec(IntUnit(coeff, l), IntUnit(coeff, r))


def _parse_coeff(text):
    return CoeffGroup(_ints(text, "--coeff", "integer moduli like 3 or 2,4"))


# --module words for the symbolic shadow carriers: region colors in Z, or
# in the free abelian group on the quandle orbits
SYMBOLIC = ("Z", "orbitZ")


def _parse_module(text, inputs, quandle):
    if text in SYMBOLIC:
        raise StructureError(f"--module {text} is read only by "
                             "invariant --flavor shadow")
    if text.startswith("Z/"):
        k, = _ints(text[2:], "--module Z/k", "an integer k like Z/5", 1)
        return cyclic_shadow_module(quandle, k)
    return module_from_json(inputs.read_json(text), quandle)


def _exterior(parts, entries=1):
    """The exterior color read from --exterior: one integer, or for orbitZ
    an integer vector of the given length."""
    if len(parts) == entries:
        return parts
    raise StructureError("exterior color must be a single integer"
                         if entries == 1 else
                         f"exterior vector needs {entries} entries")


def _parse_target(text, flag):
    loop = text.startswith("loop:")
    j, = _ints(text[5:] if loop else text, flag,
               "a semi-arc id or loop:j like 3 or loop:0", 1)
    return ("loop", j) if loop else j


# -- subcommands -------------------------------------------------------------

def cmd_check(args, inputs):
    data = inputs.read_json(args.file)
    if args.kind != "quandle" and not args.quandle:
        raise StructureError(f"checking a {args.kind} needs --quandle")
    if args.kind == "quandle":
        report = check_quandle(*quandle_tables(data))
        payload = {"v": 1, "kind": "quandle", "passed": report.passed}
    elif args.kind == "module":
        q = Quandle.from_json(inputs.read_json(args.quandle))
        report = check_module(q, *module_tables(data, q))
        payload = {"v": 1, "kind": "module", "passed": report.passed}
    else:
        q = Quandle.from_json(inputs.read_json(args.quandle))
        phi = Cochain.from_json(data, q)
        spec = _parse_spec(args.spec, phi.coeff)
        report = is_cocycle(spec, phi, quandle_flag=not args.no_quandle_flag)
        payload = {"v": 1, "kind": "cocycle", "passed": report.passed}
    if not report.passed:
        payload["axiom"] = report.axiom
        payload["witness"] = list(report.witness)
    return (0 if report.passed else 1), payload


def cmd_orbits(args, inputs):
    q = Quandle.from_json(inputs.read_json(args.quandle))
    om = orbits(q)
    return 0, {"v": 1, "count": om.count,
               "orbits": [list(o) for o in om.orbits]}


def cmd_regions(args, inputs):
    d = parse_diagram(inputs.read_json(args.diagram))
    return 0, {"v": 1, "count": d.n_regions,
               "exterior": d.exterior_region,
               "incidences": [[list(i) for i in inc]
                              for inc in d.region_incidences],
               "free_loop_disks": [d.loop_region(j)
                                   for j in range(len(d.free_loops))]}


def cmd_indices(args, inputs):
    d = parse_diagram(inputs.read_json(args.diagram))
    idx = compute_indices(d)
    return 0, {"v": 1, "exterior": idx.exterior,
               "totals": list(idx.totals),
               "per_component": [list(v) for v in idx.per_component],
               "checkerboard": list(checkerboard(d))}


def cmd_colorings(args, inputs):
    d = parse_diagram(inputs.read_json(args.diagram))
    q = Quandle.from_json(inputs.read_json(args.quandle))
    cols = enumerate_colorings(d, q)
    return 0, {"v": 1, "count": len(cols),
               "colorings": [list(c) for c in cols]}


def cmd_cohomology(args, inputs):
    q = Quandle.from_json(inputs.read_json(args.quandle))
    coeff = _parse_coeff(args.coeff)
    module = None
    if args.module:
        module = _parse_module(args.module, inputs, q)
    spec = _parse_spec(args.spec, coeff)
    if args.contains:
        # a mismatched cochain is refused before the basis is computed
        phi = Cochain.from_json(inputs.read_json(args.contains), q, module)
        for field, value in (("coeff", coeff), ("module", module),
                             ("degree", args.degree)):
            if getattr(phi, field) != value:
                raise StructureError(f"the --contains cochain's {field} "
                                     "differs from the command's")
    basis = cohomology_basis(spec, q, module, coeff, args.degree,
                             quandle_flag=not args.no_quandle_flag)
    payload = {"v": 1, "degree": args.degree,
               "cocycle_count": len(basis.cocycles),
               "coboundary_count": len(basis.coboundaries),
               "torsion": basis.torsion, "free_rank": basis.free_rank,
               "cocycles": [[list(v) for v in c.values]
                            for c in basis.cocycles],
               "coboundaries": [[list(v) for v in c.values]
                                for c in basis.coboundaries]}
    if args.contains:
        payload["contains"] = {
            "cocycle": is_in_span(basis.cocycles, phi),
            "coboundary": is_in_span(basis.coboundaries, phi)}
    return 0, payload


def cmd_invariant(args, inputs):
    d = parse_diagram(inputs.read_json(args.diagram))
    q = Quandle.from_json(inputs.read_json(args.quandle))
    symbolic = args.module in SYMBOLIC
    if symbolic and args.flavor != "shadow":
        raise StructureError(f"--module {args.module} applies to --flavor "
                             f"shadow only, not {args.flavor}")
    if args.refine_orbits:
        check_refinable(args.flavor)
    module = (_parse_module(args.module, inputs, q)
              if args.module and not symbolic else None)
    omega = Cochain.from_json(inputs.read_json(args.cocycle), q, module)
    alphas = (_ints(args.alpha_per_orbit, "--alpha-per-orbit",
                    "integer units like 2,3")
              if args.alpha_per_orbit else None)
    exterior = _ints(args.exterior or "0", "--exterior",
                     "integers like 0 or 1,2")
    kwargs = {"alpha": args.alpha, "alphas": alphas, "check": not args.force}
    payload = {"v": 1}
    if args.refine_orbits:
        # one coloring pass: the whole multiset is the sum of the parts
        parts = orbit_refined_multisets(d, q, args.flavor, omega, **kwargs)
        payload["refined"] = [
            {"orbits": list(key), "weights": part.to_json()["weights"]}
            for key, part in parts.items()]
        ms = WeightMultiset.from_counts(
            pair for part in parts.values() for pair in part.weights)
    elif symbolic:
        # the file holds a twisted (per-orbit twisted) cocycle w.  At
        # exterior color e, its shadow transport alpha^-m w weighs alpha^-e
        # (prod_O u_O^-e_O) times its twisted weight, so that plan gates
        # and weighs the file.
        flavor, units = (("twisted", [args.alpha]) if args.module == "Z"
                         else ("link_twisted", alphas))
        ms = invariant_multiset(d, q, flavor, omega, **kwargs)
        for u, k in zip(units, _exterior(exterior, len(units))):
            ms = ms.scaled(IntUnit(omega.coeff, u), -k)
    else:
        if args.flavor in SHADOW:
            kwargs["exterior"] = _exterior(exterior)[0]
        ms = invariant_multiset(d, q, args.flavor, omega, **kwargs)
    # flavor-specific arguments stay out of the payload so that flavors
    # that provably coincide produce identical bytes
    payload["total"] = ms.total()
    payload["weights"] = ms.to_json()["weights"]
    return 0, payload


def cmd_rmove(args, inputs):
    d = parse_diagram(inputs.read_json(args.diagram))
    if args.move == "r1":
        res = r1_insert(d, _parse_target(args.target, "--target"),
                        args.chirality, args.side)
    else:
        if not args.target2:
            raise StructureError("r2 needs --target2")
        res = r2_insert(d, _parse_target(args.target, "--target"),
                        _parse_target(args.target2, "--target2"))
    return 0, res.diagram.to_json()


def cmd_corpus_verify(args, inputs):
    import random
    from . import corpus as corpus_pkg
    from .algebra import make_dihedral
    from .cohomology import cocycle_basis, differential
    rng = random.Random(args.seed)
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, 2)
    omega = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)[0]
    shadow = transport_to_shadow(omega, [alpha])
    failures = []
    checks = 0
    for name in corpus_pkg.BASE_DIAGRAMS:
        base = corpus_pkg.load(name)
        ms = invariant_multiset(base, q, "twisted", omega, alpha=2,
                                check=False)
        variants = []
        if base.crossings:
            variants.append(r1_insert(base, base.semiarcs[0], 1, "left"))
            variants.append(r1_insert(base, base.semiarcs[0], -1, "right"))
        else:
            variants.append(r1_insert(base, ("loop", 0), 1, "left"))
            if len(base.free_loops) > 1:
                variants.append(r2_insert(base, ("loop", 0), ("loop", 1)))
        for res in variants:
            other = invariant_multiset(res.diagram, q, "twisted", omega,
                                       alpha=2, check=False)
            checks += 1
            if other.weights != ms.weights:
                failures.append(f"{name}: r-move changed the twisted multiset")
        # twisted = shadow-of-transport, spot check per coloring
        for col in enumerate_colorings(base, q):
            ind = propagate_shadow(base, col, shadow.module, 0)
            checks += 1
            if weight_twisted(base, col, omega, alpha, check=False) != \
                    weight_shadow(base, ind, shadow, check=False):
                failures.append(f"{name}: twisted/shadow identity broke")
        # random coboundaries weigh zero
        for _ in range(args.samples):
            theta = random_cochain(rng, q, None, A, 1)
            db = differential(DifferentialSpec.twisted(A, 2), theta)
            dms = invariant_multiset(base, q, "twisted", db, alpha=2,
                                     check=False)
            checks += 1
            if any(v != A.zero() for v, _ in dms.weights):
                failures.append(f"{name}: coboundary weight is nonzero")
    for a, b in corpus_pkg.R3_PAIRS:
        checks += 1
        ma = invariant_multiset(corpus_pkg.load(a), q, "twisted", omega,
                                alpha=2, check=False)
        mb = invariant_multiset(corpus_pkg.load(b), q, "twisted", omega,
                                alpha=2, check=False)
        if ma.weights != mb.weights:
            failures.append(f"{a}/{b}: R3 pair disagrees")
    payload = {"v": 1, "checks": checks, "failures": failures,
               "passed": not failures}
    return (0 if not failures else 1), payload


@functools.cache
def build_parser():
    # built on first use and kept: argparse parsers are not changed by
    # parse_args, and building one takes milliseconds
    p = argparse.ArgumentParser(prog="qci",
                                description="quandle cocycle invariants")
    p.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest",
                        help="write a reproducibility manifest to this path")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    c = add("check", "validate a quandle/module/cocycle file")
    c.add_argument("--kind", required=True,
                   choices=["quandle", "module", "cocycle"])
    c.add_argument("--file", required=True)
    c.add_argument("--quandle", help="quandle file (module/cocycle checks)")
    c.add_argument("--spec", default="1,1", help="l,r differential weights")
    c.add_argument("--no-quandle-flag", action="store_true",
                   help="drop the degenerate-vanishing condition")
    c.set_defaults(fn=cmd_check)

    c = add("orbits", "orbit decomposition of a quandle")
    c.add_argument("--quandle", required=True)
    c.set_defaults(fn=cmd_orbits)

    c = add("regions", "faces of a diagram")
    c.add_argument("--diagram", required=True)
    c.set_defaults(fn=cmd_regions)

    c = add("indices", "region index tables")
    c.add_argument("--diagram", required=True)
    c.set_defaults(fn=cmd_indices)

    c = add("colorings", "enumerate arc colorings")
    c.add_argument("--diagram", required=True)
    c.add_argument("--quandle", required=True)
    c.set_defaults(fn=cmd_colorings)

    c = add("cohomology", "cocycle/coboundary bases")
    c.add_argument("--quandle", required=True)
    c.add_argument("--module", help="module file, or Z, Z/k, orbitZ")
    c.add_argument("--coeff", required=True, help="moduli like 3 or 2,4")
    c.add_argument("--spec", default="1,1")
    c.add_argument("--degree", type=int, default=2)
    c.add_argument("--no-quandle-flag", action="store_true",
                   help="drop the degenerate-vanishing condition")
    c.add_argument("--contains", help="cochain file to test for membership")
    c.set_defaults(fn=cmd_cohomology)

    c = add("invariant", "weight multiset of a diagram")
    c.add_argument("--flavor", required=True, choices=FLAVORS)
    c.add_argument("--diagram", required=True)
    c.add_argument("--quandle", required=True)
    c.add_argument("--cocycle", required=True)
    c.add_argument("--module", help="module file, or Z, Z/k, orbitZ")
    c.add_argument("--alpha", type=int)
    c.add_argument("--alpha-per-orbit")
    c.add_argument("--exterior", help="exterior region color (vector)")
    c.add_argument("--refine-orbits", action="store_true")
    c.add_argument("--force", action="store_true",
                   help="skip the cocycle gate (shows non-invariance)")
    c.set_defaults(fn=cmd_invariant)

    c = add("rmove", "apply a Reidemeister rewrite")
    c.add_argument("--diagram", required=True)
    c.add_argument("--move", required=True, choices=["r1", "r2"])
    c.add_argument("--target", required=True, help="semi-arc id or loop:j")
    c.add_argument("--target2", help="second target (r2)")
    c.add_argument("--chirality", type=int, default=1, choices=[1, -1])
    c.add_argument("--side", default="left", choices=["left", "right"])
    c.set_defaults(fn=cmd_rmove)

    c = add("corpus-verify",
            "run the identity suite over the shipped corpus")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--samples", type=int, default=3,
                   help="random coboundaries per diagram")
    c.set_defaults(fn=cmd_corpus_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = _Inputs(args.manifest)
    start = time.monotonic()
    try:
        code, payload = args.fn(args, inputs)
        text = _dump(payload)
        if args.manifest:
            # written before the payload, so that an unwritable path is
            # exit 2 with nothing on stdout
            manifest = {"v": 1,
                        "command": argv if argv is not None else sys.argv[1:],
                        "inputs": inputs.digests,
                        "library_version": __version__,
                        "output_sha256": _sha256(text.encode()),
                        "wall_time_s": round(time.monotonic() - start, 6)}
            with open(args.manifest, "w") as fh:
                fh.write(_dump(manifest))
    except CocycleError as exc:
        out = _dump({"v": 1, "passed": False, "error": "cocycle",
                     "flavor": exc.flavor, "axiom": exc.report.axiom,
                     "witness": list(exc.report.witness)})
        sys.stdout.write(out)
        return 1
    except (StructureError, OSError) as exc:
        sys.stderr.write(_dump({"v": 1, "error": str(exc)}))
        return 2
    except Exception:
        # not bad input: a fault in qci itself, reported as such
        import traceback
        traceback.print_exc()
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
