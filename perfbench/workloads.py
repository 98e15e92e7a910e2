"""The four workloads: seeded inputs, the command list and its checks.

``build(name, seed, workdir)`` writes every input file into ``workdir``
and returns a Workload.  The seed picks braid words, units, exterior
colors, Reidemeister targets and cocycle combinations, never sizes; the
program sees only the generated files.  Cocycles come from the
benchmark's own kernel computation (cochains.py), so a seed gives the
same inputs whatever the program's linear algebra does.  qci reads the
shipped corpus, finds where an R2 move fits, and weighs candidate
cocycles so that ones whose weights all agree can be redrawn.

Each command carries the checks its output must pass (see checks.py).
A command marked ``fixed`` does not depend on the seed, so its recorded
output digest applies to every seed.
"""

import json
import math
import pathlib
import random

import braids
import cochains
from qci import corpus
from qci.algebra import Quandle
from qci.cohomology import Cochain
from qci.diagram import LEFT, RIGHT, parse_diagram
from qci.invariants import invariant_multiset

HERE = pathlib.Path(__file__).resolve().parent
STRANDS = 5

# Per-command budget in seconds.  The slowest command that passes takes
# well under a second here; the two known-defect cohomology commands run
# for minutes, so they hit it.
BUDGET_S = 3.0
# draws of a cocycle before one whose weights all agree is kept
ATTEMPTS = 3

# weigh: (n, t, braid length, colorings wanted) per quandle
WEIGH_LINKS = {"D4": (4, -1, 14, 256), "A8_3": (8, 3, 12, 512)}
# search: coefficient modulus of the classical cocycle per pool quandle
SEARCH_COEFF = {"D5": 5, "D7": 7, "A8_3": 4}


class Workload:
    def __init__(self, name, seed, workdir):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.dir = pathlib.Path(workdir)
        self.commands = []
        self.budget_s = BUDGET_S

    def file(self, name, data):
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        return str(path)

    def add(self, cid, argv, checks=(), fixed=False):
        self.commands.append({"id": cid, "argv": [str(a) for a in argv],
                              "checks": list(checks), "fixed": fixed})
        return cid


# -- shared input builders ----------------------------------------------------

def _quandle(wl, name, n, t):
    op = braids.affine(n, t)
    return op, wl.file(name, cochains.quandle_json(op))


def _weights_vary(op, flavor, data, diagrams, alpha, alphas):
    """Does qci give the cochain more than one weight on some diagram?"""
    q = Quandle(op)
    phi = Cochain.from_json(data, q)
    kwargs = {"check": False}
    if flavor in ("twisted", "shadow_twisted"):
        kwargs["alpha"] = alpha
    if flavor == "link_twisted":
        kwargs["alphas"] = alphas
    if flavor in ("shadow", "shadow_twisted"):
        kwargs["exterior"] = 0
    return any(len(invariant_multiset(parse_diagram(d), q, flavor, phi,
                                      **kwargs).weights) > 1
               for d in diagrams)


def _cocycle(wl, fname, op, n, flavor, diagrams=(), alpha=None,
             alphas=None, module=False):
    """A seeded degree-2 cocycle for the flavor over Z/n, written to a file.

    It is a seeded combination of the kernel generators from cochains.py,
    on the quandle acting on itself when ``module`` is set.  A draw is
    rejected while every weight comes out equal on each of ``diagrams``;
    after ATTEMPTS draws the last one stays, because on some inputs every
    cocycle of a flavor weighs the same.
    """
    action = op if module else None
    if flavor == "link_twisted":
        rows = cochains.link_twisted_rows(op, n, alphas)
    else:
        spec = {"positive": (1, -1), "twisted": (1, alpha),
                "shadow_twisted": (1, alpha)}.get(flavor, (1, 1))
        rows = cochains.differential_rows(op, action, 2, spec)
    gens = cochains.kernel_generators(
        rows, (len(op) if module else 1) * len(op) ** 2, n)
    for _ in range(ATTEMPTS if diagrams else 1):
        data = cochains.cochain_json(
            2, action, n, cochains.random_cocycle(wl.rng, gens, n))
        if diagrams and _weights_vary(op, flavor, data, diagrams, alpha,
                                      alphas):
            break
    return wl.file(fname, data)


def _orbit_count(op):
    return max(cochains.orbit_ids(op)) + 1


def _units(n):
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


def _orbit_units(wl, op, n):
    """Distinct units mod n for the quandle's orbits, in seeded order;
    equal units would make link_twisted plain twisted."""
    return wl.rng.sample(_units(n), _orbit_count(op))


def random_word(rng, length, want_components):
    """A braid word on every generator whose closure has the wanted
    number of components."""
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, STRANDS - 1)
                for _ in range(length)]
        if ({abs(x) for x in word} == set(range(1, STRANDS))
                and braids.components(word, STRANDS) == want_components):
            return word


# -- corpus ---------------------------------------------------------------------

def _rmove_targets(wl, data):
    """Seeded r1 target and r2 target pair for a corpus diagram."""
    d = parse_diagram(data)
    if not d.crossings:
        return "loop:0", ("loop:0", f"loop:{len(d.free_loops) - 1}")
    sas = list(d.semiarcs)
    r1 = wl.rng.choice(sas)
    pairs = [(a, b) for a in sas for b in sas if a != b
             and {d.side_region(a, s) for s in (LEFT, RIGHT)}
             & {d.side_region(b, s) for s in (LEFT, RIGHT)}]
    return r1, wl.rng.choice(pairs)


def build_corpus(wl):
    d3, d3f = _quandle(wl, "d3", 3, -1)
    d4, d4f = _quandle(wl, "d4", 4, -1)
    a = wl.rng.choice([2, 3])
    lt4 = _orbit_units(wl, d4, 4)
    diagrams = [corpus.load_json(name) for name in corpus.names()]
    files = {
        "c3": _cocycle(wl, "d3_classical_z3", d3, 3, "classical", diagrams),
        "p3": _cocycle(wl, "d3_positive_z3", d3, 3, "positive", diagrams),
        "t3": _cocycle(wl, "d3_twisted_z5", d3, 5, "twisted", diagrams,
                       alpha=a),
        "s3": _cocycle(wl, "d3_shadow_z3", d3, 3, "shadow", diagrams,
                       module=True),
        "c4": _cocycle(wl, "d4_classical_z4", d4, 4, "classical", diagrams),
        "st4": _cocycle(wl, "d4_shadow_twisted_z4", d4, 4, "shadow_twisted",
                        diagrams, alpha=3, module=True),
        "lt4": _cocycle(wl, "d4_link_twisted_z4", d4, 4, "link_twisted",
                        diagrams, alphas=lt4),
    }
    wl.add("check.c3", ["check", "--kind", "cocycle", "--file", files["c3"],
                        "--quandle", d3f], [("passed",)])
    wl.add("check.p3", ["check", "--kind", "cocycle", "--file", files["p3"],
                        "--quandle", d3f, "--spec", "1,-1"], [("passed",)])
    wl.add("check.t3", ["check", "--kind", "cocycle", "--file", files["t3"],
                        "--quandle", d3f, "--spec", f"1,{a}"], [("passed",)])
    wl.add("check.s3", ["check", "--kind", "cocycle", "--file", files["s3"],
                        "--quandle", d3f], [("passed",)])
    wl.add("check.c4", ["check", "--kind", "cocycle", "--file", files["c4"],
                        "--quandle", d4f], [("passed",)])
    wl.add("check.st4", ["check", "--kind", "cocycle", "--file",
                         files["st4"], "--quandle", d4f, "--spec", "1,3"],
           [("passed",)])

    for name in corpus.names():
        data = corpus.load_json(name)
        src = f"corpus:{name}"
        wl.add(f"{name}.regions", ["regions", "--diagram", src],
               [("regions", data)], fixed=True)
        wl.add(f"{name}.indices", ["indices", "--diagram", src],
               [("indices", data)], fixed=True)
        r1, r2 = _rmove_targets(wl, data)
        wl.add(f"{name}.r1", ["rmove", "--diagram", src, "--move", "r1",
                              "--target", r1,
                              "--chirality", wl.rng.choice(["1", "-1"]),
                              "--side", wl.rng.choice(["left", "right"])],
               [("rmove", data, 1)])
        wl.add(f"{name}.r2", ["rmove", "--diagram", src, "--move", "r2",
                              "--target", r2[0], "--target2", r2[1]],
               [("rmove", data, 2)])

        inv = ["invariant", "--diagram", src, "--quandle"]
        total = ("total", braids.count_affine_colorings(data, 3, -1))
        wl.add(f"{name}.d3.colorings",
               ["colorings", "--diagram", src, "--quandle", d3f],
               [("colorings", total[1])], fixed=True)
        wl.add(f"{name}.d3.classical",
               inv + [d3f, "--flavor", "classical", "--cocycle", files["c3"],
                      "--refine-orbits"],
               [total, ("refined",)])
        pos = wl.add(f"{name}.d3.positive",
                     inv + [d3f, "--flavor", "positive",
                            "--cocycle", files["p3"]], [total])
        wl.add(f"{name}.d3.twisted_neg",
               inv + [d3f, "--flavor", "twisted", "--cocycle", files["p3"],
                      "--alpha", "2"], [total, ("same", pos)])
        tw = wl.add(f"{name}.d3.twisted",
                    inv + [d3f, "--flavor", "twisted", "--cocycle",
                           files["t3"], "--alpha", a], [total])
        wl.add(f"{name}.d3.shadow_z",
               inv + [d3f, "--flavor", "shadow", "--module", "Z",
                      "--alpha", a, "--cocycle", files["t3"]],
               [total, ("same", tw)])
        wl.add(f"{name}.d3.shadow",
               inv + [d3f, "--flavor", "shadow", "--cocycle", files["s3"],
                      "--exterior", wl.rng.randrange(3)], [total])

        total = ("total", braids.count_affine_colorings(data, 4, -1))
        wl.add(f"{name}.d4.colorings",
               ["colorings", "--diagram", src, "--quandle", d4f],
               [("colorings", total[1])], fixed=True)
        wl.add(f"{name}.d4.classical",
               inv + [d4f, "--flavor", "classical", "--cocycle", files["c4"],
                      "--refine-orbits"],
               [total, ("refined",)])
        wl.add(f"{name}.d4.shadow_twisted",
               inv + [d4f, "--flavor", "shadow_twisted", "--alpha", "3",
                      "--cocycle", files["st4"],
                      "--exterior", wl.rng.randrange(4)], [total])
        units = ",".join(map(str, lt4))
        lt = wl.add(f"{name}.d4.link_twisted",
                    inv + [d4f, "--flavor", "link_twisted",
                           "--alpha-per-orbit", units,
                           "--cocycle", files["lt4"]], [total])
        wl.add(f"{name}.d4.shadow_orbitz",
               inv + [d4f, "--flavor", "shadow", "--module", "orbitZ",
                      "--alpha-per-orbit", units, "--exterior", "0,0",
                      "--cocycle", files["lt4"]],
               [total, ("same", lt)])


# -- search ---------------------------------------------------------------------

def build_search(wl):
    pool = json.loads((HERE / "search_pool.json").read_text())
    for qname in sorted(pool):
        entry = pool[qname]
        n, t = entry["n"], entry["t"]
        q, qf = _quandle(wl, qname.lower(), n, t)
        # weighing these knots would cost a search each, so no redraws
        cf = _cocycle(wl, f"{qname.lower()}_classical",
                      q, SEARCH_COEFF[qname], "classical")
        for k, stratum in enumerate(entry["strata"]):
            word = wl.rng.choice(stratum["words"])
            data = braids.closure(word, STRANDS)
            df = wl.file(f"{qname.lower()}_knot{k}", data)
            tag = f"{qname}.q{stratum['quantile']}"
            count = braids.count_affine_colorings(data, n, t)
            wl.add(f"{tag}.colorings",
                   ["colorings", "--diagram", df, "--quandle", qf],
                   [("colorings", count)])
            wl.add(f"{tag}.classical",
                   ["invariant", "--flavor", "classical", "--diagram", df,
                    "--quandle", qf, "--cocycle", cf], [("total", count)])


# -- weigh ----------------------------------------------------------------------

def _link_with_colorings(wl, n, t, length, wanted):
    while True:
        word = random_word(wl.rng, length, STRANDS)
        data = braids.closure(word, STRANDS)
        if braids.count_affine_colorings(data, n, t) == wanted:
            return data


def build_weigh(wl):
    for qname, (n, t, length, wanted) in WEIGH_LINKS.items():
        tag = qname.lower()
        q, qf = _quandle(wl, tag, n, t)
        data = _link_with_colorings(wl, n, t, length, wanted)
        df = wl.file(f"{tag}_link", data)
        alphas = _orbit_units(wl, q, 4)
        units = ",".join(map(str, alphas))
        c = _cocycle(wl, f"{tag}_classical_z4", q, 4, "classical", [data])
        p = _cocycle(wl, f"{tag}_positive_z4", q, 4, "positive", [data])
        lt = _cocycle(wl, f"{tag}_link_twisted_z4", q, 4, "link_twisted",
                      [data], alphas=alphas)
        inv = ["invariant", "--diagram", df, "--quandle", qf]
        refine = ["--refine-orbits"]
        total = ("total", wanted)
        checks = [total, ("refined",)]
        wl.add(f"{tag}.classical", inv + ["--flavor", "classical",
                                          "--cocycle", c] + refine, checks)
        pos = wl.add(f"{tag}.positive", inv + ["--flavor", "positive",
                                               "--cocycle", p] + refine,
                     checks)
        # units mod 4 are +-1, so the twisted unit n-1 = 3 is the only
        # one besides the classical 1
        wl.add(f"{tag}.twisted", inv + ["--flavor", "twisted", "--alpha", "3",
                                        "--cocycle", p] + refine,
               checks + [("same", pos)])
        wl.add(f"{tag}.link_twisted",
               inv + ["--flavor", "link_twisted", "--alpha-per-orbit", units,
                      "--cocycle", lt] + refine, checks)
        if qname == "D4":
            s = _cocycle(wl, f"{tag}_shadow_z4", q, 4, "shadow", [data],
                         module=True)
            st = _cocycle(wl, f"{tag}_shadow_twisted_z4", q, 4,
                          "shadow_twisted", [data], alpha=3, module=True)
            wl.add(f"{tag}.shadow",
                   inv + ["--flavor", "shadow", "--cocycle", s,
                          "--exterior", wl.rng.randrange(n)], [total])
            wl.add(f"{tag}.shadow_twisted",
                   inv + ["--flavor", "shadow_twisted", "--alpha", "3",
                          "--cocycle", st, "--exterior", wl.rng.randrange(n)],
                   [total])
        else:
            # table-module shadows over this quandle hit the integer
            # blow-up in their set-up; the symbolic modules stand in
            tw = wl.add(f"{tag}.twisted_plain",
                        inv + ["--flavor", "twisted", "--alpha", "3",
                               "--cocycle", p], [total])
            wl.add(f"{tag}.shadow_z",
                   inv + ["--flavor", "shadow", "--module", "Z", "--alpha",
                          "3", "--cocycle", p],
                   [total, ("same", tw)])
            ltp = wl.add(f"{tag}.link_twisted_plain",
                         inv + ["--flavor", "link_twisted",
                                "--alpha-per-orbit", units, "--cocycle", lt],
                         [total])
            wl.add(f"{tag}.shadow_orbitz",
                   inv + ["--flavor", "shadow", "--module", "orbitZ",
                          "--alpha-per-orbit", units, "--exterior", "0,0",
                          "--cocycle", lt],
                   [total, ("same", ltp)])


# -- cohomology -----------------------------------------------------------------

def build_cohomology(wl):
    ops = {}
    qfiles = {}
    for name, n, t in (("d3", 3, -1), ("d4", 4, -1), ("d5", 5, -1),
                       ("d6", 6, -1), ("d7", 7, -1), ("a8_3", 8, 3)):
        ops[name], qfiles[name] = _quandle(wl, name, n, t)
    modules = {name: wl.file(f"{name}_self", cochains.module_json(ops[name]))
               for name in ("d3", "d4")}

    def coh(cid, qname, coeff, degree=2, spec="1,1", module=None,
            fixed=True, expect=None):
        argv = ["cohomology", "--quandle", qfiles[qname], "--coeff", coeff,
                "--degree", degree, "--spec", spec]
        action = None
        if module == "self":
            argv += ["--module", modules[qname]]
            action = ops[qname]
        elif module is not None:
            argv += ["--module", module]
            k = int(module[2:])
            action = [[(m + 1) % k] * len(ops[qname]) for m in range(k)]
        check = ("cohomology", ops[qname], action, int(coeff), degree,
                 [int(x) for x in spec.split(",")], expect)
        return wl.add(cid, argv, [check], fixed=fixed)

    # published anchors: H^2(R3; Z/3) = 0 and H^3(R3; Z/3) = Z/3
    for name, n in (("d3", 3), ("d4", 4), ("d5", 5), ("d6", 6), ("d7", 7)):
        coh(f"{name}.z{n}", name, n, expect=[] if name == "d3" else None)
    coh("d3.z6", "d3", 6)
    coh("d3.z3.deg3", "d3", 3, degree=3, expect=[3])
    coh("d4.z4.deg3", "d4", 4, degree=3)
    coh("a8_3.z8", "a8_3", 8)
    coh("a8_3.z4", "a8_3", 4)
    coh("d3.positive", "d3", 3, spec="1,-1")
    coh("d5.positive", "d5", 5, spec="1,-1")
    coh("d3.twisted", "d3", 5, spec=f"1,{wl.rng.choice([2, 3])}",
        fixed=False)
    coh("d5.twisted", "d5", 7, spec=f"1,{wl.rng.choice([2, 3, 4, 5])}",
        fixed=False)
    coh("d3.self.z3", "d3", 3, module="self")
    coh("d3.self.z3.deg3", "d3", 3, degree=3, module="self")
    coh("d4.self.z4", "d4", 4, module="self")
    coh("d3.int", "d3", 0)
    coh("d5.int", "d5", 0)

    # since H^2(R3; Z/3) = 0, every cocycle is a coboundary
    phi = _cocycle(wl, "d3_member", ops["d3"], 3, "classical")
    wl.add("d3.z3.contains",
           ["cohomology", "--quandle", qfiles["d3"], "--coeff", 3,
            "--contains", phi],
           [("contains", {"cocycle": True, "coboundary": True})])

    # Known defects: the integer HNF in quotient_invariant_factors blows
    # up.  Mochizuki gives H^3(R5; Z/5) = Z/5.
    coh("defect.d5.z5.deg3", "d5", 5, degree=3, expect=[5])
    coh("defect.a8_3.z4.mod_z2", "a8_3", 4, module="Z/2")


BUILDERS = {"corpus": build_corpus, "search": build_search,
            "weigh": build_weigh, "cohomology": build_cohomology}


def build(name, seed, workdir):
    wl = Workload(name, seed, workdir)
    BUILDERS[name](wl)
    return wl
