"""Randomized braid closures: structural invariants beyond the corpus.

Every random diagram must satisfy the sphere Euler count, consistent index
propagation, the quadrant ladder around each crossing, checkerboard
adjacency, the coloring-count stability under rewrites, the coloring
search against two oracles, and the twisted/shadow and
link-twisted/orbit-shadow weight identities.  Seeds
are fixed; failures are reproducible.
"""

import random
from collections import Counter
from operator import mul

import pytest

from qci import corpus
from qci.algebra import (CoeffGroup, IntUnit, Quandle, Scalar, ShiftUnit,
                         StructureError, make_alexander, make_conjugation, make_dihedral,
                         make_trivial, orbits, quandle_as_module)
from qci.cohomology import DifferentialSpec, cocycle_basis, \
    link_twisted_cocycle_basis, random_cochain, transport_to_shadow
from qci.coloring import enumerate_colorings, is_coloring, propagate_shadow
from qci.diagram import (Diagram, checkerboard, compute_indices,
                         crossing_geometry, parse_diagram, r1_insert,
                         r2_insert)
from qci.invariants import (FLAVORS, invariant_multiset,
                            weight_classical, weight_link_twisted,
                            weight_positive, weight_shadow,
                            weight_shadow_twisted, weight_twisted)
from tests.groups import symmetric_3
from tests.oracle_utils import (arc_map_from_raw, braid_closure,
                                braid_push_colorings, brute_force_colorings,
                                oracle_weight_sum, raw_orbit_ids,
                                raw_positive_signs, raw_source_colors,
                                symbolic_shadow_weight)


def random_words(rng, count):
    out = []
    while len(out) < count:
        strands = rng.randrange(2, 5)
        length = rng.randrange(strands, 7)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(length)]
        if {abs(w) for w in word} == set(range(1, strands)):
            out.append((word, strands))
    return out


@pytest.fixture(scope="module")
def diagrams():
    rng = random.Random(20250)
    out = []
    for word, strands in random_words(rng, 18):
        out.append(parse_diagram(braid_closure(word, strands)))
    return out


def test_structural_invariants(diagrams):
    for d in diagrams:
        assert len(d.semiarcs) == 2 * len(d.crossings)
        idx = compute_indices(d)  # raises on inconsistent propagation
        assert idx.totals[d.exterior_region] == 0
        for r in range(d.n_regions):
            assert sum(idx.per_component[r]) == idx.totals[r]
        colors = checkerboard(d)
        for frm, to, _a, _c in d.region_steps():
            assert colors[frm] != colors[to]
        for g in crossing_geometry(d):
            vals = sorted(idx.totals[qd] for qd in g.quadrants)
            s = idx.totals[g.source_region]
            assert vals == [s, s + 1, s + 1, s + 2]
        raw = d.to_json()
        pos = raw_positive_signs(raw["crossings"], raw["exterior"])
        for g, sp in zip(crossing_geometry(d), pos):
            assert g.sign * (-1) ** (idx.totals[g.source_region] % 2) == sp


def test_coloring_counts_stable_under_random_rewrites(diagrams):
    rng = random.Random(4)
    q = make_dihedral(3)
    for d in diagrams[:10]:
        n = len(enumerate_colorings(d, q))
        sa = rng.choice(d.semiarcs)
        res = r1_insert(d, sa, rng.choice([1, -1]),
                        rng.choice(["left", "right"]))
        assert len(enumerate_colorings(res.diagram, q)) == n
        s0 = rng.choice(d.semiarcs)
        partner = None
        for s in d.semiarcs:
            if s == s0:
                continue
            for side1 in ("left", "right"):
                for side2 in ("left", "right"):
                    if d.side_region(s0, side1) == d.side_region(s, side2):
                        partner = s
                        break
                if partner:
                    break
            if partner:
                break
        if partner is not None:
            res2 = r2_insert(d, s0, partner)
            assert len(enumerate_colorings(res2.diagram, q)) == n


def test_source_colors_oracle_matches_the_region_indices(diagrams):
    # the raw face tracing of tests/oracle_utils.py against qci's index
    # table, from a random exterior side so that colors take both signs
    rng = random.Random(8)
    for d in diagrams:
        records = d.to_json()["crossings"]
        exterior = (rng.choice(d.semiarcs), rng.choice(["left", "right"]))
        d = Diagram(records, (), exterior)
        idx = compute_indices(d)
        want = [(3 + idx.totals[g.source_region],)
                for g in crossing_geometry(d)]
        assert raw_source_colors(records, exterior, (3,),
                                 lambda sa: (1,)) == want


def test_twisted_shadow_identity_on_random_diagrams(diagrams):
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, 3)
    omega = cocycle_basis(DifferentialSpec.twisted(A, 3), q, None, A, 2)[0]
    shadow = transport_to_shadow(omega, [alpha])
    table = [v for v, in omega.values]
    for d in diagrams[:8]:
        raw = d.to_json()
        for col in enumerate_colorings(d, q):
            ind = propagate_shadow(d, col, shadow.module, 0)
            w = weight_twisted(d, col, omega, alpha, check=False)
            assert w == weight_shadow(d, ind, shadow, check=False)
            assert w == (symbolic_shadow_weight(
                raw["crossings"], raw["exterior"], d.arc_of, col, table, 5,
                [3], 0),)


def test_link_twisted_orbit_shadow_identity_on_random_diagrams(diagrams):
    # on the corpus links and most random ones every weight is the same
    # whichever orbit's unit twists which component; this 2-component
    # closure has colorings where the choice matters
    closure = parse_diagram(braid_closure([1, -2, -1, -1, -2], 3))
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    alphas = [IntUnit(A, 2), IntUnit(A, 3)]
    basis = link_twisted_cocycle_basis(q, A, alphas)
    orbit_of = raw_orbit_ids(q.op)
    for d in [closure] + diagrams:
        if d.n_components < 2:
            continue
        raw = d.to_json()
        cols = enumerate_colorings(d, q)
        for omega in basis:
            shadow = transport_to_shadow(omega, alphas)
            table = [v for v, in omega.values]
            for col in cols:
                sh = propagate_shadow(d, col, shadow.module, 0)
                w = weight_link_twisted(d, col, omega, alphas,
                                        check=False)
                assert w == weight_shadow(d, sh, shadow, check=False)
                assert w == (symbolic_shadow_weight(
                    raw["crossings"], raw["exterior"], d.arc_of, col, table,
                    5, [2, 3], (0, 0), orbit_of),)


# D4, Alex(8,3) and the conjugation quandle of S3 are not latin: the two
# under colors at a crossing do not fix its over color
ORACLE_QUANDLES = {"trivial3": make_trivial(3), "D3": make_dihedral(3),
                   "D4": make_dihedral(4), "Alex8_3": make_alexander(8, 3),
                   "S3conj": make_conjugation(symmetric_3())}


@pytest.mark.parametrize("name", sorted(ORACLE_QUANDLES))
def test_enumeration_matches_brute_force_on_small_closures(name):
    q = ORACLE_QUANDLES[name]
    rng = random.Random(1505)
    cases = [(braid_closure([1], 2), ()),          # one kinked crossing
             (braid_closure([1, 1, 1], 2), (1,))]  # trefoil, free loop
    cases += [(braid_closure(word, strands), ())
              for word, strands in random_words(rng, 30) if strands >= 3]
    checked = 0
    for closure, loops in cases:
        records = closure["crossings"]
        d = Diagram(records, loops, closure["exterior"])
        if d.n_arcs > 7 or q.n ** d.n_arcs > 50_000:
            continue
        want = brute_force_colorings(records, d.arc_of, d.n_arcs, q.op, q.inv)
        assert enumerate_colorings(d, q) == sorted(want)
        checked += 1
    assert checked >= 8


def test_braid_push_oracle_matches_brute_force():
    # the two oracles agree crossing by crossing on small closures, so the
    # push oracle's crossing convention is the diagrams' one
    rng = random.Random(2)
    for word, strands in random_words(rng, 12):
        closure = braid_closure(word, strands)
        records, d = closure["crossings"], parse_diagram(closure)
        for q in (make_alexander(5, 2), ORACLE_QUANDLES["S3conj"]):
            if q.n ** d.n_arcs > 50_000:
                continue
            brute = brute_force_colorings(records, d.arc_of, d.n_arcs,
                                          q.op, q.inv)
            at_crossings = sorted(
                tuple((c[d.arc_of[r["rot"][0]]],
                       c[d.arc_of[r["rot"][r["over"]]]],
                       c[d.arc_of[r["rot"][2]]]) for r in records)
                for c in brute)
            assert sorted(braid_push_colorings(word, strands, q.op,
                                               q.inv)) == at_crossings


def _corpus_rewrites():
    """Every r1 and r2 rewrite of every corpus diagram that succeeds."""
    for name in corpus.names():
        d = corpus.load(name)
        targets = list(d.semiarcs) + [("loop", j)
                                      for j in range(len(d.free_loops))]
        moves = [(r1_insert, t, chirality, side) for t in targets
                 for chirality in (1, -1) for side in ("left", "right")]
        moves += [(r2_insert, t1, t2) for t1 in targets for t2 in targets]
        for move, *args in moves:
            try:
                yield move(d, *args).diagram
            except StructureError:
                pass  # no common region, a mixed or self poke, ...


def test_arcs_match_the_raw_oracle(diagrams):
    # the oracle glues over passes with a union-find of its own, so the
    # arcs cut from the strand walk are checked by code that shares none
    # of it; the coloring and weight oracles above take d.arc_of as given
    checked = 0
    for d in [*map(corpus.load, corpus.names()), *diagrams,
              *_corpus_rewrites()]:
        records = [{"rot": list(x.rot), "over": x.over} for x in d.crossings]
        arc_of, count = arc_map_from_raw(records)
        assert d.arc_of == arc_of
        assert d.n_arcs == count + len(d.free_loops)
        checked += 1
    assert checked >= 400


# 5-strand closures of 32-36 crossings with non-constant colorings
LONG_CLOSURES = {
    "D5": (make_dihedral(5),
           [-1, -3, -2, -4, 3, -4, 1, -4, -2, 4, -3, -2, -1, -4, 4, 1, 3, 1,
            1, 2, 2, -2, -3, 3, -3, -2, 4, 3, -3, -2, 3, -3]),
    "D7": (make_dihedral(7),
           [-2, -2, -1, 1, 4, 1, -1, 1, -2, 1, -1, -2, 4, 3, -2, 3, -3, 2,
            3, -3, -1, -3, 4, 3, -2, -4, 3, 2, -3, 3, 1, -2, 2, 2, 4, 2]),
    "Alex8_3": (make_alexander(8, 3),
                [-3, -3, -4, 2, 4, 3, 1, -2, 4, -1, -3, -4, -3, -2, 2, 4, -2,
                 1, 4, 2, -2, -4, -2, -3, -2, -3, 4, 3, 2, -2, -3, 3, -4,
                 -1]),
}


@pytest.mark.parametrize("name", sorted(LONG_CLOSURES))
def test_long_closure_counts_match_braid_push(name):
    q, word = LONG_CLOSURES[name]
    d = parse_diagram(braid_closure(word, 5))
    cols = enumerate_colorings(d, q)
    assert len(cols) == len(braid_push_colorings(word, 5, q.op, q.inv))
    assert len(cols) > q.n
    assert all(is_coloring(d, q, c) for c in cols)
    assert cols == sorted(set(cols))


def test_search_cost_per_coloring(monkeypatch):
    # an Alex(8,3) knot from the benchmark's slowest search stratum; a
    # search branching on the lowest unresolved arc spends about 154,000
    # quandle operations per coloring on it, the planned search 12,769,
    # and the planned search run once per orbit of Inn(Q) and transported
    # to the other 3 colors of each orbit 3,192.25, a quarter of that
    word = [3, -2, -1, -2, 2, 2, 1, 4, 4, 3, -3, 3, 3, -1, 2, 1, 1, 4, 4, 3,
            2, -3, -3, -4, -3, -1, 4, 2, -1, -4, 2, 4, -2, 2, -3, -4]
    calls = [0]
    for op in ("apply", "unapply"):
        def counted(self, a, b, _orig=getattr(Quandle, op)):
            calls[0] += 1
            return _orig(self, a, b)
        monkeypatch.setattr(Quandle, op, counted)
    cols = enumerate_colorings(parse_diagram(braid_closure(word, 5)),
                               make_alexander(8, 3))
    assert cols
    assert 0 < calls[0] < 5_000 * len(cols)


# -- every flavor's weight against the raw-record oracle ---------------------

class _MatrixUnit(Scalar):
    """Automorphism of (Z/3)^3 given by a matrix and its inverse.  Two of
    them need not commute, so they pin down the order in which a
    crossing's units are composed (the order the paper's product is read
    in: the unit of component j acts after those of components < j)."""

    def __init__(self, group, mat, inv):
        super().__init__(group)
        self.mat, self.inv = mat, inv

    def int_matrix(self, power=1):
        out = [[int(r == c) for c in range(3)] for r in range(3)]
        for _ in range(abs(power)):
            base = self.mat if power > 0 else self.inv
            out = [[sum(base[r][k] * out[k][c] for k in range(3)) % 3
                    for c in range(3)] for r in range(3)]
        return out


def _raw_group(moduli):
    """Zero, addition and negation on residue tuples, without qci."""
    def add(x, y):
        return tuple((a + b) % n if n else a + b
                     for a, b, n in zip(x, y, moduli))

    def neg(x):
        return tuple(-a % n if n else -a for a, n in zip(x, moduli))
    return (0,) * len(moduli), add, neg


def _oracle_units():
    """Coefficient group, twisted unit and the two per-orbit units of each
    case, every unit paired with its raw action x, e -> u^e x."""
    def int_unit(group, v):
        return IntUnit(group, v), lambda x, e: tuple(
            a * pow(v, e, n) % n if n else a * v ** abs(e)
            for a, n in zip(x, group.moduli))

    def shift(group, s):
        return ShiftUnit(group, s), lambda x, e: tuple(
            x[(i - s * e) % group.d] for i in range(group.d))

    def matrix(group, mat, inv):
        def power(x, e):
            for _ in range(abs(e)):
                x = tuple(sum(map(mul, row, x)) % 3
                          for row in (mat if e > 0 else inv))
            return x
        return _MatrixUnit(group, mat, inv), power

    z24, z, z333 = CoeffGroup((2, 4)), CoeffGroup((0,)), CoeffGroup((3,) * 3)
    upper = (((1, 1, 0), (0, 1, 0), (0, 0, 1)),
             ((1, 2, 0), (0, 1, 0), (0, 0, 1)))
    lower = (((1, 0, 0), (1, 1, 0), (0, 0, 1)),
             ((1, 0, 0), (2, 1, 0), (0, 0, 1)))
    return {"Z/2xZ/4": (z24, int_unit(z24, 3),
                        [int_unit(z24, 3), int_unit(z24, 1)]),
            "Z": (z, int_unit(z, -1), [int_unit(z, 1), int_unit(z, -1)]),
            "(Z/3)^3 shift": (z333, shift(z333, 1),
                              [shift(z333, 1), shift(z333, 2)]),
            "(Z/3)^3 matrix": (z333, matrix(z333, *lower),
                               [matrix(z333, *upper), matrix(z333, *lower)])}


def test_weights_match_the_raw_oracle_for_every_flavor():
    # every flavor's weight of every coloring, and its multiset, against
    # oracle_weight_sum: signs and color slots straight off the records,
    # cochain values straight off the table, units applied one at a time.
    # Region indices, source regions and shadow colors come from qci's
    # diagram layer, which the tests above pin down on their own.  The
    # exterior is a random region, so twist exponents take both signs.
    rng = random.Random(23)
    q = make_dihedral(4)
    om = orbits(q)
    module = quandle_as_module(q)
    diagrams = []
    for word, strands in random_words(rng, 7):
        closure = braid_closure(word, strands)
        records = closure["crossings"]
        side = rng.choice(["left", "right"])
        sa = rng.choice(parse_diagram(closure).semiarcs)
        diagrams.append((records, Diagram(records, (), (sa, side))))
    exponents, orders = set(), set()
    for name, (group, (alpha, alpha_raw), units) in _oracle_units().items():
        zero, add, neg = _raw_group(group.moduli)
        plain = random_cochain(rng, q, None, group, 2)
        shadowed = random_cochain(rng, q, module, group, 2)
        for records, d in diagrams:
            idx = compute_indices(d)
            source = [g.source_region for g in crossing_geometry(d)]
            exterior = rng.randrange(q.n)
            exponents |= {(e > 0) - (e < 0) for e in idx.totals}
            for flavor in FLAVORS:
                shadow = flavor.startswith("shadow")
                omega = shadowed if shadow else plain
                oracle = []
                for col in enumerate_colorings(d, q):
                    sh = propagate_shadow(d, col, module, exterior)
                    tables = [om.of(col[arcs[0]])
                              for arcs in d.component_arcs]

                    def twist(term, ci, flavor=flavor, tables=tables,
                              order=1):
                        i = idx.totals[source[ci]]
                        if flavor == "positive":   # sign_pos = sign (-1)^i
                            return neg(term) if i % 2 else term
                        if flavor in ("twisted", "shadow_twisted"):
                            return alpha_raw(term, -i)
                        if flavor == "link_twisted":
                            es = idx.per_component[source[ci]]
                            for e, o in list(zip(es, tables))[::order]:
                                term = units[o][1](term, -e)
                        return term

                    def at(*slots):
                        pos = 0
                        for x in slots:
                            pos = pos * q.n + x
                        return omega.values[pos]

                    regions = [sh.regions[r] for r in source] \
                        if shadow else None
                    want = oracle_weight_sum(records, d.arc_of, col, at, add,
                                             zero, neg, twist, regions)
                    oracle.append(want)
                    if flavor == "link_twisted":
                        reordered = oracle_weight_sum(
                            records, d.arc_of, col, at, add, zero, neg,
                            lambda t, ci: twist(t, ci, order=-1))
                        orders.add(reordered != want)
                    got = {"classical": lambda: weight_classical(
                               d, col, omega, check=False),
                           "shadow": lambda: weight_shadow(
                               d, sh, omega, check=False),
                           "positive": lambda: weight_positive(
                               d, col, omega, check=False),
                           "twisted": lambda: weight_twisted(
                               d, col, omega, alpha, check=False),
                           "shadow_twisted": lambda: weight_shadow_twisted(
                               d, sh, omega, alpha, check=False),
                           "link_twisted": lambda: weight_link_twisted(
                               d, col, omega, [u for u, _ in units],
                               check=False)}[flavor]()
                    assert got == want, (name, flavor, records, col)
                kw = {"exterior": exterior} if shadow else {}
                if flavor in ("twisted", "shadow_twisted"):
                    kw["alpha"] = alpha
                if flavor == "link_twisted":
                    kw["alphas"] = [u for u, _ in units]
                ms = invariant_multiset(d, q, flavor, omega, check=False, **kw)
                assert ms.weights == tuple(sorted(Counter(oracle).items())), \
                    (name, flavor, records)
    # negative and positive exponents, and colorings whose weight changes
    # when a crossing's units are composed in the opposite order
    assert exponents == {-1, 0, 1}
    assert True in orders
