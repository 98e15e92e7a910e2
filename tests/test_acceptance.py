"""Acceptance suite: one test per criterion, exact assertions throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Everything here is exact arithmetic; there are no tolerances.
"""

import functools
import json
import pathlib
import random

from qci import corpus
from qci.algebra import (CoeffGroup, IntUnit, Quandle,
                         check_quandle, cyclic_shadow_module, make_conjugation,
                         make_dihedral, make_trivial, orbits,
                         quandle_as_module)
from qci.cohomology import (DifferentialSpec, cocycle_basis,
                            cohomology_basis, d_left, d_right, differential,
                            is_cocycle, link_twisted_cocycle_basis,
                            random_cochain, transport_to_shadow)
from qci.coloring import enumerate_colorings, propagate_shadow
from qci.diagram import (compute_indices, crossing_geometry, r1_insert,
                         r2_insert)
from qci.invariants import (WeightMultiset, invariant_multiset,
                            orbit_refined_multisets,
                            weight_classical, weight_link_twisted,
                            weight_positive, weight_shadow,
                            weight_shadow_twisted, weight_twisted)
from tests.groups import all_groups_up_to_8
from tests.oracle_utils import (degenerate_rows, differential_rows,
                                raw_positive_signs, rref_rank_mod_p,
                                symbolic_shadow_weight)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"acceptance {num:2d} [{name}]: FAIL")
                raise
            print(f"acceptance {num:2d} [{name}]: PASS")
        return wrapper
    return deco


def _rmove_variants(base):
    """Base plus one kink of each chirality plus one poke."""
    out = []
    if base.crossings:
        out.append(r1_insert(base, base.semiarcs[0], 1, "left").diagram)
        out.append(r1_insert(base, base.semiarcs[0], -1, "right").diagram)
        s0 = base.semiarcs[0]
        for s in base.semiarcs[1:]:
            try:
                out.append(r2_insert(base, s0, s).diagram)
                break
            except Exception:
                continue
    else:
        out.append(r1_insert(base, ("loop", 0), 1, "left").diagram)
        out.append(r1_insert(base, ("loop", 0), -1, "right").diagram)
        if len(base.free_loops) > 1:
            out.append(r2_insert(base, ("loop", 0), ("loop", 1)).diagram)
        out.append(r2_insert(base, ("loop", 0), ("loop", 0)).diagram)
    return out


@criterion(1, "axiom suite")
def test_criterion_1_axioms():
    for n in range(1, 9):
        assert check_quandle(make_dihedral(n).op).passed
    for name, table in all_groups_up_to_8():
        q = make_conjugation(table)
        assert check_quandle(q.op).passed, name

    rng = random.Random(20240)
    pool = [make_dihedral(n).op for n in (2, 3, 4, 5, 6)]
    pool += [make_conjugation(t).op for _n, t in all_groups_up_to_8()[5:9]]
    failures = 0
    attempts = 0
    while failures < 20:
        attempts += 1
        assert attempts < 2000
        base = rng.choice(pool)
        n = len(base)
        op = [list(r) for r in base]
        a, b = rng.randrange(n), rng.randrange(n)
        old = op[a][b]
        op[a][b] = rng.choice([v for v in range(n) if v != old])
        report = check_quandle(op)
        if report.passed:
            continue
        # the witness must actually witness the named violation
        w = report.witness
        if report.axiom == "idempotence":
            assert op[w[0]][w[0]] != w[0]
        elif report.axiom == "invertibility":
            wa, wb = w
            col = [op[x][wb] for x in range(n)]
            assert col.count(op[wa][wb]) > 1
        else:
            wa, wb, wc = w
            assert op[op[wa][wb]][wc] != op[op[wa][wc]][op[wb][wc]]
        failures += 1
    assert failures == 20


@criterion(2, "complex suite")
def test_criterion_2_complex():
    rng = random.Random(555)
    quandles = [make_trivial(2), make_dihedral(3), make_dihedral(4)]
    groups = [CoeffGroup((2,)), CoeffGroup((3,)), CoeffGroup((4,)),
              CoeffGroup((6,))]

    def configs():
        for q in quandles:
            mods = [None, quandle_as_module(q), cyclic_shadow_module(q, 2)]
            for mod in mods:
                if mod is not None and mod.size > 4:
                    continue
                for A in groups:
                    yield q, mod, A

    cfg = list(configs())
    for _ in range(50):
        q, mod, A = rng.choice(cfg)
        k = rng.randrange(0, 3)
        phi = random_cochain(rng, q, mod, A, k)
        assert d_left(d_left(phi)).is_zero()
        assert d_right(d_right(phi)).is_zero()
        anti = d_left(d_right(phi)).add(d_right(d_left(phi)))
        assert anti.is_zero()
    units = {2: [1], 3: [1, 2], 4: [1, 3], 6: [1, 5]}
    for _ in range(10):
        q, mod, A = rng.choice(cfg)
        us = units[A.moduli[0]]
        spec = DifferentialSpec(IntUnit(A, rng.choice(us)),
                                IntUnit(A, rng.choice(us)))
        phi = random_cochain(rng, q, mod, A, rng.randrange(0, 2))
        assert differential(spec, differential(spec, phi)).is_zero()


@criterion(3, "coboundary vanishing")
def test_criterion_3_coboundaries():
    rng = random.Random(99)
    q = make_dihedral(3)
    A = CoeffGroup((6,))
    mod = quandle_as_module(q)
    zero = A.zero()
    thetas = [random_cochain(rng, q, None, A, 1) for _ in range(25)]
    thetas_sh = [random_cochain(rng, q, mod, A, 1) for _ in range(25)]
    link = DifferentialSpec.link_twisted([IntUnit(A, 5)], orbits(q))
    d_by_flavor = {
        "classical": [differential(DifferentialSpec.quandle(A), t)
                      for t in thetas],
        "positive": [differential(DifferentialSpec.positive(A), t)
                     for t in thetas],
        "twisted": [differential(DifferentialSpec.twisted(A, 5), t)
                    for t in thetas],
        "link_twisted": [differential(link, t) for t in thetas],
        "shadow": [differential(DifferentialSpec.quandle(A), t)
                   for t in thetas_sh],
        "shadow_twisted": [differential(DifferentialSpec.twisted(A, 5), t)
                           for t in thetas_sh],
    }
    for name in corpus.names():
        d = corpus.load(name)
        cols = enumerate_colorings(d, q)
        for col in cols:
            sh = propagate_shadow(d, col, mod, 0)
            for db in d_by_flavor["classical"]:
                assert weight_classical(d, col, db, check=False) == zero
            for db in d_by_flavor["positive"]:
                assert weight_positive(d, col, db, check=False) == zero
            for db in d_by_flavor["twisted"]:
                assert weight_twisted(d, col, db, 5, check=False) == zero
            for db in d_by_flavor["link_twisted"]:
                assert weight_link_twisted(d, col, db, [5],
                                           check=False) == zero
            for db in d_by_flavor["shadow"]:
                assert weight_shadow(d, sh, db, check=False) == zero
            for db in d_by_flavor["shadow_twisted"]:
                assert weight_shadow_twisted(d, sh, db, 5, check=False) == zero


def _z_shadow_weight(name, d, col, omega, a, exterior):
    """The shadow weight over Z of the transport alpha^-m w, from the qci-free
    oracle: region colors by face tracing on the raw records, the twist by
    modular powers of a."""
    raw = corpus.load_json(name)
    return (symbolic_shadow_weight(
        raw.get("crossings", []), raw.get("exterior"), d.arc_of, col,
        [v for v, in omega.values], omega.coeff.moduli[0], [a], exterior),)


@criterion(4, "twisted equals shadow transport")
def test_criterion_4_twisted_shadow():
    A = CoeffGroup((5,))
    for n in (3, 4, 5):
        q = make_dihedral(n)
        for a in (2, 3):
            alpha = IntUnit(A, a)
            basis = cocycle_basis(DifferentialSpec.twisted(A, a),
                                  q, None, A, 2)
            assert basis
            for name in corpus.names():
                d = corpus.load(name)
                cols = enumerate_colorings(d, q)
                for omega in basis:
                    shadow = transport_to_shadow(omega, [alpha])
                    for col in cols:
                        tw = weight_twisted(d, col, omega, alpha, check=False)
                        assert tw == _z_shadow_weight(name, d, col, omega, a,
                                                      0)
                        ind = propagate_shadow(d, col, shadow.module, 0)
                        assert tw == weight_shadow(d, ind, shadow,
                                                   check=False)


@criterion(5, "positive equals minus-one twisted")
def test_criterion_5_positive():
    # sign identity at every corpus crossing
    for name in corpus.names():
        d = corpus.load(name)
        idx = compute_indices(d)
        raw = corpus.load_json(name)
        pos = raw_positive_signs(raw.get("crossings", []),
                                 raw.get("exterior"))
        for g, sp in zip(crossing_geometry(d), pos):
            assert g.sign * (-1) ** (idx.totals[g.source_region] % 2) == sp
    # full weight equality on every coloring
    q = make_dihedral(3)
    A = CoeffGroup((4,))
    basis = cocycle_basis(DifferentialSpec.positive(A), q, None, A, 2)
    assert basis
    for name in corpus.names():
        d = corpus.load(name)
        for omega in basis:
            for col in enumerate_colorings(d, q):
                assert weight_positive(d, col, omega, check=False) == \
                    weight_twisted(d, col, omega, -1, check=False)


def _flavor_setups():
    """(flavor, quandle, omega, kwargs) nonzero where the theory allows."""
    out = []
    q3 = make_dihedral(3)
    A3 = CoeffGroup((3,))
    out += [("classical", q3, w, {}) for w in
            cocycle_basis(DifferentialSpec.quandle(A3), q3, None, A3, 2)[:2]]
    mod = quandle_as_module(q3)
    out += [("shadow", q3, w, {"exterior": 0}) for w in
            cocycle_basis(DifferentialSpec.quandle(A3), q3, mod, A3, 2)[:2]]
    A4 = CoeffGroup((4,))
    out += [("positive", q3, w, {}) for w in
            cocycle_basis(DifferentialSpec.positive(A4), q3, None, A4, 2)[:2]]
    A5 = CoeffGroup((5,))
    out += [("twisted", q3, w, {"alpha": 2}) for w in
            cocycle_basis(DifferentialSpec.twisted(A5, 2), q3, None, A5, 2)[:2]]
    out += [("shadow_twisted", q3, w, {"alpha": 2, "exterior": 0}) for w in
            cocycle_basis(DifferentialSpec.twisted(A5, 2), q3, mod, A5, 2)[:2]]
    q4 = make_dihedral(4)
    units = [IntUnit(A5, 2), IntUnit(A5, 3)]
    out += [("link_twisted", q4, w, {"alphas": [2, 3]}) for w in
            link_twisted_cocycle_basis(q4, A5, units)[:2]]
    return out


@criterion(6, "Reidemeister invariance")
def test_criterion_6_rmoves():
    setups = _flavor_setups()
    for name in corpus.BASE_DIAGRAMS:
        base = corpus.load(name)
        variants = _rmove_variants(base)
        for flavor, q, omega, kw in setups:
            ref = invariant_multiset(base, q, flavor, omega, check=False, **kw)
            for var in variants:
                got = invariant_multiset(var, q, flavor, omega, check=False,
                                         **kw)
                assert got.weights == ref.weights, (name, flavor)
    # curated pairs related by a third Reidemeister move
    for a, b in corpus.R3_PAIRS:
        da, db = corpus.load(a), corpus.load(b)
        for flavor, q, omega, kw in setups:
            ma = invariant_multiset(da, q, flavor, omega, check=False, **kw)
            mb = invariant_multiset(db, q, flavor, omega, check=False, **kw)
            assert ma.weights == mb.weights, (a, b, flavor)
    # the 4-crossing pair presents the same knot as the 3-crossing trefoil
    tref = corpus.load("trefoil")
    tref4 = corpus.load("trefoil_r3a")
    for flavor, q, omega, kw in setups:
        if flavor == "link_twisted":
            continue  # single component either way, but keep knots vs knots
        ma = invariant_multiset(tref, q, flavor, omega, check=False, **kw)
        mb = invariant_multiset(tref4, q, flavor, omega, check=False, **kw)
        assert ma.weights == mb.weights, flavor


@criterion(7, "coloring counts")
def test_criterion_7_counts():
    golden = json.loads((GOLDEN / "coloring_counts.json").read_text())
    expected = {("trefoil", 3): 9, ("figure_eight", 3): 3,
                ("figure_eight", 5): 25}
    for (name, n), count in expected.items():
        assert golden[f"{name}/dihedral{n}"] == count
        d = corpus.load(name)
        assert len(enumerate_colorings(d, make_dihedral(n))) == count


@criterion(8, "exterior orbit independence and scaling")
def test_criterion_8_scaling():
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, 2)
    basis = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)
    for name in ("trefoil", "trefoil_mirror", "figure_eight", "hopf_pos"):
        d = corpus.load(name)
        cols = enumerate_colorings(d, q)
        for omega in basis:
            # the oracle's multisets over Z at exterior colors 0 and -1
            at0, atm1 = (WeightMultiset.from_values(
                _z_shadow_weight(name, d, col, omega, 2, e) for col in cols)
                for e in (0, -1))
            assert atm1.weights == at0.scaled(alpha).weights
            assert atm1.weights == at0.weights
            # qci's table of the transport, its colors counted mod 4
            shadow = transport_to_shadow(omega, [alpha])
            assert shadow.module.size == 4
            for e, want in ((0, at0), (3, atm1)):
                assert invariant_multiset(d, q, "shadow", shadow, exterior=e,
                                          check=False).weights == want.weights
    A4 = CoeffGroup((4,))
    pos_basis = cocycle_basis(DifferentialSpec.positive(A4), q, None, A4, 2)
    for name in ("trefoil", "figure_eight", "hopf_neg"):
        d = corpus.load(name)
        for omega in pos_basis:
            ms = invariant_multiset(d, q, "positive", omega, check=False)
            assert ms.scaled(IntUnit(A4, -1)).weights == ms.weights


@criterion(9, "annihilation by central elements")
def test_criterion_9_annihilation():
    base = make_dihedral(3)
    n = 4
    op = [[base.op[a][b] if a < 3 and b < 3 else (a if b == 3 else 3)
           for b in range(n)] for a in range(n)]
    q = Quandle(op)
    assert all(q.apply(a, 3) == a for a in range(4))
    A = CoeffGroup((6,))
    basis = cocycle_basis(DifferentialSpec.twisted(A, 5), q, None, A, 2)
    assert basis
    nonzero_seen = False
    for name in corpus.names():
        d = corpus.load(name)
        for omega in basis:
            ms = invariant_multiset(d, q, "twisted", omega, alpha=5,
                                    check=False)
            for v, _m in ms.weights:
                nonzero_seen |= (v != A.zero())
                assert A.scale(5 - 1, v) == A.zero()
    assert nonzero_seen


@criterion(10, "link refinement")
def test_criterion_10_links():
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    units = [IntUnit(A, 2), IntUnit(A, 3)]
    basis = link_twisted_cocycle_basis(q, A, units)
    assert basis
    for name in ("hopf_pos", "unlink2"):
        base = corpus.load(name)
        variants = _rmove_variants(base)
        for omega in basis:
            ref = invariant_multiset(base, q, "link_twisted", omega,
                                     alphas=[2, 3], check=False)
            ref_parts = orbit_refined_multisets(base, q, "link_twisted",
                                                omega, alphas=[2, 3],
                                                check=False)
            merged = []
            for part in ref_parts.values():
                for v, m in part.weights:
                    merged.extend([v] * m)
            assert WeightMultiset.from_values(merged).weights == ref.weights
            for var in variants:
                got = invariant_multiset(var, q, "link_twisted", omega,
                                         alphas=[2, 3], check=False)
                assert got.weights == ref.weights
                got_parts = orbit_refined_multisets(var, q, "link_twisted",
                                                    omega, alphas=[2, 3],
                                                    check=False)
                assert {k: p.weights for k, p in got_parts.items()} == \
                    {k: p.weights for k, p in ref_parts.items()}
    # all-equal units reduce byte-for-byte to the twisted output
    tw_basis = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)
    for name in ("hopf_pos", "unlink2"):
        d = corpus.load(name)
        for omega in tw_basis:
            link_ms = invariant_multiset(d, q, "link_twisted", omega,
                                         alphas=[2, 2], check=False)
            tw_ms = invariant_multiset(d, q, "twisted", omega, alpha=2,
                                       check=False)
            a = json.dumps(link_ms.to_json()["weights"], sort_keys=True)
            b = json.dumps(tw_ms.to_json()["weights"], sort_keys=True)
            assert a == b


@criterion(11, "cohomology rank oracle")
def test_criterion_11_ranks():
    A = CoeffGroup((3,))
    for q in (make_dihedral(3), make_trivial(1), make_trivial(2),
              make_trivial(3)):
        for l, r in ((1, 1), (1, -1), (1, 2)):
            spec = DifferentialSpec(IntUnit(A, l), IntUnit(A, r))
            basis = cohomology_basis(spec, q, None, A, 2)
            left, right = [[[l]]] * q.n, [[r]]
            rows = differential_rows(q.op, left, right, 1, 2)
            rows += degenerate_rows(q.n, 1, 2)
            dim = q.n * q.n
            cocycle_rank = dim - rref_rank_mod_p(rows, 3)
            assert len(basis.cocycles) == cocycle_rank
            rows1 = differential_rows(q.op, left, right, 1, 1)
            image_rank = rref_rank_mod_p([list(c) for c in zip(*rows1)], 3)
            assert len(basis.coboundaries) == image_rank
            for c in basis.cocycles:
                assert is_cocycle(spec, c)
