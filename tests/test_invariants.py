"""Weight identities and multiset invariants across all flavors."""

import math
import random

import pytest

from qci import corpus
from qci.algebra import (CoeffGroup, IntUnit, ShiftUnit, StructureError,
                         cyclic_shadow_module, make_alexander,
                         make_conjugation, make_dihedral, make_trivial,
                         orbits, quandle_as_module, trivial_module, Quandle)
from qci.cohomology import (Cochain, DifferentialSpec, cocycle_basis,
                            differential, link_twisted_cocycle_basis,
                            random_cochain, transport_to_shadow,
                            zero_cochain)
from qci.coloring import (ShadowColoring, act, component_orbits,
                          enumerate_colorings, propagate_shadow)
from qci.diagram import compute_indices, crossing_geometry, parse_diagram
from qci.invariants import (CocycleError, WeightMultiset, invariant_multiset,
                            orbit_refined_multisets, weight_classical,
                            weight_link_twisted, weight_positive,
                            validate_cocycle, weight_shadow,
                            weight_shadow_twisted, weight_twisted)
from tests.oracle_utils import (arc_map_from_raw, braid_closure,
                                brute_force_colorings, first_failure,
                                oracle_weight_sum, raw_crossing_sign,
                                raw_face_action_colors, raw_orbit_ids,
                                raw_positive_signs, raw_source_colors,
                                raw_sources, symbolic_shadow_weight)
from tests.groups import symmetric_3
from tests.test_algebra import product_table_module
from tests.test_cohomology import _matrix

CORPUS_WITH_CROSSINGS = ("trefoil", "trefoil_mirror", "figure_eight",
                         "hopf_pos", "hopf_neg", "trefoil_r3a",
                         "trefoil_r3b", "link_r3a", "link_r3b")


def test_empty_diagram_weight_is_zero():
    d = corpus.load("unknot")
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    omega = zero_cochain(q, None, A, 2)
    for col in enumerate_colorings(d, q):
        assert weight_classical(d, col, omega) == A.zero()


def test_coboundary_weights_vanish_all_flavors():
    rng = random.Random(21)
    q = make_dihedral(3)
    A = CoeffGroup((6,))
    alpha = IntUnit(A, 5)
    mod = quandle_as_module(q)
    for name in ("trefoil", "figure_eight", "hopf_neg", "link_r3a"):
        d = corpus.load(name)
        cols = enumerate_colorings(d, q)
        for _ in range(5):
            theta = random_cochain(rng, q, None, A, 1)
            theta_sh = random_cochain(rng, q, mod, A, 1)
            dcl = differential(DifferentialSpec.quandle(A), theta)
            dpos = differential(DifferentialSpec.positive(A), theta)
            dtw = differential(DifferentialSpec.twisted(A, 5), theta)
            dsh = differential(DifferentialSpec.quandle(A), theta_sh)
            dshtw = differential(DifferentialSpec.twisted(A, 5), theta_sh)
            dlink = differential(
                DifferentialSpec.link_twisted([alpha], orbits(q)), theta)
            for col in cols:
                assert weight_classical(d, col, dcl) == A.zero()
                assert weight_positive(d, col, dpos) == A.zero()
                assert weight_twisted(d, col, dtw, 5) == A.zero()
                assert weight_link_twisted(d, col, dlink, [5]) == A.zero()
                sh = propagate_shadow(d, col, mod, 0)
                assert weight_shadow(d, sh, dsh) == A.zero()
                assert weight_shadow_twisted(d, sh, dshtw, 5) == A.zero()


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("a", [2, 3])
def test_twisted_equals_shadow_of_transport(n, a):
    # alpha has order 4 mod 5: the transport is a table over Z/4, and at
    # exterior color e its shadow weight is alpha^-e times the twisted one
    q = make_dihedral(n)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, a)
    basis = cocycle_basis(DifferentialSpec.twisted(A, a), q, None, A, 2)
    assert basis, "twisted kernel should at least contain coboundaries"
    for name in CORPUS_WITH_CROSSINGS[:5] + ("unknot",):
        d = corpus.load(name)
        for omega in basis:
            shadow = transport_to_shadow(omega, [alpha])
            assert shadow.module == cyclic_shadow_module(q, 4)
            for col in enumerate_colorings(d, q):
                tw = weight_twisted(d, col, omega, alpha, check=False)
                for e in range(4):
                    ind = propagate_shadow(d, col, shadow.module, e)
                    assert alpha.apply(tw, -e) == \
                        weight_shadow(d, ind, shadow, check=False)


def test_positive_sign_identity_per_crossing():
    # sign(x) * (-1)^index(x) equals the checkerboard sign at every crossing
    for name in CORPUS_WITH_CROSSINGS:
        d = corpus.load(name)
        idx = compute_indices(d)
        raw = corpus.load_json(name)
        pos = raw_positive_signs(raw["crossings"], raw["exterior"])
        for g, sp in zip(crossing_geometry(d), pos):
            assert g.sign * (-1) ** (idx.totals[g.source_region] % 2) == sp


def test_positive_equals_minus_one_twisted():
    q = make_dihedral(3)
    A = CoeffGroup((4,))
    basis = cocycle_basis(DifferentialSpec.positive(A), q, None, A, 2)
    assert basis
    for name in ("trefoil", "figure_eight", "hopf_pos", "trefoil_mirror"):
        d = corpus.load(name)
        for omega in basis:
            for col in enumerate_colorings(d, q):
                assert weight_positive(d, col, omega, check=False) == \
                    weight_twisted(d, col, omega, -1, check=False)


def test_shadow_weight_respects_color_action():
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    mod = quandle_as_module(q)
    basis = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)
    assert basis
    for name in ("trefoil", "figure_eight"):
        d = corpus.load(name)
        for omega in basis[:4]:
            for col in enumerate_colorings(d, q):
                sh = propagate_shadow(d, col, mod, 0)
                w = weight_shadow(d, sh, omega, check=False)
                for c in range(q.n):
                    moved = act(d, sh, c)
                    assert weight_shadow(d, moved, omega, check=False) == w


def test_shadow_with_trivial_module_is_classical():
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    rng = random.Random(31)
    omega = differential(DifferentialSpec.quandle(A),
                         random_cochain(rng, q, None, A, 1))
    triv = trivial_module(q)
    lifted = Cochain(q, triv, A, 2, list(omega.values))
    for name in ("trefoil", "hopf_pos"):
        d = corpus.load(name)
        for col in enumerate_colorings(d, q):
            sh = propagate_shadow(d, col, triv, 0)
            assert weight_shadow(d, sh, lifted, check=False) == \
                weight_classical(d, col, omega, check=False)


def test_shadow_twisted_reductions():
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    mod = quandle_as_module(q)
    d = corpus.load("trefoil")
    cols = enumerate_colorings(d, q)
    # alpha = 1 reduces to the plain shadow weight
    basis = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)
    for omega in basis[:3]:
        for col in cols:
            sh = propagate_shadow(d, col, mod, 1)
            assert weight_shadow_twisted(d, sh, omega, 1, check=False) == \
                weight_shadow(d, sh, omega, check=False)
    # trivial module reduces to the twisted weight
    tw_basis = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)
    triv = trivial_module(q)
    for omega in tw_basis[:3]:
        lifted = Cochain(q, triv, A, 2, list(omega.values))
        for col in cols:
            sh = propagate_shadow(d, col, triv, 0)
            assert weight_shadow_twisted(d, sh, lifted, 2, check=False) == \
                weight_twisted(d, col, omega, 2, check=False)


def test_shadow_twisted_equals_shadow_over_product_module():
    # twisting a shadow cocycle is the plain shadow weight over M x Z, the
    # region colors paired with their total region index.  alpha = 2 has
    # order 4 mod 5, so the index counts mod 4: M x Z/4, the pair (x, j)
    # at position 4x + j, carries w'((x, j), a, b) = alpha^-j w(x, a, b)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, 2)
    for q in (make_dihedral(3), make_dihedral(4)):
        mod = quandle_as_module(q)
        product = product_table_module(mod, cyclic_shadow_module(q, 4))
        basis = cocycle_basis(DifferentialSpec.twisted(A, 2), q, mod, A, 2)
        assert basis
        lifted = [Cochain(q, product, A, 2,
                          [alpha.apply(omega.at(x, (a, b)), -j)
                           for x in range(q.n) for j in range(4)
                           for a in range(q.n) for b in range(q.n)])
                  for omega in basis[:3]]
        for name in corpus.names():
            d = corpus.load(name)
            totals = compute_indices(d).totals
            for col in enumerate_colorings(d, q):
                sh = propagate_shadow(d, col, mod, 1)
                paired = ShadowColoring(
                    arcs=sh.arcs, module=product,
                    regions=tuple(4 * m + totals[r] % 4
                                  for r, m in enumerate(sh.regions)))
                assert paired == propagate_shadow(d, col, product, 4)
                for omega, lift in zip(basis, lifted):
                    assert weight_shadow(d, paired, lift, check=False) == \
                        weight_shadow_twisted(d, sh, omega, alpha,
                                              check=False)


def test_link_twisted_reductions_and_transport():
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    alphas = [IntUnit(A, 2), IntUnit(A, 3)]
    basis = link_twisted_cocycle_basis(q, A, alphas)
    assert basis
    for name in ("hopf_pos", "unlink2", "link_r3a", "trefoil"):
        d = corpus.load(name)
        for omega in basis[:4]:
            shadow = transport_to_shadow(omega, alphas)
            for col in enumerate_colorings(d, q):
                w = weight_link_twisted(d, col, omega, alphas, check=False)
                sh = propagate_shadow(d, col, shadow.module, 0)
                assert weight_shadow(d, sh, shadow, check=False) == w
    # equal units reduce to the single-alpha twisted weight
    same = [IntUnit(A, 2), IntUnit(A, 2)]
    tw_basis = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)
    for name in ("hopf_pos", "trefoil"):
        d = corpus.load(name)
        for omega in tw_basis[:3]:
            for col in enumerate_colorings(d, q):
                assert weight_link_twisted(d, col, omega, same,
                                           check=False) == \
                    weight_twisted(d, col, omega, 2, check=False)


def test_unknot_multiset_all_flavors():
    d = corpus.load("unknot")
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    omega = zero_cochain(q, None, A, 2)
    shadow_omega = zero_cochain(q, quandle_as_module(q), A, 2)
    zero = A.zero()
    for flavor, kw in (("classical", {}), ("positive", {}),
                       ("twisted", {"alpha": 2}),
                       ("link_twisted", {"alphas": [2, 3]}),
                       ("shadow", {"exterior": 0}),
                       ("shadow_twisted", {"alpha": 2, "exterior": 0})):
        if flavor in ("shadow", "shadow_twisted"):
            ms = invariant_multiset(d, q, flavor, shadow_omega, **kw)
        else:
            ms = invariant_multiset(d, q, flavor, omega, **kw)
        assert ms.weights == ((zero, q.n),)


def test_twisted_multiset_equals_transported_shadow_multiset():
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, 2)
    basis = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)
    for name in ("trefoil", "figure_eight", "hopf_neg"):
        d = corpus.load(name)
        for omega in basis[:3]:
            tw = invariant_multiset(d, q, "twisted", omega, alpha=2)
            shadow = transport_to_shadow(omega, [alpha])
            # the transport of a twisted cocycle passes the exact shadow gate
            sh = invariant_multiset(d, q, "shadow", shadow, exterior=0)
            assert tw.weights == sh.weights


def test_exterior_orbit_independence():
    # dihedral 3 acting on itself is a single orbit: every exterior color
    # gives the same shadow multiset
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    mod = quandle_as_module(q)
    basis = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)
    for name in ("trefoil", "figure_eight"):
        d = corpus.load(name)
        for omega in basis[:3]:
            sets = [invariant_multiset(d, q, "shadow", omega, exterior=m,
                                       check=False).weights
                    for m in range(3)]
            assert sets[0] == sets[1] == sets[2]


def test_twisted_scaling_symmetry():
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, 2)
    basis = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)
    for name in ("trefoil", "trefoil_mirror", "figure_eight"):
        d = corpus.load(name)
        for omega in basis[:3]:
            ms = invariant_multiset(d, q, "twisted", omega, alpha=2)
            assert ms.scaled(alpha).weights == ms.weights
    # and the integer-shadow multisets at exterior 0 and -1 differ by
    # alpha; alpha has order 4, so -1 is the table's color 3
    for name in ("trefoil", "figure_eight"):
        d = corpus.load(name)
        for omega in basis[:3]:
            shadow = transport_to_shadow(omega, [alpha])
            at0 = invariant_multiset(d, q, "shadow", shadow, exterior=0,
                                     check=False)
            atm1 = invariant_multiset(d, q, "shadow", shadow, exterior=3,
                                      check=False)
            assert atm1.weights == at0.scaled(alpha).weights
            assert atm1.weights == at0.weights


def test_positive_multiset_symmetric_about_zero():
    q = make_dihedral(3)
    A = CoeffGroup((4,))
    basis = cocycle_basis(DifferentialSpec.positive(A), q, None, A, 2)
    for name in ("trefoil", "figure_eight", "hopf_pos"):
        d = corpus.load(name)
        for omega in basis[:3]:
            ms = invariant_multiset(d, q, "positive", omega)
            assert ms.scaled(IntUnit(A, -1)).weights == ms.weights


def test_orbit_refined_partition():
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    alphas = [2, 3]
    basis = link_twisted_cocycle_basis(q, A, [IntUnit(A, 2), IntUnit(A, 3)])
    for name in ("hopf_pos", "unlink2"):
        d = corpus.load(name)
        omega = basis[0]
        full = invariant_multiset(d, q, "link_twisted", omega, alphas=alphas)
        parts = orbit_refined_multisets(d, q, "link_twisted", omega,
                                        alphas=alphas)
        merged = []
        for part in parts.values():
            for v, m in part.weights:
                merged.extend([v] * m)
        assert WeightMultiset.from_values(merged).weights == full.weights
    # trivial quandle on the Hopf link: four orbit pairs, one coloring each
    q2 = make_trivial(2)
    omz = zero_cochain(q2, None, A, 2)
    parts = orbit_refined_multisets(corpus.load("hopf_pos"), q2, "classical",
                                    omz)
    assert set(parts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(p.total() == 1 for p in parts.values())


def test_refinement_unlink_dihedral4():
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    omz = zero_cochain(q, None, A, 2)
    parts = orbit_refined_multisets(corpus.load("unlink2"), q, "classical", omz)
    assert set(parts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(p.total() == 4 for p in parts.values())


def test_annihilation_with_central_element():
    # dihedral 3 plus a disjoint fixed point: a |> 3 = a, 3 |> b = 3
    base = make_dihedral(3)
    n = 4
    op = [[base.op[a][b] if a < 3 and b < 3 else (a if b == 3 else 3)
           for b in range(n)] for a in range(n)]
    q = Quandle(op)
    A = CoeffGroup((6,))
    basis = cocycle_basis(DifferentialSpec.twisted(A, 5), q, None, A, 2)
    assert basis
    seen_nonzero = False
    for name in ("trefoil", "figure_eight", "hopf_pos"):
        d = corpus.load(name)
        for omega in basis:
            ms = invariant_multiset(d, q, "twisted", omega, alpha=5,
                                    check=False)
            for v, _m in ms.weights:
                seen_nonzero |= v != A.zero()
                assert A.scale(5 - 1, v) == A.zero()
    assert seen_nonzero


def test_cyclotomic_collapse():
    # Z_2[t]/(t^3 - 1): scaling symmetry forces t-orbits of weights to have
    # uniform multiplicity
    q = make_dihedral(3)
    A = CoeffGroup((2, 2, 2))
    t = ShiftUnit(A)
    spec = DifferentialSpec(IntUnit(A, 1), t)
    from qci.cohomology import cohomology_basis
    basis = cohomology_basis(spec, q, None, A, 2).cocycles
    assert basis
    for name in ("trefoil", "figure_eight"):
        d = corpus.load(name)
        for omega in basis:
            ms = invariant_multiset(d, q, "twisted", omega, alpha=t)
            counts = dict(ms.weights)
            for v, m in ms.weights:
                assert counts.get(t.apply(v), 0) == m


def test_cocycle_gate():
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    rng = random.Random(40)
    d = corpus.load("trefoil")
    bad = None
    spec = DifferentialSpec.quandle(A)
    from qci.cohomology import is_cocycle
    while bad is None:
        cand = random_cochain(rng, q, None, A, 2)
        if not is_cocycle(spec, cand):
            bad = cand
    with pytest.raises(CocycleError):
        weight_classical(d, (0, 0, 0), bad)
    with pytest.raises(CocycleError):
        invariant_multiset(d, q, "classical", bad)
    # the escape hatch for demonstrating non-invariance
    weight_classical(d, (0, 0, 0), bad, check=False)


def _gate_cases(q, A, unit, per_orbit):
    """(flavor, kwargs, module, left, right, coboundary) per flavor and
    module: the flavor's own condition, d_left weighted by left[a] and
    d_right by right, and the coboundary map of its own differential."""
    om = orbits(q)
    ident = _matrix(IntUnit(A, 1))
    fixed = {"classical": IntUnit(A, 1), "shadow": IntUnit(A, 1),
             "positive": IntUnit(A, -1), "twisted": unit,
             "shadow_twisted": unit}
    for flavor, u in fixed.items():
        kwargs = {"alpha": u} if flavor.endswith("twisted") else {}
        spec = DifferentialSpec(IntUnit(A, 1), u)
        modules = ((trivial_module(q), quandle_as_module(q))
                   if flavor.startswith("shadow") else (None,))
        for module in modules:
            yield (flavor, kwargs, module, [ident] * q.n, _matrix(u),
                   lambda theta, spec=spec: differential(spec, theta))
    yield ("link_twisted", {"alphas": per_orbit}, None,
           [_matrix(per_orbit[om.of(a)], -1) for a in range(q.n)],
           ident, lambda theta: differential(
               DifferentialSpec.link_twisted(per_orbit, om), theta))


def test_merged_gate_matches_each_flavors_own_first_failure():
    # validate_cocycle gates every flavor through the per-orbit condition,
    # d_left weighted by the inverse unit of the acting color's orbit.
    # Its verdict and witness are the qci-free oracle's first failure of
    # the flavor's own condition, (1, u) for one unit u: random tables,
    # tables with the degenerate entries zeroed, coboundaries, and
    # coboundaries with one entry moved.  Only link_twisted drops the
    # trivial module's slot from its witness.
    rng = random.Random(30)
    seen = set()
    d3, d4 = make_dihedral(3), make_dihedral(4)
    for q, moduli, units in (
            (d3, (0,), lambda A: (IntUnit(A, -1), [IntUnit(A, -1)])),
            (d4, (0,), lambda A: (IntUnit(A, -1),
                                  [IntUnit(A, 1), IntUnit(A, -1)])),
            (d3, (2, 4), lambda A: (IntUnit(A, 3), [IntUnit(A, 3)])),
            (d4, (2, 4), lambda A: (IntUnit(A, 3),
                                    [IntUnit(A, 3), IntUnit(A, 1)])),
            (d3, (3, 3, 3), lambda A: (ShiftUnit(A), [ShiftUnit(A, 2)])),
            (d4, (3, 3, 3), lambda A: (ShiftUnit(A),
                                       [ShiftUnit(A, 1), ShiftUnit(A, 2)]))):
        A = CoeffGroup(moduli)
        for flavor, kwargs, module, left, right, coboundary in _gate_cases(
                q, A, *units(A)):
            act = module.act if module is not None else (lambda m, a: m)
            size = module.size if module is not None else 1
            for trial in range(4):
                theta = random_cochain(rng, q, module, A, 1 + (trial < 2))
                phi = theta if trial < 2 else coboundary(theta)
                degenerate = [a == b for _m, (a, b) in phi.domain()]
                values = [A.zero() if trial == 1 and deg else v
                          for v, deg in zip(phi.values, degenerate)]
                if trial == 3:
                    i = rng.choice([i for i, deg in enumerate(degenerate)
                                    if not deg])
                    values[i] = A.add(values[i], (1,) * A.d)
                phi = Cochain(q, module, A, 2, values)
                want = first_failure(phi.at, act, q.apply, left, right,
                                     moduli, q.n, size, 2, True)
                if want is None:
                    validate_cocycle(flavor, phi, **kwargs)
                    seen.add("pass")
                    continue
                with pytest.raises(CocycleError) as err:
                    validate_cocycle(flavor, phi, **kwargs)
                axiom, witness = want
                if flavor == "link_twisted":
                    witness = witness[1:]
                assert (err.value.flavor, err.value.report.axiom,
                        err.value.report.witness) == (flavor, axiom,
                                                      witness), flavor
                seen.add((flavor, axiom))
    assert seen == {"pass"} | {(f, axiom) for f in (
        "classical", "shadow", "positive", "twisted", "shadow_twisted",
        "link_twisted") for axiom in ("cocycle", "degenerate-vanishing")}
    # the gate refuses a cochain of another shape than its flavor weighs:
    # a shadow cocycle is no classical cochain, whatever its condition
    mod = quandle_as_module(d3)
    A = CoeffGroup((3,))
    shadow_cocycle = cocycle_basis(DifferentialSpec.quandle(A), d3, mod, A,
                                   2)[0]
    with pytest.raises(StructureError,
                       match="classical weighs a trivial-module cochain"):
        validate_cocycle("classical", shadow_cocycle)
    with pytest.raises(StructureError,
                       match="shadow weighs a module cochain"):
        validate_cocycle("shadow", zero_cochain(d3, None, A, 2))
    with pytest.raises(StructureError, match="twisted weighs a degree-2 "
                       "cochain, not degree 3"):
        validate_cocycle("twisted", zero_cochain(d3, None, A, 3), alpha=2)


def test_multiset_json_roundtrip():
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    d = corpus.load("trefoil")
    mod = quandle_as_module(q)
    omega = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)[0]
    ms = invariant_multiset(d, q, "shadow", omega, exterior=0)
    back = WeightMultiset.from_json(ms.to_json())
    assert back == ms


def test_orbit_refined_single_orbit_knot():
    # connected quandle on a knot: one orbit tuple carrying the full multiset
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    omega = zero_cochain(q, None, A, 2)
    parts = orbit_refined_multisets(corpus.load("trefoil"), q, "classical",
                                    omega)
    assert set(parts) == {(0,)}
    assert parts[(0,)].total() == 9


def test_positive_weight_of_kink_term_vanishes():
    # a kinked unknot contributes a single ±w(a, a) = 0 term
    from qci.diagram import r1_insert
    q = make_dihedral(3)
    A = CoeffGroup((4,))
    basis = cocycle_basis(DifferentialSpec.positive(A), q, None, A, 2)
    for side in ("left", "right"):
        for chir in (1, -1):
            res = r1_insert(corpus.load("unknot"), ("loop", 0), chir, side)
            for omega in basis:
                for col in enumerate_colorings(res.diagram, q):
                    assert weight_positive(res.diagram, col, omega,
                                           check=False) == A.zero()


def test_exterior_orbit_independence_two_orbits():
    # the 4-element dihedral quandle acting on itself has orbits {0,2} and
    # {1,3}: multisets must agree within an orbit of exterior colors
    q = make_dihedral(4)
    A = CoeffGroup((2,))
    mod = quandle_as_module(q)
    basis = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)
    assert basis
    for name in ("trefoil", "hopf_pos"):
        d = corpus.load(name)
        for omega in basis[:4]:
            sets = {m: invariant_multiset(d, q, "shadow", omega, exterior=m,
                                          check=False).weights
                    for m in range(4)}
            assert sets[0] == sets[2]
            assert sets[1] == sets[3]


def test_positive_weights_have_order_two_with_central_element():
    # a central element gives an odd (length-1) fixing relation, which
    # forces every positive weight w to satisfy 2w = 0
    base = make_dihedral(3)
    n = 4
    op = [[base.op[a][b] if a < 3 and b < 3 else (a if b == 3 else 3)
           for b in range(n)] for a in range(n)]
    q = Quandle(op)
    A = CoeffGroup((4,))
    basis = cocycle_basis(DifferentialSpec.positive(A), q, None, A, 2)
    assert basis
    nonzero = False
    for name in ("trefoil", "figure_eight", "hopf_pos"):
        d = corpus.load(name)
        for omega in basis:
            ms = invariant_multiset(d, q, "positive", omega, check=False)
            for v, _m in ms.weights:
                nonzero |= v != A.zero()
                assert A.scale(2, v) == A.zero()
    assert nonzero


def test_multiset_compiles_the_diagram_once(monkeypatch):
    # classical and shadow are twisted at the unit 1 on every orbit, so
    # their plans skip the region walk
    import qci.invariants as inv
    calls = {}
    for name in ("crossing_geometry", "compute_indices"):
        def counted(*args, _orig=getattr(inv, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args)
        monkeypatch.setattr(inv, name, counted)
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    d = corpus.load("link_r3a")
    assert len(enumerate_colorings(d, q)) >= 8
    omega = zero_cochain(q, None, A, 2)
    shadow_omega = zero_cochain(q, quandle_as_module(q), A, 2)
    units = {"twisted": {"alpha": 2}, "link_twisted": {"alphas": [2, 3]},
             "shadow": {"exterior": 0},
             "shadow_twisted": {"alpha": 2, "exterior": 0}}
    for flavor in ("classical", "shadow", "positive", "twisted",
                   "shadow_twisted", "link_twisted"):
        w = shadow_omega if flavor.startswith("shadow") else omega
        calls.clear()
        expected = {"crossing_geometry": 1}
        if flavor not in ("classical", "shadow"):
            expected["compute_indices"] = 1
        invariant_multiset(d, q, flavor, w, **units.get(flavor, {}))
        assert calls == expected, flavor
        if not flavor.startswith("shadow"):
            calls.clear()
            orbit_refined_multisets(d, q, flavor, w, **units.get(flavor, {}))
            assert calls == expected, flavor



def test_non_constant_anchor_on_a_six_crossing_torus_link():
    # D4 over Z/4 on the 2-strand closure of s1^-3 s1 s1^-2, a 6-crossing
    # diagram of the (2, 4) torus link: the first classical basis cocycle
    # weighs half the 16 colorings 3, the rest 0.  The pin is checked
    # against colorings and weights recomputed from the raw records, with
    # no qci code; then positive against twisted at alpha = -1 on the
    # positive basis, where basis vector 1 is non-constant too
    q, A = make_dihedral(4), CoeffGroup((4,))
    closure = braid_closure([-1, -1, -1, 1, -1, -1], 2)
    records = closure["crossings"]
    d = parse_diagram(closure)
    assert (len(d.crossings), d.n_components) == (6, 2)
    arc_of, n_arcs = arc_map_from_raw(records)
    colorings = brute_force_colorings(records, arc_of, n_arcs,
                                      [list(r) for r in q.op],
                                      [list(r) for r in q.inv])
    assert len(colorings) == 16

    def add(x, y):
        return ((x[0] + y[0]) % 4,)

    def neg(x):
        return ((-x[0]) % 4,)

    def oracle(omega, twist=None):
        return WeightMultiset.from_values(
            oracle_weight_sum(records, arc_of, col,
                              lambda a, b: omega.values[a * q.n + b],
                              add, (0,), neg, twist)
            for col in colorings)

    omega = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)[0]
    got = invariant_multiset(d, q, "classical", omega)
    assert got == oracle(omega) == WeightMultiset.from_values(
        [(0,)] * 8 + [(3,)] * 8)
    signs = raw_positive_signs(records, closure["exterior"])

    def checkerboard(term, ci):
        return term if signs[ci] == raw_crossing_sign(records[ci]) \
            else neg(term)

    basis = cocycle_basis(DifferentialSpec.positive(A), q, None, A, 2)
    for omega in basis:
        assert invariant_multiset(d, q, "positive", omega) == \
            invariant_multiset(d, q, "twisted", omega, alpha=-1) == \
            oracle(omega, checkerboard)
    assert invariant_multiset(d, q, "positive", basis[1]) == \
        WeightMultiset.from_values([(0,)] * 8 + [(2,)] * 8)


def test_non_constant_anchors_for_the_other_flavors():
    # the same torus link and D4 over Z/4: twisted, link_twisted, shadow
    # and shadow_twisted each weigh half the 16 colorings apart from the
    # rest.  Each pin is checked against weights recomputed from the raw
    # records; then twisted and link_twisted against shadow over their
    # transports, at both exteriors of the transport module
    q, A = make_dihedral(4), CoeffGroup((4,))
    closure = braid_closure([-1, -1, -1, 1, -1, -1], 2)
    records, exterior = closure["crossings"], closure["exterior"]
    d = parse_diagram(closure)
    arc_of, n_arcs = arc_map_from_raw(records)
    op, inv = [list(r) for r in q.op], [list(r) for r in q.inv]
    colorings = brute_force_colorings(records, arc_of, n_arcs, op, inv)
    assert len(colorings) == 16
    index = [i for i, in raw_source_colors(records, exterior, (0,),
                                           lambda sa: (1,))]

    def pinned(*pairs):
        return WeightMultiset.from_values(
            [(w,) for w, m in pairs for _ in range(m)])

    def symbolic(omega, units, exterior_color, orbit_of=None):
        table = [v for v, in omega.values]
        return WeightMultiset.from_values(
            (symbolic_shadow_weight(records, exterior, arc_of, col, table, 4,
                                    units, exterior_color, orbit_of),)
            for col in colorings)

    def shadow_oracle(omega, alpha=1, exterior_color=0):
        def weights():
            for col in colorings:
                faces = raw_face_action_colors(
                    records, exterior, exterior_color,
                    lambda m, sa: op[m][col[arc_of[sa]]],
                    lambda m, sa: inv[m][col[arc_of[sa]]])
                yield oracle_weight_sum(
                    records, arc_of, col,
                    lambda m, a, b: omega.values[(m * q.n + a) * q.n + b],
                    lambda x, y: ((x[0] + y[0]) % 4,), (0,),
                    lambda x: ((-x[0]) % 4,),
                    lambda t, ci: ((t[0] * pow(alpha, -index[ci], 4)) % 4,),
                    raw_sources(records, faces))
        return WeightMultiset.from_values(weights())

    tw = cocycle_basis(DifferentialSpec.twisted(A, 3), q, None, A, 2)[1]
    got = invariant_multiset(d, q, "twisted", tw, alpha=3)
    assert got == symbolic(tw, [3], 0) == pinned((0, 8), (2, 8))
    for e in (0, 1):
        assert got == invariant_multiset(
            d, q, "shadow", transport_to_shadow(tw, [IntUnit(A, 3)]),
            exterior=e)
    units = [IntUnit(A, 1), IntUnit(A, 3)]
    lt = link_twisted_cocycle_basis(q, A, units)[0]
    got = invariant_multiset(d, q, "link_twisted", lt, alphas=units)
    assert got == symbolic(lt, [1, 3], (0, 0), raw_orbit_ids(op)) == \
        pinned((0, 8), (2, 8))
    for e in (0, 1):
        assert got == invariant_multiset(
            d, q, "shadow", transport_to_shadow(lt, units), exterior=e)
    # at exterior 0 every source region of this diagram is colored 0, so
    # exterior 1 is checked against the oracle too
    mod = quandle_as_module(q)
    sh = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)[0]
    assert invariant_multiset(d, q, "shadow", sh, exterior=0) == \
        shadow_oracle(sh) == pinned((0, 8), (3, 8))
    assert invariant_multiset(d, q, "shadow", sh, exterior=1) == \
        shadow_oracle(sh, exterior_color=1)
    sht = cocycle_basis(DifferentialSpec.twisted(A, 3), q, mod, A, 2)[0]
    assert invariant_multiset(d, q, "shadow_twisted", sht, alpha=3,
                              exterior=0) == \
        shadow_oracle(sht, 3) == pinned((0, 8), (2, 8))
    assert invariant_multiset(d, q, "shadow_twisted", sht, alpha=3,
                              exterior=1) == shadow_oracle(sht, 3, 1)


def test_units_over_another_group_are_refused():
    # a unit acts on the cochain's coefficient group or nowhere: before, a
    # Z/7 alpha weighed a Z/5 cochain silently, and per-orbit units of
    # mixed groups reached the gate
    q = make_dihedral(4)
    z5, z7 = CoeffGroup((5,)), CoeffGroup((7,))
    d = corpus.load("link_r3a")
    omega = random_cochain(random.Random(7), q, None, z5, 2)
    with pytest.raises(StructureError, match="acts on CoeffGroup\\(7,\\)"):
        invariant_multiset(d, q, "twisted", omega, alpha=IntUnit(z7, 2),
                           check=False)
    with pytest.raises(StructureError, match="acts on CoeffGroup\\(7,\\)"):
        validate_cocycle("link_twisted", omega,
                         alphas=[IntUnit(z5, 2), IntUnit(z7, 3)])
    with pytest.raises(StructureError, match="different groups"):
        DifferentialSpec.link_twisted([IntUnit(z5, 2), IntUnit(z7, 3)],
                                      orbits(q))
    # the same units over the cochain's own group still weigh
    assert invariant_multiset(d, q, "twisted", omega, alpha=IntUnit(z5, 2),
                              check=False) == \
        invariant_multiset(d, q, "twisted", omega, alpha=2, check=False)


# -- one coloring weighed per orbit of Inn(Q) ----------------------------------

def _arc_flavor_bases(rng, q, A):
    """(flavor, keyword arguments, raw units, cocycle basis) per
    arc-coloring flavor over Z/n: classical, positive, twisted at every
    unit and link_twisted at seeded per-orbit units.  The raw units are
    the ints that symbolic_shadow_weight twists by."""
    n = A.moduli[0]
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    alphas = [rng.choice(units) for _ in range(orbits(q).count)]
    flavors = [("classical", {}, [1], DifferentialSpec.quandle(A)),
               ("positive", {}, [-1], DifferentialSpec.positive(A))]
    flavors += [("twisted", {"alpha": u}, [u], DifferentialSpec.twisted(A, u))
                for u in units]
    flavors.append(("link_twisted", {"alphas": alphas}, alphas,
                    DifferentialSpec.link_twisted(
                        [IntUnit(A, u) for u in alphas], orbits(q))))
    return [(flavor, kwargs, raw, cocycle_basis(spec, q, None, A, 2))
            for flavor, kwargs, raw, spec in flavors]


def _combination(rng, basis):
    """A seeded combination of a nonempty cocycle basis over Z/n."""
    q, A = basis[0].quandle, basis[0].coeff
    n = A.moduli[0]
    ks = [rng.randrange(n) for _ in basis]
    values = [(sum(k * v for k, (v,) in zip(ks, point)) % n,)
              for point in zip(*(vector.values for vector in basis))]
    return Cochain(q, None, A, 2, values)


def _weigh_one(d, col, flavor, omega, kwargs):
    """One coloring's weight from the single-coloring entry point."""
    weigh = {"classical": weight_classical, "positive": weight_positive,
             "twisted": weight_twisted,
             "link_twisted": weight_link_twisted}[flavor]
    return weigh(d, col, omega, *kwargs.values(), check=False)


def test_orbit_weighing_matches_full_weighing():
    # a gated arc-coloring multiset weighs one coloring per orbit O of
    # Inn(Q) and counts its weight |O| times (_Plan).  Against every
    # coloring of the brute-force search weighed on its own, for the
    # whole multiset and every bucket of the orbit refinement: the torus
    # link of the anchors above and seeded 2-4-strand closures, with D4,
    # Alex(8,3) (orbits of 4) and S3 by conjugation (orbits of 1, 2 and
    # 3).  On the torus link every weight is also recomputed from the
    # raw records, with no qci code
    rng = random.Random(38)
    d4, alex = make_dihedral(4), make_alexander(8, 3)
    torus = braid_closure([-1, -1, -1, 1, -1, -1], 2)
    bases = {(d4, 4): _arc_flavor_bases(rng, d4, CoeffGroup((4,)))}
    inputs = [(d4, 4, torus)]
    for q, n in ((d4, 4), (alex, 4), (alex, 8),
                 (make_conjugation(symmetric_3()), 4)):
        if (q, n) not in bases:
            bases[q, n] = _arc_flavor_bases(rng, q, CoeffGroup((n,)))
        found = 0
        while found < 4:
            strands = rng.randrange(2, 5)
            word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                    for _ in range(rng.randrange(strands, 7))]
            closure = braid_closure(word, strands)
            count = arc_map_from_raw(closure["crossings"])[1]
            if {abs(w) for w in word} == set(range(1, strands)) and \
                    q.n ** count <= 5_000:
                inputs.append((q, n, closure))
                found += 1
    varied, cases = set(), 0
    for q, n, closure in inputs:
        records = closure["crossings"]
        arc_of, count = arc_map_from_raw(records)
        colorings = brute_force_colorings(records, arc_of, count, q.op,
                                          q.inv)
        d, om = parse_diagram(closure), orbits(q)
        for flavor, kwargs, raw, basis in bases[q, n]:
            omega = _combination(rng, basis)
            weights = [_weigh_one(d, col, flavor, omega, kwargs)
                       for col in colorings]
            if closure is torus:
                per_orbit = flavor == "link_twisted"
                assert weights == [(symbolic_shadow_weight(
                    records, closure["exterior"], arc_of, col,
                    [v for v, in omega.values], n, raw,
                    (0,) * len(raw), raw_orbit_ids(q.op) if per_orbit
                    else None),) for col in colorings]
            parts = {}
            for col, weight in zip(colorings, weights):
                parts.setdefault(component_orbits(d, col, om), []).append(
                    weight)
            assert invariant_multiset(d, q, flavor, omega, **kwargs) == \
                WeightMultiset.from_values(weights), (flavor, closure)
            assert orbit_refined_multisets(d, q, flavor, omega,
                                           **kwargs) == {
                key: WeightMultiset.from_values(part)
                for key, part in sorted(parts.items())}
            cases += 1
            if len(set(weights)) > 1:
                varied.add(flavor)
    assert cases == 93
    assert varied == {"classical", "positive", "twisted", "link_twisted"}


def test_weigh_cost_per_coloring(monkeypatch):
    # the weighing analogue of test_search_cost_per_coloring: a gated
    # arc-coloring multiset weighs exactly one coloring in |O|, a quarter
    # of an Alex(8,3) link's colorings and half of a D4 link's.  Without
    # the gate, and for the shadow flavors, it weighs every coloring
    import qci.invariants as inv
    calls = [0]

    def counted(self, *args, _call=inv._Plan.__call__):
        calls[0] += 1
        return _call(self, *args)

    monkeypatch.setattr(inv._Plan, "__call__", counted)
    A = CoeffGroup((4,))
    for q, word, strands, size in (
            (make_alexander(8, 3), [1, 1, -2, 1, 1, -2], 3, 4),
            (make_dihedral(4), [-1, -1, -1, 1, -1, -1], 2, 2)):
        d = parse_diagram(braid_closure(word, strands))
        colorings = len(enumerate_colorings(d, q))
        assert d.n_components >= 2 and colorings % size == 0
        omega = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)[0]
        for check, weighed in ((True, colorings // size),
                               (False, colorings)):
            for multisets in (invariant_multiset, orbit_refined_multisets):
                calls[0] = 0
                multisets(d, q, "classical", omega, check=check)
                assert calls[0] == weighed, (q, check, multisets)
        calls[0] = 0
        invariant_multiset(d, q, "shadow",
                           zero_cochain(q, quandle_as_module(q), A, 2),
                           exterior=1)
        assert calls[0] == colorings


def test_the_shadow_flavors_weigh_every_coloring():
    # the shadow flavors pin the exterior color, which the maps between
    # the colorings of one orbit move, so every coloring is weighed: the
    # multisets equal every coloring's own weight at both exteriors
    q, A = make_dihedral(4), CoeffGroup((4,))
    mod = quandle_as_module(q)
    d = parse_diagram(braid_closure([1, -2, -1, -1, -2], 3))
    colorings = enumerate_colorings(d, q)
    sh = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)[1]
    sht = cocycle_basis(DifferentialSpec.twisted(A, 3), q, mod, A, 2)[1]
    for exterior in (0, 1):
        shadows = [propagate_shadow(d, col, mod, exterior)
                   for col in colorings]
        assert invariant_multiset(d, q, "shadow", sh, exterior=exterior) \
            == WeightMultiset.from_values(weight_shadow(d, s, sh)
                                          for s in shadows)
        assert invariant_multiset(d, q, "shadow_twisted", sht, alpha=3,
                                  exterior=exterior) == \
            WeightMultiset.from_values(weight_shadow_twisted(d, s, sht, 3)
                                       for s in shadows)
