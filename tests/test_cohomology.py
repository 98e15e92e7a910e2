"""Differentials, cocycle predicates, transports, and basis computation."""

import math
import random
from itertools import product

import pytest

from qci import corpus, modlinalg
from qci.algebra import (CoeffGroup, IntUnit, Quandle, Scalar, ShiftUnit,
                         StructureError, cyclic_shadow_module,
                         make_alexander, make_dihedral, make_trivial,
                         orbit_shadow_module, orbits, quandle_as_module)
from qci.cohomology import (Cochain, DifferentialSpec,
                            cocycle_basis, cohomology_basis,
                            d_left, d_right, differential,
                            is_cocycle, is_in_span, is_link_twisted_cocycle,
                            link_twisted_cocycle_basis, random_cochain,
                            transport_to_shadow, zero_cochain)
from qci.coloring import enumerate_colorings, propagate_shadow
from qci.invariants import weight_shadow
from tests.oracle_utils import (canonical_table, classical_condition_holds,
                                degenerate_rows, differential_rows,
                                enumerate_classical_cocycles, first_failure,
                                pointwise_differential,
                                positive_condition_holds, raw_orbit_ids,
                                rref_rank_mod_p, small_quandles,
                                twisted_condition_holds)


def _vec(*xs):
    return tuple(xs)


def test_d_left_degree0():
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    m = quandle_as_module(q)
    # constant map: (d_l phi)(m, a) = phi(m |> a) = c
    phi = Cochain(q, m, A, 0, [(2,)] * 3)
    out = d_left(phi)
    assert all(v == (2,) for v in out.values)
    # non-constant: the single term reads phi at the acted element
    phi2 = Cochain(q, m, A, 0, [(0,), (1,), (2,)])
    out2 = d_left(phi2)
    for mm in range(3):
        for a in range(3):
            assert out2.at(mm, (a,)) == ((q.apply(mm, a),) if True else None)
            assert out2.at(mm, (a,)) == (q.apply(mm, a) % 5,)


def test_d_right_degree0():
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    m = quandle_as_module(q)
    phi = Cochain(q, m, A, 0, [(0,), (1,), (2,)])
    out = d_right(phi)
    for mm in range(3):
        for a in range(3):
            assert out.at(mm, (a,)) == (mm,)


def test_d_left_degree1_trivial_quandle():
    q = make_trivial(3)
    A = CoeffGroup((7,))
    m = quandle_as_module(q)  # trivial quandle acting on itself: m |> a = m
    rng = random.Random(0)
    phi = random_cochain(rng, q, m, A, 1)
    out = d_left(phi)
    for mm in range(3):
        for a in range(3):
            for b in range(3):
                # (d_l phi)(m,a,b) = phi(m|>a, b) - phi(m|>b, a|>b)
                want = A.sub(phi.at(q.apply(mm, a), (b,)),
                             phi.at(q.apply(mm, b), (q.apply(a, b),)))
                assert out.at(mm, (a, b)) == want


def test_d_right_degree1():
    q = make_dihedral(3)
    A = CoeffGroup((7,))
    m = quandle_as_module(q)
    rng = random.Random(1)
    phi = random_cochain(rng, q, m, A, 1)
    out = d_right(phi)
    for mm in range(3):
        for a in range(3):
            for b in range(3):
                want = A.sub(phi.at(mm, (b,)), phi.at(mm, (a,)))
                assert out.at(mm, (a, b)) == want


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (6,)])
def test_differentials_square_to_zero(moduli):
    rng = random.Random(42)
    A = CoeffGroup(moduli)
    for q in (make_trivial(2), make_dihedral(3)):
        for mod in (None, quandle_as_module(q), cyclic_shadow_module(q, 2)):
            for k in (0, 1):
                phi = random_cochain(rng, q, mod, A, k)
                assert d_left(d_left(phi)).is_zero()
                assert d_right(d_right(phi)).is_zero()
                anti = d_left(d_right(phi)).add(d_right(d_left(phi)))
                assert anti.is_zero()


def test_generic_spec_squares_to_zero():
    rng = random.Random(7)
    A = CoeffGroup((6,))
    q = make_dihedral(3)
    for _ in range(5):
        spec = DifferentialSpec(IntUnit(A, rng.choice([1, 5])),
                                IntUnit(A, rng.choice([1, 5])))
        phi = random_cochain(rng, q, None, A, 1)
        assert differential(spec, differential(spec, phi)).is_zero()


def test_quandle_spec_matches_classical_condition():
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    spec = DifferentialSpec.quandle(A)
    rng = random.Random(5)
    for _ in range(20):
        phi = random_cochain(rng, q, None, A, 2)
        flat = [v[0] for v in phi.values]
        direct = classical_condition_holds(q.op, flat, q.n, 3)
        diag_ok = all(phi.at(0, (a, a)) == (0,) for a in range(3))
        assert bool(is_cocycle(spec, phi)) == (direct and diag_ok)


def test_positive_spec_matches_direct_condition():
    q = make_dihedral(3)
    A = CoeffGroup((4,))
    spec = DifferentialSpec.positive(A)
    rng = random.Random(6)
    hits = 0
    for _ in range(30):
        phi = random_cochain(rng, q, None, A, 2)
        flat = [v[0] for v in phi.values]
        ok = positive_condition_holds(q.op, flat, q.n, 4)
        assert bool(is_cocycle(spec, phi)) == ok
        hits += ok
    # also check a known solution: any coboundary
    theta = random_cochain(rng, q, None, A, 1)
    db = differential(spec, theta)
    flat = [v[0] for v in db.values]
    assert positive_condition_holds(q.op, flat, q.n, 4)


def test_twisted_spec_matches_direct_condition():
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    for alpha in (2, 3):
        spec = DifferentialSpec.twisted(A, alpha)
        rng = random.Random(alpha)
        theta = random_cochain(rng, q, None, A, 1)
        db = differential(spec, theta)
        flat = [v[0] for v in db.values]
        assert twisted_condition_holds(q.op, flat, q.n, 5, alpha)
        for phi in cohomology_basis(spec, q, None, A, 2).cocycles:
            flat = [v[0] for v in phi.values]
            assert twisted_condition_holds(q.op, flat, q.n, 5, alpha)


def test_zero_and_coboundary_are_cocycles():
    q = make_dihedral(4)
    A = CoeffGroup((6,))
    rng = random.Random(9)
    for spec in (DifferentialSpec.quandle(A), DifferentialSpec.positive(A),
                 DifferentialSpec.twisted(A, 5)):
        z = zero_cochain(q, None, A, 2)
        assert is_cocycle(spec, z)
        theta = random_cochain(rng, q, None, A, 1)
        assert is_cocycle(spec, differential(spec, theta))


def test_cocycle_solution_space_matches_enumeration():
    # brute-force enumeration of the full solution space over Z_3
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    spec = DifferentialSpec.quandle(A)
    enumerated = set(enumerate_classical_cocycles(q.op, 3, 3))
    basis = cohomology_basis(spec, q, None, A, 2).cocycles
    # every reported basis vector solves the direct conditions
    for phi in basis:
        assert tuple(v[0] for v in phi.values) in enumerated
    # spanned set equals the enumerated set
    span = set()
    coefs = product(range(3), repeat=len(basis))
    for cs in coefs:
        acc = [0] * 9
        for c, phi in zip(cs, basis):
            acc = [(x + c * v[0]) % 3 for x, v in zip(acc, phi.values)]
        span.add(tuple(acc))
    assert span == enumerated


def test_degenerate_free_restriction():
    # if phi vanishes on degenerate tuples, so does its differential
    q = make_dihedral(4)
    A = CoeffGroup((6,))
    rng = random.Random(10)
    spec = DifferentialSpec.twisted(A, 5)
    for _ in range(5):
        phi = random_cochain(rng, q, None, A, 2)
        vals = list(phi.values)
        for a in range(4):
            for b in range(4):
                if a == b:
                    vals[phi.index(0, (a, b))] = (0,)
        phi = Cochain(q, None, A, 2, vals)
        out = differential(spec, phi)
        for m, args in out.domain():
            if any(x == y for x, y in zip(args, args[1:])):
                assert out.at(m, args) == A.zero()


def test_transport_basics():
    # a unit of order k gives a table over Z/k holding alpha^-m omega
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    rng = random.Random(11)
    omega = random_cochain(rng, q, None, A, 2)
    one = transport_to_shadow(omega, [IntUnit(A, 1)])
    assert one.module == cyclic_shadow_module(q, 1)
    assert one.values == omega.values
    minus = transport_to_shadow(omega, [IntUnit(A, -1)])
    assert minus.module == cyclic_shadow_module(q, 2)
    assert minus.at(1, (0, 1)) == A.neg(omega.at(0, (0, 1)))
    assert minus.at(0, (0, 1)) == omega.at(0, (0, 1))
    two = transport_to_shadow(omega, [IntUnit(A, 2)])
    assert two.module == cyclic_shadow_module(q, 4)
    for m in range(4):
        for args in product(range(3), repeat=2):
            want = pow(3, m, 5) * omega.at(0, args)[0] % 5   # 2^-1 = 3
            assert two.at(m, args) == (want,)
    # over Z the units are +-1; per orbit, one order per orbit
    Z = CoeffGroup((0,))
    theta = random_cochain(rng, q, None, Z, 2)
    assert transport_to_shadow(theta, [IntUnit(Z, -1)]).module.size == 2
    # on D4 (two orbits) one unit twists every color alike and three
    # units match no orbit count
    q4 = make_dihedral(4)
    omega = random_cochain(rng, q4, None, A, 2)
    both = transport_to_shadow(omega, [IntUnit(A, 4), IntUnit(A, 2)])
    assert both.module == orbit_shadow_module(q4, (2, 4))
    assert both.at(1 * 4 + 3, (1, 2)) == \
        IntUnit(A, 2).apply(A.neg(omega.at(0, (1, 2))), -3)
    assert transport_to_shadow(omega, [IntUnit(A, 2)]).module == \
        cyclic_shadow_module(q4, 4)
    with pytest.raises(StructureError, match="one per quandle orbit"):
        transport_to_shadow(omega, [IntUnit(A, 4)] * 3)
    with pytest.raises(StructureError, match="trivial-module"):
        transport_to_shadow(two, [IntUnit(A, 2)])


def test_transport_cocycle_equivalence():
    # twisted condition for omega <=> shadow condition for its transport,
    # over dihedral 3, Z_5, alpha = 2 (order 4).  The shadow condition is
    # decided by the exact gate on the transport's table and, as a check
    # on it, evaluated pointwise from its definition at every region
    # color, once with the degeneracy condition and once without.
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, 2)
    tw = DifferentialSpec.twisted(A, 2)
    shadow_spec = DifferentialSpec.quandle(A)
    zero = A.zero()
    rng = random.Random(12)

    one = [[1]]

    def differential_vanishes(shadow):
        return all(pointwise_differential(shadow.at, shadow.module.act,
                                          q.apply, [one] * q.n, one,
                                          A.moduli, m, args) == zero
                   for m in range(shadow.module.size)
                   for args in product(range(q.n), repeat=3))

    def degenerate_free(shadow):
        return all(shadow.at(m, (a, a)) == zero
                   for m in range(shadow.module.size) for a in range(q.n))

    seen_true = seen_false = 0
    for _ in range(40):
        omega = random_cochain(rng, q, None, A, 2)
        shadow = transport_to_shadow(omega, [alpha])
        a = bool(is_cocycle(tw, omega, quandle_flag=False))
        b = differential_vanishes(shadow)
        assert a == b
        assert bool(is_cocycle(shadow_spec, shadow, quandle_flag=False)) == b
        flagged = b and degenerate_free(shadow)
        assert bool(is_cocycle(tw, omega)) == flagged
        assert bool(is_cocycle(shadow_spec, shadow)) == flagged
        seen_true += a
        seen_false += (not a)
    # make the equivalence non-vacuous with a guaranteed cocycle
    theta = random_cochain(rng, q, None, A, 1)
    omega = differential(tw, theta)
    shadow = transport_to_shadow(omega, [alpha])
    assert differential_vanishes(shadow) and degenerate_free(shadow)
    assert is_cocycle(shadow_spec, shadow)
    assert seen_false > 0


def test_transport_commutes_with_differential():
    # transport of the twisted coboundary = alpha * shadow d of transport
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    alpha = IntUnit(A, 2)
    tw = DifferentialSpec.twisted(A, 2)
    rng = random.Random(13)
    theta = random_cochain(rng, q, None, A, 1)
    left = transport_to_shadow(differential(tw, theta), [alpha])
    shadow = transport_to_shadow(theta, [alpha])
    assert left == differential(DifferentialSpec.quandle(A), shadow).scale(
        alpha)
    one = [[1]]
    for m in range(4):
        for a in range(3):
            for b in range(3):
                right = pointwise_differential(
                    shadow.at, shadow.module.act, q.apply, [one] * q.n, one,
                    A.moduli, m, (a, b))
                assert left.at(m, (a, b)) == alpha.apply(right)


def test_cohomology_trivial_quandle_size1():
    q = make_trivial(1)
    A = CoeffGroup((3,))
    spec = DifferentialSpec.quandle(A)
    basis = cohomology_basis(spec, q, None, A, 2, quandle_flag=True)
    assert basis.cocycles == [] or all(c.is_zero() for c in basis.cocycles)
    assert basis.torsion == [] and basis.free_rank == 0


def test_coboundary_membership():
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    spec = DifferentialSpec.quandle(A)
    basis = cohomology_basis(spec, q, None, A, 2)
    rng = random.Random(14)
    theta = random_cochain(rng, q, None, A, 1)
    assert is_in_span(basis.coboundaries, differential(spec, theta))


def test_ranks_against_rref_oracle():
    # dihedral 3 over Z_3 for three specs; independent dense row reduction
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    for l, r in ((1, 1), (1, -1), (1, 2)):
        spec = DifferentialSpec(IntUnit(A, l), IntUnit(A, r))
        basis = cohomology_basis(spec, q, None, A, 2)
        left, right = [[[l]]] * 3, [[r]]
        rows = differential_rows(q.op, left, right, 1, 2)
        rows += degenerate_rows(3, 1, 2)
        rank = rref_rank_mod_p(rows, 3)
        assert len(basis.cocycles) == 9 - rank
        img = [[x for v in c.values for x in v] for c in basis.coboundaries]
        # coboundary space rank equals the dimension of d(C^1): the rank of
        # the degree-1 differential matrix, i.e. of its transpose
        rows1 = differential_rows(q.op, left, right, 1, 1)
        d1_rank = rref_rank_mod_p([list(col) for col in zip(*rows1)], 3)
        assert len(basis.coboundaries) == d1_rank
        assert rref_rank_mod_p(img, 3) == len(basis.coboundaries)


def test_cohomology_over_integers():
    # on a trivial quandle the (1,1) differential vanishes identically, so
    # degree-2 cohomology is free of rank n(n-1) (off-diagonal pairs)
    q = make_trivial(2)
    A = CoeffGroup((0,))
    spec = DifferentialSpec.quandle(A)
    basis = cohomology_basis(spec, q, None, A, 2)
    for c in basis.cocycles:
        assert is_cocycle(spec, c)
    assert basis.free_rank == 2
    assert basis.torsion == []
    assert len(basis.coboundaries) == 0


def _prime_powers(factors):
    """The elementary divisors of a direct sum of cyclic groups, sorted."""
    out = []
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f, q = f // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def test_mixed_moduli_cohomology():
    q = make_dihedral(3)
    A = CoeffGroup((2, 3))
    spec = DifferentialSpec.quandle(A)
    basis = cohomology_basis(spec, q, None, A, 2)
    for c in basis.cocycles:
        assert is_cocycle(spec, c)
    for c in basis.coboundaries:
        assert is_cocycle(spec, c)
    # H^2(R4; Z/2) = (Z/2)^4, H^2(R4; Z/3) = (Z/3)^2, H^2(R4; Z/4) =
    # (Z/2)^2 + (Z/4)^2 and H^2(R4; Z) has free rank 2: every mixed group
    # gives the direct sum of its single-modulus groups
    q = make_dihedral(4)
    for moduli in ((2, 3), (0, 4), (2, 4)):
        A = CoeffGroup(moduli)
        mixed = cohomology_basis(DifferentialSpec.quandle(A), q, None, A, 2)
        parts = [cohomology_basis(DifferentialSpec.quandle(CoeffGroup((n,))),
                                  q, None, CoeffGroup((n,)), 2)
                 for n in moduli]
        assert mixed.torsion
        assert _prime_powers(mixed.torsion) == _prime_powers(
            [f for p in parts for f in p.torsion])
        assert mixed.free_rank == sum(p.free_rank for p in parts)
        assert len(mixed.cocycles) == sum(len(p.cocycles) for p in parts)
        assert len(mixed.coboundaries) == sum(len(p.coboundaries)
                                              for p in parts)
    # membership on Z x Z/4: a coboundary is in both spans, a cochain that
    # is not a cocycle in neither
    A = CoeffGroup((0, 4))
    spec = DifferentialSpec.quandle(A)
    basis = cohomology_basis(spec, q, None, A, 2)
    rng = random.Random(23)
    db = differential(spec, random_cochain(rng, q, None, A, 1))
    assert not db.is_zero()
    assert is_in_span(basis.coboundaries, db)
    assert is_in_span(basis.cocycles, db)
    phi = random_cochain(rng, q, None, A, 2)
    assert not is_cocycle(spec, phi, quandle_flag=False)
    assert not is_in_span(basis.cocycles, phi)
    assert not is_in_span(basis.coboundaries, phi)


def test_is_in_span_refuses_a_cochain_of_another_shape():
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    cocycles = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)
    phi = cocycles[0]
    assert is_in_span(cocycles, phi)
    others = (zero_cochain(q, None, CoeffGroup((5,)), 2),
              zero_cochain(q, quandle_as_module(q), A, 2),
              zero_cochain(q, None, A, 1),
              zero_cochain(make_trivial(3), None, A, 2))
    for other in others:
        with pytest.raises(StructureError, match="one quandle, module"):
            is_in_span([*cocycles, other], phi)


def test_bases_refuse_a_spec_over_another_group():
    # the spec's units act on their own group; solving for cochains in
    # another one, or applying the differential to one, is refused, as
    # is_cocycle refuses such a pair
    q = make_dihedral(3)
    Z3, Z3sq = CoeffGroup((3,)), CoeffGroup((3, 3))
    for spec, coeff in ((DifferentialSpec.quandle(Z3), Z3sq),
                        (DifferentialSpec.quandle(Z3sq), Z3),
                        (DifferentialSpec.twisted(Z3, 2), CoeffGroup((5,)))):
        for basis in (cohomology_basis, cocycle_basis):
            with pytest.raises(StructureError,
                               match="spec and coefficient groups differ"):
                basis(spec, q, None, coeff, 2)
        phi = zero_cochain(q, None, coeff, 1)
        for gate_or_map in (is_cocycle, differential):
            with pytest.raises(StructureError,
                               match="spec and coefficient groups differ"):
                gate_or_map(spec, phi)
    with pytest.raises(StructureError, match="spec and coefficient groups"):
        link_twisted_cocycle_basis(q, Z3sq, [IntUnit(Z3, 2)])


class _Shear(Scalar):
    """(x, y) -> (x, 2x + y) on Z/2 x Z/4: a unit that mixes the two
    coordinates, so the pieces of the mixed moduli cannot be solved apart."""

    def apply(self, x, power=1):
        return (x[0] % 2, (2 * power * x[0] + x[1]) % 4)

    def int_matrix(self, power=1):
        return [[1, 0], [2 * power, 1]]


def test_mixed_moduli_refuse_coordinate_mixing():
    q = make_dihedral(3)
    A = CoeffGroup((2, 4))
    spec = DifferentialSpec(IntUnit(A, 1), _Shear(A))
    for module in (None, quandle_as_module(q)):
        for basis in (cohomology_basis, cocycle_basis):
            with pytest.raises(StructureError, match="^mixed-modulus system "
                               "with coordinate mixing$"):
                basis(spec, q, module, A, 2)
    # the same shear on equal moduli is one piece of both coordinates
    A = CoeffGroup((4, 4))
    spec = DifferentialSpec(IntUnit(A, 1), _Shear(A))
    for c in cohomology_basis(spec, q, None, A, 2).cocycles:
        assert is_cocycle(spec, c)


def test_kernel_rows_are_sparse(monkeypatch):
    # every row reaching the elimination is a dict holding at most the
    # 2(k+1) terms of its point times d coordinates, never a dense row
    seen = []
    kernel = modlinalg.kernel_mod

    def spy(rows, ncols, n):
        seen.append(rows)
        return kernel(rows, ncols, n)

    monkeypatch.setattr(modlinalg, "kernel_mod", spy)
    q = make_dihedral(3)
    for moduli, unit in (((5,), lambda A: IntUnit(A, 2)),
                         ((0,), lambda A: IntUnit(A, -1)),
                         ((2, 3), lambda A: IntUnit(A, -1)),
                         ((3, 3, 3), lambda A: ShiftUnit(A))):
        A = CoeffGroup(moduli)
        spec = DifferentialSpec(IntUnit(A, 1), unit(A))
        for module in (None, quandle_as_module(q)):
            for k in (1, 2, 3):
                for flag in (True, False):
                    del seen[:]
                    cohomology_basis(spec, q, module, A, k, flag)
                    assert len(seen) == len(set(moduli))
                    for rows in seen:
                        assert rows and all(
                            type(r) is dict and len(r) <= 2 * (k + 1) * A.d
                            for r in rows), (moduli, k)


def _matrix(unit, power=1):
    """The integer matrix of a unit, read off its action on unit vectors."""
    d = unit.group.d
    cols = [unit.apply(tuple(int(i == j) for i in range(d)), power)
            for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _scaled_identity(d, k):
    return [[k * (i == j) for j in range(d)] for i in range(d)]


def _oracle_image(theta, left, right, module=None):
    """The degree k+1 values of theta's differential, flattened, from the
    qci-free pointwise evaluator."""
    q = theta.quandle
    act = module.act if module is not None else (lambda m, a: m)
    size = module.size if module is not None else 1
    return [c for m in range(size)
            for args in product(range(q.n), repeat=theta.degree + 1)
            for c in pointwise_differential(theta.at, act, q.apply, left,
                                            right, theta.coeff.moduli, m,
                                            args)]


def _flat(phi):
    return [c for v in phi.values for c in v]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_differential_rows_match_pointwise_differential(k):
    # every gate, dense differential and basis reads this one matrix, so
    # the qci-free pointwise evaluator is its independent reference; the
    # weights are read off each unit's action, not off the spec
    from qci.cohomology import _differential_rows

    def matrix_image(spec, theta):
        x = _flat(theta)
        rows = _differential_rows(spec, theta.quandle, theta.module,
                                  theta.degree, range(theta.coeff.d))
        got = [sum(v * x[c] for c, v in row.items()) for row in rows]
        mods = theta.coeff.moduli * (len(got) // theta.coeff.d)
        return [v % n if n else v for v, n in zip(got, mods)]

    q = make_dihedral(3)
    rng = random.Random(30 + k)
    for moduli, units in (
            ((5,), lambda A: (IntUnit(A, 1), IntUnit(A, 2))),
            ((0,), lambda A: (IntUnit(A, 1), IntUnit(A, 1))),
            ((2, 3), lambda A: (IntUnit(A, 1), IntUnit(A, -1))),
            ((3, 3, 3, 3), lambda A: (IntUnit(A, 1), ShiftUnit(A)))):
        A = CoeffGroup(moduli)
        alpha_l, alpha_r = units(A)
        spec = DifferentialSpec(alpha_l, alpha_r)
        left, right = [_matrix(alpha_l)] * q.n, _matrix(alpha_r)
        eye, zero = _scaled_identity(A.d, 1), _scaled_identity(A.d, 0)
        neg = _scaled_identity(A.d, -1)
        for module in (None, quandle_as_module(q), cyclic_shadow_module(q, 2)):
            theta = random_cochain(rng, q, module, A, k)
            want = _oracle_image(theta, left, right, module)
            assert matrix_image(spec, theta) == want, (moduli, module, k)
            assert _flat(differential(spec, theta)) == want
            assert _flat(d_left(theta)) == _oracle_image(
                theta, [eye] * q.n, zero, module)
            assert _flat(d_right(theta)) == _oracle_image(
                theta, [zero] * q.n, neg, module)
    # the per-orbit twisted spec: the term acting by a is weighted by the
    # inverse unit of a's orbit, every deleting term by 1
    for q, moduli, units in (
            (make_dihedral(4), (5,), lambda A: [IntUnit(A, 2), IntUnit(A, 3)]),
            (make_alexander(8, 3), (4,),
             lambda A: [IntUnit(A, 3), IntUnit(A, 1)]),
            (make_alexander(8, 3), (3, 3, 3),
             lambda A: [ShiftUnit(A), ShiftUnit(A, 2)])):
        A = CoeffGroup(moduli)
        om = orbits(q)
        alphas = units(A)
        spec = DifferentialSpec.link_twisted(alphas, om)
        left = [_matrix(alphas[om.of(a)], -1) for a in range(q.n)]
        theta = random_cochain(rng, q, None, A, k)
        want = _oracle_image(theta, left, _scaled_identity(A.d, 1))
        assert matrix_image(spec, theta) == want, (q.n, moduli, k)
        assert _flat(differential(spec, theta)) == want


def test_cyclotomic_truncation_mode():
    # A = Z_3[t]/(t^4-1) as four copies of Z_3 with t acting by shift
    q = make_dihedral(3)
    A = CoeffGroup((3, 3, 3, 3))
    t = ShiftUnit(A)
    spec = DifferentialSpec(IntUnit(A, 1), t)
    rng = random.Random(15)
    theta = random_cochain(rng, q, None, A, 1)
    db = differential(spec, theta)
    assert is_cocycle(spec, db)
    basis = cohomology_basis(spec, q, None, A, 2)
    assert basis.cocycles
    for c in basis.cocycles:
        assert is_cocycle(spec, c)


def test_link_twisted_cocycles():
    q = make_dihedral(4)  # two orbits
    A = CoeffGroup((5,))
    alphas = [IntUnit(A, 2), IntUnit(A, 3)]
    basis = link_twisted_cocycle_basis(q, A, alphas)
    assert basis
    for phi in basis:
        assert is_link_twisted_cocycle(phi, alphas)
    rng = random.Random(16)
    theta = random_cochain(rng, q, None, A, 1)
    db = differential(DifferentialSpec.link_twisted(alphas, orbits(q)),
                      theta)
    assert is_link_twisted_cocycle(db, alphas)
    # equal units reduce to the plain twisted theory
    same = [IntUnit(A, 2), IntUnit(A, 2)]
    spec = DifferentialSpec.twisted(A, 2)
    for _ in range(20):
        phi = random_cochain(rng, q, None, A, 2)
        assert bool(is_link_twisted_cocycle(phi, same)) == bool(
            is_cocycle(spec, phi))


def _zero_degenerate(phi, rng=None):
    """phi with its degenerate entries zeroed; given rng, one of them, at
    a random place, keeps a nonzero value."""
    zero = phi.coeff.zero()
    degenerate = [i for i, (_m, args) in enumerate(phi.domain())
                  if any(x == y for x, y in zip(args, args[1:]))]
    values = list(phi.values)
    for i in degenerate:
        values[i] = zero
    if rng is not None and degenerate:
        values[rng.choice(degenerate)] = (1,) * phi.coeff.d
    return Cochain(phi.quandle, phi.module, phi.coeff, phi.degree, values)


def test_gate_witness_matches_oracle_first_failure():
    # seeded random non-cocycles, some with the degenerate entries zeroed
    # so that the differential's rows are reached, some with one of them
    # left nonzero at a random place, plus coboundaries: the gates report
    # the verdict, axiom and witness of the qci-free oracle's first
    # failure in table order; degree 3 acts on prefixes of two colors
    rng = random.Random(61)
    seen = set()

    def compare(report, want, strip=0):
        assert report.passed == (want is None)
        if want is not None:
            assert (report.axiom, report.witness) == (want[0],
                                                      want[1][strip:])
            seen.add(want[0])
        else:
            seen.add("pass")

    q = make_dihedral(3)
    for moduli, units in (
            ((0,), lambda A: (IntUnit(A, 1), IntUnit(A, -1))),
            ((2, 4), lambda A: (IntUnit(A, 1), IntUnit(A, 3))),
            ((3, 3, 3), lambda A: (IntUnit(A, 1), ShiftUnit(A)))):
        A = CoeffGroup(moduli)
        alpha_l, alpha_r = units(A)
        spec = DifferentialSpec(alpha_l, alpha_r)
        left, right = [_matrix(alpha_l)] * q.n, _matrix(alpha_r)
        for module, degrees in ((None, (1, 2, 3)),
                                (quandle_as_module(q), (1, 2, 3)),
                                (cyclic_shadow_module(q, 2), (1, 2))):
            act = module.act if module is not None else (lambda m, a: m)
            size = module.size if module is not None else 1
            for degree in degrees:
                for trial in range(6):
                    phi = random_cochain(rng, q, module, A, degree)
                    if trial % 2:
                        phi = _zero_degenerate(phi, rng if trial == 5 else None)
                    if trial == 4:
                        phi = differential(spec, random_cochain(
                            rng, q, module, A, degree - 1))
                    for flag in (True, False):
                        want = first_failure(phi.at, act, q.apply, left,
                                             right, moduli, q.n, size, degree,
                                             flag)
                        compare(is_cocycle(spec, phi, quandle_flag=flag),
                                want)
    for q, moduli, units in (
            (make_dihedral(4), (5,), lambda A: [IntUnit(A, 2), IntUnit(A, 3)]),
            (make_alexander(8, 3), (2, 4),
             lambda A: [IntUnit(A, 3), IntUnit(A, 1)])):
        A = CoeffGroup(moduli)
        om = orbits(q)
        alphas = units(A)
        left = [_matrix(alphas[om.of(a)], -1) for a in range(q.n)]
        basis = link_twisted_cocycle_basis(q, A, alphas)
        for trial in range(6):
            phi = random_cochain(rng, q, None, A, 2)
            if trial % 2:
                phi = _zero_degenerate(phi, rng if trial == 5 else None)
            if trial == 4:
                phi = basis[-1]
            for flag in (True, False):
                want = first_failure(phi.at, lambda m, a: m, q.apply, left,
                                     _scaled_identity(A.d, 1), moduli, q.n, 1,
                                     2, flag)
                compare(is_link_twisted_cocycle(phi, alphas, flag), want,
                        strip=1)
    assert seen == {"pass", "cocycle", "degenerate-vanishing"}


def test_gates_and_dense_maps_read_the_condition_through_the_columns(
        monkeypatch):
    # the gates and the dense differentials never build the rows x columns
    # matrix (32768 x 4096 entries for the degree-3 table below): each
    # reads the index columns of the differential once, and a gate still
    # reports the oracle's first failing point in table order
    from qci import cohomology

    def no_matrix(*args):
        raise AssertionError("dense differential matrix built")

    built = []
    columns = cohomology._columns

    def counted(*args):
        built.append(args[2])
        return columns(*args)

    monkeypatch.setattr(cohomology, "_differential_rows", no_matrix)
    monkeypatch.setattr(cohomology, "_columns", counted)
    q = make_alexander(8, 3)
    A = CoeffGroup((4,))
    module = quandle_as_module(q)
    spec = DifferentialSpec.quandle(A)
    rng = random.Random(5)
    phi = random_cochain(rng, q, module, A, 3)
    report = is_cocycle(spec, phi, quandle_flag=False)
    identity = _scaled_identity(1, 1)
    assert (report.axiom, report.witness) == first_failure(
        phi.at, module.act, q.apply, [identity] * q.n, identity, (4,), q.n,
        module.size, 3, False)
    assert built == [3]
    theta = random_cochain(rng, q, module, A, 1)
    assert is_cocycle(spec, differential(spec, theta))
    assert d_left(theta).quandle is q and d_right(theta).degree == 2
    assert built == [3, 1, 2, 1, 1]
    alphas = [IntUnit(A, 3), IntUnit(A, 1)]
    cob = differential(DifferentialSpec.link_twisted(alphas, orbits(q)),
                       random_cochain(rng, q, None, A, 1))
    assert is_link_twisted_cocycle(cob, alphas, quandle_flag=False)


def test_dense_rejects_symbolic():
    # a cochain over the symbolic shadow carriers has no table: their
    # module kinds are refused, and no shadow weight reads a trivial-module
    # cochain with its region slot dropped
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    for module in ({"v": 1, "kind": "int_shadow"},
                   {"v": 1, "kind": "orbit_shadow", "orbits": 1}):
        data = {"v": 1, "degree": 2, "module": module,
                "coeff": {"moduli": [5]}, "values": [[0]] * 9}
        with pytest.raises(StructureError, match="unknown module kind"):
            Cochain.from_json(data, q)
    d = corpus.load("trefoil")
    omega = zero_cochain(q, None, A, 2)
    sh = propagate_shadow(d, enumerate_colorings(d, q)[0],
                          cyclic_shadow_module(q, 4), 0)
    with pytest.raises(StructureError, match="module cochain"):
        weight_shadow(d, sh, omega)


def test_dense_rejects_finite_product_module():
    # a product module acted on pairs, but dense tables index the module
    # carrier by position: a product is given as its table module instead
    q = make_dihedral(3)
    prod = {"v": 1, "kind": "product",
            "factors": [quandle_as_module(q).describe(),
                        cyclic_shadow_module(q, 2).describe()]}
    data = {"v": 1, "degree": 2, "module": prod, "coeff": {"moduli": [3]},
            "values": [[0]] * 54}
    with pytest.raises(StructureError, match="unknown module kind"):
        Cochain.from_json(data, q)


def test_cochain_json_roundtrip():
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    rng = random.Random(17)
    phi = random_cochain(rng, q, quandle_as_module(q), A, 2)
    back = Cochain.from_json(phi.to_json(), q)
    assert back == phi and back.module.action == phi.module.action


def test_known_cohomology_groups_dihedral3():
    # with trivial module the degree-2 quandle cohomology over Z_3 vanishes;
    # with the quandle acting on itself it is Z_3 (carried by the cocycle
    # that detects trefoil chirality)
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    spec = DifferentialSpec.quandle(A)
    triv = cohomology_basis(spec, q, None, A, 2)
    assert (len(triv.cocycles), len(triv.coboundaries)) == (2, 2)
    assert triv.torsion == [] and triv.free_rank == 0
    sh = cohomology_basis(spec, q, quandle_as_module(q), A, 2)
    assert (len(sh.cocycles), len(sh.coboundaries)) == (7, 6)
    assert sh.torsion == [3] and sh.free_rank == 0


@pytest.mark.parametrize("p", [5, 7])
def test_mochizuki_degree3_anchor(p):
    """H^3_Q(R_p; Z/p) = Z/p (Mochizuki, J. Pure Appl. Algebra 179, 2003).

    The cocycle and coboundary counts are checked against ranks from the
    independent row reduction of matrices built from the definition.  D7
    takes about 1.2 s on a 2-CPU machine: about 0.4 s in that rank oracle,
    under 0.1 s building its rows.
    """
    q = make_dihedral(p)
    A = CoeffGroup((p,))
    spec = DifferentialSpec.quandle(A)
    basis = cohomology_basis(spec, q, None, A, 3)
    assert basis.torsion == [p] and basis.free_rank == 0
    left, right = [[[1]]] * p, [[1]]
    rows = differential_rows(q.op, left, right, 1, 3)
    rows += degenerate_rows(p, 1, 3)
    assert len(basis.cocycles) == p ** 3 - rref_rank_mod_p(rows, p)
    # coboundaries: the degree-2 differential on non-degenerate cochains
    rows2 = differential_rows(q.op, left, right, 1, 2)
    image = [[r[c] for r in rows2] for c in range(p * p) if c // p != c % p]
    assert len(basis.coboundaries) == rref_rank_mod_p(image, p)
    assert len(basis.cocycles) - len(basis.coboundaries) == 1


def _trivial_cohomology(q, n, degree):
    A = CoeffGroup((n,))
    basis = cohomology_basis(DifferentialSpec.quandle(A), q, None, A, degree)
    return basis.torsion, basis.free_rank


@pytest.mark.parametrize("name, degree", [
    ("D3", 2), ("D4", 2), ("D5", 2), ("D6", 2), ("Alex(8,3)", 2),
    ("D3", 3), ("D4", 3)])
def test_universal_coefficients_tie_z_to_z_p(name, degree):
    """H^k(Z/m) = H^k(Z) (x) Z/m + Tor(H^(k+1)(Z), Z/m) for trivial
    coefficients: the universal coefficient theorem for the free cochain
    complex.  Each free summand of H^k(Z) gives a Z/m, and each torsion
    factor Z/f of H^k(Z) or of H^(k+1)(Z) gives a Z/gcd(f, m).

    Z and Z/m share the whole elimination, so this exercises the ring
    handling (pivot normalization, floor reduction over Z) and the Smith
    step, not the elimination order.  At the composite moduli 4 and 6 the
    differentials of D4, of Alex(8,3) and (at 6) of D3 in degree 3 keep
    non-unit pivots, so the kernel also solves a residual system beside
    its unit pivots; at a prime it never does.
    """
    q = (make_alexander(8, 3) if name == "Alex(8,3)"
         else make_dihedral(int(name[1:])))
    torsion_k, free_k = _trivial_cohomology(q, 0, degree)
    torsion_next, _ = _trivial_cohomology(q, 0, degree + 1)
    for m in (2, 3, 4, 5, 6):
        torsion, free_rank = _trivial_cohomology(q, m, degree)
        pieces = [m] * free_k + [math.gcd(f, m)
                                 for f in torsion_k + torsion_next]
        assert free_rank == 0
        assert torsion == [f for f in modlinalg.merge_factors(pieces)
                           if f != 1], m


def test_every_small_quandle_as_an_input_class():
    """Every quandle of order 1 to 5, one per isomorphism class, found by
    a qci-free enumerator: 1, 1, 5, 36 and 404 labelled quandles in 1, 1,
    3, 7 and 22 classes (OEIS A181771).

    For each class, H^d(Z) has free rank k(k-1)^(d-1) in degrees 1 to 3,
    with k the number of Inn(Q)-orbits (Litherland-Nelson, "The Betti
    numbers of some finite racks", J. Pure Appl. Algebra 178, 2003; the
    statement was not confirmed against the paper offline).  The universal coefficient theorem of
    `test_universal_coefficients_tie_z_to_z_p` ties H^d(Z/m) to H^d(Z)
    and H^(d+1)(Z) at m = 2, 3, 4, 6 and d = 1, 2.  Each of these 34
    inputs runs the kernel and the quotient over Z and four moduli.
    """
    classes = []
    for order, labelled, count in zip(range(1, 6), (1, 1, 5, 36, 404),
                                      (1, 1, 3, 7, 22)):
        tables = small_quandles(order)
        canon = sorted({canonical_table(t) for t in tables})
        assert (len(tables), len(canon)) == (labelled, count), order
        classes += canon
    wrong = []
    for table in classes:
        q = Quandle([list(r) for r in table])
        k = len(set(raw_orbit_ids(table)))
        over_z = [_trivial_cohomology(q, 0, d) for d in (1, 2, 3)]
        ranks = [free for _, free in over_z]
        if ranks != [k * (k - 1) ** (d - 1) for d in (1, 2, 3)]:
            wrong.append((table, "free ranks", ranks))
        for d in (1, 2):
            (torsion_d, free_d), (torsion_next, _) = over_z[d - 1:d + 1]
            for m in (2, 3, 4, 6):
                pieces = [m] * free_d + [math.gcd(f, m)
                                         for f in torsion_d + torsion_next]
                want = [f for f in modlinalg.merge_factors(pieces) if f != 1]
                if _trivial_cohomology(q, m, d) != (want, 0):
                    wrong.append((table, d, m))
    assert wrong == []


@pytest.mark.parametrize("n", [3, 5], ids=lambda n: f"D{n}")
def test_integral_degree4_anchor_dihedral(n):
    """H^4_Q(R_n; Z) has torsion Z/n for n = 3, 5, the Ext of
    H_3^Q(R_n; Z) = Z/n (Niebrzydowski-Przytycki, J. Pure Appl. Algebra
    213, 2009), and no free part: R_n is connected for odd n."""
    assert _trivial_cohomology(make_dihedral(n), 0, 4) == ([n], 0)


def test_quotients_over_z_n_stay_bounded(monkeypatch):
    # the integer Hermite route once grew xgcd operands past 600,000 bits
    # on these two; over Z/n every operand stays below n^2 and no Hermite
    # form is taken.  The recorder must see calls, or a path that bypassed
    # modlinalg.xgcd would leave the bound unchecked; over the prime 5
    # every pivot is a unit and no gcd step is needed, so only Z/4 makes
    # them.
    xgcd = modlinalg.xgcd
    bound = {"calls": 0}

    def recorded(a, b):
        assert abs(a) < bound["n"] ** 2 and abs(b) < bound["n"] ** 2, (a, b)
        bound["calls"] += 1
        return xgcd(a, b)

    def no_hnf(*args, **kwargs):
        raise AssertionError("Hermite form taken on a Z/n path")

    monkeypatch.setattr(modlinalg, "xgcd", recorded)
    monkeypatch.setattr(modlinalg, "hnf", no_hnf)
    monkeypatch.setattr(modlinalg, "solve_in_hnf", no_hnf)
    d5, a83 = make_dihedral(5), make_alexander(8, 3)
    for q, module, n, degree, torsion in (
            (d5, None, 5, 3, [5]),
            (a83, cyclic_shadow_module(a83, 2), 4, 2, [2, 4, 4, 4, 4, 4])):
        bound["n"] = n
        A = CoeffGroup((n,))
        basis = cohomology_basis(DifferentialSpec.quandle(A), q, module, A,
                                 degree)
        assert basis.torsion == torsion
    assert bound["calls"] > 0


def test_cochain_json_accepts_plain_ints():
    q = make_dihedral(3)
    data = {"v": 1, "degree": 1, "module": None, "coeff": {"moduli": [5]},
            "values": [0, 1, 2]}
    phi = Cochain.from_json(data, q)
    assert phi.at(0, (2,)) == (2,)


def test_merge_factors_is_the_invariant_factor_chain():
    # two finite abelian groups are isomorphic exactly when, for every k,
    # they have as many elements killed by k: prod gcd(k, f) over the
    # cyclic factors f
    rng = random.Random(5)
    for _ in range(300):
        flat = [rng.choice([2, 3, 4, 6, 8, 9, 12, 25, 27, 1])
                for _ in range(rng.randrange(10))]
        chain = modlinalg.merge_factors(flat)
        assert len(chain) == len(flat)
        assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
        for k in range(1, math.lcm(*flat, 1) + 1):
            assert math.prod(math.gcd(k, f) for f in chain) == \
                math.prod(math.gcd(k, f) for f in flat)
