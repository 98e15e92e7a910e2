"""Howell/HNF/SNF backends checked against brute-force span enumeration."""

import random
from itertools import product
from math import gcd

import pytest

from qci import modlinalg as ml
from qci.algebra import make_alexander, make_dihedral
from tests.oracle_utils import (brute_invariant_factors, brute_span,
                                degenerate_rows, differential_rows,
                                is_howell_basis, rref_rank_mod_p,
                                smith_by_minors)


def test_xgcd():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = ml.xgcd(a, b)
            assert x * a + y * b == g
            assert g >= 0


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12])
def test_howell_spans_match_bruteforce(n):
    rng = random.Random(99 + n)
    for _ in range(12):
        width = rng.randrange(1, 4)
        rows = [[rng.randrange(n) for _ in range(width)]
                for _ in range(rng.randrange(1, 4))]
        basis = ml.howell(rows, n, width)
        assert brute_span(rows, n, width) == brute_span(basis or [[0] * width], n, width)
        # membership agrees with the brute span
        span = brute_span(rows, n, width)
        for v in product(range(n), repeat=width):
            assert ml.howell_member(basis, list(v), n) == (v in span)


@pytest.mark.parametrize("n", [4, 6])
def test_howell_is_canonical(n):
    rng = random.Random(5)
    for _ in range(10):
        width = 3
        rows = [[rng.randrange(n) for _ in range(width)] for _ in range(3)]
        basis = ml.howell(rows, n, width)
        # regenerate the span from shuffled/unit-scaled generators
        gens = [list(r) for r in rows] + [list(r) for r in basis]
        rng.shuffle(gens)
        assert ml.howell(gens, n, width) == basis


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_kernel_mod_exact(n):
    rng = random.Random(7 + n)
    for _ in range(10):
        nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
        mat = [[rng.randrange(n) for _ in range(ncols)] for _ in range(nrows)]
        kern = ml.kernel_mod(mat, ncols, n)
        brute = {v for v in product(range(n), repeat=ncols)
                 if all(sum(r[c] * v[c] for c in range(ncols)) % n == 0
                        for r in mat)}
        assert brute_span(kern or [[0] * ncols], n, ncols) == brute


def test_is_howell_basis_oracle():
    assert is_howell_basis([[1, 0, 1], [0, 2, 1], [0, 0, 2]], 4, 3)
    # (0, 0, 2) = 2 * (0, 2, 1) needs a row of its own
    assert not is_howell_basis([[1, 0, 1], [0, 2, 1]], 4, 3)
    assert is_howell_basis([], 4, 3)
    # (0, 2) = 2 * (2, 1) lies in the span but no row pivots at column 1
    assert not is_howell_basis([[2, 1]], 4, 2)
    assert is_howell_basis([[2, 1], [0, 2]], 4, 2)
    assert not is_howell_basis([[3, 0]], 4, 2)          # 3 does not divide 4
    assert not is_howell_basis([[1, 2], [0, 2]], 4, 2)  # 2 above pivot 2
    assert not is_howell_basis([[0, 1], [1, 0]], 4, 2)  # pivots not increasing


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_kernel_mod_is_the_canonical_howell_basis(n):
    # the kernel depends on the row span of M only: presenting that span
    # differently must not move a byte of the output.  Odd trials are tall
    # (nrows > ncols), where M is first cut down to its echelon rows.
    rng = random.Random(40 + n)
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    for trial in range(24):
        ncols = rng.randrange(1, 4) if trial < 12 else rng.randrange(4, 9)
        nrows = (rng.randrange(ncols + 1, 2 * ncols + 3) if trial % 2
                 else rng.randrange(1, ncols + 1))
        mat = [[rng.randrange(n) if rng.random() < 0.6 else 0
                for _ in range(ncols)] for _ in range(nrows)]
        kern = ml.kernel_mod(mat, ncols, n)
        assert is_howell_basis(kern, n, ncols)
        assert all(sum(r[c] * v[c] for c in range(ncols)) % n == 0
                   for r in mat for v in kern)
        shuffled = [list(r) for r in mat]
        rng.shuffle(shuffled)
        scaled = [[u * v for v in r] for u, r in
                  zip(rng.choices(units, k=nrows), mat)]
        combos = []
        for _ in range(3):
            coeffs = [rng.randrange(n) for _ in mat]
            combos.append([sum(q * r[c] for q, r in zip(coeffs, mat))
                           for c in range(ncols)])
        for other in (shuffled, mat + mat, scaled, mat + combos,
                      combos + shuffled):
            assert ml.kernel_mod(other, ncols, n) == kern


def _sparse_redundant_system(rng, n, nrows, ncols):
    """nrows rows over Z/n (over Z for n == 0), each a combination of one
    to three of fewer than ncols sparse base rows: tall and redundant,
    like a differential system."""
    span = n or 4
    base = [[rng.randrange(-span, span) if rng.random() < 0.3 else 0
             for _ in range(ncols)]
            for _ in range(rng.randrange(ncols // 2, ncols))]
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for b in rng.sample(base, rng.randrange(1, 4)):
            q = rng.randrange(-3, 4)
            row = [x + q * y for x, y in zip(row, b)]
        rows.append([x % n for x in row] if n else row)
    return rows


@pytest.mark.parametrize("n", [8, 9, 12, 0])
def test_larger_sparse_systems_are_canonical(n, monkeypatch):
    # 20-40 rows in 10-16 columns: wide enough that an xgcd pivot
    # replacement comes after earlier pivot rows were cleared against the
    # pivot it replaces.  Every presentation of the same row span must
    # give the same Howell form, kernel and Smith diagonal, byte for byte
    replaced = [0]
    xgcd = ml.xgcd

    def counted(a, b):
        replaced[0] += 1
        return xgcd(a, b)

    monkeypatch.setattr(ml, "xgcd", counted)
    rng = random.Random(900 + n)
    units = [u for u in range(1, n) if gcd(u, n) == 1] if n else [-1, 1]
    canonical = (lambda rows, width: is_howell_basis(rows, n, width)) \
        if n else (lambda rows, width: _is_hermite(rows))
    for _ in range(10):
        nrows, ncols = rng.randrange(20, 41), rng.randrange(10, 17)
        mat = _sparse_redundant_system(rng, n, nrows, ncols)
        basis = ml.howell(mat, n, ncols)
        kern = ml.kernel_mod(mat, ncols, n)
        diag = ml.snf_diagonal(mat, n)
        assert canonical(basis, ncols) and canonical(kern, ncols)
        assert ml.howell(basis, n, ncols) == basis
        for r in mat:
            for v in kern:
                dot = sum(a * b for a, b in zip(r, v))
                assert (dot % n if n else dot) == 0
        shuffled = [list(r) for r in mat]
        rng.shuffle(shuffled)
        scaled = [[u * v for v in r] for u, r in
                  zip(rng.choices(units, k=nrows), shuffled)]
        combos = [[sum(q * r[c] for q, r in zip(coeffs, mat))
                   for c in range(ncols)]
                  for coeffs in ([rng.randrange(-3, 4) for _ in mat]
                                 for _ in range(5))]
        for other in (shuffled, scaled, mat + mat, mat + combos,
                      combos + scaled):
            assert ml.howell(other, n, ncols) == basis
            assert ml.kernel_mod(other, ncols, n) == kern
            assert ml.snf_diagonal(other, n) == diag
    assert replaced[0]


def test_kernel_mod_cost_on_a_tall_differential(monkeypatch):
    # Alex(8,3) over Z/4 with the Z/2 module in degree 2: 1,040 rows with
    # 112 echelon rows in 128 columns, so most rows are redundant.  With
    # the pivots kept reduced as they are installed, a redundant row meets
    # only the pivot columns in its own support: the kernel takes 6,971
    # row additions, against 18,017 when a row was reduced at its leading
    # entry only, against pivots that kept their fill-in
    q = make_alexander(8, 3)
    rows = differential_rows(q.op, [[[1]]] * 8, [[1]], 1, 2, module_size=2,
                             act=lambda m, a: (m + 1) % 2)
    rows += degenerate_rows(8, 1, 2, module_size=2)
    assert (len(rows), len(rows[0])) == (1040, 128)
    calls = [0]
    add = ml._add_multiple

    def counted(*args):
        calls[0] += 1
        return add(*args)

    monkeypatch.setattr(ml, "_add_multiple", counted)
    kern = ml.kernel_mod(rows, 128, 4)
    assert kern and is_howell_basis(kern, 4, 128)
    sparse = [[(j, v) for j, v in enumerate(r) if v] for r in rows]
    for k in kern:
        assert all(sum(v * k[j] for j, v in r) % 4 == 0 for r in sparse)
    assert 0 < calls[0] < 10_000


def test_hnf_and_solve():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    basis = ml.hnf(rows, 3)
    # every original row is in the lattice of the basis
    for r in rows:
        coeffs = ml.solve_in_hnf(basis, r)
        recon = [0, 0, 0]
        for q, b in zip(coeffs, basis):
            recon = [x + q * y for x, y in zip(recon, b)]
        assert recon == r
    with pytest.raises(ValueError):
        ml.solve_in_hnf(basis, [1, 0, 0])


def _is_hermite(rows):
    """Pivots positive in increasing columns, entries above each in
    [0, pivot)."""
    last = -1
    for i, row in enumerate(rows):
        j = next((c for c, v in enumerate(row) if v), None)
        if j is None or j <= last or row[j] <= 0:
            return False
        if not all(0 <= above[j] < row[j] for above in rows[:i]):
            return False
        last = j
    return True


def test_hnf_is_canonical():
    rng = random.Random(16)
    for _ in range(2000):
        width = rng.randrange(1, 7)
        rows = [[rng.randrange(-5, 6) for _ in range(width)]
                for _ in range(rng.randrange(1, 7))]
        basis = ml.hnf(rows, width)
        assert _is_hermite(basis), rows
        assert ml.hnf(basis, width) == basis, rows
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert ml.hnf(shuffled, width) == basis, rows
        for r in rows:
            ml.solve_in_hnf(basis, r)


def test_kernel_over_z_certified_on_d7_degree3(monkeypatch):
    # the cocycle lattice of D7 in degree 3 with trivial coefficients in Z;
    # a dense Hermite form of [M^T | I] ran past 40 s on it.  The rows of K
    # are independent and killed by M, so |K| <= nullity over Q <= width -
    # rank mod p; equality pins |K| to the nullity, and unit pivots make
    # the span saturated, so K spans the whole integer kernel
    bits = []
    xgcd = ml.xgcd

    def recorded(a, b):
        bits.append(max(abs(a).bit_length(), abs(b).bit_length()))
        return xgcd(a, b)

    monkeypatch.setattr(ml, "xgcd", recorded)
    q = make_dihedral(7)
    rows = differential_rows(q.op, [[[1]]] * 7, [[1]], 1, 3)
    rows += degenerate_rows(7, 1, 3)
    width = 7 ** 3
    kern = ml.kernel_int(rows, width)
    assert bits and max(bits) <= 64
    sparse = [[(j, v) for j, v in enumerate(r) if v] for r in rows]
    for k in kern:
        assert all(sum(v * k[j] for j, v in r) == 0 for r in sparse)
    assert len(kern) == width - rref_rank_mod_p(rows, 2 ** 31 - 1)
    assert all(next(v for v in k if v) == 1 for k in kern)


def test_kernel_int():
    mat = [[1, 2, 3], [2, 4, 6]]
    kern = ml.kernel_int(mat, 3)
    assert kern
    for v in kern:
        assert all(sum(r[c] * v[c] for c in range(3)) == 0 for r in mat)
    # kernel lattice has rank 2 here
    assert len(ml.hnf(kern, 3)) == 2


def test_snf_diagonal_divisibility():
    # a divisor chain, equal to the determinantal-divisor oracle over Z and,
    # read mod n, over Z/n (non-chain ideals for 6 and 12, a prime power 9)
    rng = random.Random(3)
    for n in (0, 6, 12, 9):
        for _ in range(40):
            rows = [[rng.randrange(-6, 7) if rng.random() < 0.7 else 0
                     for _ in range(rng.randrange(1, 5))]
                    for _ in range(rng.randrange(1, 5))]
            diag = ml.snf_diagonal(rows, n)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            assert diag == smith_by_minors(rows, n), (rows, n)
    assert ml.snf_diagonal([[2, 0], [0, 3]]) == [1, 6]


def test_quotient_invariant_factors():
    # Z_4^2 / <(2,0)> = Z_2 x Z_4
    assert ml.quotient_invariant_factors(
        [[1, 0], [0, 1]], [[2, 0]], 4, 2) == [2, 4]
    # Z_6 / Z_6 is trivial
    assert ml.quotient_invariant_factors([[1]], [[1]], 6, 1) == []
    # <2> / <4> inside Z_8 is Z_2
    assert ml.quotient_invariant_factors([[2]], [[4]], 8, 1) == [2]
    # Z_6^2 / <(2,0), (0,3)> = Z_3 x Z_2 = Z_6: the mod-6 Smith form has to
    # merge the non-chained diagonal 2, 3
    assert ml.snf_diagonal([[2, 0], [0, 3]], 6) == [1]
    assert ml.quotient_invariant_factors(
        [[1, 0], [0, 1]], [[2, 0], [0, 3]], 6, 2) == [6]


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_quotient_invariant_factors_match_bruteforce(n):
    # 6 and 12 have ideals that are not a chain (<2> and <3>)
    rng = random.Random(300 + n)

    def combos(rows, dim, count):
        out = []
        for _ in range(count):
            v = [0] * dim
            for r in rows:
                q = rng.randrange(n)
                v = [(a + q * b) % n for a, b in zip(v, r)]
            out.append(v)
        return out

    for trial in range(12):
        dim = rng.randrange(1, 4)
        ker = [[rng.randrange(n) for _ in range(dim)]
               for _ in range(rng.randrange(1, 4))]
        if trial % 4 == 0:
            im = []
        elif trial % 4 == 1:
            im = [list(r) for r in ker]
        else:
            im = combos(ker, dim, rng.randrange(1, 3))
        want = brute_invariant_factors(ker, im, n, dim)
        assert ml.quotient_invariant_factors(ker, im, n, dim) == want
        # cohomology passes the image as its Howell basis
        assert ml.quotient_invariant_factors(
            ker, ml.howell(im, n, dim), n, dim) == want
    # the unit vectors with an empty image: the whole of (Z/n)^dim
    assert brute_invariant_factors([[1, 0], [0, 1]], [], n, 2) == [n, n]


@pytest.mark.parametrize("n", [0, 2, 3, 7, 4, 6, 12])
def test_dict_rows_read_as_their_dense_rows(n):
    # a row given as a dict {column: entry}, in any key order and with some
    # zero entries kept, is the dense row holding those entries
    rng = random.Random(500 + n)
    span = n or 9

    def as_dict(row):
        items = [(j, v) for j, v in enumerate(row)
                 if v or rng.random() < 0.3]
        rng.shuffle(items)
        return dict(items)

    for _ in range(20):
        width = rng.randrange(1, 7)
        rows = [[rng.randrange(-span, span) if rng.random() < 0.5 else 0
                 for _ in range(width)] for _ in range(rng.randrange(8))]
        image = [[sum(q * r[c] for q, r in zip(coeffs, rows))
                  for c in range(width)]
                 for coeffs in ([rng.randrange(-span, span) for _ in rows]
                                for _ in range(rng.randrange(3)))]
        dicts = list(map(as_dict, rows))
        image_dicts = list(map(as_dict, image))
        assert ml.howell(dicts, n, width) == ml.howell(rows, n, width)
        assert ml.kernel_mod(dicts, width, n) == \
            ml.kernel_mod(rows, width, n)
        assert ml.quotient_invariant_factors(dicts, image_dicts, n, width) \
            == ml.quotient_invariant_factors(rows, image, n, width)


def test_quotient_over_int():
    # Z^2 / <(0,2)> = Z + Z_2
    free, tors = ml.quotient_over_int([[1, 0], [0, 1]], [[0, 2]], 2)
    assert (free, tors) == (1, [2])
