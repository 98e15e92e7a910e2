"""Exact linear algebra over Z/nZ (composite n allowed) and over Z, with
n == 0 standing for Z throughout.

Matrices are lists of rows.  `howell`, `kernel_mod` and
`quotient_invariant_factors` take each row as a list of ints or as a dict
{column: int}; every output row is a plain list.  Over a composite modulus,
ordinary row echelon is not enough: the Howell form is the canonical strong
echelon form whose rows generate every span vector supported on a
coordinate suffix, which is exactly what kernel extraction, membership
tests and coordinates need.  Over Z (n == 0) the same form is the row
Hermite normal form: pivots positive, entries above each pivot in
[0, pivot).

One elimination serves every ring.  It works on sparse rows, dicts from
column to a nonzero value (mod n when n > 0): a cocycle condition touches
a handful of table entries, so differential rows have a few nonzeros in
hundreds of columns.  `howell`, `kernel_mod` and `snf_diagonal` share it.
Differential systems are tall and mostly redundant, so the elimination
keeps its pivot rows reduced against each other as it installs them: a
redundant row then clears in a few row additions, one per pivot column
in its support.  Over Z or a composite n that reduction is not canonical
(a non-unit pivot leaves remainders, and an xgcd pivot replacement undoes
earlier steps), so `_reduce_above` still makes the final form.
The kernel of M is read off the Howell form of [H^T | I], where H are the
echelon rows of M itself: H has the row span of M, hence its kernel, and
at most `ncols` rows (one per pivot column), so the augmented matrix is
len(H) + ncols wide instead of nrows + ncols.  Only the rows whose pivot
lies in the identity part reach the output, so only those are reduced
above their pivots.  The Howell form is canonical, so the kernel basis
does not depend on this route.

Quotients (invariant factors of cohomology groups) present the kernel span
on its Howell rows and take a Smith form.  Its diagonal comes from the same
elimination: the Howell form of the rows and of its transpose alternate
until each row has one entry, and `merge_factors`, the one gcd/lcm pass
that also merges cohomology's pieces, orders those pivots into the
invariant-factor chain.  Over Z/n every entry stays reduced mod n, so no
integer grows past about n^2.

`hnf`, `kernel_int`, `solve_in_hnf` and `quotient_over_int` are the n == 0
cases under their integer names.
"""

from math import gcd


def xgcd(a, b):
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _unit_for(a, n):
    """A unit u mod n with u*a == gcd(a, n) mod n (a nonzero mod n); over
    Z (n == 0) the sign of a."""
    if not n:
        return -1 if a < 0 else 1
    g = gcd(a % n, n)
    m = n // g
    h = (a // g) % n
    u0 = pow(h % m, -1, m) if m > 1 else 1
    for k in range(n + 1):
        u = (u0 + m * k) % n
        if u and gcd(u, n) == 1:
            return u
    raise AssertionError("unit lift must exist")


def _first_nonzero(row):
    for j, v in enumerate(row):
        if v:
            return j
    return None


# -- sparse rows: {column: value}, every value nonzero (in 1..n-1 over Z/n) --
# each helper branches on n once per call, never per entry

def _sparse(row, n):
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if not n:
        return {j: v for j, v in items if v}
    return {j: v % n for j, v in items if v % n}


def _dense(row, width, shift=0):
    out = [0] * width
    for j, v in row.items():
        out[j - shift] = v
    return out


def _scaled(row, u, n):
    """u * row mod n, as a new row."""
    if not n:
        return {j: u * v for j, v in row.items()} if u else {}
    out = {}
    for j, v in row.items():
        w = u * v % n
        if w:
            out[j] = w
    return out


def _add_multiple(row, q, other, n):
    """row += q * other mod n, in place."""
    get = row.get
    if not n:
        for j, v in other.items():
            w = get(j, 0) + q * v
            if w:
                row[j] = w
            else:
                row.pop(j, None)
        return
    for j, v in other.items():
        w = (get(j, 0) + q * v) % n
        if w:
            row[j] = w
        else:
            row.pop(j, None)


def _combination(x, r, y, s, n):
    """x * r + y * s mod n, as a new row."""
    out = _scaled(r, x, n)
    _add_multiple(out, y, s, n)
    return out


def _check_modulus(n):
    if n < 0 or n == 1:
        raise ValueError("modulus must be 0 (for Z) or >= 2")


def _echelon(queue, n):
    """Strong echelon rows {pivot column: row} with the Z/n span of the
    sparse rows in `queue` (which it consumes and may modify).

    Each pivot is normalized to gcd(pivot, n), a divisor of n (over Z, to
    its absolute value), and the annihilator row (n/pivot) * row is queued
    too, so every span vector supported on a column suffix is a combination
    of the rows pivoting in that suffix.  Over Z, n/pivot is 0 and no
    annihilator is queued.

    The pivot rows are kept reduced against each other as they are
    installed (incremental Gauss-Jordan): a new pivot row at column j is
    reduced by floor division at every installed pivot column after j,
    then column j is reduced the same way in every row pivoting before j.
    A redundant row then meets only the pivot columns in its own support,
    not the fill-in of the pivot rows it is reduced by.  The result is not
    yet canonical: clearing column j from an earlier row also moves that
    row's entries above later non-unit pivots, out of [0, pivot), and an
    xgcd pivot replacement undoes what the replaced pivot reduced.
    `_reduce_above` makes the final form.
    """
    piv = {}

    def install(row, j):
        u = _unit_for(row[j], n)
        if u != 1:
            row = _scaled(row, u, n)
        for c in sorted(c for c in piv if c > j):
            q = row.get(c, 0) // piv[c][c]
            if q:
                _add_multiple(row, -q, piv[c], n)
        p = row[j]
        for c, other in piv.items():
            if c < j:
                q = other.get(j, 0) // p
                if q:
                    _add_multiple(other, -q, row, n)
        piv[j] = row
        t = n // p
        if t < n:   # zero for a unit pivot, and over Z (t == n == 0)
            queue.append(_scaled(row, t, n))

    while queue:
        r = queue.pop()
        while r:
            j = min(r)
            p = piv.get(j)
            if p is None:
                install(r, j)
                break
            a, b = p[j], r[j]
            if b % a == 0:
                _add_multiple(r, -(b // a), p, n)
            else:
                g, x, y = xgcd(a, b)
                newp = _combination(x, p, y, r, n)
                r = _combination(a // g, r, -(b // g), p, n)
                install(newp, j)
    return piv


def _reduce_above(piv, n):
    """Reduce every row of an echelon {pivot column: row} modulo the
    pivots after its own, in place; returns the pivot columns in order.
    Floor division leaves each entry above a pivot p in [0, p)."""
    cols = sorted(piv)
    # subtracting a row changes only columns from its pivot on, so the
    # later pivots, taken in increasing order, leave the ones already
    # reduced alone; bottom-up, each row is reduced by final rows only
    for i in range(len(cols) - 2, -1, -1):
        row = piv[cols[i]]
        for j in cols[i + 1:]:
            q = row.get(j, 0) // piv[j][j]
            if q:
                _add_multiple(row, -q, piv[j], n)
    return cols


def howell(rows, n, width):
    """Canonical Howell basis of the Z/n row span of `rows`; over Z
    (n == 0) its row Hermite normal form.

    Returned rows have strictly increasing pivot columns, pivot values
    dividing n (positive over Z), and entries above each pivot p in
    [0, p).  The form is unique for a given span, so it doubles as a span
    fingerprint.
    """
    _check_modulus(n)
    piv = _echelon([_sparse(r, n) for r in rows], n)
    return [_dense(piv[j], width) for j in _reduce_above(piv, n)]


def _howell_coords(basis, v, n):
    """Coefficients of v over the rows of a Howell basis, or None when v
    lies outside their span."""
    v = [x % n for x in v] if n else list(v)
    coords = []
    for row in basis:
        j = _first_nonzero(row)
        q, rem = divmod(v[j], row[j])
        if rem:
            return None
        coords.append(q)
        v = ([(a - q * b) % n for a, b in zip(v, row)] if n
             else [a - q * b for a, b in zip(v, row)])
    return None if any(v) else coords


def howell_member(basis, v, n):
    """True iff v lies in the span described by a Howell basis."""
    return _howell_coords(basis, v, n) is not None


def kernel_mod(rows, ncols, n):
    """Basis of {x in (Z/n)^ncols : M x == 0} for the matrix with `rows`;
    over Z (n == 0) the saturated lattice {x in Z^ncols : M x == 0}.

    The Howell basis of the kernel: the rows of the Howell form of
    [H^T | I] that vanish on the H^T part, for H the echelon rows of M.
    """
    _check_modulus(n)
    h = _echelon([_sparse(r, n) for r in rows], n).values()
    left = len(h)   # columns 0..left-1 hold H^T, the rest the identity
    aug = [{left + c: 1} for c in range(ncols)]
    for k, row in enumerate(h):
        for c, v in row.items():
            aug[c][k] = v
    piv = _echelon(aug, n)
    tail = {j: row for j, row in piv.items() if j >= left}
    return [_dense(tail[j], ncols, left) for j in _reduce_above(tail, n)]


def merge_factors(factors):
    """Invariant-factor chain of the direct sum of the cyclic groups Z/f:
    replacing (f_i, f_j) by (gcd, lcm) for every i < j leaves each entry
    dividing the next.  1s, the trivial summands, are kept."""
    chain = list(factors)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return chain


def snf_diagonal(rows, n=0):
    """Diagonal of the Smith normal form (positive, divisibility chain).

    With n > 0 the matrix is read over Z/n and each diagonal entry d is
    reported as gcd(d, n), its associate dividing n; the zero entries
    (d == n) are not reported.  The Howell form of the rows and of its
    transpose alternate until every echelon row has a single entry; its
    pivots, merged into a chain, are the diagonal.
    """
    rows = [_sparse(r, n) for r in rows]
    while True:
        piv = _echelon(rows, n)
        cols = _reduce_above(piv, n)
        if all(len(piv[j]) == 1 for j in cols):
            break
        # the first pivot row, p at the head, becomes column 0, so the next
        # first pivot is the gcd of that row: p itself or a proper divisor
        # (of n over Z/n, a smaller positive integer over Z), which can
        # drop only finitely often.  When it stays, p divides its row and
        # (p, 0, ..., 0) is in the span, so the canonical form clears the
        # row and column of p for good and the same argument runs on the rest
        columns = {}
        for k, j in enumerate(cols):
            for c, v in piv[j].items():
                columns.setdefault(c, {})[k] = v
        rows = list(columns.values())
    return [d for d in merge_factors(piv[j][j] for j in cols) if d != n]


def quotient_invariant_factors(ker_rows, im_rows, n, dim):
    """Invariant factors (other than 1) of (<ker> + nZ^dim) / (<im> + nZ^dim),
    then a 0 for each free summand, which only Z (n == 0) has.

    Both lattices contain nZ^dim, so this is K/M inside (Z/n)^dim and all
    of it is done mod n.  K is presented on the rows h_j of its Howell
    basis.  With p_j the pivot of h_j, (n/p_j)*h_j vanishes up to its pivot
    column, so the strong echelon property puts it in the span of the later
    rows; these annihilator syzygies generate every relation among the h_j.
    Each image generator adds its own coordinates as one more relation.
    Over Z the Hermite rows are independent, so there are no syzygies.
    """
    basis = howell(ker_rows, n, dim)
    rels = []
    for j, row in enumerate(basis):
        t = n // row[_first_nonzero(row)]
        if t < n:   # zero for a unit pivot, and over Z
            syz = _howell_coords(basis, [t * v for v in row], n)
            syz[j] -= t
            rels.append(syz)
    for g in im_rows:
        coords = _howell_coords(basis, _dense(_sparse(g, n), dim), n)
        if coords is None:
            raise ValueError("image vector outside the kernel span")
        rels.append(coords)
    diag = snf_diagonal(rels, n)
    return [d for d in diag + [n] * (len(basis) - len(diag)) if d != 1]


# -- the integer names of the n == 0 cases ----------------------------------

def hnf(rows, width):
    """Row Hermite normal form of an integer row span."""
    return howell(rows, 0, width)


def solve_in_hnf(basis, v):
    """Coefficients of v over HNF basis rows; ValueError outside their
    lattice."""
    coords = _howell_coords(basis, v, 0)
    if coords is None:
        raise ValueError("vector not in lattice")
    return coords


def kernel_int(rows, ncols):
    """Basis of the integer kernel {x in Z^ncols : M x == 0}."""
    return kernel_mod(rows, ncols, 0)


def quotient_over_int(ker_rows, im_rows, dim):
    """(free_rank, torsion factors) of <ker>/<im> as abelian groups."""
    factors = quotient_invariant_factors(ker_rows, im_rows, 0, dim)
    return factors.count(0), [d for d in factors if d]
