"""Exact linear algebra over Z/nZ (composite n allowed) and over Z.

Matrices cross the public boundary as plain lists of int rows.  Over a
composite modulus, ordinary row echelon is not enough: the Howell form is
the canonical strong echelon form whose rows generate every span vector
supported on a coordinate suffix, which is exactly what kernel extraction,
membership tests and coordinates need.

Inside, the Z/n elimination works on sparse rows, dicts from column to a
value nonzero mod n: a cocycle condition touches a handful of table
entries, so differential rows have a few nonzeros in hundreds of columns.
`howell` and `kernel_mod` share that one elimination.  The kernel of M is
read off the Howell form of [H^T | I], where H are the echelon rows of M
itself: H has the row span of M, hence its kernel, and at most `ncols`
rows (one per pivot column), so the augmented matrix is len(H) + ncols
wide instead of nrows + ncols.  Only the rows whose pivot lies in the
identity part reach the output, so only those are reduced above their
pivots.  The Howell form is canonical, so the kernel basis does not
depend on this route.

Quotients over Z/n (invariant factors of cohomology groups) present the
kernel span on its Howell rows and take a Smith form whose entries are
reduced mod n after every step, so no integer grows past about n^2.
Integer Hermite forms and the unreduced Smith form serve only the
quotients over Z.

Callers pick no route: `kernel`, `span_basis`, `in_span` and `quotient`
take the modulus n, with n == 0 meaning Z, and choose between the Howell
(Z/n) and Hermite (Z) machinery themselves.
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
    """A unit u mod n with u*a == gcd(a, n) mod n (a nonzero mod n)."""
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


# -- sparse rows: {column: value} with every value in 1..n-1 ----------------

def _sparse(row, n):
    return {j: v % n for j, v in enumerate(row) if v % n}


def _dense(row, width, shift=0):
    out = [0] * width
    for j, v in row.items():
        out[j - shift] = v
    return out


def _scaled(row, u, n):
    """u * row mod n, as a new row."""
    out = {}
    for j, v in row.items():
        w = u * v % n
        if w:
            out[j] = w
    return out


def _add_multiple(row, q, other, n):
    """row += q * other mod n, in place."""
    get = row.get
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
    if n < 2:
        raise ValueError("modulus must be >= 2")


def _echelon(queue, n):
    """Strong echelon rows {pivot column: row} with the Z/n span of the
    sparse rows in `queue` (which it consumes and may modify).

    Each pivot is normalized to gcd(pivot, n), a divisor of n, and the
    annihilator row (n/pivot) * row is queued too, so every span vector
    supported on a column suffix is a combination of the rows pivoting in
    that suffix.  Entries above later pivots are left unreduced.
    """
    piv = {}

    def install(row, j):
        u = _unit_for(row[j], n)
        if u != 1:
            row = _scaled(row, u, n)
        piv[j] = row
        t = n // row[j]
        if t < n:   # a unit pivot's annihilator is zero
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
    pivots after its own, in place; returns the pivot columns in order."""
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
    """Canonical Howell basis of the Z/n row span of `rows`.

    Returned rows have strictly increasing pivot columns, pivot values
    dividing n, and entries above each pivot reduced modulo it.  The form
    is unique for a given span, so it doubles as a span fingerprint.
    """
    _check_modulus(n)
    piv = _echelon([_sparse(r, n) for r in rows], n)
    return [_dense(piv[j], width) for j in _reduce_above(piv, n)]


def _howell_coords(basis, v, n):
    """Coefficients of v over the rows of a Howell basis, or None when v
    lies outside their Z/n span."""
    v = [x % n for x in v]
    coords = []
    for row in basis:
        j = _first_nonzero(row)
        q, rem = divmod(v[j], row[j])
        if rem:
            return None
        coords.append(q)
        v = [(a - q * b) % n for a, b in zip(v, row)]
    return None if any(v) else coords


def howell_member(basis, v, n):
    """True iff v lies in the Z/n span described by a Howell basis."""
    return _howell_coords(basis, v, n) is not None


def _augmented(rows, ncols):
    """[M^T | I]: Hermite forms of it expose the kernel of M over Z."""
    return [[r[c] for r in rows] + [int(k == c) for k in range(ncols)]
            for c in range(ncols)]


def kernel_mod(rows, ncols, n):
    """Basis of {x in (Z/n)^ncols : M x == 0} for the matrix with `rows`.

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


def hnf(rows, width):
    """Row-style Hermite normal form of an integer row span.

    Pivots are positive with zeros below and reduced entries above; rows
    are ordered by pivot column.
    """
    work = [list(r) + [0] * (width - len(r)) for r in rows if any(r)]
    result = []
    for col in range(width):
        live = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        if not live:
            work = rest
            continue
        pivot = live.pop()
        while live:
            r = live.pop()
            a, b = pivot[col], r[col]
            if b % a == 0:
                q = b // a
                r = [rv - q * pv for rv, pv in zip(r, pivot)]
            else:
                g, x, y = xgcd(a, b)
                newp = [x * pv + y * rv for pv, rv in zip(pivot, r)]
                r = [(a // g) * rv - (b // g) * pv for pv, rv in zip(pivot, r)]
                pivot = newp
            if any(r):
                rest.append(r)
        if pivot[col] < 0:
            pivot = [-v for v in pivot]
        result.append(pivot)
        work = rest
    # reduce entries above each pivot
    for i in range(len(result) - 1, -1, -1):
        col = _first_nonzero(result[i])
        for k in range(i):
            q = result[k][col] // result[i][col]
            if q:
                result[k] = [a - q * b for a, b in zip(result[k], result[i])]
    return result


def solve_in_hnf(basis, v):
    """Express v as an integer combination of HNF basis rows.

    Returns the coefficient list; raises ValueError if v is outside the
    lattice they span.
    """
    v = list(v)
    coeffs = []
    for row in basis:
        j = _first_nonzero(row)
        if v[j] % row[j]:
            raise ValueError("vector not in lattice")
        q = v[j] // row[j]
        coeffs.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        raise ValueError("vector not in lattice")
    return coeffs


def kernel_int(rows, ncols):
    """Basis of the integer kernel {x in Z^ncols : M x == 0}."""
    nr = len(rows)
    basis = hnf(_augmented(rows, ncols), width=nr + ncols)
    return [row[nr:] for row in basis if not any(row[:nr])]


def _mod(row, n):
    """The row reduced mod n; over Z (n == 0) the row itself."""
    return [v % n for v in row] if n else row


def _clear_first_column(a, n):
    """Unimodular row operations zeroing a[i][0] for i > 0; True if the
    pivot a[0][0] changed on the way (entries reduced mod n when n > 0)."""
    changed = False
    for i in range(1, len(a)):
        p, b = a[0][0], a[i][0]
        if not b:
            continue
        if b % p == 0:
            a[i] = _mod([v - (b // p) * u for u, v in zip(a[0], a[i])], n)
        else:
            g, x, y = xgcd(p, b)
            a[0], a[i] = (_mod([x * u + y * v for u, v in zip(a[0], a[i])], n),
                          _mod([(p // g) * v - (b // g) * u
                                for u, v in zip(a[0], a[i])], n))
            changed = True
    return changed


def snf_diagonal(rows, width, n=0):
    """Diagonal of the Smith normal form (nonneg, divisibility chain).

    With n > 0 the matrix is read over Z/n: entries are reduced mod n after
    every step and each diagonal entry d is reported as gcd(d, n), its
    associate dividing n.  Columns left without a pivot are not reported.
    """
    a = [_mod(list(r) + [0] * (width - len(r)), n) for r in rows]
    diag = []
    while True:
        entries = [(abs(v), i, j) for i, r in enumerate(a)
                   for j, v in enumerate(r) if v]
        if not entries:
            return diag
        _, pi, pj = min(entries)
        a[0], a[pi] = a[pi], a[0]
        for r in a:
            r[0], r[pj] = r[pj], r[0]
        # clear the pivot's column, then (transposed) its row, until stable
        while True:
            dirty = _clear_first_column(a, n)
            a = [list(c) for c in zip(*a)]
            dirty = _clear_first_column(a, n) or dirty
            a = [list(c) for c in zip(*a)]
            if not dirty:
                break
        # enforce divisibility: the pivot must divide every remaining entry
        p = gcd(a[0][0], n)
        offender = next((r for r in a[1:] if any(v % p for v in r[1:])), None)
        if offender is not None:
            a[0] = _mod([x + y for x, y in zip(a[0], offender)], n)
            continue
        diag.append(p)
        a = [r[1:] for r in a[1:]]


def quotient_invariant_factors(ker_rows, im_rows, n, dim):
    """Invariant factors (> 1) of (<ker> + nZ^dim) / (<im> + nZ^dim).

    Both lattices contain nZ^dim, so this is K/M inside (Z/n)^dim and all
    of it is done mod n.  K is presented on the rows h_j of its Howell
    basis.  With p_j the pivot of h_j, (n/p_j)*h_j vanishes up to its pivot
    column, so the strong echelon property puts it in the span of the later
    rows; these annihilator syzygies generate every relation among the h_j.
    Each image generator adds its own coordinates as one more relation.
    """
    basis = howell(ker_rows, n, dim)
    rels = []
    for j, row in enumerate(basis):
        t = n // row[_first_nonzero(row)]
        if t < n:   # a unit pivot's syzygy is zero
            syz = _howell_coords(basis, [t * v for v in row], n)
            syz[j] -= t
            rels.append(syz)
    for g in im_rows:
        coords = _howell_coords(basis, g, n)
        if coords is None:
            raise ValueError("image vector outside the kernel span")
        rels.append(coords)
    diag = snf_diagonal(rels, len(basis), n)
    return [d for d in diag + [n] * (len(basis) - len(diag)) if d > 1]


def quotient_over_int(ker_rows, im_rows, dim):
    """(free_rank, torsion factors) of <ker>/<im> as abelian groups."""
    basis = hnf([list(r) for r in ker_rows], width=dim)
    if not basis:
        return 0, []
    coeffs = [solve_in_hnf(basis, list(g)) for g in im_rows]
    if not coeffs:
        return len(basis), []
    diag = snf_diagonal(coeffs, width=len(basis))
    nz = [d for d in diag if d]
    return len(basis) - len(nz), [d for d in nz if d > 1]


# -- the four ring entry points: n > 0 works in Z/n, n == 0 in Z ------------

def kernel(rows, ncols, n):
    """Basis of the kernel of the matrix with `rows`, over Z/n or Z."""
    return kernel_mod(rows, ncols, n) if n else kernel_int(rows, ncols)


def span_basis(rows, n, width):
    """Canonical basis of the row span: Howell over Z/n, Hermite over Z."""
    return howell(rows, n, width) if n else hnf(rows, width)


def in_span(basis, v, n):
    """True iff v lies in the span described by a span_basis result."""
    if n:
        return howell_member(basis, v, n)
    try:
        solve_in_hnf(basis, v)
    except ValueError:
        return False
    return True


def quotient(ker_rows, im_rows, n, dim):
    """(free_rank, torsion factors > 1) of <ker>/<im> for image rows inside
    the kernel span; over Z/n the quotient is finite and free_rank is 0."""
    if n:
        return 0, quotient_invariant_factors(ker_rows, im_rows, n, dim)
    return quotient_over_int(ker_rows, im_rows, dim)
