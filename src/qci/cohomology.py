"""Two-term distributive cochain complexes and their cohomology.

A degree-k cochain is a map M x Q^k -> A stored as a dense table in
lexicographic order of (m, a_1, ..., a_k); a trivial module (module=None)
drops the m slot.  The two anti-commuting differentials d_left and d_right
combine into alpha_l * d_left - alpha_r * d_right; the classical quandle,
positive, and twisted theories are the specs (1,1), (1,-1) and (1,alpha).

Shadow cochains over the symbolic integer module cannot be tabulated, so
they are wrapped lazily (LazyCochain) and evaluated pointwise.  No cocycle
condition is decided on them: transport maps twisted (per-orbit twisted)
cocycles to shadow cocycles over Z (orbitZ) and back, so the exact gate is
the one on the dense source cochain.

Cohomology is computed on flattened (index, coordinate) vectors.  The
coefficient group splits into pieces (_blocks): one piece of all
coordinates when the moduli agree, else one piece per coordinate.  Each
piece is solved over its own ring through modlinalg's kernel, span_basis,
in_span and quotient, and the answers are summed.  Cocycles are the kernel
of the differential matrix; coboundaries are spanned by the columns of the
matrix one degree down.
"""

from dataclasses import dataclass

from .algebra import (AxiomReport, CoeffGroup, IntegerShadowModule, IntUnit,
                      OrbitShadowModule, Scalar, StructureError,
                      UnsupportedCarrierError)
from . import modlinalg


class DifferentialSpec:
    """The pair of unit scalars weighting the left and right differentials."""

    def __init__(self, alpha_l, alpha_r):
        if not isinstance(alpha_l, Scalar) or not isinstance(alpha_r, Scalar):
            raise StructureError("spec coefficients must be Scalars")
        if alpha_l.group != alpha_r.group:
            raise StructureError("spec coefficients act on different groups")
        self.alpha_l = alpha_l
        self.alpha_r = alpha_r
        self.group = alpha_l.group

    @classmethod
    def quandle(cls, group):
        return cls(IntUnit(group, 1), IntUnit(group, 1))

    @classmethod
    def positive(cls, group):
        return cls(IntUnit(group, 1), IntUnit(group, -1))

    @classmethod
    def twisted(cls, group, alpha):
        if isinstance(alpha, int):
            alpha = IntUnit(group, alpha)
        return cls(IntUnit(group, 1), alpha)

    def __repr__(self):
        return f"DifferentialSpec({self.alpha_l!r}, {self.alpha_r!r})"


def _mod_size(module):
    return 1 if module is None else module.size


def _require_finite(module):
    if module is not None and not module.is_finite:
        raise UnsupportedCarrierError(
            "dense cochain tables need a finite module carrier")


class Cochain:
    """Dense cochain table over a finite (or trivial) module."""

    def __init__(self, quandle, module, coeff, degree, values):
        _require_finite(module)
        if degree < 0:
            raise StructureError("degree must be >= 0")
        self.quandle = quandle
        self.module = module
        self.coeff = coeff
        self.degree = degree
        size = _mod_size(module) * quandle.n ** degree
        values = [coeff.reduce(tuple(v)) for v in values]
        if len(values) != size:
            raise StructureError(f"expected {size} values, got {len(values)}")
        self.values = values

    def index(self, m, args):
        n = self.quandle.n
        idx = m if self.module is not None else 0
        for a in args:
            idx = idx * n + a
        return idx

    def at(self, m, args=()):
        return self.values[self.index(m, args)]

    def domain(self):
        """All (m, args) pairs in table order."""
        return _domain(self.quandle, self.module, self.degree)

    def is_zero(self):
        zero = self.coeff.zero()
        return all(v == zero for v in self.values)

    def add(self, other):
        vals = [self.coeff.add(x, y) for x, y in zip(self.values, other.values)]
        return Cochain(self.quandle, self.module, self.coeff, self.degree, vals)

    def sub(self, other):
        vals = [self.coeff.sub(x, y) for x, y in zip(self.values, other.values)]
        return Cochain(self.quandle, self.module, self.coeff, self.degree, vals)

    def scale(self, scalar, power=1):
        vals = [scalar.apply(v, power) for v in self.values]
        return Cochain(self.quandle, self.module, self.coeff, self.degree, vals)

    def to_json(self):
        return {"v": 1, "degree": self.degree,
                "module": None if self.module is None else self.module.describe(),
                "coeff": self.coeff.to_json(),
                "values": [list(v) for v in self.values]}

    @classmethod
    def from_json(cls, data, quandle, module=None):
        from .algebra import module_from_json
        coeff = CoeffGroup.from_json(data["coeff"])
        if module is None and data.get("module") is not None:
            module = module_from_json(data["module"], quandle)
        values = [tuple(v) if isinstance(v, (list, tuple)) else (v,)
                  for v in data["values"]]
        return cls(quandle, module, coeff, data["degree"], values)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.values == other.values and self.coeff == other.coeff)


class LazyCochain:
    """Cochain evaluated on demand; carrier may be symbolic."""

    def __init__(self, quandle, module, coeff, degree, fn):
        self.quandle = quandle
        self.module = module
        self.coeff = coeff
        self.degree = degree
        self.fn = fn

    def at(self, m, args=()):
        return self.fn(m, tuple(args))


def zero_cochain(quandle, module, coeff, degree):
    size = _mod_size(module) * quandle.n ** degree
    return Cochain(quandle, module, coeff, degree, [coeff.zero()] * size)


def random_cochain(rng, quandle, module, coeff, degree):
    size = _mod_size(module) * quandle.n ** degree
    vals = [coeff.random_element(rng) for _ in range(size)]
    return Cochain(quandle, module, coeff, degree, vals)


def _act(module, m, a):
    return m if module is None else module.act(m, a)


def d_left_at(phi, module, m, args):
    """(d_l phi)(m, a_1..a_{k+1}): the i-th term acts everything to the
    left of position i by a_i and drops a_i, with alternating signs."""
    q = phi.quandle
    coeff = phi.coeff
    total = coeff.zero()
    k1 = len(args)
    for i in range(1, k1 + 1):
        ai = args[i - 1]
        new_m = _act(module, m, ai)
        new_args = tuple(q.apply(args[j], ai) for j in range(i - 1)) + args[i:]
        term = phi.at(new_m, new_args)
        total = coeff.add(total, term if i % 2 else coeff.neg(term))
    return total


def d_right_at(phi, module, m, args):
    """(d_r phi)(m, a_1..a_{k+1}): the i-th term deletes a_i."""
    coeff = phi.coeff
    total = coeff.zero()
    k1 = len(args)
    for i in range(1, k1 + 1):
        new_args = args[:i - 1] + args[i:]
        term = phi.at(m, new_args)
        total = coeff.add(total, term if i % 2 else coeff.neg(term))
    return total


def differential_at(spec, phi, module, m, args):
    left = spec.alpha_l.apply(d_left_at(phi, module, m, args))
    right = spec.alpha_r.apply(d_right_at(phi, module, m, args))
    return phi.coeff.sub(left, right)


def _domain(quandle, module, degree):
    n = quandle.n
    args_space = _args_space(n, degree)
    for m in range(_mod_size(module)):
        for args in args_space:
            yield m, args


def _dense_map(phi, point_fn):
    if isinstance(phi, LazyCochain):
        raise UnsupportedCarrierError("dense differential of a lazy cochain")
    values = [point_fn(phi, phi.module, m, args)
              for m, args in _domain(phi.quandle, phi.module, phi.degree + 1)]
    return Cochain(phi.quandle, phi.module, phi.coeff, phi.degree + 1, values)


def d_left(phi):
    """Dense left differential; raises on symbolic carriers."""
    return _dense_map(phi, d_left_at)


def d_right(phi):
    """Dense right differential; raises on symbolic carriers."""
    return _dense_map(phi, d_right_at)


def differential(spec, phi):
    """alpha_l * d_left(phi) - alpha_r * d_right(phi), dense."""
    if isinstance(phi, LazyCochain):
        raise UnsupportedCarrierError("dense differential of a lazy cochain")
    values = [differential_at(spec, phi, phi.module, m, args)
              for m, args in _domain(phi.quandle, phi.module, phi.degree + 1)]
    return Cochain(phi.quandle, phi.module, phi.coeff, phi.degree + 1, values)


def lazy_differential(spec, phi):
    """Differential of a lazy cochain, evaluated on demand."""
    def fn(m, args):
        return differential_at(spec, phi, phi.module, m, args)
    return LazyCochain(phi.quandle, phi.module, phi.coeff, phi.degree + 1, fn)


def _degenerate_args(args):
    return any(args[i] == args[i + 1] for i in range(len(args) - 1))


def is_degenerate_free(phi):
    """True iff phi vanishes whenever two adjacent quandle arguments agree."""
    zero = phi.coeff.zero()
    for m, args in phi.domain():
        if _degenerate_args(args) and phi.at(m, args) != zero:
            return False, (m,) + args
    return True, ()


def _args_space(n, k):
    space = [()]
    for _ in range(k):
        space = [t + (a,) for t in space for a in range(n)]
    return space


def is_cocycle(spec, phi, quandle_flag=True):
    """Does the spec differential kill phi (plus the degeneracy condition)?

    Decided exhaustively on a dense cochain.  A lazy cochain raises
    UnsupportedCarrierError: gate the dense cochain it was transported
    from instead.  Returns an AxiomReport whose witness is the offending
    (m, a_1, ..., a_{k+1}) tuple.
    """
    if isinstance(phi, LazyCochain):
        raise UnsupportedCarrierError(
            "cocycle gate of a lazy cochain; gate its dense source cochain")
    if spec.group != phi.coeff:
        raise StructureError("spec and cochain coefficient groups differ")
    zero = phi.coeff.zero()
    if quandle_flag:
        ok, wit = is_degenerate_free(phi)
        if not ok:
            return AxiomReport(False, "degenerate-vanishing", wit)
    for m, args in _domain(phi.quandle, phi.module, phi.degree + 1):
        if differential_at(spec, phi, phi.module, m, args) != zero:
            return AxiomReport(False, "cocycle", (m,) + args)
    return AxiomReport(True)


def is_link_twisted_cocycle(phi, alphas, orbit_map, quandle_flag=True):
    """Cocycle condition for the orbit-indexed twisted theory.

    ``alphas`` maps each quandle orbit id to a unit scalar; the condition
    weights each term by the inverse unit of the acting color's orbit.
    """
    if phi.degree != 2 or phi.module is not None:
        raise StructureError("orbit-twisted cocycles are degree-2 with trivial module")
    coeff = phi.coeff
    zero = coeff.zero()
    q = phi.quandle
    if quandle_flag:
        for a in range(q.n):
            if phi.at(0, (a, a)) != zero:
                return AxiomReport(False, "degenerate-vanishing", (a, a))

    def inv(o, x):
        return alphas[o].apply(x, -1)

    for a in range(q.n):
        for b in range(q.n):
            for c in range(q.n):
                total = inv(orbit_map.of(c), phi.at(0, (q.apply(a, c), q.apply(b, c))))
                total = coeff.sub(total, phi.at(0, (a, b)))
                total = coeff.sub(total, inv(orbit_map.of(b), phi.at(0, (q.apply(a, b), c))))
                total = coeff.add(total, phi.at(0, (a, c)))
                extra = coeff.sub(inv(orbit_map.of(a), phi.at(0, (b, c))), phi.at(0, (b, c)))
                total = coeff.add(total, extra)
                if total != zero:
                    return AxiomReport(False, "cocycle", (a, b, c))
    return AxiomReport(True)


def link_twisted_coboundary(theta, alphas, orbit_map):
    """Degree-2 coboundary of theta: Q -> A in the orbit-twisted theory."""
    if theta.degree != 1 or theta.module is not None:
        raise StructureError("need a degree-1 cochain with trivial module")
    q = theta.quandle
    coeff = theta.coeff

    def inv(o, x):
        return alphas[o].apply(x, -1)

    values = []
    for a in range(q.n):
        for b in range(q.n):
            v = inv(orbit_map.of(a), theta.at(0, (b,)))
            v = coeff.sub(v, inv(orbit_map.of(b), theta.at(0, (q.apply(a, b),))))
            v = coeff.sub(v, theta.at(0, (b,)))
            v = coeff.add(v, theta.at(0, (a,)))
            values.append(v)
    return Cochain(q, None, coeff, 2, values)


def transport_to_shadow(phi, alpha):
    """Shadow cochain over the integer module: (m, args) -> alpha^-m phi(args)."""
    if phi.module is not None:
        raise StructureError("transport starts from a trivial-module cochain")
    if not isinstance(alpha, Scalar):
        raise StructureError("alpha must be a unit scalar")
    module = IntegerShadowModule(phi.quandle)

    def fn(m, args):
        return alpha.apply(phi.at(0, args), -m)

    return LazyCochain(phi.quandle, module, phi.coeff, phi.degree, fn)


def transport_twisted_to_shadow(omega, alpha):
    """Degree-2 version of the transport; the shadow face of twisting."""
    if omega.degree != 2:
        raise StructureError("expected a degree-2 cochain")
    return transport_to_shadow(omega, alpha)


def transport_link_twisted_to_shadow(omega, alphas, orbit_map):
    """Shadow cochain over the orbit-counting module with per-orbit units."""
    if omega.degree != 2 or omega.module is not None:
        raise StructureError("expected a degree-2 cochain with trivial module")
    module = OrbitShadowModule(omega.quandle, orbit_map)

    def fn(m, args):
        v = omega.at(0, args)
        for o, exp in enumerate(m):
            if exp:
                v = alphas[o].apply(v, -exp)
        return v

    return LazyCochain(omega.quandle, module, omega.coeff, 2, fn)


def shadow_twisted_product_cochain(omega, alpha, product_module):
    """Lazy cochain on M x Z pairing a dense shadow cochain with twisting."""
    def fn(m, args):
        mm, j = m
        return alpha.apply(omega.at(mm, args), -j)
    return LazyCochain(omega.quandle, product_module, omega.coeff, omega.degree, fn)


# ---------------------------------------------------------------------------
# linear-algebra backend: cocycle and coboundary bases, cohomology groups

def _flat_dim(quandle, module, degree, d):
    return _mod_size(module) * quandle.n ** degree * d


def _flat_index(quandle, module, m, args):
    """Table position of (m, args); its d coordinates start at d times it."""
    n = quandle.n
    idx = m if module is not None else 0
    for a in args:
        idx = idx * n + a
    return idx


def _vector_to_cochain(quandle, module, coeff, degree, vec):
    d = coeff.d
    values = [tuple(vec[i * d + c] for c in range(d))
              for i in range(len(vec) // d)]
    return Cochain(quandle, module, coeff, degree, values)


def _cochain_to_vector(phi):
    return [x for v in phi.values for x in v]


def _add_block(block_rows, mat, sign, base):
    """Add sign * mat to the d equations of one output value, in the d
    columns of the input value whose first flattened column is base."""
    for row, mrow in zip(block_rows, mat):
        for cj, x in enumerate(mrow):
            if x:
                row[base + cj] += sign * x


def _differential_rows(spec, quandle, module, coeff, degree):
    """Integer matrix of the spec differential C^degree -> C^{degree+1},
    acting on flattened (index, coordinate) vectors."""
    d = coeff.d
    in_dim = _flat_dim(quandle, module, degree, d)
    ml = spec.alpha_l.int_matrix()
    mr = spec.alpha_r.int_matrix()

    def col(mm, aa):
        return d * _flat_index(quandle, module, mm, aa)

    rows = []
    for m, args in _domain(quandle, module, degree + 1):
        block_rows = [[0] * in_dim for _ in range(d)]
        for i in range(1, len(args) + 1):
            sign = 1 if i % 2 else -1
            ai = args[i - 1]
            largs = tuple(quandle.apply(args[j], ai) for j in range(i - 1)) + args[i:]
            _add_block(block_rows, ml, sign, col(_act(module, m, ai), largs))
            _add_block(block_rows, mr, -sign, col(m, args[:i - 1] + args[i:]))
        rows.extend(block_rows)
    return rows


def _degenerate_rows(quandle, module, coeff, degree):
    """Unit rows pinning cochain values on degenerate argument tuples."""
    d = coeff.d
    in_dim = _flat_dim(quandle, module, degree, d)
    rows = []
    for i, (m, args) in enumerate(_domain(quandle, module, degree)):
        if _degenerate_args(args):
            for c in range(d):
                row = [0] * in_dim
                row[i * d + c] = 1
                rows.append(row)
    return rows


def _blocks(coeff):
    """The (coordinates, modulus) pieces that the linear algebra solves apart.

    Uniform moduli make one piece of all coordinates, which is what
    coordinate-mixing shift units need; mixed moduli make one piece per
    coordinate, valid exactly when no equation mixes coordinates.
    """
    if len(set(coeff.moduli)) == 1:
        return [(tuple(range(coeff.d)), coeff.moduli[0])]
    return [((c,), n) for c, n in enumerate(coeff.moduli)]


def _restrict(vec, coords, d):
    """The entries of a flattened vector on a piece's coordinates.  Applied
    to a system whose rows come in blocks of d (one equation per output
    coordinate) it picks the piece's equations.  A piece of all
    coordinates gets the vector itself, uncopied."""
    if len(coords) == d:
        return vec
    return [vec[i + c] for i in range(0, len(vec), d) for c in coords]


def _extend(vec, coords, d):
    """Inverse of _restrict: zeros on the coordinates outside the piece."""
    if len(coords) == d:
        return vec
    out = [0] * (len(vec) // len(coords) * d)
    for k, x in enumerate(vec):
        i, c = divmod(k, len(coords))
        out[i * d + coords[c]] = x
    return out


def _kernel_vectors(rows, dim, coeff):
    """Kernel of integer rows acting on Z_{n_1} x ... vectors (flattened),
    solved piece by piece; rows come in blocks of d, one per coordinate."""
    d = coeff.d
    out = []
    for coords, n in _blocks(coeff):
        equations = _restrict(rows, coords, d)
        piece = [_restrict(r, coords, d) for r in equations]
        if any(_extend(p, coords, d) != r for p, r in zip(piece, equations)):
            raise StructureError("mixed-modulus system with coordinate mixing")
        out += [_extend(v, coords, d)
                for v in modlinalg.kernel(piece, dim // d * len(coords), n)]
    return out


@dataclass
class CohomologyBasis:
    """Cocycle/coboundary generating sets and the quotient's shape."""
    cocycles: list
    coboundaries: list
    torsion: list
    free_rank: int

    @property
    def cocycle_count(self):
        return len(self.cocycles)

    @property
    def coboundary_count(self):
        return len(self.coboundaries)


def _merge_factors(factor_lists):
    """Canonical invariant-factor chain of a direct sum of cyclic groups."""
    primary = {}
    for factors in factor_lists:
        for f in factors:
            x = f
            p = 2
            while x > 1:
                if x % p == 0:
                    e = 0
                    while x % p == 0:
                        x //= p
                        e += 1
                    primary.setdefault(p, []).append(e)
                p += 1
    if not primary:
        return []
    depth = max(len(v) for v in primary.values())
    chain = []
    for i in range(depth):
        f = 1
        for p, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        chain.append(f)
    return sorted(chain)


def cohomology_basis(spec, quandle, module, coeff, degree, quandle_flag=True):
    """Cocycles, coboundaries, and invariant factors in one degree.

    The cocycle basis spans the kernel of the spec differential (restricted
    to the degenerate-free subspace when flagged); the coboundary basis is
    the canonical form of the image from one degree down.  Invariant
    factors describe the quotient group.
    """
    _require_finite(module)
    if degree < 1:
        raise StructureError("cohomology is computed in degree >= 1")
    d = coeff.d
    dim = _flat_dim(quandle, module, degree, d)
    rows = _differential_rows(spec, quandle, module, coeff, degree)
    if quandle_flag:
        rows += _degenerate_rows(quandle, module, coeff, degree)
    kernel = _kernel_vectors(rows, dim, coeff)
    cocycles = [_vector_to_cochain(quandle, module, coeff, degree, v)
                for v in kernel]

    # the image of the previous differential is spanned by the columns of
    # its matrix, less those of degenerate inputs when flagged
    keep = [not (quandle_flag and _degenerate_args(args))
            for _m, args in _domain(quandle, module, degree - 1)
            for _c in range(d)]
    rows = _differential_rows(spec, quandle, module, coeff, degree - 1)
    image = [col for col, k in zip(zip(*rows), keep) if k]

    cob_vectors = []
    factor_lists = []
    free_rank = 0
    for coords, n in _blocks(coeff):
        width = dim // d * len(coords)
        basis = modlinalg.span_basis([_restrict(g, coords, d) for g in image],
                                     n, width)
        fr, tor = modlinalg.quotient([_restrict(v, coords, d) for v in kernel],
                                     basis, n, width)
        free_rank += fr
        factor_lists.append(tor)
        cob_vectors += [_extend(v, coords, d) for v in basis]

    coboundaries = [_vector_to_cochain(quandle, module, coeff, degree, v)
                    for v in cob_vectors]
    return CohomologyBasis(cocycles=cocycles, coboundaries=coboundaries,
                           torsion=_merge_factors(factor_lists),
                           free_rank=free_rank)


def cocycle_basis(spec, quandle, module, coeff, degree=2, quandle_flag=True):
    """Just the kernel side of cohomology_basis."""
    return cohomology_basis(spec, quandle, module, coeff, degree,
                            quandle_flag).cocycles


def is_in_span(basis_cochains, phi):
    """Membership of phi in the Z-span of dense cochains (same shape)."""
    d = phi.coeff.d
    rows = [_cochain_to_vector(b) for b in basis_cochains]
    target = _cochain_to_vector(phi)
    for coords, n in _blocks(phi.coeff):
        t = _restrict(target, coords, d)
        basis = modlinalg.span_basis([_restrict(r, coords, d) for r in rows],
                                     n, len(t))
        if not modlinalg.in_span(basis, t, n):
            return False
    return True


def link_twisted_cocycle_basis(quandle, coeff, alphas, orbit_map):
    """Kernel basis of the orbit-twisted degree-2 condition (plus the
    degeneracy rows); alphas maps orbit id -> unit scalar."""
    d = coeff.d
    n = quandle.n
    dim = n * n * d
    inv_mats = {o: alphas[o].int_matrix(-1) for o in range(orbit_map.count)}
    ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def col(a, b):
        return (a * n + b) * d

    rows = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                block_rows = [[0] * dim for _ in range(d)]
                _add_block(block_rows, inv_mats[orbit_map.of(c)], 1,
                           col(quandle.apply(a, c), quandle.apply(b, c)))
                _add_block(block_rows, ident, -1, col(a, b))
                _add_block(block_rows, inv_mats[orbit_map.of(b)], -1,
                           col(quandle.apply(a, b), c))
                _add_block(block_rows, ident, 1, col(a, c))
                _add_block(block_rows, inv_mats[orbit_map.of(a)], 1, col(b, c))
                _add_block(block_rows, ident, -1, col(b, c))
                rows.extend(block_rows)
    rows += _degenerate_rows(quandle, None, coeff, 2)
    kernel = _kernel_vectors(rows, dim, coeff)
    return [_vector_to_cochain(quandle, None, coeff, 2, v) for v in kernel]
