"""Two-term distributive cochain complexes and their cohomology.

A degree-k cochain is a map M x Q^k -> A stored as a dense table in
lexicographic order of (m, a_1, ..., a_k); a trivial module (module=None)
drops the m slot.  Every theory here is one shadow-type differential
(DifferentialSpec): d_left weighted by a matrix of each term's acting
color, minus d_right under a constant weight.

Each cocycle condition is written down once, as index columns
(_columns): per term, the acting color and the two table positions read
at each point.  The gates and the dense differentials gather the weighted
values through them (_sums), and _differential_rows reads them point by
point as sparse integer rows, one dict {column: entry} per point and
coordinate, whose kernel is the cocycle basis and whose columns one degree
down span the coboundaries.

Every cochain is a dense table over a finite table module.  The shadow
cochain alpha^-m w of a twisted (per-orbit twisted) cochain w has region
colors in Z (in the orbit-counting group), but each unit has a finite
order, so transport_to_shadow tabulates it over the region colors counted
modulo those orders.  Transport maps cocycles to cocycles both ways, and
the shadow sum of a transport is the twisted sum of its source times a
unit, so `qci invariant` weighs the source itself.

The coefficient group splits into pieces (_blocks): one piece of all
coordinates when the moduli agree, else one piece per coordinate.  Each
piece is solved over its own ring, Z/n or Z for n == 0, by modlinalg's one
elimination (kernel_mod, howell, howell_member and
quotient_invariant_factors take the piece's n), and the answers are summed.
A piece's rows are built on its own coordinates only, and its vectors
become cochains that are zero off them.
"""

from itertools import chain, compress, count, islice, product, repeat
from operator import add, getitem, mod, mul, sub

from .algebra import (AxiomReport, CoeffGroup, Frozen, IntUnit, Scalar,
                      StructureError, check_version, is_integer,
                      module_from_json, orbit_shadow_module, orbits)
from . import modlinalg


class DifferentialSpec:
    """The two integer-matrix weights of a shadow-type differential.

    ``left(a)`` weights the d_left term whose acting color is a, ``right``
    every d_right term; both are d x d matrices on residue vectors.  The
    classical quandle, positive and twisted theories are the constant
    pairs (1,1), (1,-1) and (1,alpha); the per-orbit twisted theory weights
    the term acting by a with the inverse unit of a's orbit, the rest by 1.
    """

    def __init__(self, alpha_l, alpha_r):
        if not isinstance(alpha_l, Scalar) or not isinstance(alpha_r, Scalar):
            raise StructureError("spec coefficients must be Scalars")
        if alpha_l.group != alpha_r.group:
            raise StructureError("spec coefficients act on different groups")
        left = alpha_l.int_matrix()
        self.group, self.right = alpha_l.group, alpha_r.int_matrix()
        self.left = lambda a: left

    @classmethod
    def _of(cls, group, left, right):
        """The spec with the weights left (a map from acting colors to
        d x d integer matrices) and right (one such matrix)."""
        spec = cls.__new__(cls)
        spec.group, spec.left, spec.right = group, left, right
        return spec

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

    @classmethod
    def link_twisted(cls, alphas, orbit_map):
        """alphas maps each orbit id of orbit_map to a unit scalar."""
        if len(alphas) != orbit_map.count:
            raise StructureError("need one unit per quandle orbit")
        group = alphas[0].group
        if any(u.group != group for u in alphas):
            raise StructureError("per-orbit units act on different groups")
        inverses = [u.int_matrix(-1) for u in alphas]
        return cls._of(group, lambda a: inverses[orbit_map.of(a)],
                       IntUnit(group, 1).int_matrix())


def _mod_size(module):
    return 1 if module is None else module.size


class Cochain(Frozen):
    """Dense cochain table over a table module (or the trivial one, None):
    a tuple of reduced values.  Cochains compare by degree, values and
    coefficient group."""

    def __init__(self, quandle, module, coeff, degree, values):
        if degree < 0:
            raise StructureError("degree must be >= 0")
        size = _mod_size(module) * quandle.n ** degree
        values = tuple(map(coeff.reduce, map(tuple, values)))
        if len(values) != size:
            raise StructureError(f"expected {size} values, got {len(values)}")
        self.__dict__.update(quandle=quandle, module=module, coeff=coeff,
                             degree=degree, values=values)

    def _key(self):
        return self.degree, self.values, self.coeff

    def index(self, m, args):
        return _flat_index(self.quandle, self.module, m, args)

    def at(self, m, args=()):
        return self.values[_flat_index(self.quandle, self.module, m, args)]

    def domain(self):
        return _domain(self.quandle, self.module, self.degree)

    def is_zero(self):
        zero = self.coeff.zero()
        return all(v == zero for v in self.values)

    def add(self, other):
        vals = [self.coeff.add(x, y) for x, y in zip(self.values, other.values)]
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
        if not isinstance(data, dict):
            raise StructureError("cochain json must be an object")
        check_version(data)
        coeff = CoeffGroup.from_json(data.get("coeff"))
        if data.get("module") is not None:
            record = module_from_json(data["module"], quandle)
            if module is None:
                module = record
            elif record != module:
                raise StructureError("the cochain's module record differs "
                                     "from the given module")
        degree = data.get("degree")
        if not is_integer(degree) or degree < 0:
            raise StructureError(f"degree must be an integer >= 0, "
                                 f"not {degree!r}")
        raw = data.get("values")
        if not isinstance(raw, list):
            raise StructureError(f"values must be a list, not {raw!r}")
        if quandle.n > 1 and degree >= len(raw).bit_length():
            # n^degree >= 2^degree > len(raw) rows, so refuse before the
            # power, which a huge degree makes unbounded
            raise StructureError(f"degree {degree} needs more than the "
                                 f"{len(raw)} values given")
        values = [tuple(v) if isinstance(v, list) else (v,) for v in raw]
        # a bare integer reads as a one-entry list, and type() keeps bool
        # out; the per-entry scan only locates an entry known to be bad
        if (set(map(len, values)) - {coeff.d}
                or set(map(type, chain.from_iterable(values))) - {int}):
            i = next(i for i, v in enumerate(values)
                     if len(v) != coeff.d or {type(x) for x in v} - {int})
            raise StructureError(f"values[{i}] must be a list of "
                                 f"{coeff.d} integers, not {raw[i]!r}")
        return cls(quandle, module, coeff, degree, values)


def zero_cochain(quandle, module, coeff, degree):
    size = _mod_size(module) * quandle.n ** degree
    return Cochain(quandle, module, coeff, degree, [coeff.zero()] * size)


def random_cochain(rng, quandle, module, coeff, degree):
    size = _mod_size(module) * quandle.n ** degree
    vals = [coeff.random_element(rng) for _ in range(size)]
    return Cochain(quandle, module, coeff, degree, vals)


def _domain(quandle, module, degree):
    """All (m, args) pairs in table order."""
    return ((m, args) for m in range(_mod_size(module))
            for args in product(range(quandle.n), repeat=degree))


def _same_group(spec, coeff):
    """Refuse a spec whose weights act on another group than coeff."""
    if spec.group != coeff:
        raise StructureError("spec and coefficient groups differ")


def differential(spec, phi):
    """The spec differential of phi, dense."""
    _same_group(spec, phi.coeff)
    values = list(zip(*_sums(spec, phi)))
    return Cochain(phi.quandle, phi.module, phi.coeff, phi.degree + 1, values)


def _one_side(coeff, k_left, k_right):
    """The spec weighting the two sides by k_left and k_right times the
    identity; (1, 0) is d_left alone and (0, -1) d_right alone."""
    d = coeff.d
    left = [[k_left * (i == j) for j in range(d)] for i in range(d)]
    right = [[k_right * (i == j) for j in range(d)] for i in range(d)]
    return DifferentialSpec._of(coeff, lambda a: left, right)


def d_left(phi):
    """Dense d_left, the weights (1, 0)."""
    return differential(_one_side(phi.coeff, 1, 0), phi)


def d_right(phi):
    """Dense d_right, the weights (0, -1)."""
    return differential(_one_side(phi.coeff, 0, -1), phi)


def _degenerate_args(args):
    return any(args[i] == args[i + 1] for i in range(len(args) - 1))


def is_cocycle(spec, phi, quandle_flag=True):
    """Does the spec differential kill phi (plus the degeneracy condition)?

    Decided exhaustively, in table order: the degenerate entries first
    (when flagged), then the entries of the differential.  Returns an
    AxiomReport whose witness is the offending (m, a_1, ...) tuple.
    """
    _same_group(spec, phi.coeff)
    zero = phi.coeff.zero()
    if quandle_flag:
        for (m, args), v in zip(phi.domain(), phi.values):
            if v != zero and _degenerate_args(args):
                return AxiomReport(False, "degenerate-vanishing", (m,) + args)
    # the first point in table order with a coordinate nonzero modulo n
    points = len(phi.values) * phi.quandle.n
    first = min(next(compress(count(), map(mod, sums, repeat(n)) if n
                              else sums), points)
                for sums, n in zip(_sums(spec, phi), phi.coeff.moduli))
    if first == points:
        return AxiomReport(True)
    m, args = next(islice(_domain(phi.quandle, phi.module, phi.degree + 1),
                          first, None))
    return AxiomReport(False, "cocycle", (m,) + args)


def is_link_twisted_cocycle(phi, alphas, quandle_flag=True):
    """Cocycle condition for the orbit-indexed twisted theory.

    ``alphas`` holds a unit scalar per orbit of phi's quandle; the condition
    weights each term by the inverse unit of the acting color's orbit.
    The witness drops the trivial module's slot: (a, a) or (a, b, c).
    """
    if phi.degree != 2 or phi.module is not None:
        raise StructureError("orbit-twisted cocycles are degree-2 with trivial module")
    spec = DifferentialSpec.link_twisted(alphas, orbits(phi.quandle))
    report = is_cocycle(spec, phi, quandle_flag)
    return AxiomReport(report.passed, report.axiom, report.witness[1:])


def _order(unit):
    """The least k >= 1 with unit^k = 1, read off the powers of the unit
    on the standard basis.  A scalar of a finite group that is no unit
    repeats a power before it gets back to 1; on a free Z summand only the
    integer units +-1 are allowed."""
    group = unit.group
    if not group.is_finite and not isinstance(unit, IntUnit):
        raise StructureError("transport over Z needs an integer unit")
    basis = tuple(tuple(int(i == j) for i in range(group.d))
                  for j in range(group.d))
    power, seen = tuple(map(unit.apply, basis)), set()
    while power != basis:
        if power in seen:
            raise StructureError(f"{unit!r} is not a unit")
        seen.add(power)
        power = tuple(map(unit.apply, power))
    return len(seen) + 1


def transport_to_shadow(omega, alphas):
    """The shadow cochain (m, args) -> prod_O u_O^(-m_O) omega(args) of a
    trivial-module cochain, with u_O = alphas[O]: one unit for a twisted
    cochain, one unit per orbit of omega's quandle for a per-orbit twisted
    one (any other count is refused).  Each unit has a finite order k_O,
    so the values are periodic in m and form a table over
    orbit_shadow_module(q, (k_O, ...)), where m |> a = m + e_o(a); with one
    unit that is cyclic_shadow_module(q, k)."""
    if omega.module is not None:
        raise StructureError("transport starts from a trivial-module cochain")
    if not all(isinstance(u, Scalar) for u in alphas):
        raise StructureError("transport units must be unit scalars")
    orders = [_order(u) for u in alphas]
    module = orbit_shadow_module(omega.quandle, orders)
    values = []
    for digits in product(*(range(k) for k in orders)):
        for v in omega.values:
            for u, e in zip(alphas, digits):
                if e:
                    v = u.apply(v, -e)
            values.append(v)
    return Cochain(omega.quandle, module, omega.coeff, omega.degree, values)


# ---------------------------------------------------------------------------
# linear-algebra backend: cocycle and coboundary bases, cohomology groups

def _flat_index(quandle, module, m, args):
    """Table position of (m, args); its d coordinates start at d times it."""
    n = quandle.n
    idx = m if module is not None else 0
    for a in args:
        idx = idx * n + a
    return idx


def _columns(quandle, module, degree):
    """The differential C^degree -> C^{degree+1} as index columns: per
    term i, three lists over the degree+1 points (m, a_1, ..) in table
    order: the acting color a = a_{i+1}, the left position (of m |> a,
    a_1 |> a, .., a_i |> a, a_{i+2}, ..) and the right one (of m, a_1, ..,
    a_i, a_{i+2}, ..).  The differential at a point is the sum over i of
    (-1)^i (left(a) . values[left] - right . values[right]).

    A degree-k position is m * n^k + sum_j b_j * n^(k-j), m being 0 on a
    trivial module.  Appending a color c to each point maps the earlier
    terms' positions x to x * n + c and adds the term acting by c, which
    reads the point itself on the right and the acted point on the left."""
    n, op = quandle.n, quandle.op
    action = ((0,) * n,) if module is None else module.action
    colors = range(n)
    columns, acted = [], [row[a] for row in action for a in colors]
    for k in range(degree + 1):
        points = len(action) * n ** k
        if k:
            columns = [([a for a in acting for _c in colors],
                        [x * n + c for x in lefts for c in colors],
                        [x * n + c for x in rights for c in colors])
                       for acting, lefts, rights in columns]
            acted = [acted[j * n + a] * n + row[a]
                     for j in range(points // n) for row in op for a in colors]
        columns.append((list(colors) * points, acted,
                        [j for j in range(points) for _a in colors]))
    return columns


def _sums(spec, phi):
    """The spec differential of phi, unreduced: per coordinate, its values
    at the degree+1 points in table order, gathered through the _columns
    from the values weighted once by each distinct weight matrix."""
    keys = [tuple(map(tuple, mat)) for mat in
            [*map(spec.left, range(phi.quandle.n)), spec.right]]
    weighed = {key: [[sum(map(mul, row, v)) for v in phi.values]
                     for row in key] for key in set(keys)}
    *left, right = map(weighed.__getitem__, keys)
    columns, out = _columns(phi.quandle, phi.module, phi.degree), []
    for r in range(phi.coeff.d):
        by_color, total = [w[r] for w in left], repeat(0)
        for i, (colors, lefts, rights) in enumerate(columns):
            on_left, on_right = (sub, add) if i % 2 else (add, sub)
            total = map(on_right, map(on_left, total, map(
                getitem, map(by_color.__getitem__, colors), lefts)),
                map(right[r].__getitem__, rights))
        out.append(list(total))
    return out


def _differential_rows(spec, quandle, module, degree, coords):
    """The spec differential C^degree -> C^{degree+1} on the coordinates
    coords of one piece: each point's terms (the zipped _columns) as one
    sparse row {column: entry} per coordinate of coords, the column of
    coordinate coords[j] at position pos being pos * len(coords) + j.  A
    row with a nonzero entry on a coordinate outside the piece is refused."""
    w = len(coords)
    slot = {c: j for j, c in enumerate(coords)}
    left = [spec.left(a) for a in range(quandle.n)]
    rows = []
    for point in zip(*(zip(*term) for term in _columns(quandle, module,
                                                         degree))):
        for r in coords:
            row, outside = {}, {}
            for i, (a, lpos, rpos) in enumerate(point):
                for mat, sign, pos in ((left[a], (-1) ** i, lpos),
                                       (spec.right, -(-1) ** i, rpos)):
                    for c, x in enumerate(mat[r]):
                        if x and c in slot:
                            key = pos * w + slot[c]
                            row[key] = row.get(key, 0) + sign * x
                        elif x:
                            outside[pos, c] = (outside.get((pos, c), 0)
                                               + sign * x)
            if any(outside.values()):
                raise StructureError(
                    "mixed-modulus system with coordinate mixing")
            rows.append(row)
    return rows


def _degenerate_positions(quandle, module, degree):
    return [i for i, (_m, args) in enumerate(_domain(quandle, module, degree))
            if _degenerate_args(args)]


def _blocks(coeff):
    """The (coordinates, modulus) pieces that the linear algebra solves apart.

    Uniform moduli make one piece of all coordinates, which is what
    coordinate-mixing shift units need; mixed moduli make one piece per
    coordinate, valid exactly when no equation mixes coordinates.
    """
    if len(set(coeff.moduli)) == 1:
        return [(tuple(range(coeff.d)), coeff.moduli[0])]
    return [((c,), n) for c, n in enumerate(coeff.moduli)]


def _pieces(spec, quandle, module, coeff, degree, quandle_flag):
    """(coords, n, width, kernel) per piece: the kernel basis of the spec
    differential out of ``degree`` on the piece's coordinates, flattened
    to vectors of the given width, on the degenerate-free subspace when
    flagged (one unit row per degenerate position and coordinate)."""
    if degree < 1:
        raise StructureError("cohomology is computed in degree >= 1")
    _same_group(spec, coeff)
    size = _mod_size(module) * quandle.n ** degree
    degenerate = (_degenerate_positions(quandle, module, degree)
                  if quandle_flag else [])
    for coords, n in _blocks(coeff):
        w = len(coords)
        rows = _differential_rows(spec, quandle, module, degree, coords)
        rows += [{i * w + j: 1} for i in degenerate for j in range(w)]
        yield coords, n, size * w, modlinalg.kernel_mod(rows, size * w, n)


def _cochains(vectors, coords, quandle, module, coeff, degree):
    """The cochains of a piece's flattened vectors, zero off its
    coordinates."""
    w = len(coords)
    out = []
    for vec in vectors:
        values = [[0] * coeff.d for _ in range(len(vec) // w)]
        for k, x in enumerate(vec):
            values[k // w][coords[k % w]] = x
        out.append(Cochain(quandle, module, coeff, degree, values))
    return out


class CohomologyBasis:
    """Cocycle/coboundary generating sets and the quotient's shape."""

    def __init__(self, cocycles, coboundaries, torsion, free_rank):
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.torsion = torsion
        self.free_rank = free_rank

    def __eq__(self, other):
        return type(other) is CohomologyBasis and vars(self) == vars(other)


def cohomology_basis(spec, quandle, module, coeff, degree, quandle_flag=True):
    """Cocycles, coboundaries, and invariant factors in one degree.

    The cocycle basis spans the kernel of the spec differential (restricted
    to the degenerate-free subspace when flagged); the coboundary basis is
    the canonical form of the image from one degree down.  Invariant
    factors describe the quotient group.
    """
    shape = (quandle, module, coeff, degree)
    cocycles, coboundaries, torsion, free_rank = [], [], [], 0
    for coords, n, width, kernel in _pieces(spec, *shape, quandle_flag):
        # the image of the previous differential is spanned by the columns
        # of its rows, less those of degenerate inputs when flagged
        w = len(coords)
        image = [{} for _ in range(width // quandle.n)]
        for i, row in enumerate(_differential_rows(spec, quandle, module,
                                                   degree - 1, coords)):
            for c, x in row.items():
                image[c][i] = x
        if quandle_flag:
            for i in _degenerate_positions(quandle, module, degree - 1):
                for j in range(w):
                    image[i * w + j].clear()
        basis = modlinalg.howell(image, n, width)
        factors = modlinalg.quotient_invariant_factors(kernel, basis, n,
                                                       width)
        free_rank += factors.count(0)
        torsion += [f for f in factors if f]
        cocycles += _cochains(kernel, coords, *shape)
        coboundaries += _cochains(basis, coords, *shape)
    # the pieces' chains merge into one; a 1 there is a trivial summand
    torsion = [f for f in modlinalg.merge_factors(torsion) if f != 1]
    return CohomologyBasis(cocycles=cocycles, coboundaries=coboundaries,
                           torsion=torsion, free_rank=free_rank)


def cocycle_basis(spec, quandle, module, coeff, degree=2, quandle_flag=True):
    """Just the kernel side of cohomology_basis."""
    shape = (quandle, module, coeff, degree)
    return [c for coords, _n, _width, kernel
            in _pieces(spec, *shape, quandle_flag)
            for c in _cochains(kernel, coords, *shape)]


def is_in_span(basis_cochains, phi):
    """Membership of phi in the Z-span of dense cochains of its quandle,
    module, coefficient group and degree; a cochain of another shape is
    refused."""
    shape = phi.quandle, phi.module, phi.coeff, phi.degree
    if any((c.quandle, c.module, c.coeff, c.degree) != shape
           for c in basis_cochains):
        raise StructureError("span membership needs cochains of one "
                             "quandle, module, coefficient group and degree")
    for coords, n in _blocks(phi.coeff):
        target, *rows = ([v[j] for v in c.values for j in coords]
                         for c in (phi, *basis_cochains))
        basis = modlinalg.howell(rows, n, len(target))
        if not modlinalg.howell_member(basis, target, n):
            return False
    return True


def link_twisted_cocycle_basis(quandle, coeff, alphas):
    """Kernel basis of the orbit-twisted degree-2 condition (plus the
    degeneracy rows); alphas holds a unit scalar per orbit of quandle."""
    spec = DifferentialSpec.link_twisted(alphas, orbits(quandle))
    return cocycle_basis(spec, quandle, None, coeff, 2)
