"""Weight sums over colored diagrams and the invariant multisets.

Every flavor is one signed, twisted sum over the crossings,

    sum_x  sign(x) * prod_j u_j^(-e_j(x)) * w(m(x), a, b),

with a the under color on the source-region side, b the over color,
e_j(x) the component-j index of the source region, i(x) = sum_j e_j(x)
its index and u_j the unit of component j's color orbit.  Every flavor
is a tuple of units, one per orbit of the quandle, and a choice of m:

- classical:      unit 1 on every orbit, m = 0
- shadow:         unit 1 on every orbit, m = the source-region color
- positive:       unit -1 on every orbit, m = 0
- twisted:        unit alpha on every orbit, m = 0
- shadow_twisted: as twisted, with m = the source-region color
- link_twisted:   one given unit per orbit (alphas), m = 0

One unit u on every orbit gives prod_j u^(-e_j(x)) = u^(-i(x)), and when
every unit is the identity nothing is twisted, so the plan skips the
region walk.  A diagram is compiled once per flavor into a plan holding, per
crossing, the two arc slots, the source region and the product table of
one d x d integer coefficient matrix C_x = sign(x) * prod_j U_j^(e_j(x))
folded from the sign and the twisting units: the table holds C_x . w[i]
by position i of w's table, each product computed the first time it is
read.  Weighing a coloring is then one table lookup per crossing, the
products summed per coordinate on plain integers and reduced once.
The invariant is the multiset of weights over all colorings (with the
exterior region color pinned for shadow flavors).  Once its cocycle has
passed the gate, every flavor weighs one coloring per orbit of Inn(Q)
and counts its weight once per coloring of that orbit; the _Plan
docstring proves this exact, for a pinned exterior color too.
"""

from collections import Counter
from operator import mul

from .algebra import (AxiomReport, Frozen, IntUnit, Scalar, StructureError,
                      is_integer, orbits)
from .cohomology import DifferentialSpec, is_cocycle
from .coloring import (component_orbits, enumerate_colorings,
                       propagate_shadow)
from .diagram import compute_indices, crossing_geometry

FLAVORS = ("classical", "shadow", "positive", "twisted", "shadow_twisted",
           "link_twisted")
# the fixed unit that twists each untwisted flavor's sum on every orbit
UNITS = {"classical": 1, "shadow": 1, "positive": -1}
# the flavors that color regions from the cochain's module
SHADOW = ("shadow", "shadow_twisted")


class CocycleError(ValueError):
    """The supplied cochain fails the cocycle condition its flavor needs."""

    def __init__(self, flavor, report):
        self.flavor = flavor
        self.report = report
        super().__init__(
            f"{flavor}: {report.axiom} fails at {report.witness}")


class WeightMultiset(Frozen):
    """Canonical multiset of coefficient-group elements: weights is
    sorted ((element tuple, multiplicity), ...)."""

    def __init__(self, weights):
        self.__dict__["weights"] = weights

    @classmethod
    def from_values(cls, values):
        return cls(tuple(sorted(Counter(values).items())))

    @classmethod
    def from_counts(cls, counts):
        """From (element, multiplicity) pairs; an element may repeat, and
        its multiplicities add."""
        merged = Counter()
        for v, m in counts:
            merged[v] += m
        return cls(tuple(sorted(merged.items())))

    def total(self):
        return sum(m for _, m in self.weights)

    def scaled(self, scalar, power=1):
        # one product per distinct weight, not per coloring
        return WeightMultiset.from_counts(
            (scalar.apply(v, power), m) for v, m in self.weights)

    def to_json(self):
        return {"v": 1, "weights": [[list(v), m] for v, m in self.weights]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple((tuple(v), m) for v, m in data["weights"]))


# -- flavor-matched cocycle validation --------------------------------------

def validate_cocycle(flavor, omega, *, alpha=None, alphas=None):
    """Raise CocycleError unless omega satisfies the flavor's condition.

    The one cocycle gate, d_left weighted by the inverse unit of the
    acting color's orbit: with one unit u on every orbit, u^-1 times the
    (1, u) twisted differential, so the same kernel and first failure."""
    units = _units(flavor, omega, alpha, alphas)
    spec = DifferentialSpec.link_twisted(units, orbits(omega.quandle))
    report = is_cocycle(spec, omega)
    if not report:
        if flavor == "link_twisted":
            # a per-orbit witness drops the trivial module's slot
            report = AxiomReport(False, report.axiom, report.witness[1:])
        raise CocycleError(flavor, report)


def _units(flavor, omega, alpha, alphas):
    """The flavor's twisting as one unit scalar per orbit of omega's
    quandle: its fixed unit (UNITS) or alpha on every orbit, or
    link_twisted's alphas.  Refuses an unknown flavor, a missing alpha or
    alphas, a unit over another group than omega's coefficients, and a
    cochain of another shape than the sum reads, omega(m, a, b) with m
    filled by the shadow flavors only."""
    if flavor not in FLAVORS:
        raise StructureError(f"unknown flavor {flavor!r}")
    count = orbits(omega.quandle).count
    if flavor != "link_twisted":
        unit = UNITS.get(flavor, alpha)
        if unit is None:
            raise StructureError(f"{flavor} needs a twisting unit alpha")
        alphas = [unit] * count
    units = tuple(a if isinstance(a, Scalar) else IntUnit(omega.coeff, a)
                  for a in alphas or ())
    for u in units:
        if u.group != omega.coeff:
            raise StructureError(f"unit {u!r} acts on {u.group!r}, not on "
                                 f"the cochain's {omega.coeff!r}")
    if len(units) != count:
        raise StructureError("link_twisted needs alphas, one unit "
                             "per quandle orbit")
    if omega.degree != 2:
        raise StructureError(f"{flavor} weighs a degree-2 cochain, "
                             f"not degree {omega.degree}")
    if omega.module is not None and flavor not in SHADOW:
        raise StructureError(f"{flavor} weighs a trivial-module cochain; "
                             "only shadow flavors read a module")
    if omega.module is None and flavor in SHADOW:
        raise StructureError(f"{flavor} weighs a module cochain, "
                             "not a trivial-module one")
    return units


# -- the compiled state sum -------------------------------------------------

def _compile(diagram, twisted):
    """Per crossing (sign, a_arc, b_arc, source region, exponent vector):
    everything the sum needs that depends on the diagram alone.  The
    exponents are minus the per-component index of the source region, or
    none for an untwisted sum, which skips the region walk."""
    per = compute_indices(diagram).per_component if twisted else None
    return tuple((g.sign, g.a_arc, g.b_arc, g.source_region,
                  tuple(-e for e in per[g.source_region]) if twisted else ())
                 for g in crossing_geometry(diagram))


def _coefficient(sign, units, exps, d):
    """s * prod_j U_j^(e_j) as a d x d integer matrix, the units composed in
    the order they twist a value: unit j acts after units 0..j-1."""
    coef = [[sign * (r == c) for c in range(d)] for r in range(d)]
    for unit, e in zip(units, exps):
        if e:
            u = unit.int_matrix(e)
            coef = [[sum(u[r][k] * coef[k][c] for k in range(d))
                     for c in range(d)] for r in range(d)]
    return tuple(map(tuple, coef))


class _Products(dict):
    """C . omega[i] by table position i for one coefficient matrix C, each
    product computed the first time it is read."""

    def __init__(self, coef, values):
        super().__init__()
        self.coef, self.values = coef, values

    def __missing__(self, i):
        term = self.values[i]
        product = self[i] = tuple([sum(map(mul, row, term))
                                   for row in self.coef])
        return product


class _Plan:
    """A flavor's state sum compiled once for one diagram and cochain.

    Construction refuses a missing flavor input (alpha, alphas, a shadow
    flavor's exterior color) or a cochain of the wrong shape, then runs
    the cocycle gate when ``check`` is set and compiles the diagram,
    walking the regions unless every unit is the identity; calling the
    plan weighs one coloring (a ShadowColoring for the shadow flavors).
    Each crossing's sign and twist fold into one integer coefficient
    matrix C_x (_coefficient), and each distinct C_x gets one product
    table (_Products) of C_x . omega[i] by table position i, shared by
    every crossing with that matrix.  A product is computed the first
    time it is read, so a coloring costs one table lookup per crossing
    and the products are summed per coordinate and reduced once: the
    same integers as C_x . omega[i] summed directly.  The tables are
    stored per tuple of component orbits, and compiled once per tuple of
    component units, the first time one appears.

    A gated plan weighs one coloring per Inn(Q)-orbit (``weighings``):
    those whose arc-0 color r is the least of its orbit O, each weight
    counted |O| times.  This is exact.  The colorings with arc-0 color x
    are g_x applied to those with color r (``Quandle.moves``), and g_x
    is a composite of right translations S_c(z) = z |> c, so it is
    enough that W(S_c C, y) = W(C, y) for every coloring C of D, color c
    and exterior color y (the arc-coloring flavors read no region color,
    so y does not change their weight).  For a cocycle that passed its
    gate, Reidemeister moves keep the weight of each (shadow) coloring
    (Carter-Elhamdadi-Saito for the twisted and shadow sums; the paper
    for one unit per orbit).  Put a crossingless circle K of color c
    beside D, as the last component: it adds no crossing, and every
    region of D lies outside K, at index 0 on K, so D + K weighs
    W(C, y).  Let u be the unit of c's orbit and s = +-1 the sign, set
    by K's orientation, with which K acts on what passes under it.

    - Slide K under all of D until it encloses D.  D's arcs keep their
      colors, D's regions are now colored from the exterior y |>^s c,
      and every region of D gains the same index e = +-1 on K, so every
      term gains the factor u^-e, applied last: D + K weighs
      u^-e W(C, y |>^s c).
    - Slide K over D instead.  Every arc of D passes under K once, so
      D's coloring becomes S_c^s C, with the same regions and the same
      shift e: D + K weighs u^-e W(S_c^s C, y |>^s c).

    Both paths end at the same diagram, K enclosing D, and each keeps
    the weight W(C, y), so u^-e W(C, y |>^s c) = u^-e W(S_c^s C,
    y |>^s c); u is invertible, and y -> y |>^s c is a bijection of the
    module, so W(C, y) = W(S_c^s C, y) for every exterior color y.

    The component orbits, the keys of the refined multisets, are kept
    too: g_x keeps every color in its orbit.  Without the gate
    (``check=False``) the weight need not be invariant, and every
    coloring is weighed.
    """

    def __init__(self, diagram, flavor, omega, check, *, alpha=None,
                 alphas=None, exterior=None):
        self.units = _units(flavor, omega, alpha, alphas)
        self.shadow = flavor in SHADOW
        if self.shadow and not (is_integer(exterior)
                                and exterior in omega.module.elements()):
            raise StructureError(f"{flavor} needs an exterior color in its "
                                 f"cochain's module, not {exterior!r}")
        if check:
            validate_cocycle(flavor, omega, alpha=alpha, alphas=alphas)
        self.diagram, self.omega, self.exterior = diagram, omega, exterior
        self.orbit_map = orbits(omega.quandle)
        self.orbit_of = [self.orbit_map.of(c) for c in range(omega.quandle.n)]
        # times each coloring's weight counts, by its arc-0 color
        self.multiplicity = [1] * omega.quandle.n
        if check:
            self.multiplicity = [0] * omega.quandle.n
            for orbit in self.orbit_map.orbits:
                self.multiplicity[orbit[0]] = len(orbit)
        self.first_arcs = [arcs[0] for arcs in diagram.component_arcs]
        # non-shadow flavors read omega at m = 0 for every source region
        self.no_regions = (0,) * diagram.n_regions
        identity = IntUnit(omega.coeff, 1).int_matrix()
        self.terms = _compile(diagram, not all(
            u.int_matrix() == identity for u in self.units))
        # one product table per distinct coefficient matrix, shared by
        # every crossing and every tuple of component units that has it
        self.weighed, self.compiled, self.tables = {}, {}, {}

    def _weighed(self, key):
        """(product table, a_arc, b_arc, source region) per crossing for
        one tuple of component orbits."""
        units = tuple(self.units[o] for o in key)
        weighed = self.compiled.get(units)
        if weighed is None:
            d, values = self.omega.coeff.d, self.omega.values
            weighed = []
            for sign, a, b, src, exps in self.terms:
                coef = _coefficient(sign, units, exps, d)
                table = self.tables.setdefault(coef, _Products(coef, values))
                weighed.append((table, a, b, src))
            self.compiled[units] = weighed
        self.weighed[key] = weighed
        return weighed

    def weighings(self, colorings):
        """(component orbits, weight, multiplicity) per coloring from the
        search that the plan weighs: with the gate one per Inn(Q)-orbit
        (see the class), else every one.  The search keeps each
        component in one orbit, so one arc per component decides its
        orbit."""
        orbit_of, first = self.orbit_of, self.first_arcs
        multiplicity = self.multiplicity
        for coloring in colorings:
            count = multiplicity[coloring[0]]
            if not count:
                continue
            key = tuple([orbit_of[coloring[a]] for a in first])
            if self.shadow:
                coloring = propagate_shadow(self.diagram, coloring,
                                            self.omega.module, self.exterior)
            yield key, self(coloring, key), count

    def __call__(self, coloring, key=None):
        """Weigh one coloring; key, if given, is its component orbits."""
        arcs, regions = coloring, self.no_regions
        if self.shadow:
            arcs, regions = coloring.arcs, coloring.regions
        if key is None:
            key = component_orbits(self.diagram, arcs, self.orbit_map)
        weighed = self.weighed.get(key)
        if weighed is None:
            weighed = self._weighed(key)
        n = self.omega.quandle.n
        terms = [table[(regions[src] * n + arcs[a]) * n + arcs[b]]
                 for table, a, b, src in weighed]
        coeff = self.omega.coeff
        return coeff.reduce([sum(t) for t in zip(coeff.zero(), *terms)])


# -- per-coloring weights ----------------------------------------------------

def weight_classical(diagram, coloring, omega, check=True):
    """Signed sum of w(a, b) over the crossings."""
    return _Plan(diagram, "classical", omega, check)(coloring)


def weight_shadow(diagram, shadow, omega, check=True):
    """Signed sum of w(source color, a, b)."""
    return _Plan(diagram, "shadow", omega, check,
                 exterior=shadow.regions[diagram.exterior_region])(shadow)


def weight_positive(diagram, coloring, omega, check=True):
    """Sum of sign(x) * (-1)^i(x) * w(a, b), the checkerboard sign sum."""
    return _Plan(diagram, "positive", omega, check)(coloring)


def weight_twisted(diagram, coloring, omega, alpha, check=True):
    """Sum of sign(x) * alpha^-i(x) * w(a, b)."""
    return _Plan(diagram, "twisted", omega, check, alpha=alpha)(coloring)


def weight_shadow_twisted(diagram, shadow, omega, alpha, check=True):
    """Sum of sign(x) * alpha^-i(x) * w(source color, a, b)."""
    return _Plan(diagram, "shadow_twisted", omega, check, alpha=alpha,
                 exterior=shadow.regions[diagram.exterior_region])(shadow)


def weight_link_twisted(diagram, coloring, omega, alphas, check=True):
    """Per-component twisted weight with one unit per quandle orbit."""
    return _Plan(diagram, "link_twisted", omega, check,
                 alphas=alphas)(coloring)


# -- invariant multisets ------------------------------------------------------

def invariant_multiset(diagram, quandle, flavor, omega, *, alpha=None,
                       alphas=None, exterior=None, check=True):
    """The flavor's weight multiset over all (shadow) colorings.

    Shadow flavors pin the exterior region color to ``exterior``, an
    element of omega's module, and extend each arc coloring to the unique
    compatible region coloring in that module, whose positions index
    omega's table.
    """
    plan = _Plan(diagram, flavor, omega, check, alpha=alpha, alphas=alphas,
                 exterior=exterior)
    return WeightMultiset.from_counts(
        (weight, count) for _key, weight, count
        in plan.weighings(enumerate_colorings(diagram, quandle)))


def check_refinable(flavor):
    """Refuse orbit refinement of a shadow flavor."""
    if flavor in SHADOW:
        raise StructureError("orbit refinement applies to arc-coloring "
                             f"flavors, not {flavor}")


def orbit_refined_multisets(diagram, quandle, flavor, omega, *, alpha=None,
                            alphas=None, check=True):
    """The flavor multiset split by the tuple of component color orbits."""
    check_refinable(flavor)
    plan = _Plan(diagram, flavor, omega, check, alpha=alpha, alphas=alphas)
    buckets = {}
    for key, weight, count in plan.weighings(
            enumerate_colorings(diagram, quandle)):
        buckets.setdefault(key, []).append((weight, count))
    return {key: WeightMultiset.from_counts(counts)
            for key, counts in sorted(buckets.items())}
