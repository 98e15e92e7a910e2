"""Weight sums over colored diagrams and the invariant multisets.

Every flavor is one signed, twisted sum over the crossings,

    sum_x  sign(x) * prod_j u_j^(-e_j(x)) * w(m(x), a, b),

with a the under color on the source-region side, b the over color,
e_j(x) the component-j index of the source region and i(x) = sum_j e_j(x)
its index.  The flavors differ only in what fills the slots:

- classical:      e = i(x) with unit 1, m = 0
- shadow:         e = i(x) with unit 1, m = the source-region color
- positive:       e = i(x) with unit -1, m = 0
- twisted:        e = i(x) with unit alpha, m = 0
- shadow_twisted: as twisted, with m = the source-region color
- link_twisted:   e_j(x) with the unit of component j's color orbit, m = 0

One unit u on every component gives prod_j u^(-e_j(x)) = u^(-i(x)), and
the unit 1 twists nothing, so classical and shadow plans skip the region
walk.  A diagram is compiled once per flavor into a plan holding, per
crossing, the two arc slots, the source region and one d x d integer
coefficient matrix C_x = sign(x) * prod_j U_j^(e_j(x)) folded from the sign
and the twisting units.  Weighing a coloring is then one linear loop,
sum_x C_x . w(m(x), a, b) on plain integers, reduced once at the end.
The invariant is the multiset of weights over all colorings (with the
exterior region color pinned for shadow flavors).
"""

from collections import Counter
from operator import mul

from .algebra import (Frozen, IntUnit, Scalar, StructureError, is_integer,
                      orbits)
from .cohomology import (DifferentialSpec, is_cocycle,
                         is_link_twisted_cocycle)
from .coloring import (component_orbits, enumerate_colorings,
                       propagate_shadow)
from .diagram import checkerboard, compute_indices, crossing_geometry

FLAVORS = ("classical", "shadow", "positive", "twisted", "shadow_twisted",
           "link_twisted")
# the fixed unit that twists each untwisted flavor's sum
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

    def total(self):
        return sum(m for _, m in self.weights)

    def scaled(self, scalar, power=1):
        # one product per distinct weight, not per coloring
        image = {v: scalar.apply(v, power) for v, _ in self.weights}
        return WeightMultiset.from_values(
            [image[v] for v, m in self.weights for _ in range(m)])

    def negated(self, coeff):
        return WeightMultiset.from_values(
            [coeff.neg(v) for v, m in self.weights for _ in range(m)])

    def to_json(self):
        return {"v": 1, "weights": [[list(v), m] for v, m in self.weights]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple((tuple(v), m) for v, m in data["weights"]))


# -- flavor-matched cocycle validation --------------------------------------

def validate_cocycle(flavor, omega, *, alpha=None, alphas=None):
    """Raise CocycleError unless omega satisfies the flavor's condition."""
    unit, alphas = _twisting(flavor, omega, alpha, alphas)
    if alphas is not None:
        report = is_link_twisted_cocycle(omega, alphas)
    else:
        report = is_cocycle(DifferentialSpec.twisted(omega.coeff, unit),
                            omega)
    if not report:
        raise CocycleError(flavor, report)


def _as_scalar(coeff, alpha):
    if isinstance(alpha, Scalar):
        return alpha
    return IntUnit(coeff, alpha)


def _twisting(flavor, omega, alpha, alphas):
    """(unit, alphas) of a flavor's sum: the one unit that twists it (the
    integer 1 or -1 for the untwisted flavors) and no alphas, or for
    link_twisted no unit and one unit scalar per orbit of omega's quandle.
    Refuses an unknown flavor and a missing alpha or alphas."""
    if flavor not in FLAVORS:
        raise StructureError(f"unknown flavor {flavor!r}")
    if flavor == "link_twisted":
        alphas = [_as_scalar(omega.coeff, a) for a in alphas or ()]
        if len(alphas) != orbits(omega.quandle).count:
            raise StructureError("link_twisted needs alphas, one unit "
                                 "per quandle orbit")
        return None, alphas
    unit = UNITS.get(flavor)
    if unit is None:
        if alpha is None:
            raise StructureError(f"{flavor} needs a twisting unit alpha")
        unit = _as_scalar(omega.coeff, alpha)
    return unit, None


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


class _Plan:
    """A flavor's state sum compiled once for one diagram and cochain.

    Construction refuses a missing flavor input (alpha, alphas, a shadow
    flavor's exterior color) or a cochain of the wrong shape, then runs
    the cocycle gate when ``check`` is set and compiles the diagram;
    calling the plan weighs one coloring (a ShadowColoring for the shadow
    flavors).  Each crossing's sign and twist fold into one integer
    coefficient matrix (_coefficient), stored per tuple of component
    orbits: under () for fixed units, built with the plan, and for
    link_twisted the first time each tuple appears.
    """

    def __init__(self, diagram, flavor, omega, check, *, alpha=None,
                 alphas=None, exterior=None):
        unit, self.alphas = _twisting(flavor, omega, alpha, alphas)
        self.shadow = flavor in SHADOW
        # a plan reads omega(m, a, b); only the shadow flavors fill m
        if omega.degree != 2:
            raise StructureError(f"{flavor} weighs a degree-2 cochain, "
                                 f"not degree {omega.degree}")
        if omega.module is not None and not self.shadow:
            raise StructureError(f"{flavor} weighs a trivial-module cochain; "
                                 "only shadow flavors read a module")
        if omega.module is None and self.shadow:
            raise StructureError(f"{flavor} weighs a module cochain, "
                                 "not a trivial-module one")
        if self.shadow and not (is_integer(exterior)
                                and exterior in omega.module.elements()):
            raise StructureError(f"{flavor} needs an exterior color in its "
                                 f"cochain's module, not {exterior!r}")
        if check:
            validate_cocycle(flavor, omega, alpha=unit, alphas=self.alphas)
        self.diagram = diagram
        self.orbit_map = orbits(omega.quandle)
        self.omega = omega
        # non-shadow flavors read omega at m = 0 for every source region
        self.no_regions = (0,) * diagram.n_regions
        self.terms = _compile(diagram, unit != 1)
        self.weighed = {}
        if self.alphas is None:
            self.weighed[()] = self._weighed(
                () if unit == 1 else
                (_as_scalar(omega.coeff, unit),) * diagram.n_components)

    def _weighed(self, units):
        """(coefficient, a_arc, b_arc, source region) per crossing."""
        d = self.omega.coeff.d
        return tuple((_coefficient(sign, units, exps, d), a, b, src)
                     for sign, a, b, src, exps in self.terms)

    def searched_orbits(self, coloring):
        """The component orbits of a coloring from the search, which keeps
        each component in one orbit: one arc per component decides."""
        return tuple(self.orbit_map.of(coloring[arcs[0]])
                     for arcs in self.diagram.component_arcs)

    def __call__(self, coloring, key=None):
        """Weigh one coloring; key, if given, is its component orbits."""
        arcs, regions = coloring, self.no_regions
        if self.shadow:
            arcs, regions = coloring.arcs, coloring.regions
        if self.alphas is None:
            key = ()
        elif key is None:
            key = component_orbits(self.diagram, arcs, self.orbit_map)
        weighed = self.weighed.get(key)
        if weighed is None:
            weighed = self.weighed[key] = self._weighed(
                tuple(self.alphas[o] for o in key))
        coeff, values = self.omega.coeff, self.omega.values
        n = self.omega.quandle.n
        total = [0] * coeff.d
        for coef, a, b, src in weighed:
            term = values[(regions[src] * n + arcs[a]) * n + arcs[b]]
            for r, row in enumerate(coef):
                total[r] += sum(map(mul, row, term))
        return coeff.reduce(total)


# -- per-coloring weights ----------------------------------------------------

def weight_classical(diagram, coloring, omega, check=True):
    """Signed sum of w(a, b) over the crossings."""
    return _Plan(diagram, "classical", omega, check)(coloring)


def weight_shadow(diagram, shadow, omega, check=True):
    """Signed sum of w(source color, a, b)."""
    return _Plan(diagram, "shadow", omega, check,
                 exterior=shadow.regions[diagram.exterior_region])(shadow)


def positive_signs(diagram):
    """Checkerboard sign per crossing: + where the quadrant pair flanking
    the over-strand is white."""
    colors = checkerboard(diagram)
    return tuple(1 if colors[g.quadrants[0]] == 0 else -1
                 for g in crossing_geometry(diagram))


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
    colorings = enumerate_colorings(diagram, quandle)
    if plan.shadow:
        weights = (plan(propagate_shadow(diagram, c, omega.module, exterior))
                   for c in colorings)
    elif plan.alphas is None:
        weights = map(plan, colorings)
    else:
        weights = (plan(c, plan.searched_orbits(c)) for c in colorings)
    return WeightMultiset.from_values(weights)


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
    for coloring in enumerate_colorings(diagram, quandle):
        key = plan.searched_orbits(coloring)
        buckets.setdefault(key, []).append(plan(coloring, key))
    return {key: WeightMultiset.from_values(vals)
            for key, vals in sorted(buckets.items())}
