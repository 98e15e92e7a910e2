"""Arc colorings, their shadow extensions to regions, and the color action.

An arc coloring is a tuple indexed by arc id.  Every crossing states one
relation c = a |> b over arc ids (``Diagram.relations``): a is the under
arc on the source side, b the over arc and c the other under arc, at
either sign.  Region colors extend an arc coloring uniquely once the
exterior color is fixed; crossing a strand along its normal acts by the
strand's arc color.

The coloring search is compiled once per call into a static plan of
levels.  A level colors one free arc, derives every arc that color pins
(a crossing that knows b and one of a, c pins the other), and lists the
crossings it completes as checks; the search runs the levels as one loop
over an explicit stack, so no plan is too deep for it.  With no arc
pinned, the first level tries one color per orbit of Inn(Q), and every
coloring found is mapped to the rest of its orbit by the quandle's
automorphisms (``Quandle.moves``) instead of being searched again.
"""

from itertools import islice

from .algebra import Frozen, StructureError
from .diagram import propagate_regions


def is_coloring(diagram, quandle, colors):
    """Check c = a |> b at every crossing."""
    if len(colors) != diagram.n_arcs:
        return False
    return all(colors[c] == quandle.apply(colors[a], colors[b])
               for a, b, c in diagram.relations)


def _search_plan(n_arcs, relations, first=()):
    """The levels ``(arc, steps, checks)`` of a coloring search over the
    crossing relations ``(a, b, c)``, c = a |> b.

    The arcs of ``first`` form the first levels, in order; every later
    level colors the free arc whose coloring pins the most further arcs
    (ties to the lowest index).  A crossing that knows b and one of a, c
    pins the other; an arc of ``first`` is never derived, because a level
    of its own fixes it.  Each level lists its derivation steps in the
    order the closure found them, and as checks the crossings it completes
    without using them.  A step ``(target, source, b, forward)`` sets
    c = a |> b (forward) or a = c |>^-1 b; a check is the relation
    ``(a, b, c)`` itself.  Every crossing is used once, as a step or a
    check.
    """
    by_arc = [[] for _ in range(n_arcs)]
    for idx, rel in enumerate(relations):
        for arc in set(rel):
            by_arc[arc].append(idx)
    pending = set(first)

    def closure(arc, known, settled):
        # fix arc; known (arcs) and settled (crossing ids) grow in place
        known.add(arc)
        steps, checks, queue = [], [], [arc]
        for x in queue:
            for idx in by_arc[x]:
                a, b, c = relations[idx]
                if idx in settled or b not in known:
                    continue
                if a in known and c in known:
                    checks.append((a, b, c))
                elif a in known and c not in pending:
                    steps.append((c, a, b, True))
                    known.add(c)
                    queue.append(c)
                elif c in known and a not in pending:
                    steps.append((a, c, b, False))
                    known.add(a)
                    queue.append(a)
                else:
                    continue
                settled.add(idx)
        return steps, checks

    known, settled, plan = set(), set(), []
    for arc in first:
        pending.discard(arc)
        plan.append((arc,) + closure(arc, known, settled))
    while len(known) < n_arcs:
        free = [a for a in range(n_arcs) if a not in known]
        arc = max(free, key=lambda a: (
            len(closure(a, set(known), set(settled))[0]), -a))
        plan.append((arc,) + closure(arc, known, settled))
    return plan


def _colorings(diagram, quandle, preset):
    """Every arc coloring, in search order: the levels of ``_search_plan``
    as one loop over a stack that holds, per entered level, its untried
    colors.  A color whose checks pass enters the next level; a level with
    no colors left is popped.

    With no preset, the first level's arc (the root) tries only the least
    color r of each orbit of Inn(Q), and each coloring C found with root
    color r is yielded as is and as g_x . C for every other x in r's orbit
    (``Quandle.moves``).  This is exact: g_x is a composite of right
    translations y |-> y |> c, each an automorphism of the quandle,
    so g_x . C satisfies every relation c = a |> b that C does, and g_x^-1,
    a composite of the inverse translations, maps back.  So g_x is a
    bijection from the colorings with root color r onto those with root
    color x, and distinct x give disjoint sets: every coloring is yielded
    once.  A preset pins colors that g_x would move, so it transports
    nothing."""
    plan = _search_plan(diagram.n_arcs, diagram.relations, sorted(preset))
    if not plan:
        yield ()
        return
    apply = quandle.apply
    ops = (quandle.unapply, apply)
    levels = [(arc, (preset[arc],) if arc in preset else range(quandle.n),
               [(t, s, b, ops[f]) for t, s, b, f in steps], checks)
              for arc, steps, checks in plan]
    root = plan[0][0]
    # per root color: the g_x that carry its colorings to the rest of its
    # orbit
    transports = [()] * quandle.n
    if not preset:
        orbits, moves = quandle.orbit_map.orbits, quandle.moves
        for orbit in orbits:
            transports[orbit[0]] = [moves[x] for x in orbit[1:]]
        levels[0] = (root, [orbit[0] for orbit in orbits], *levels[0][2:])
    colors = [None] * diagram.n_arcs
    stack = [iter(levels[0][1])]
    while stack:
        depth = len(stack)
        arc, _, steps, checks = levels[depth - 1]
        for color in stack[-1]:
            colors[arc] = color
            for target, source, over, op in steps:
                colors[target] = op(colors[source], colors[over])
            for a, b, c in checks:
                if colors[c] != apply(colors[a], colors[b]):
                    break
            else:
                if depth < len(levels):
                    stack.append(iter(levels[depth][1]))
                    break
                found = tuple(colors)
                yield found
                for g in transports[found[root]]:
                    yield tuple([g[x] for x in found])
        else:
            stack.pop()


def enumerate_colorings(diagram, quandle, preset=None):
    """All arc colorings, in sorted (lexicographic) order.

    The search is compiled once into a static plan (``_search_plan``): a
    sequence of levels, each coloring one arc, then deriving the arcs that
    color pins through straight-line quandle operations and checking the
    crossings it completes; ``_colorings`` runs it.  ``preset`` pins
    chosen arcs: they form the first levels with their one color, and a
    crossing that would derive one checks it instead.
    """
    return sorted(_colorings(diagram, quandle, preset or {}))


class ShadowColoring(Frozen):
    """Arc colors plus compatible region colors in a module."""

    def __init__(self, arcs, regions, module):
        self.__dict__.update(arcs=arcs, regions=regions, module=module)

    def _key(self):
        return self.arcs, self.regions


def validate_shadow(diagram, shadow):
    """Re-check the crossing relations in the module's quandle, then compare
    the region colors with the region walk from their exterior color."""
    mod = shadow.module
    if not is_coloring(diagram, mod.quandle, shadow.arcs):
        raise StructureError("arc colors violate a crossing relation")
    regions = propagate_regions(diagram,
                                shadow.regions[diagram.exterior_region],
                                shadow.arcs, mod.act, mod.unact)
    if regions != tuple(shadow.regions):
        raise StructureError("region colors violate an adjacency")


def propagate_shadow(diagram, arc_colors, module, exterior_color):
    """The unique region coloring extending arc_colors with the given
    exterior color: the region walk with the module action."""
    regions = propagate_regions(diagram, exterior_color, arc_colors,
                                module.act, module.unact)
    return ShadowColoring(arcs=tuple(arc_colors), regions=regions,
                          module=module)


def act(diagram, shadow, c, sign=1):
    """Replace every employed color x by x |> c (or its inverse)."""
    mod = shadow.module
    quandle = mod.quandle
    if sign == 1:
        arcs = tuple(quandle.apply(x, c) for x in shadow.arcs)
        regions = tuple(mod.act(m, c) for m in shadow.regions)
    elif sign == -1:
        arcs = tuple(quandle.unapply(x, c) for x in shadow.arcs)
        regions = tuple(mod.unact(m, c) for m in shadow.regions)
    else:
        raise StructureError("sign must be +1 or -1")
    out = ShadowColoring(arcs=arcs, regions=regions, module=mod)
    validate_shadow(diagram, out)
    return out


def component_orbits(diagram, arc_colors, orbit_map):
    """Orbit id of the colors on each component, as a tuple over components."""
    out = []
    for arcs in diagram.component_arcs:
        ids = {orbit_map.of(arc_colors[a]) for a in arcs}
        if len(ids) != 1:
            raise StructureError("component carries colors from two orbits")
        out.append(ids.pop())
    return tuple(out)


def transport_coloring(result, coloring, quandle):
    """Push an arc coloring of the source diagram through a rewrite: the
    search over the new diagram with every arc pinned to the color of its
    source arc, except a piece whose color the move acts on (the middle
    strand of a poke), refused unless it completes exactly once."""
    new = result.diagram
    preset = {}
    for arc_id, arc in enumerate(new.arcs):
        if not arc:
            j = arc_id - new.n_crossing_arcs
            preset[arc_id] = coloring[result.arc_origin[("loop", j)]]
        elif not all(sa in result.acted for sa in arc):
            preset[arc_id] = coloring[result.arc_origin[arc[0]]]
    completions = list(islice(_colorings(new, quandle, preset), 2))
    if len(completions) != 1:
        raise StructureError("rewrite transport is not unique")
    return completions[0]
