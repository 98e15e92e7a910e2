"""Arc colorings, their shadow extensions to regions, and the color action.

An arc coloring is a tuple indexed by arc id.  At every crossing the
under-strand color steps by the over color: outgoing = incoming |> over at
a positive crossing and incoming = outgoing |> over at a negative one.
Region colors extend an arc coloring uniquely once the exterior color is
fixed; crossing a strand along its normal acts by the strand's arc color.
"""

from dataclasses import dataclass, field

from .algebra import StructureError


def _crossing_constraints(diagram):
    """(under_in_arc, under_out_arc, over_arc, sign) per crossing."""
    out = []
    for x in diagram.crossings:
        out.append((diagram.arc_of[x.rot[0]], diagram.arc_of[x.rot[2]],
                    diagram.arc_of[x.rot[x.over]], x.sign))
    return out


def _relation_holds(q, cin, cout, cover, sign):
    if sign > 0:
        return cout == q.apply(cin, cover)
    return cout == q.unapply(cin, cover)


def is_coloring(diagram, quandle, colors):
    """Check the crossing relation at every crossing."""
    if len(colors) != diagram.n_arcs:
        return False
    return all(_relation_holds(quandle, colors[ui], colors[uo], colors[b], s)
               for ui, uo, b, s in _crossing_constraints(diagram))


def enumerate_colorings(diagram, quandle, preset=None):
    """All arc colorings, in sorted (lexicographic) order.

    Backtracking with constraint propagation: seed the lowest unresolved
    arc, push colors through crossings in both directions, undo on clash.
    ``preset`` pins chosen arcs before the search starts.
    """
    n_arcs = diagram.n_arcs
    cons = _crossing_constraints(diagram)
    by_arc = {}
    for idx, (ui, uo, b, s) in enumerate(cons):
        for a in (ui, uo, b):
            by_arc.setdefault(a, set()).add(idx)
    colors = [None] * n_arcs
    found = []

    def propagate(arc, trail):
        queue = [arc]
        while queue:
            a = queue.pop()
            for idx in by_arc.get(a, ()):
                ui, uo, b, s = cons[idx]
                cu, co, cb = colors[ui], colors[uo], colors[b]
                if cb is None:
                    continue
                if cu is not None and co is not None:
                    if not _relation_holds(quandle, cu, co, cb, s):
                        return False
                elif cu is not None:
                    val = quandle.apply(cu, cb) if s > 0 else quandle.unapply(cu, cb)
                    colors[uo] = val
                    trail.append(uo)
                    queue.append(uo)
                elif co is not None:
                    val = quandle.unapply(co, cb) if s > 0 else quandle.apply(co, cb)
                    colors[ui] = val
                    trail.append(ui)
                    queue.append(ui)
        return True

    def search():
        try:
            arc = colors.index(None)
        except ValueError:
            found.append(tuple(colors))
            return
        for c in range(quandle.n):
            trail = [arc]
            colors[arc] = c
            if propagate(arc, trail):
                search()
            for a in trail:
                colors[a] = None

    if preset:
        trail = []
        for arc, c in sorted(preset.items()):
            if colors[arc] is None:
                colors[arc] = c
                trail.append(arc)
                if not propagate(arc, trail):
                    return []
            elif colors[arc] != c:
                return []
    search()
    found.sort()
    return found


@dataclass(frozen=True)
class ShadowColoring:
    """Arc colors plus compatible region colors in a module."""
    arcs: tuple
    regions: tuple
    module: object = field(compare=False)


def validate_shadow(diagram, quandle, shadow):
    """Re-check both the crossing relations and every region adjacency."""
    if not is_coloring(diagram, quandle, shadow.arcs):
        raise StructureError("arc colors violate a crossing relation")
    mod = shadow.module
    for frm, to, arc, _comp in diagram.region_steps():
        if mod.act(shadow.regions[frm], shadow.arcs[arc]) != shadow.regions[to]:
            raise StructureError("region colors violate an adjacency")


def propagate_shadow(diagram, arc_colors, module, exterior_color):
    """The unique region coloring extending arc_colors with the given
    exterior color.  Every region is popped once and checks each of its
    steps, forward ones included, so once all regions are reached every
    adjacency has been verified."""
    adj = diagram.region_adjacency
    regions = {diagram.exterior_region: exterior_color}
    frontier = [diagram.exterior_region]
    while frontier:
        r = frontier.pop()
        for to, arc, forward in adj.get(r, ()):
            if forward:
                val = module.act(regions[r], arc_colors[arc])
            else:
                val = module.unact(regions[r], arc_colors[arc])
            if to in regions:
                if regions[to] != val:
                    raise StructureError("inconsistent region propagation")
            else:
                regions[to] = val
                frontier.append(to)
    if len(regions) != diagram.n_regions:
        raise StructureError("region adjacency graph is disconnected")
    return ShadowColoring(arcs=tuple(arc_colors),
                          regions=tuple(regions[r]
                                        for r in range(diagram.n_regions)),
                          module=module)


def act(diagram, quandle, shadow, c, sign=1):
    """Replace every employed color x by x |> c (or its inverse)."""
    mod = shadow.module
    if sign == 1:
        arcs = tuple(quandle.apply(x, c) for x in shadow.arcs)
        regions = tuple(mod.act(m, c) for m in shadow.regions)
    elif sign == -1:
        arcs = tuple(quandle.unapply(x, c) for x in shadow.arcs)
        regions = tuple(mod.unact(m, c) for m in shadow.regions)
    else:
        raise StructureError("sign must be +1 or -1")
    out = ShadowColoring(arcs=arcs, regions=regions, module=mod)
    validate_shadow(diagram, quandle, out)
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


def transport_coloring(result, coloring, quandle=None):
    """Push an arc coloring of the source diagram through a rewrite.

    Arcs descending from a source arc inherit its color; a freshly cut
    piece whose color the move acts on (the middle strand of a poke) is
    completed through the crossing relations, which pin it uniquely.
    """
    new = result.diagram
    preset = {}
    has_free = False
    for arc_id, arc in enumerate(new.arcs):
        if arc:
            origins = {result.arc_origin[sa] for sa in arc}
            if len(origins) != 1:
                raise StructureError("rewrite mixed two source arcs")
            if all(sa in result.acted for sa in arc):
                has_free = True
                continue
            preset[arc_id] = coloring[origins.pop()]
        else:
            j = arc_id - new.n_crossing_arcs
            preset[arc_id] = coloring[result.arc_origin[("loop", j)]]
    if not has_free:
        return tuple(preset[a] for a in range(new.n_arcs))
    if quandle is None:
        raise StructureError("transport across this rewrite needs the quandle")
    completions = enumerate_colorings(new, quandle, preset)
    if len(completions) != 1:
        raise StructureError("rewrite transport is not unique")
    return completions[0]
