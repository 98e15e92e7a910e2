"""Oriented link diagrams as 4-valent rotation systems.

Conventions, fixed once; all sign and index logic derives from them:

- A crossing record lists its four incident semi-arc ends counterclockwise
  in ``rot``, starting at the incoming under-strand end, so the under-strand
  leaves at slot 2.  ``over`` in {1, 3} is the slot where the over-strand
  enters; ``sign`` is +1 exactly when ``over == 3``.
- Traveling along an oriented strand its normal points LEFT; crossing a
  strand along its normal raises the region index of its component by 1.
- Faces are traced keeping the face on the left of travel: arriving at
  slot i, leave by slot (i - 1) mod 4.  The face containing the dart that
  arrives at slot i is the sector between slots i-1 and i.
- The source quadrant of a crossing is the one both strand normals point
  away from: the sector between slots 0 and 1 at a positive crossing and
  between slots 1 and 2 at a negative one.
- Each crossing states one relation c = a |> b over arc ids
  (``relations``): a is the under arc on the source side (slot 0 at a
  positive crossing, slot 2 at a negative one), b the over arc and c the
  other under arc.
- Crossingless unknot components are carried as ``free_loops`` entries
  (+1 counterclockwise, -1 clockwise), always embedded in the exterior
  region.

Region ids are deterministic: faces of the crossing graph sorted by their
smallest (semi-arc, side) incidence with side left=0 / right=1, followed by
one disk region per free loop in input order.

Each structure is derived in one pass.  One face trace gives the regions
and the map from arrival dart to region.  One strand walk per component,
from its smallest semi-arc, gives the components and the arcs: a walk is
cut after each semi-arc that enters a crossing as the under-strand, and a
component that never passes under is one arc.  Arcs are numbered by their
smallest semi-arc.  The free loops follow the crossing data, so free loop
j is found by offset: it is arc n_crossing_arcs + j, region n_faces + j,
and the j-th component after those that meet a crossing.
"""

from .algebra import Frozen, StructureError, is_integer

LEFT, RIGHT = "left", "right"


class Crossing(Frozen):
    def __init__(self, rot, over):
        if len(rot) != 4:
            raise StructureError("crossing rot needs exactly 4 semi-arc ids")
        if over not in (1, 3):
            raise StructureError("crossing over slot must be 1 or 3")
        self.__dict__.update(rot=rot, over=over)

    @property
    def sign(self):
        return 1 if self.over == 3 else -1

    @property
    def under_out(self):
        return self.rot[2]

    @property
    def over_in(self):
        return self.rot[self.over]

    @property
    def over_out(self):
        return self.rot[(self.over + 2) % 4]


class CrossingGeometry(Frozen):
    """Per-crossing data feeding the weight sums: the sign, the source
    region, the arc whose color sits in the first cocycle slot (a_arc),
    the over-strand arc (b_arc) and the region ids of the sectors
    (0-1, 1-2, 2-3, 3-0) as quadrants."""

    def __init__(self, sign, source_region, a_arc, b_arc, quadrants):
        self.__dict__.update(sign=sign, source_region=source_region,
                             a_arc=a_arc, b_arc=b_arc, quadrants=quadrants)


class IndexTable(Frozen):
    """Total and per-component region indices; exterior is all zero.
    per_component[region][component]."""

    def __init__(self, totals, per_component, exterior):
        self.__dict__.update(totals=totals, per_component=per_component,
                             exterior=exterior)


class Diagram:
    """Validated oriented link diagram; immutable after construction."""

    def __init__(self, crossings, free_loops=(), exterior=None):
        self.crossings = tuple(
            c if isinstance(c, Crossing) else Crossing(tuple(c["rot"]), c["over"])
            for c in crossings)
        self.free_loops = tuple(free_loops)
        for o in self.free_loops:
            if o not in (1, -1):
                raise StructureError("free loop orientation must be +1 or -1")
        if not self.crossings and not self.free_loops:
            raise StructureError("empty diagram")
        if not self.crossings:
            exterior = None  # the plane region is the exterior
        self.exterior_spec = tuple(exterior) if exterior is not None else None
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        endpoints = {}
        for ci, x in enumerate(self.crossings):
            for slot, sa in enumerate(x.rot):
                endpoints.setdefault(sa, []).append((ci, slot))
        for sa, eps in endpoints.items():
            if len(eps) != 2:
                raise StructureError(f"semi-arc {sa} has {len(eps)} ends, needs 2")
        self.endpoints = endpoints
        self.semiarcs = tuple(sorted(endpoints))

        # orientation: each semi-arc enters exactly one in-slot (head) and
        # leaves exactly one out-slot (tail)
        self.head = {}
        self.tail = {}
        for sa, eps in endpoints.items():
            for (ci, slot) in eps:
                x = self.crossings[ci]
                if slot == 0 or slot == x.over:
                    if sa in self.head:
                        raise StructureError(f"semi-arc {sa} enters two crossings")
                    self.head[sa] = (ci, slot)
                else:
                    if sa in self.tail:
                        raise StructureError(f"semi-arc {sa} leaves two crossings")
                    self.tail[sa] = (ci, slot)
        for sa in self.semiarcs:
            if sa not in self.head or sa not in self.tail:
                raise StructureError(f"semi-arc {sa} orientation is inconsistent")

        self._trace_regions()
        self._walk_strands()
        self._assemble_steps()

    def _other_end(self, sa, end):
        a, b = self.endpoints[sa]
        return b if a == end else a

    def _trace_regions(self):
        """Faces as orbits of arrival darts under: arrive at slot i, leave
        slot i-1; then the region ids, the dart -> region map and the
        exterior.  Free loop j's disk is region n_faces + j.  The step is a
        permutation of the darts (a slot shift, then the other end of a
        semi-arc with two ends), so every orbit closes."""
        faces, face_of = [], {}
        for start in ((ci, s) for ci in range(len(self.crossings))
                      for s in range(4)):
            if start in face_of:
                continue
            cycle = []
            d = start
            while d not in face_of:
                face_of[d] = len(faces)
                cycle.append(d)
                ci, slot = d
                j = (slot - 1) % 4
                sa = self.crossings[ci].rot[j]
                d = self._other_end(sa, (ci, j))
            faces.append(sorted(map(self._dart_incidence, cycle)))
        if not self.crossings:
            self.dart_region = {}
            self.region_incidences = ((),)
            self.exterior_region = 0
            self.n_regions = 1 + len(self.free_loops)
            return
        # each semi-arc has two ends, so E = 2V and V - E + F = 2 is F = V + 2
        if len(faces) != len(self.crossings) + 2:
            raise StructureError(
                "rotation system is not a connected sphere diagram")
        order = sorted(range(len(faces)), key=faces.__getitem__)
        region = {fi: r for r, fi in enumerate(order)}
        self.dart_region = {d: region[fi] for d, fi in face_of.items()}
        self.region_incidences = tuple(tuple(faces[fi]) for fi in order)
        self.n_regions = len(faces) + len(self.free_loops)
        if self.exterior_spec is None:
            raise StructureError("diagram with crossings needs an exterior")
        sa, side = self.exterior_spec
        if sa not in self.endpoints or side not in (LEFT, RIGHT):
            raise StructureError("exterior designation is invalid")
        self.exterior_region = self.side_region(sa, side)

    def _dart_incidence(self, dart):
        """(semi-arc, side) met by an arrival dart; left=0, right=1."""
        ci, slot = dart
        sa = self.crossings[ci].rot[slot]
        side = 0 if self.head[sa] == (ci, slot) else 1
        return (sa, side)

    def _walk_strands(self):
        """Components as strand walks from their smallest semi-arc, and arcs
        cut from the walks after each semi-arc that enters a crossing as
        the under-strand (slot 0).  Every semi-arc has one head and one
        tail, so the walk's step is a permutation and each walk closes.
        The free loops' empty components and arcs follow, in input
        order."""
        comps, arcs, seen = [], [], set()
        for sa in self.semiarcs:
            if sa in seen:
                continue
            walk, pieces = [], [[]]
            while sa not in seen:
                seen.add(sa)
                walk.append(sa)
                pieces[-1].append(sa)
                ci, slot = self.head[sa]
                x = self.crossings[ci]
                if slot == 0:
                    sa = x.under_out
                    pieces.append([])
                else:
                    sa = x.over_out
            if len(pieces) > 1:  # the piece after the last cut runs on
                pieces[0] = pieces.pop() + pieces[0]
            comps.append(tuple(walk))
            arcs += pieces
        arcs = sorted(tuple(sorted(arc)) for arc in arcs)
        self.n_crossing_arcs = len(arcs)
        loops = range(len(self.free_loops))
        self.components = tuple(comps) + tuple(() for _ in loops)
        self.arcs = tuple(arcs) + tuple(() for _ in loops)
        self.comp_of = {sa: c for c, comp in enumerate(comps) for sa in comp}
        self.arc_of = {sa: a for a, arc in enumerate(arcs) for sa in arc}
        self.arc_components = tuple(
            [self.comp_of[arc[0]] for arc in arcs]
            + [len(comps) + j for j in loops])

    def _assemble_steps(self):
        """Diagram-only data that colorings are checked against, built once."""
        comp_arcs = [[] for _ in self.components]
        for a, c in enumerate(self.arc_components):
            comp_arcs[c].append(a)
        self.component_arcs = tuple(tuple(arcs) for arcs in comp_arcs)
        steps = []
        for sa in self.semiarcs:
            steps.append((self.side_region(sa, RIGHT),
                          self.side_region(sa, LEFT),
                          self.arc_of[sa], self.comp_of[sa]))
        for j, orient in enumerate(self.free_loops):
            disk, ext = self.loop_region(j), self.exterior_region
            arc = self.loop_arc(j)
            # ccw: interior on the left
            frm, to = (ext, disk) if orient == 1 else (disk, ext)
            steps.append((frm, to, arc, self.arc_components[arc]))
        self._region_steps = tuple(steps)
        # (a, b, c) per crossing, c = a |> b: the one place where the sign
        # picks which under end is a
        relations = []
        for x in self.crossings:
            a, c = (x.rot[0], x.rot[2]) if x.sign > 0 else (x.rot[2], x.rot[0])
            relations.append((self.arc_of[a], self.arc_of[x.over_in],
                              self.arc_of[c]))
        self.relations = tuple(relations)
        # the region walk that every region coloring follows: a
        # breadth-first tree of the steps from the exterior, each read from
        # a region already reached, forward (along the normal) or backward;
        # the steps off the tree are checks.  A region the walk misses lies
        # on another piece, so the rotation system is not connected
        nbrs = [[] for _ in range(self.n_regions)]
        for i, (frm, to, arc, _comp) in enumerate(steps):
            nbrs[frm].append((to, arc, True, i))
            nbrs[to].append((frm, arc, False, i))
        order, reached = [self.exterior_region], {self.exterior_region}
        walk, taken = [], set()
        for source in order:
            for target, arc, forward, i in nbrs[source]:
                if target not in reached:
                    order.append(target)
                    reached.add(target)
                    taken.add(i)
                    walk.append((target, source, arc, forward))
        if len(order) != self.n_regions:
            raise StructureError(
                "rotation system is not a connected sphere diagram")
        self.region_walk = tuple(walk)
        self.region_checks = tuple((to, frm, arc) for i, (frm, to, arc, _c)
                                   in enumerate(steps) if i not in taken)

    # -- queries -----------------------------------------------------------

    @property
    def n_components(self):
        return len(self.components)

    @property
    def n_arcs(self):
        return len(self.arcs)

    def side_region(self, sa, side):
        """Region on a side of a semi-arc (relative to its orientation)."""
        return self.dart_region[self.head[sa] if side == LEFT else self.tail[sa]]

    def loop_region(self, j):
        return self.n_regions - len(self.free_loops) + j

    def loop_arc(self, j):
        return self.n_crossing_arcs + j

    def region_steps(self):
        """Directed adjacency (from, to, arc, component): crossing the
        semi-arc (or loop) along its normal, right side to left side."""
        return list(self._region_steps)

    def to_json(self):
        data = {"v": 1,
                "crossings": [{"rot": list(x.rot), "over": x.over,
                               "orients": [0, x.over]}
                              for x in self.crossings]}
        if self.free_loops:
            data["free_loops"] = list(self.free_loops)
        if self.exterior_spec is not None:
            data["exterior"] = list(self.exterior_spec)
        return data


def _integer(x, field):
    """x, if it is an integer and no bool; else a StructureError naming
    the field."""
    if not is_integer(x):
        raise StructureError(f"{field} must be an integer, not {x!r}")
    return x


def _integers(value, field):
    """A JSON list of integers (see _integer), entry by entry."""
    if not isinstance(value, list):
        raise StructureError(f"{field} must be a list of integers, "
                             f"not {value!r}")
    return [_integer(x, f"{field}[{i}]") for i, x in enumerate(value)]


def parse_diagram(data):
    """Validated Diagram from its JSON form, a dict."""
    if not isinstance(data, dict):
        raise StructureError("diagram json must be an object")
    if _integer(data.get("v", 1), "v") != 1:
        raise StructureError("unsupported schema version")
    records = data.get("crossings", [])
    if not isinstance(records, list):
        raise StructureError(f"crossings must be a list, not {records!r}")
    crossings = []
    for ci, rec in enumerate(records):
        if not isinstance(rec, dict) or "rot" not in rec or "over" not in rec:
            raise StructureError("crossing record needs rot and over")
        rot = _integers(rec["rot"], f"crossings[{ci}].rot")
        over = _integer(rec["over"], f"crossings[{ci}].over")
        if "orients" in rec and _integers(
                rec["orients"], f"crossings[{ci}].orients") != [0, over]:
            raise StructureError("orients disagrees with rot normalization")
        crossings.append(Crossing(tuple(rot), over))
    exterior = data.get("exterior")
    if exterior is not None:
        if not isinstance(exterior, list) or len(exterior) != 2:
            raise StructureError(
                "exterior must be a list [semi-arc, side] of two entries")
        if not is_integer(exterior[0]):
            raise StructureError(
                f"exterior semi-arc must be an integer, not {exterior[0]!r}")
        exterior = tuple(exterior)
    loops = _integers(data.get("free_loops", []), "free_loops")
    diagram = Diagram(crossings, tuple(loops), exterior)
    hints = data.get("components")
    if hints is not None:
        if not isinstance(hints, dict):
            raise StructureError("components must be an object from "
                                 f"semi-arc ids to components, not {hints!r}")
        for sa, comp in hints.items():
            try:
                sa = int(sa)
            except (TypeError, ValueError):
                raise StructureError(
                    f"components key {sa!r} is not a semi-arc id") from None
            if diagram.comp_of.get(sa) != _integer(comp,
                                                    f"components[{sa}]"):
                raise StructureError("component hints disagree with the diagram")
    return diagram


def propagate_regions(diagram, start, labels, forward, backward):
    """Region values along the diagram's region walk from the exterior,
    which holds ``start``.  Crossing the strand of arc a along its normal
    maps a value v to forward(v, labels[a]), against it to backward(v,
    labels[a]).  Every step off the walk is then checked forward, so an
    inconsistent labelling cannot slip by; backward must invert forward
    exactly, as a module's unact and the index steps do."""
    values = [None] * diagram.n_regions
    values[diagram.exterior_region] = start
    for target, source, arc, fwd in diagram.region_walk:
        values[target] = (forward if fwd else backward)(values[source],
                                                        labels[arc])
    for target, source, arc in diagram.region_checks:
        if values[target] != forward(values[source], labels[arc]):
            raise StructureError("inconsistent region propagation")
    return tuple(values)


def compute_indices(diagram):
    """Region indices: the region walk over Z^components from 0 at the
    exterior, a step along the normal of component c adding e_c."""
    def step(delta):
        return lambda v, c: v[:c] + (v[c] + delta,) + v[c + 1:]
    per = propagate_regions(diagram, (0,) * diagram.n_components,
                            diagram.arc_components, step(1), step(-1))
    return IndexTable(totals=tuple(map(sum, per)), per_component=per,
                      exterior=diagram.exterior_region)


def crossing_geometry(diagram):
    """Signs, source regions, cocycle color slots (a and b of the crossing
    relation), and quadrant ids."""
    out = []
    for ci, (x, (a, b, _c)) in enumerate(zip(diagram.crossings,
                                             diagram.relations)):
        quads = tuple(diagram.dart_region[(ci, (i + 1) % 4)] for i in range(4))
        out.append(CrossingGeometry(
            sign=x.sign, source_region=quads[0] if x.sign > 0 else quads[1],
            a_arc=a, b_arc=b, quadrants=quads))
    return out


def checkerboard(diagram):
    """Region parity: 0 = white (exterior), 1 = black."""
    return tuple(t % 2 for t in compute_indices(diagram).totals)


class RewriteResult(Frozen):
    """The rewritten diagram; arc_origin maps each new semi-arc (or loop)
    to its arc id in the old diagram, and acted holds the new semi-arcs
    whose color the move acts on."""

    def __init__(self, diagram, arc_origin, acted=frozenset()):
        self.__dict__.update(diagram=diagram, arc_origin=arc_origin,
                             acted=acted)


def _fresh_ids(diagram, count):
    base = max(diagram.semiarcs, default=-1) + 1
    return list(range(base, base + count))


def _rewrite(diagram, heads, added, origin, consumed=(), exterior=None,
             acted=()):
    """The splice every move returns through: re-point where each semi-arc
    in ``heads`` enters to its fresh id, append ``added``, extend the arc
    map by ``origin``, drop the free loops in ``consumed`` and renumber the
    rest.  ``exterior`` serves only a crossingless diagram, which has none."""
    records = [{"rot": list(x.rot), "over": x.over} for x in diagram.crossings]
    for sa, fresh in heads.items():
        ci, slot = diagram.head[sa]
        records[ci]["rot"][slot] = fresh
    records += added
    arc_origin = {sa: diagram.arc_of[sa] for sa in diagram.semiarcs}
    arc_origin.update(sorted(origin.items()))
    kept = [j for j in range(len(diagram.free_loops)) if j not in consumed]
    for new_j, old_j in enumerate(kept):
        arc_origin[("loop", new_j)] = diagram.loop_arc(old_j)
    if diagram.exterior_spec is not None:
        exterior = diagram.exterior_spec
    new = Diagram(records, [diagram.free_loops[j] for j in kept], exterior)
    return RewriteResult(new, arc_origin, frozenset(acted))


def _is_loop(target):
    return isinstance(target, tuple) and target and target[0] == "loop"


def _loop_sides(diagram, *loops):
    """The side of each free loop facing the exterior (ccw: interior
    left).  A loop beside crossings is refused: poking it would leave a
    split diagram, which a Diagram cannot hold."""
    for j in loops:
        if not 0 <= j < len(diagram.free_loops):
            raise StructureError(f"no free loop {j}")
    if diagram.crossings:
        raise StructureError(
            f"free loop {loops[0]} lies beside crossings: poking it would "
            "split the diagram, so loop pokes need a crossingless diagram")
    return [RIGHT if diagram.free_loops[j] == 1 else LEFT for j in loops]


_R1_TABLES = {
    # (chirality, side) -> template over (s, t, u): rot slots and over slot
    (1, LEFT): (("s", "t", "u", "u"), 3),
    (-1, RIGHT): (("s", "u", "u", "t"), 1),
    (1, RIGHT): (("u", "u", "t", "s"), 3),
    (-1, LEFT): (("u", "s", "t", "u"), 1),
}


def r1_insert(diagram, target, chirality=1, side=LEFT):
    """Insert a kink of the given sign on a semi-arc (or ``("loop", j)``).

    The lobe pokes into the region on ``side`` of the strand.  Returns the
    rewritten diagram plus the new-semi-arc -> old-arc correspondence that
    drives the coloring bijection.
    """
    if (chirality, side) not in _R1_TABLES:
        raise StructureError("chirality must be +-1 and side left/right")
    template, over = _R1_TABLES[(chirality, side)]
    if _is_loop(target):
        # a free loop is a semi-arc whose head is the kink itself: t = s
        j = target[1]
        outer, = _loop_sides(diagram, j)
        t, u = _fresh_ids(diagram, 2)
        s, heads, consumed, exterior = t, {}, (j,), (t, outer)
        old_arc = diagram.loop_arc(j)
    else:
        if target not in diagram.endpoints:
            raise StructureError(f"no semi-arc {target}")
        s = target
        t, u = _fresh_ids(diagram, 2)
        heads, consumed, exterior = {s: t}, (), None
        old_arc = diagram.arc_of[s]
    names = {"s": s, "t": t, "u": u}
    kink = {"rot": [names[k] for k in template], "over": over}
    return _rewrite(diagram, heads, [kink], {t: old_arc, u: old_arc},
                    consumed, exterior)


def _r2_self_poke(diagram, j):
    """Poke one side of a crossingless loop over the other, through the
    loop's interior: the 2-crossing clasp diagram of the unknot."""
    ext_side, = _loop_sides(diagram, j)
    a, b, c, dd = _fresh_ids(diagram, 4)
    if ext_side == RIGHT:
        # strands run west on top / east below; both face the interior left
        added = [{"rot": [dd, b, a, a], "over": 3},
                 {"rot": [c, b, dd, c], "over": 1}]
    else:
        added = [{"rot": [dd, a, a, b], "over": 1},
                 {"rot": [c, c, dd, b], "over": 3}]
    origin = dict.fromkeys((a, b, c, dd), diagram.loop_arc(j))
    return _rewrite(diagram, {}, added, origin, (j,), (a, ext_side), {dd})


def r2_insert(diagram, target1, target2):
    """Poke strand 1 over strand 2 across a region they both border.

    Targets are semi-arc ids, or ``("loop", j)`` entries when the diagram
    is crossingless.  The two new crossings have opposite signs: strand 1
    descends across strand 2 first (positive crossing on the left-facing
    configuration), then ascends back.
    """
    is_loop1, is_loop2 = _is_loop(target1), _is_loop(target2)
    if is_loop1 != is_loop2:
        raise StructureError("mixed loop/semi-arc pokes are not supported")
    if is_loop1 and target1 == target2:
        return _r2_self_poke(diagram, target1[1])
    if target1 == target2:
        raise StructureError("cannot poke a segment across itself")

    if is_loop1:
        # two loops are two semi-arcs, each its own head: p2 = p0, q2 = q0;
        # both face the exterior, on the side opposite their interiors
        j1, j2 = target1[1], target2[1]
        sigma1, sigma2 = _loop_sides(diagram, j1, j2)
        p0, p1, q0, q1 = _fresh_ids(diagram, 4)
        p2, q2 = p0, q0
        heads, consumed = {}, (j1, j2)
        arc_p, arc_q = diagram.loop_arc(j1), diagram.loop_arc(j2)
    else:
        for sa in (target1, target2):
            if sa not in diagram.endpoints:
                raise StructureError(f"no semi-arc {sa}")
        common = [(s1, s2) for s1 in (LEFT, RIGHT) for s2 in (LEFT, RIGHT)
                  if diagram.side_region(target1, s1)
                  == diagram.side_region(target2, s2)]
        if not common:
            raise StructureError("segments do not border a common region")
        sigma1, sigma2 = common[0]
        p0, q0 = target1, target2
        p1, p2, q1, q2 = _fresh_ids(diagram, 4)
        heads, consumed = {p0: p2, q0: q2}, ()
        arc_p, arc_q = diagram.arc_of[p0], diagram.arc_of[q0]
    # strand 2's pieces under the descending and the ascending crossing
    d_in, d_out, a_in, a_out = ((q0, q1, q1, q2) if sigma1 != sigma2
                                else (q1, q2, q0, q1))
    if sigma2 == LEFT:
        added = [{"rot": [d_in, p1, d_out, p0], "over": 3},
                 {"rot": [a_in, p1, a_out, p2], "over": 1}]
    else:
        added = [{"rot": [d_in, p0, d_out, p1], "over": 1},
                 {"rot": [a_in, p2, a_out, p1], "over": 3}]
    origin = {p1: arc_p, p2: arc_p, q1: arc_q, q2: arc_q}
    return _rewrite(diagram, heads, added, origin, consumed, (p0, sigma1),
                    {q1})
