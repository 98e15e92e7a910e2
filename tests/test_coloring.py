"""Coloring enumeration, shadow propagation, the color action, orbits."""

import json
import pathlib
import random
from itertools import product
from types import SimpleNamespace

import pytest

from qci import corpus
from qci.algebra import (CoeffGroup, StructureError, cyclic_shadow_module,
                         make_alexander, make_conjugation, make_dihedral,
                         make_trivial, orbit_shadow_module, orbits,
                         quandle_as_module, trivial_module)
from qci.coloring import (ShadowColoring, _search_plan, act, component_orbits,
                          enumerate_colorings, is_coloring, propagate_shadow,
                          transport_coloring, validate_shadow)
from qci.cohomology import zero_cochain
from qci.diagram import Diagram, compute_indices, r1_insert, r2_insert
from qci.invariants import weight_link_twisted
from tests.groups import symmetric_3
from tests.oracle_utils import (arc_map_from_raw, braid_closure,
                                brute_force_colorings)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "coloring_counts.json").read_text())


def test_unknot_colorings_are_constants():
    d = corpus.load("unknot")
    for n in (1, 3, 5):
        cols = enumerate_colorings(d, make_dihedral(n))
        assert cols == [(c,) for c in range(n)]


@pytest.mark.parametrize("name,n", [("trefoil", 3), ("figure_eight", 3),
                                    ("figure_eight", 5), ("trefoil", 5),
                                    ("hopf_pos", 4), ("link_r3a", 3)])
def test_coloring_counts_match_goldens(name, n):
    d = corpus.load(name)
    cols = enumerate_colorings(d, make_dihedral(n))
    assert len(cols) == GOLDEN[f"{name}/dihedral{n}"]


@pytest.mark.parametrize("name,n", [("trefoil", 3), ("figure_eight", 5),
                                    ("hopf_neg", 4), ("trefoil_r3a", 3)])
def test_enumeration_matches_live_oracle(name, n):
    # exhaustive assignment oracle on raw records, independent search order
    d = corpus.load(name)
    raw = corpus.load_json(name)
    q = make_dihedral(n)
    sols = brute_force_colorings(raw.get("crossings", []), d.arc_of, d.n_arcs,
                                 [list(r) for r in q.op],
                                 [list(r) for r in q.inv])
    assert sorted(sols) == enumerate_colorings(d, q)


# orbits of Inn(Q) of unequal sizes or of size 1: S3 by conjugation (sizes
# 1, 3 and 2), the trivial quandle (every orbit one color), D4 (2 and 2)
# and Alex(8, 3) (4 and 4)
TRANSPORT_QUANDLES = {"S3conj": make_conjugation(symmetric_3()),
                      "trivial4": make_trivial(4), "D4": make_dihedral(4),
                      "Alex8_3": make_alexander(8, 3)}


@pytest.mark.parametrize("name", sorted(TRANSPORT_QUANDLES))
def test_orbit_transport_matches_brute_force(name):
    # the search colors its first arc by one color per orbit and maps each
    # coloring found to the rest of the orbit; the oracle tries every
    # assignment on the raw records, with arcs from its own union-find
    # and each free loop one more arc that no crossing constrains
    q = TRANSPORT_QUANDLES[name]
    rng = random.Random(3707)
    checked, with_loops = 0, 0
    while checked < 12:
        strands = rng.randrange(2, 5)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(strands, 7))]
        if {abs(w) for w in word} != set(range(1, strands)):
            continue
        loops = rng.choice([(), (1,), (-1, 1)])
        closure = braid_closure(word, strands)
        records = closure["crossings"]
        arc_of, count = arc_map_from_raw(records)
        if q.n ** (count + len(loops)) > 20_000:
            continue
        want = brute_force_colorings(records, arc_of, count + len(loops),
                                     q.op, q.inv)
        d = Diagram(records, loops, closure["exterior"])
        assert enumerate_colorings(d, q) == sorted(want)
        checked += 1
        with_loops += bool(loops)
    assert with_loops >= 3


def test_a_diagram_with_no_arcs_has_one_empty_coloring():
    # Diagram refuses an empty diagram, but the search reads only the arc
    # count and the relations: with no arc there is no first arc to
    # transport from, and the one coloring is the empty one
    empty = SimpleNamespace(n_arcs=0, relations=())
    for q in TRANSPORT_QUANDLES.values():
        assert enumerate_colorings(empty, q) == [()]


def test_every_enumerated_coloring_is_valid():
    d = corpus.load("figure_eight")
    q = make_dihedral(5)
    for col in enumerate_colorings(d, q):
        assert is_coloring(d, q, col)


@pytest.mark.parametrize("qname", ["d3", "d4", "alex7_3"])
@pytest.mark.parametrize("name", ["trefoil_mirror", "figure_eight",
                                  "hopf_neg"])
def test_is_coloring_matches_oracle_on_every_assignment(name, qname):
    # diagrams with negative crossings, where a is the outgoing under arc;
    # the oracle reads arcs and relations from the raw records.  Alex(7, 3)
    # is not involutory, so it tells a |> b from a |>^-1 b.
    d = corpus.load(name)
    q = {"d3": make_dihedral(3), "d4": make_dihedral(4),
         "alex7_3": make_alexander(7, 3)}[qname]
    n = q.n
    records = corpus.load_json(name)["crossings"]
    arc_of, n_arcs = arc_map_from_raw(records)
    assert n_arcs == d.n_arcs
    good = set(brute_force_colorings(records, arc_of, n_arcs,
                                     [list(r) for r in q.op],
                                     [list(r) for r in q.inv]))
    verdicts = {col: is_coloring(d, q, col)
                for col in product(range(n), repeat=n_arcs)}
    assert {col for col, ok in verdicts.items() if ok} == good
    assert 0 < len(good) < len(verdicts)
    assert not is_coloring(d, q, (0,) * (n_arcs + 1))


def test_shadow_count_rule():
    # shadow colorings with free exterior = |Col| * |M| for finite M
    q = make_dihedral(3)
    m = quandle_as_module(q)
    for name in ("trefoil", "hopf_pos"):
        d = corpus.load(name)
        cols = enumerate_colorings(d, q)
        shadows = [propagate_shadow(d, c, m, e)
                   for c in cols for e in m.elements()]
        assert len(shadows) == len(cols) * m.size
        seen = {(s.arcs, s.regions) for s in shadows}
        assert len(seen) == len(shadows)


def test_integer_shadow_reproduces_indices():
    # the integer shadow counted mod 7, wider than any corpus index range
    q = make_dihedral(3)
    z = cyclic_shadow_module(q, 7)
    for name in corpus.BASE_DIAGRAMS:
        d = corpus.load(name)
        idx = compute_indices(d)
        assert max(idx.totals) - min(idx.totals) < 7
        for col in enumerate_colorings(d, q):
            s = propagate_shadow(d, col, z, 0)
            assert s.regions == tuple(t % 7 for t in idx.totals)


@pytest.mark.parametrize("name", corpus.BASE_DIAGRAMS)
def test_region_walk_takes_every_step_once(name):
    # the region walk is built once per diagram: it reaches every region
    # but the exterior exactly once, from a region it reached before, and
    # the walk plus the checks use each region step exactly once
    d = corpus.load(name)
    reached = [d.exterior_region]
    for target, source, _arc, _fwd in d.region_walk:
        assert source in reached and target not in reached
        reached.append(target)
    assert sorted(reached) == list(range(d.n_regions))
    used = [(s, t, a) if fwd else (t, s, a)
            for t, s, a, fwd in d.region_walk]
    used += [(s, t, a) for t, s, a in d.region_checks]
    assert sorted(used) == sorted((frm, to, arc)
                                  for frm, to, arc, _c in d.region_steps())


def test_propagation_rejects_non_colorings():
    # propagating along the region walk, with its checks, catches every
    # arc coloring that is not a quandle coloring
    q = make_dihedral(3)
    d = corpus.load("trefoil")
    good = set(enumerate_colorings(d, q))
    m = quandle_as_module(q)
    for col in product(range(3), repeat=d.n_arcs):
        if col in good:
            propagate_shadow(d, col, m, 0)
        else:
            with pytest.raises(StructureError, match="inconsistent"):
                propagate_shadow(d, col, m, 0)


def test_one_element_module_constant():
    q = make_dihedral(3)
    d = corpus.load("trefoil")
    s = propagate_shadow(d, (0, 1, 2), trivial_module(q), 0)
    assert set(s.regions) == {0}


def test_orbit_shadow_counts_per_component():
    # per-orbit counts mod 5, the digit pair (i, j) at position 5i + j
    q = make_dihedral(4)
    om = orbits(q)
    m = orbit_shadow_module(q, (5, 5))
    for name in ("hopf_pos", "link_r3a", "trefoil"):
        d = corpus.load(name)
        idx = compute_indices(d)
        for col in enumerate_colorings(d, q):
            comp_orbs = component_orbits(d, col, om)
            s = propagate_shadow(d, col, m, 0)
            for r in range(d.n_regions):
                want = [0] * om.count
                for j, o in enumerate(comp_orbs):
                    want[o] += idx.per_component[r][j]
                assert s.regions[r] == 5 * (want[0] % 5) + want[1] % 5


def test_act_identity_on_trivial_quandle():
    q = make_trivial(3)
    d = corpus.load("trefoil")
    cols = enumerate_colorings(d, q)
    m = trivial_module(q)
    for col in cols:
        s = propagate_shadow(d, col, m, 0)
        assert act(d, s, 1) == s


def test_act_constant_dihedral():
    q = make_dihedral(3)
    d = corpus.load("unknot")
    m = quandle_as_module(q)
    s = propagate_shadow(d, (0,), m, 1)
    out = act(d, s, 2)
    assert out.arcs == (q.apply(0, 2),)
    assert out.regions == tuple(q.apply(x, 2) for x in s.regions)


def test_act_inverse_and_module_law():
    q = make_dihedral(5)
    d = corpus.load("figure_eight")
    m = quandle_as_module(q)
    cols = enumerate_colorings(d, q)
    for col in cols[:6]:
        s = propagate_shadow(d, col, m, 3)
        for c in range(q.n):
            assert act(d, act(d, s, c, 1), c, -1) == s
            for b in range(q.n):
                left = act(d, act(d, s, b), c)
                right = act(d, act(d, s, c), q.apply(b, c))
                assert left == right


def test_component_orbits_basic():
    q = make_dihedral(4)
    om = orbits(q)
    d = corpus.load("trefoil")
    for col in enumerate_colorings(d, q):
        assert len(component_orbits(d, col, om)) == 1
    hopf = corpus.load("unlink2")
    assert component_orbits(hopf, (1, 2), om) == (om.of(1), om.of(2))


def test_component_with_colors_from_two_orbits_is_refused():
    # D4's orbits are {0, 2} and {1, 3}; (0, 1, 0) puts both on the
    # trefoil's one component, and only its second arc shows it
    q = make_dihedral(4)
    om = orbits(q)
    assert om.orbits == ((0, 2), (1, 3))
    d = corpus.load("trefoil")
    omega = zero_cochain(q, None, CoeffGroup((5,)), 2)
    with pytest.raises(StructureError, match="two orbits"):
        component_orbits(d, (0, 1, 0), om)
    with pytest.raises(StructureError, match="two orbits"):
        weight_link_twisted(d, (0, 1, 0), omega, [2, 3])


def test_component_orbit_pairs_trivial_quandle():
    q = make_trivial(2)
    om = orbits(q)
    d = corpus.load("hopf_pos")
    cols = enumerate_colorings(d, q)
    assert len(cols) == 4
    pairs = {component_orbits(d, c, om) for c in cols}
    assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("name", ["trefoil", "figure_eight", "hopf_pos",
                                  "unlink2", "unknot"])
def test_coloring_bijection_under_rmoves(name):
    _check_rmove_bijection(corpus.load(name), make_dihedral(3))


@pytest.mark.parametrize("q", [make_dihedral(4), make_alexander(8, 3),
                               make_conjugation(symmetric_3())],
                         ids=["D4", "Alex8_3", "S3conj"])
def test_transport_completes_uniquely_for_non_latin_quandles(q):
    # transport_coloring presets every arc but the poked one; the search
    # must still complete each transported coloring exactly once
    for name in ("trefoil", "hopf_pos", "unlink2"):
        _check_rmove_bijection(corpus.load(name), q)


def _check_rmove_bijection(base, q):
    cols = enumerate_colorings(base, q)
    moves = []
    if base.crossings:
        moves.append(r1_insert(base, base.semiarcs[0], 1, "left"))
        moves.append(r1_insert(base, base.semiarcs[0], -1, "right"))
        moves.append(r2_insert(base, base.semiarcs[0],
                               _cobordering_partner(base)))
    else:
        moves.append(r1_insert(base, ("loop", 0), 1, "left"))
        moves.append(r1_insert(base, ("loop", 0), -1, "right"))
        if len(base.free_loops) >= 2:
            moves.append(r2_insert(base, ("loop", 0), ("loop", 1)))
    for res in moves:
        new_cols = enumerate_colorings(res.diagram, q)
        assert len(new_cols) == len(cols)
        transported = sorted(transport_coloring(res, c, q) for c in cols)
        assert transported == new_cols


@pytest.mark.parametrize("name,q", [("trefoil", make_dihedral(3)),
                                    ("figure_eight", make_dihedral(5)),
                                    ("hopf_pos", make_dihedral(4)),
                                    ("link_r3a", make_dihedral(3)),
                                    ("unlink2", make_alexander(8, 3)),
                                    ("trefoil_r3a", make_dihedral(3))],
                         ids=["trefoil-D3", "figure_eight-D5", "hopf_pos-D4",
                              "link_r3a-D3", "unlink2-Alex8_3",
                              "trefoil_r3a-D3"])
def test_preset_filters_the_full_enumeration(name, q):
    d = corpus.load(name)
    full = enumerate_colorings(d, q)
    rng = random.Random(11)
    for trial in range(40):
        arcs = rng.sample(range(d.n_arcs), rng.randrange(1, d.n_arcs + 1))
        if trial % 2:   # restrict a coloring, so the preset is consistent
            base = rng.choice(full)
            preset = {a: base[a] for a in arcs}
        else:
            preset = {a: rng.randrange(q.n) for a in arcs}
        want = [c for c in full if all(c[a] == v for a, v in preset.items())]
        assert enumerate_colorings(d, q, preset) == want


def test_preset_arc_pinned_by_earlier_presets():
    # on the trefoil, arcs 0 and 1 pin arc 2; as a preset, arc 2 is never
    # derived but checked at its own level against its preset color
    d = corpus.load("trefoil")
    q = make_dihedral(3)
    plan = _search_plan(d.n_arcs, d.relations, [0, 1])
    assert 2 in [t for _arc, steps, _checks in plan for t, *_ in steps]
    plan = _search_plan(d.n_arcs, d.relations, [0, 1, 2])
    assert [arc for arc, _s, _c in plan] == [0, 1, 2]
    assert all(not steps for _arc, steps, _checks in plan)
    assert len(plan[2][2]) == len(d.relations)
    assert enumerate_colorings(d, q, {0: 0, 1: 1, 2: 2}) == [(0, 1, 2)]
    assert enumerate_colorings(d, q, {0: 0, 1: 1, 2: 1}) == []
    assert enumerate_colorings(d, q, {0: 0, 1: 0, 2: 1}) == []
    assert enumerate_colorings(d, q, {0: 1, 1: 1}) == [(1, 1, 1)]


def _cobordering_partner(d):
    s0 = d.semiarcs[0]
    for s in d.semiarcs[1:]:
        for side1 in ("left", "right"):
            for side2 in ("left", "right"):
                if d.side_region(s0, side1) == d.side_region(s, side2):
                    return s
    raise AssertionError("no co-bordering semi-arc")


def test_validate_shadow_rejects_corruption():
    q = make_dihedral(3)
    d = corpus.load("trefoil")
    m = quandle_as_module(q)
    s = propagate_shadow(d, (0, 1, 2), m, 0)
    bad = ShadowColoring(arcs=s.arcs,
                         regions=(s.regions[0],) + s.regions[1:][::-1],
                         module=m)
    with pytest.raises(StructureError):
        validate_shadow(d, bad)


def test_cyclic_shadow_parity():
    # the 2-periodic shadow of the index coloring is the checkerboard
    q = make_dihedral(3)
    d = corpus.load("figure_eight")
    m = cyclic_shadow_module(q, 2)
    idx = compute_indices(d)
    s = propagate_shadow(d, (0, 0, 0, 0), m, 0)
    assert s.regions == tuple(t % 2 for t in idx.totals)


def test_act_over_integer_shadow_module():
    # acting shifts every region color by one in the integer module,
    # here counted mod 4
    q = make_dihedral(3)
    z = cyclic_shadow_module(q, 4)
    d = corpus.load("figure_eight")
    for col in enumerate_colorings(d, q)[:3]:
        s = propagate_shadow(d, col, z, 0)
        moved = act(d, s, 1)
        assert moved.regions == tuple((m + 1) % 4 for m in s.regions)
        assert act(d, moved, 1, -1) == s
