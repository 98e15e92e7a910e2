"""Diagram parsing, faces, indices, signs, checkerboard, and rewrites."""

import hashlib
import json
import random

import pytest

from qci import corpus
from qci.algebra import StructureError
from qci.diagram import (Crossing, Diagram, checkerboard, compute_indices,
                         crossing_geometry, parse_diagram, r1_insert,
                         r2_insert)


def test_unknot_crossingless():
    d = corpus.load("unknot")
    assert d.n_components == 1
    assert d.n_arcs == 1
    assert d.n_regions == 2


def test_trefoil_counts():
    d = corpus.load("trefoil")
    assert len(d.semiarcs) == 6
    assert d.n_regions == 5          # Euler: 3 - 6 + 5 = 2
    assert d.n_components == 1
    assert d.n_arcs == 3


def test_hopf_counts():
    d = corpus.load("hopf_pos")
    assert d.n_components == 2
    assert d.n_regions == 4          # 2 - 4 + 4 = 2
    assert d.n_arcs == 2


def test_figure_eight_counts():
    d = corpus.load("figure_eight")
    assert d.n_regions == 6          # 4 - 8 + 6 = 2
    assert d.n_arcs == 4


def test_parse_errors():
    # dangling semi-arc: id 9 appears once
    with pytest.raises(StructureError):
        Diagram([Crossing((0, 1, 9, 1), 3), Crossing((2, 0, 2, 3), 3)],
                exterior=(0, "left"))
    # non-spherical rotation system (curve on the torus)
    with pytest.raises(StructureError):
        Diagram([Crossing((0, 1, 0, 1), 3)], exterior=(0, "left"))
    # missing exterior
    with pytest.raises(StructureError):
        Diagram([Crossing((0, 0, 1, 1), 3)])
    with pytest.raises(StructureError):
        Diagram([], ())


def test_torus_piece_beside_a_sphere_piece_is_refused():
    # V - E + F = 0 + 2 = 2 although the torus curve is no sphere diagram:
    # the region walk from the exterior never reaches its face
    data = {"v": 1, "crossings": [{"rot": [0, 1, 0, 1], "over": 3},
                                  {"rot": [2, 2, 3, 3], "over": 3}],
            "exterior": [2, "left"]}
    with pytest.raises(StructureError,
                       match="^rotation system is not a connected sphere "
                             "diagram$"):
        parse_diagram(data)


def _face_count(records):
    return len(Diagram(records, exterior=(records[0]["rot"][0], "left"))
               .region_incidences)


def test_region_incidences_kink():
    # one positive kink on the unknot: disk, lobe eye, exterior
    assert _face_count([{"rot": [0, 0, 1, 1], "over": 3}]) == 3


def test_region_incidences_corpus():
    assert _face_count(corpus.load_json("trefoil")["crossings"]) == 5
    assert _face_count(corpus.load_json("figure_eight")["crossings"]) == 6


def test_unknot_indices_by_orientation():
    ccw = Diagram([], (1,))
    idx = compute_indices(ccw)
    assert idx.totals[idx.exterior] == 0
    assert sorted(idx.totals) == [0, 1]
    cw = Diagram([], (-1,))
    assert sorted(compute_indices(cw).totals) == [-1, 0]


def test_indices_sum_rule_and_exterior():
    for name in corpus.BASE_DIAGRAMS:
        d = corpus.load(name)
        idx = compute_indices(d)
        assert idx.totals[d.exterior_region] == 0
        assert all(v == 0 for v in idx.per_component[d.exterior_region])
        for r in range(d.n_regions):
            assert sum(idx.per_component[r]) == idx.totals[r]


def test_hopf_central_region():
    d = corpus.load("hopf_pos")
    idx = compute_indices(d)
    per = [idx.per_component[r] for r in range(d.n_regions)]
    # some region is crossed once by each component
    assert any(tuple(map(abs, v)) == (1, 1) for v in per)
    # and the two lune regions are crossed by exactly one component
    assert sum(1 for v in per if tuple(map(abs, v)) in ((1, 0), (0, 1))) == 2


def test_index_well_definedness_random_orders():
    # propagation along 100 random edge orders gives identical tables
    rng = random.Random(1234)
    for name in ("trefoil", "figure_eight", "hopf_pos", "link_r3a"):
        d = corpus.load(name)
        ref = compute_indices(d)
        steps = d.region_steps()
        k = d.n_components
        for _ in range(25):
            order = steps[:]
            rng.shuffle(order)
            vecs = {d.exterior_region: (0,) * k}
            changed = True
            while changed:
                changed = False
                for frm, to, _a, comp in order:
                    if frm in vecs and to not in vecs:
                        vecs[to] = tuple(v + (1 if i == comp else 0)
                                         for i, v in enumerate(vecs[frm]))
                        changed = True
                    elif to in vecs and frm not in vecs:
                        vecs[frm] = tuple(v - (1 if i == comp else 0)
                                          for i, v in enumerate(vecs[to]))
                        changed = True
            assert vecs == {r: ref.per_component[r] for r in range(d.n_regions)}


def test_index_random_walk_paths():
    # the signed crossing count along any region path reproduces the index
    rng = random.Random(77)
    for name in ("trefoil", "figure_eight", "hopf_neg"):
        d = corpus.load(name)
        idx = compute_indices(d)
        adj = {}
        for frm, to, _a, comp in d.region_steps():
            adj.setdefault(frm, []).append((to, comp, 1))
            adj.setdefault(to, []).append((frm, comp, -1))
        for _ in range(50):
            pos = d.exterior_region
            vec = [0] * d.n_components
            for _ in range(rng.randrange(1, 12)):
                to, comp, delta = rng.choice(adj[pos])
                vec[comp] += delta
                pos = to
            assert tuple(vec) == idx.per_component[pos]


def test_trefoil_signs():
    assert [g.sign for g in crossing_geometry(corpus.load("trefoil"))] == [1, 1, 1]
    assert [g.sign for g in crossing_geometry(corpus.load("trefoil_mirror"))] == [-1, -1, -1]


def test_source_region_is_quadrant_minimum():
    # the four quadrant indices around a crossing are s, s+1, s+1, s+2 and
    # the source quadrant attains the minimum
    for name in ("trefoil", "trefoil_mirror", "figure_eight", "hopf_pos",
                 "link_r3a", "trefoil_r3a"):
        d = corpus.load(name)
        idx = compute_indices(d)
        for g in crossing_geometry(d):
            vals = sorted(idx.totals[q] for q in g.quadrants)
            s = idx.totals[g.source_region]
            assert vals == [s, s + 1, s + 1, s + 2]


def test_source_region_behind_both_strands():
    # the source region touches the a-colored under end and the over strand
    for name in ("trefoil", "figure_eight", "hopf_neg"):
        d = corpus.load(name)
        for ci, (x, g) in enumerate(zip(d.crossings, crossing_geometry(d))):
            incidences = dict(d.region_incidences[g.source_region])
            a_sa = x.rot[0] if x.sign > 0 else x.rot[2]
            assert a_sa in incidences
            assert x.over_in in incidences or x.over_out in incidences


def test_checkerboard():
    for name in corpus.BASE_DIAGRAMS:
        d = corpus.load(name)
        idx = compute_indices(d)
        colors = checkerboard(d)
        assert colors[d.exterior_region] == 0
        for r in range(d.n_regions):
            assert colors[r] == idx.totals[r] % 2
        for frm, to, _a, _c in d.region_steps():
            assert colors[frm] != colors[to]


def test_r1_on_unknot():
    base = corpus.load("unknot")
    res = r1_insert(base, ("loop", 0), 1, "left")
    d = res.diagram
    assert len(d.crossings) == 1
    assert d.n_regions == 3
    assert d.n_components == 1
    assert crossing_geometry(d)[0].sign == 1
    assert set(res.arc_origin.values()) == {0}


@pytest.mark.parametrize("chirality,side", [(1, "left"), (1, "right"),
                                            (-1, "left"), (-1, "right")])
def test_r1_all_variants_on_trefoil(chirality, side):
    base = corpus.load("trefoil")
    res = r1_insert(base, base.semiarcs[0], chirality, side)
    d = res.diagram
    assert len(d.crossings) == 4
    assert d.n_regions == 6
    assert d.n_components == 1
    signs = [g.sign for g in crossing_geometry(d)]
    assert signs[-1] == chirality


def test_r1_double_opposite_kinks():
    base = corpus.load("trefoil")
    first = r1_insert(base, base.semiarcs[2], 1, "left")
    second = r1_insert(first.diagram, first.diagram.semiarcs[0], -1, "right")
    d = second.diagram
    assert len(d.crossings) == 5
    assert d.n_components == 1
    assert sum(g.sign for g in crossing_geometry(d)) == 3


def test_r1_invalid_target():
    with pytest.raises(StructureError):
        r1_insert(corpus.load("trefoil"), 99)
    with pytest.raises(StructureError):
        r1_insert(corpus.load("unknot"), ("loop", 5))


def test_r2_on_unlink():
    base = corpus.load("unlink2")
    res = r2_insert(base, ("loop", 0), ("loop", 1))
    d = res.diagram
    assert len(d.crossings) == 2
    assert d.n_components == 2
    assert d.n_regions == 4
    signs = [g.sign for g in crossing_geometry(d)]
    assert sorted(signs) == [-1, 1]


def test_r2_on_trefoil():
    base = corpus.load("trefoil")
    # two semi-arcs bordering a common region
    done = False
    for s1 in base.semiarcs:
        for s2 in base.semiarcs:
            if s1 == s2:
                continue
            try:
                res = r2_insert(base, s1, s2)
            except StructureError:
                continue
            d = res.diagram
            assert len(d.crossings) == 5
            assert d.n_components == 1
            assert sum(g.sign for g in crossing_geometry(d)) == 3
            done = True
            break
        if done:
            break
    assert done


def test_r2_requires_common_region():
    base = corpus.load("trefoil")
    with pytest.raises(StructureError):
        r2_insert(base, base.semiarcs[0], base.semiarcs[0])


def test_rewrites_preserve_components():
    for name in ("trefoil", "hopf_pos", "figure_eight"):
        base = corpus.load(name)
        res = r1_insert(base, base.semiarcs[0], -1, "left")
        assert res.diagram.n_components == base.n_components
        # strand cycle lengths grow by exactly the inserted pieces
        base_sizes = sorted(len(c) for c in base.components)
        new_sizes = sorted(len(c) for c in res.diagram.components)
        assert sum(new_sizes) == sum(base_sizes) + 2


def test_json_roundtrip_bytes():
    for name in corpus.names():
        raw = corpus.load_json(name)
        d = parse_diagram(raw)
        dumped = json.dumps(d.to_json(), sort_keys=True)
        reparsed = parse_diagram(json.loads(dumped))
        assert json.dumps(reparsed.to_json(), sort_keys=True) == dumped


def test_region_ids_are_canonical():
    d = corpus.load("trefoil")
    keys = [inc[0] for inc in d.region_incidences]
    assert keys == sorted(keys)


def test_r2_self_poke_clasp():
    # poking a crossingless loop across itself gives the 2-crossing clasp
    for orient in (1, -1):
        base = Diagram([], (orient,))
        res = r2_insert(base, ("loop", 0), ("loop", 0))
        d = res.diagram
        assert len(d.crossings) == 2
        assert d.n_components == 1
        assert d.n_regions == 4
        assert sorted(g.sign for g in crossing_geometry(d)) == [-1, 1]
        compute_indices(d)


# sha256 of every r1_insert/r2_insert outcome over the sweep below: the
# rewritten diagram's JSON, its sorted arc_origin and acted set, or the
# error type and message
REWRITE_SWEEP_SHA256 = (
    2099, "543e2a949a8390b0d70f88bec0c27d122ac9d50c264f6b236131f4347700b2ec")


def _rewrite_sweep_bases():
    bases = [corpus.load(name) for name in corpus.names()]
    bases += [Diagram([], (1, -1, 1)), Diagram([], (-1,))]
    tref = corpus.load("trefoil")
    bases.append(Diagram(tref.crossings, (1, -1), tref.exterior_spec))
    return bases


def _rewrite_targets(d):
    return list(d.semiarcs) + [("loop", j) for j in range(len(d.free_loops))]


def _rewrite_outcome(move, *args):
    try:
        res = move(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps([res.diagram.to_json(),
                       repr(sorted(res.arc_origin.items(), key=repr)),
                       sorted(res.acted)], sort_keys=True)


def test_rewrite_sweep_digest():
    lines = []
    for base in _rewrite_sweep_bases():
        kinked = r1_insert(base, _rewrite_targets(base)[0]).diagram
        for d in (base, kinked):
            targets = _rewrite_targets(d)
            if d is base:
                for t in targets + [99, ("loop", 7)]:
                    for chirality in (1, -1, 2):
                        for side in ("left", "right", "up"):
                            lines.append(_rewrite_outcome(
                                r1_insert, d, t, chirality, side))
            for t1 in targets:
                for t2 in targets:
                    lines.append(_rewrite_outcome(r2_insert, d, t1, t2))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == REWRITE_SWEEP_SHA256
