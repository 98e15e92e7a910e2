"""Pairwise weight preservation: a Reidemeister rewrite must keep the
weight of every single coloring, not just the multiset."""

import pytest

from qci import corpus
from qci.algebra import (CoeffGroup, IntUnit, make_dihedral,
                         quandle_as_module)
from qci.cohomology import (DifferentialSpec, cocycle_basis,
                            link_twisted_cocycle_basis)
from qci.coloring import (enumerate_colorings, propagate_shadow,
                          transport_coloring)
from qci.diagram import parse_diagram, r1_insert, r2_insert
from qci.invariants import (weight_classical, weight_link_twisted,
                            weight_positive, weight_shadow,
                            weight_shadow_twisted, weight_twisted)
from tests.oracle_utils import braid_closure


def _moves(base):
    out = []
    if base.crossings:
        out.append(r1_insert(base, base.semiarcs[0], 1, "left"))
        out.append(r1_insert(base, base.semiarcs[-1], -1, "right"))
        s0 = base.semiarcs[0]
        for s in base.semiarcs[1:]:
            try:
                out.append(r2_insert(base, s0, s))
                break
            except Exception:
                continue
    else:
        out.append(r1_insert(base, ("loop", 0), 1, "left"))
        if len(base.free_loops) > 1:
            out.append(r2_insert(base, ("loop", 0), ("loop", 1)))
        out.append(r2_insert(base, ("loop", 0), ("loop", 0)))
    return out


@pytest.mark.parametrize("name", ["trefoil", "figure_eight", "hopf_pos",
                                  "unknot", "unlink2"])
def test_arc_flavors_preserved_per_coloring(name):
    q = make_dihedral(3)
    A5 = CoeffGroup((5,))
    A4 = CoeffGroup((4,))
    tw = cocycle_basis(DifferentialSpec.twisted(A5, 2), q, None, A5, 2)[:2]
    pos = cocycle_basis(DifferentialSpec.positive(A4), q, None, A4, 2)[:2]
    cl = cocycle_basis(DifferentialSpec.quandle(CoeffGroup((3,))), q, None,
                       CoeffGroup((3,)), 2)[:2]
    base = corpus.load(name)
    for res in _moves(base):
        for col in enumerate_colorings(base, q):
            new_col = transport_coloring(res, col, q)
            for omega in cl:
                assert weight_classical(base, col, omega, check=False) == \
                    weight_classical(res.diagram, new_col, omega, check=False)
            for omega in pos:
                assert weight_positive(base, col, omega, check=False) == \
                    weight_positive(res.diagram, new_col, omega, check=False)
            for omega in tw:
                assert weight_twisted(base, col, omega, 2, check=False) == \
                    weight_twisted(res.diagram, new_col, omega, 2, check=False)


@pytest.mark.parametrize("name", ["trefoil", "hopf_pos", "unlink2"])
def test_shadow_flavors_preserved_per_coloring(name):
    q = make_dihedral(3)
    A3 = CoeffGroup((3,))
    A5 = CoeffGroup((5,))
    mod = quandle_as_module(q)
    sh = cocycle_basis(DifferentialSpec.quandle(A3), q, mod, A3, 2)[:2]
    shtw = cocycle_basis(DifferentialSpec.twisted(A5, 2), q, mod, A5, 2)[:2]
    base = corpus.load(name)
    for res in _moves(base):
        for col in enumerate_colorings(base, q):
            new_col = transport_coloring(res, col, q)
            s_old = propagate_shadow(base, col, mod, 0)
            s_new = propagate_shadow(res.diagram, new_col, mod, 0)
            for omega in sh:
                assert weight_shadow(base, s_old, omega, check=False) == \
                    weight_shadow(res.diagram, s_new, omega, check=False)
            for omega in shtw:
                assert weight_shadow_twisted(base, s_old, omega, 2,
                                             check=False) == \
                    weight_shadow_twisted(res.diagram, s_new, omega, 2,
                                          check=False)


@pytest.mark.parametrize("name", ["hopf_pos", "hopf_neg", "unlink2",
                                  "link_r3a"])
def test_link_twisted_preserved_per_coloring(name):
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    units = [IntUnit(A, 2), IntUnit(A, 3)]
    basis = link_twisted_cocycle_basis(q, A, units)[:2]
    base = corpus.load(name)
    for res in _moves(base):
        for col in enumerate_colorings(base, q):
            new_col = transport_coloring(res, col, q)
            for omega in basis:
                assert weight_link_twisted(base, col, omega, units,
                                           check=False) == \
                    weight_link_twisted(res.diagram, new_col, omega, units,
                                        check=False)


def test_weights_that_vary_survive_transport():
    # every case above weighs all its colorings alike, so a transport to
    # the wrong completion would pass them.  On the 6-crossing (2, 4) torus
    # link with D4 over Z/4 each cocycle takes two weights, and one of the
    # three rewrites is an r2 whose acted arc the search completes
    q, A = make_dihedral(4), CoeffGroup((4,))
    base = parse_diagram(braid_closure([-1, -1, -1, 1, -1, -1], 2))
    units = [IntUnit(A, 1), IntUnit(A, 3)]
    cases = [
        (weight_classical, cocycle_basis(DifferentialSpec.quandle(A), q,
                                         None, A, 2)[0], ()),
        (weight_twisted, cocycle_basis(DifferentialSpec.twisted(A, 3), q,
                                       None, A, 2)[1], (3,)),
        (weight_link_twisted, link_twisted_cocycle_basis(q, A, units)[0],
         (units,))]
    moves = _moves(base)
    assert len(moves) == 3 and any(res.acted for res in moves)
    cols = enumerate_colorings(base, q)
    for res in moves:
        moved = [transport_coloring(res, col, q) for col in cols]
        assert sorted(moved) == enumerate_colorings(res.diagram, q)
        for weigh, omega, extra in cases:
            weights = [weigh(base, col, omega, *extra) for col in cols]
            assert len(set(weights)) == 2
            assert weights == [weigh(res.diagram, col, omega, *extra)
                               for col in moved]
