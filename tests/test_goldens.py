"""Frozen oracle multisets: the library route must reproduce them, and the
cocycle solver must keep emitting the exact stored bases."""

import json
import pathlib

import pytest

from qci import corpus
from qci.algebra import (CoeffGroup, IntUnit, make_dihedral,
                         quandle_as_module)
from qci.cohomology import (DifferentialSpec, cocycle_basis,
                            link_twisted_cocycle_basis)
from qci.invariants import invariant_multiset

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = ["classical_trefoil_d3_z3", "shadow_trefoil_d3_z3",
         "shadow_mirror_d3_z3", "shadow_trefoil_d3_z3_ext1",
         "positive_trefoil_d3_z4",
         "twisted_trefoil_d3_z5_a2", "link_hopf_d4_z5"]


@pytest.mark.parametrize("case", CASES)
def test_golden_multisets(case):
    data = json.loads((GOLDEN / f"{case}.json").read_text())
    d = corpus.load(data["diagram"])
    n = int(data["quandle"].removeprefix("dihedral"))
    q = make_dihedral(n)
    A = CoeffGroup(tuple(data["moduli"]))
    flavor = data["flavor"]
    module = quandle_as_module(q) if flavor == "shadow" else None

    if flavor == "classical":
        basis = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)
    elif flavor == "shadow":
        basis = cocycle_basis(DifferentialSpec.quandle(A), q, module, A, 2)
    elif flavor == "positive":
        basis = cocycle_basis(DifferentialSpec.positive(A), q, None, A, 2)
    elif flavor == "twisted":
        basis = cocycle_basis(DifferentialSpec.twisted(A, data["alpha"]),
                              q, None, A, 2)
    else:
        units = [IntUnit(A, a) for a in data["alphas"]]
        basis = link_twisted_cocycle_basis(q, A, units)

    assert len(basis) == len(data["cases"])
    for omega, expect in zip(basis, data["cases"]):
        # solver determinism: the stored cocycle is still what comes out
        assert [list(v) for v in omega.values] == expect["cocycle"]
        kwargs = {}
        if flavor == "shadow":
            kwargs = {"exterior": data["exterior"]}
        elif flavor == "twisted":
            kwargs = {"alpha": data["alpha"]}
        elif flavor == "link_twisted":
            kwargs = {"alphas": data["alphas"]}
        ms = invariant_multiset(d, q, flavor, omega, **kwargs)
        got = sorted([list(v), m] for v, m in ms.weights)
        assert got == expect["multiset"]


def test_shadow_invariant_detects_chirality():
    tre = json.loads((GOLDEN / "shadow_trefoil_d3_z3.json").read_text())
    mir = json.loads((GOLDEN / "shadow_mirror_d3_z3.json").read_text())
    distinguishing = [i for i, (a, b) in
                      enumerate(zip(tre["cases"], mir["cases"]))
                      if a["multiset"] != b["multiset"]]
    assert distinguishing  # the mirror pair separates
