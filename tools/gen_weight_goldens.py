"""Freeze weight multisets computed by the brute-force oracle route.

For each case: colorings come from the exhaustive assignment oracle, the
crossing sum is recomputed from raw records (signs and color slots read
directly off rot/over), and twisting uses the index table, which the
diagram test suite pins down independently (random walks, quadrant rule).
The cocycle tables themselves are stored too, so solver drift is caught.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from qci import corpus  # noqa: E402
from qci.algebra import CoeffGroup, IntUnit, make_dihedral, orbits  # noqa: E402
from qci.cohomology import (DifferentialSpec, cocycle_basis,  # noqa: E402
                            link_twisted_cocycle_basis)
from qci.coloring import component_orbits, propagate_shadow  # noqa: E402
from qci.algebra import quandle_as_module  # noqa: E402
from qci.diagram import compute_indices, crossing_geometry  # noqa: E402
from tests.oracle_utils import (brute_force_colorings,  # noqa: E402
                                oracle_weight_sum, raw_crossing_slots)

GOLDEN = ROOT / "tests" / "golden"


def multiset(values):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sorted([list(k), m] for k, m in counts.items())


def run_case(name, diagram_name, n_dihedral, moduli, flavor, **kw):
    d = corpus.load(diagram_name)
    raw = corpus.load_json(diagram_name)
    records = raw.get("crossings", [])
    q = make_dihedral(n_dihedral)
    A = CoeffGroup(moduli)
    idx = compute_indices(d)
    geo = crossing_geometry(d)
    cols = brute_force_colorings(records, d.arc_of, d.n_arcs,
                                 [list(r) for r in q.op],
                                 [list(r) for r in q.inv])

    if flavor == "classical":
        basis = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)
    elif flavor == "positive":
        basis = cocycle_basis(DifferentialSpec.positive(A), q, None, A, 2)
    elif flavor == "twisted":
        basis = cocycle_basis(DifferentialSpec.twisted(A, kw["alpha"]),
                              q, None, A, 2)
    elif flavor == "shadow":
        mod = quandle_as_module(q)
        basis = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)
    elif flavor == "link_twisted":
        units = [IntUnit(A, a) for a in kw["alphas"]]
        basis = link_twisted_cocycle_basis(q, A, units)
    out = []
    for omega in basis:
        values = []

        def omega_at(ca, cb):
            return omega.at(0, (ca, cb))

        for colors in cols:
            if flavor == "classical":
                w = oracle_weight_sum(records, d.arc_of, colors, omega_at,
                                      A.add, A.zero(), A.neg)
            elif flavor == "twisted":
                alpha = IntUnit(A, kw["alpha"])

                def twist(term, ci):
                    return alpha.apply(term, -idx.totals[geo[ci].source_region])
                w = oracle_weight_sum(records, d.arc_of, colors, omega_at,
                                      A.add, A.zero(), A.neg, twist)
            elif flavor == "link_twisted":
                om = orbits(q)
                units = [IntUnit(A, a) for a in kw["alphas"]]
                corbs = component_orbits(d, colors, om)

                def twist(term, ci):
                    for j, orb in enumerate(corbs):
                        e = idx.per_component[geo[ci].source_region][j]
                        if e:
                            term = units[orb].apply(term, -e)
                    return term
                w = oracle_weight_sum(records, d.arc_of, colors, omega_at,
                                      A.add, A.zero(), A.neg, twist)
            elif flavor == "positive":
                # checkerboard sign = parity of the quadrant between the
                # incoming-under and slot-1 ends
                total = A.zero()
                for ci, rec in enumerate(records):
                    a_sa, b_sa, _sign = raw_crossing_slots(rec)
                    sp = 1 if idx.totals[geo[ci].quadrants[0]] % 2 == 0 else -1
                    term = omega.at(0, (colors[d.arc_of[a_sa]],
                                        colors[d.arc_of[b_sa]]))
                    total = A.add(total, term if sp > 0 else A.neg(term))
                w = total
            else:  # shadow
                mod = omega.module
                shadow = propagate_shadow(d, colors, mod, kw["exterior"])
                total = A.zero()
                for ci, rec in enumerate(records):
                    a_sa, b_sa, sign = raw_crossing_slots(rec)
                    m = shadow.regions[geo[ci].source_region]
                    term = omega.at(m, (colors[d.arc_of[a_sa]],
                                        colors[d.arc_of[b_sa]]))
                    total = A.add(total, term if sign > 0 else A.neg(term))
                w = total
            values.append(w)
        out.append({"cocycle": [list(v) for v in omega.values],
                    "multiset": multiset(values)})
    payload = {"diagram": diagram_name, "quandle": f"dihedral{n_dihedral}",
               "moduli": list(moduli), "flavor": flavor,
               **{k: v for k, v in kw.items()}, "cases": out}
    path = GOLDEN / f"{name}.json"
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    sizes = [len(c["multiset"]) for c in out]
    print(f"{name}: {len(out)} cocycles, multiset sizes {sizes}")


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    run_case("classical_trefoil_d3_z3", "trefoil", 3, (3,), "classical")
    run_case("shadow_trefoil_d3_z3", "trefoil", 3, (3,), "shadow", exterior=0)
    run_case("shadow_mirror_d3_z3", "trefoil_mirror", 3, (3,), "shadow",
             exterior=0)
    run_case("positive_trefoil_d3_z4", "trefoil", 3, (4,), "positive")
    run_case("twisted_trefoil_d3_z5_a2", "trefoil", 3, (5,), "twisted",
             alpha=2)
    run_case("link_hopf_d4_z5", "hopf_pos", 4, (5,), "link_twisted",
             alphas=[2, 3])


if __name__ == "__main__":
    main()
