"""Freeze oracle-computed expected values into tests/golden/.

Run from the repo root.  qci supplies the inputs (corpus JSON, dihedral
tables) and the cocycle tables, which are stored beside their weights so
that tests/test_goldens.py pins them too.  Every coloring count and
weight is recomputed from the raw crossing records by the oracles in
tests/oracle_utils.py, which import no qci module: colorings by
exhaustive assignment, weights as signed crossing sums, with checkerboard
signs for the positive flavor, face colorings under the quandle's own
action for the shadow flavor and the symbolic shadow reading at exterior
0 for the twisted flavors.
"""

import json
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from qci import corpus  # noqa: E402
from qci.algebra import (CoeffGroup, IntUnit, make_dihedral,  # noqa: E402
                         quandle_as_module)
from qci.cohomology import (DifferentialSpec, cocycle_basis,  # noqa: E402
                            link_twisted_cocycle_basis)
from tests.oracle_utils import (arc_map_from_raw,  # noqa: E402
                                brute_force_colorings, oracle_weight_sum,
                                raw_crossing_sign, raw_face_action_colors,
                                raw_orbit_ids, raw_positive_signs,
                                raw_sources, symbolic_shadow_weight)

GOLDEN = ROOT / "tests" / "golden"
COUNTS = (("trefoil", 3), ("figure_eight", 3), ("figure_eight", 5),
          ("trefoil", 5), ("hopf_pos", 4), ("link_r3a", 3))
# (golden name, diagram, dihedral order, modulus, flavor, its parameters)
WEIGHTS = (
    ("classical_trefoil_d3_z3", "trefoil", 3, 3, "classical", {}),
    ("shadow_trefoil_d3_z3", "trefoil", 3, 3, "shadow", {"exterior": 0}),
    ("shadow_mirror_d3_z3", "trefoil_mirror", 3, 3, "shadow",
     {"exterior": 0}),
    ("positive_trefoil_d3_z4", "trefoil", 3, 4, "positive", {}),
    ("twisted_trefoil_d3_z5_a2", "trefoil", 3, 5, "twisted", {"alpha": 2}),
    ("link_hopf_d4_z5", "hopf_pos", 4, 5, "link_twisted",
     {"alphas": [2, 3]}))


def raw_colorings(raw, q):
    """Every coloring of a diagram's JSON, over the arcs of
    arc_map_from_raw and then one arc per free loop."""
    records = raw.get("crossings", [])
    arc_of, n_arcs = arc_map_from_raw(records)
    n_arcs += len(raw.get("free_loops", ()))
    return brute_force_colorings(records, arc_of, n_arcs, q.op, q.inv)


def cocycles(flavor, q, A, kw):
    """qci's cocycle basis for the flavor, the one input not recomputed."""
    if flavor == "link_twisted":
        return link_twisted_cocycle_basis(
            q, A, [IntUnit(A, a) for a in kw["alphas"]])
    if flavor == "positive":
        spec = DifferentialSpec.positive(A)
    elif flavor == "twisted":
        spec = DifferentialSpec.twisted(A, kw["alpha"])
    else:
        spec = DifferentialSpec.quandle(A)
    module = quandle_as_module(q) if flavor == "shadow" else None
    return cocycle_basis(spec, q, module, A, 2)


def weigher(flavor, raw, q, modulus, kw):
    """weigh(table, colors): the flavor's weight of one coloring, an int
    modulo ``modulus``, from the raw records and the flat cocycle table."""
    records, exterior = raw["crossings"], raw["exterior"]
    arc_of, _ = arc_map_from_raw(records)
    n = q.n

    def add(x, y):
        return (x + y) % modulus

    def neg(x):
        return -x % modulus

    if flavor in ("twisted", "link_twisted"):
        units = kw["alphas"] if flavor == "link_twisted" else [kw["alpha"]]
        orbit_of = raw_orbit_ids(q.op) if flavor == "link_twisted" else None
        return lambda table, colors: symbolic_shadow_weight(
            records, exterior, arc_of, colors, table, modulus, units,
            (0,) * len(units), orbit_of)
    if flavor == "shadow":
        def weigh(table, colors):
            faces = raw_face_action_colors(
                records, exterior, kw["exterior"],
                lambda m, sa: q.op[m][colors[arc_of[sa]]],
                lambda m, sa: q.inv[m][colors[arc_of[sa]]])
            return oracle_weight_sum(
                records, arc_of, colors,
                lambda m, a, b: table[(m * n + a) * n + b], add, 0, neg,
                regions=raw_sources(records, faces))
        return weigh
    twist = None
    if flavor == "positive":
        # each term takes the checkerboard sign in place of the crossing's
        signs = raw_positive_signs(records, exterior)

        def twist(term, ci):
            return term if signs[ci] == raw_crossing_sign(records[ci]) \
                else neg(term)
    return lambda table, colors: oracle_weight_sum(
        records, arc_of, colors, lambda a, b: table[a * n + b], add, 0, neg,
        twist)


def write_weights(name, diagram, order, modulus, flavor, kw):
    raw, q = corpus.load_json(diagram), make_dihedral(order)
    weigh = weigher(flavor, raw, q, modulus, kw)
    colorings = raw_colorings(raw, q)
    out = []
    for omega in cocycles(flavor, q, CoeffGroup((modulus,)), kw):
        table = [v for v, in omega.values]
        counts = Counter(weigh(table, colors) for colors in colorings)
        out.append({"cocycle": [list(v) for v in omega.values],
                    "multiset": sorted([[w], m] for w, m in counts.items())})
    payload = {"diagram": diagram, "quandle": f"dihedral{order}",
               "moduli": [modulus], "flavor": flavor, **kw, "cases": out}
    (GOLDEN / f"{name}.json").write_text(
        json.dumps(payload, sort_keys=True) + "\n")
    sizes = [len(c["multiset"]) for c in out]
    print(f"{name}: {len(out)} cocycles, multiset sizes {sizes}")


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    counts = {f"{name}/dihedral{n}": len(raw_colorings(
        corpus.load_json(name), make_dihedral(n))) for name, n in COUNTS}
    text = json.dumps(counts, indent=2, sort_keys=True)
    (GOLDEN / "coloring_counts.json").write_text(text + "\n")
    print(text)
    for case in WEIGHTS:
        write_weights(*case)


if __name__ == "__main__":
    main()
