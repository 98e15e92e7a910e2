"""Freeze oracle-computed expected values into tests/golden/.

Run from the repo root.  Coloring counts come from the exhaustive
assignment oracle in tests/oracle_utils.py, which reads raw crossing
records and never touches the library's search or weight code.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from qci import corpus  # noqa: E402
from qci.algebra import make_dihedral  # noqa: E402
from tests.oracle_utils import (arc_map_from_raw,  # noqa: E402
                                brute_force_colorings)

GOLDEN = ROOT / "tests" / "golden"


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, n in (("trefoil", 3), ("figure_eight", 3), ("figure_eight", 5),
                    ("trefoil", 5), ("hopf_pos", 4), ("link_r3a", 3)):
        raw = corpus.load_json(name)
        records = raw.get("crossings", [])
        arc_of, n_arcs = arc_map_from_raw(records)
        n_arcs += len(raw.get("free_loops", ()))
        q = make_dihedral(n)
        sols = brute_force_colorings(records, arc_of, n_arcs,
                                     [list(r) for r in q.op],
                                     [list(r) for r in q.inv])
        counts[f"{name}/dihedral{n}"] = len(sols)
    path = GOLDEN / "coloring_counts.json"
    path.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
    print(json.dumps(counts, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
