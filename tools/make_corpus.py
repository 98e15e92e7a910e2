"""Generate the shipped diagram corpus (run from the repo root).

Braid closures are the one systematic way to get trustworthy rotation
systems: strands run downward, the strand entering a positive letter from
the right passes over, and the closure joins bottom back to top (the
recipe is tests/oracle_utils.braid_closure, which the tests share).  The
resulting records are validated by the Diagram constructor (Euler count,
orientation consistency) before being written.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from qci.diagram import Diagram, compute_indices, crossing_geometry  # noqa: E402
from tests.oracle_utils import braid_closure  # noqa: E402

OUT = ROOT / "src" / "qci" / "corpus"


CORPUS = {
    "unknot": {"v": 1, "crossings": [], "free_loops": [1]},
    "unlink2": {"v": 1, "crossings": [], "free_loops": [1, 1]},
    "trefoil": braid_closure([1, 1, 1], 2),
    "trefoil_mirror": braid_closure([-1, -1, -1], 2),
    "figure_eight": braid_closure([1, -2, 1, -2], 3),
    "hopf_pos": braid_closure([1, 1], 2),
    "hopf_neg": braid_closure([-1, -1], 2),
    "trefoil_r3a": braid_closure([1, 2, 1, 2], 3),
    "trefoil_r3b": braid_closure([2, 1, 2, 2], 3),
    "link_r3a": braid_closure([1, 2, 1], 3),
    "link_r3b": braid_closure([2, 1, 2], 3),
}

EXPECT = {
    # name: (components, regions, crossings, signs-sum)
    "unknot": (1, 2, 0, 0),
    "unlink2": (2, 3, 0, 0),
    "trefoil": (1, 5, 3, 3),
    "trefoil_mirror": (1, 5, 3, -3),
    "figure_eight": (1, 6, 4, 0),
    "hopf_pos": (2, 4, 2, 2),
    "hopf_neg": (2, 4, 2, -2),
    "trefoil_r3a": (1, 6, 4, 4),
    "trefoil_r3b": (1, 6, 4, 4),
    "link_r3a": (2, 5, 3, 3),
    "link_r3b": (2, 5, 3, 3),
}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, data in CORPUS.items():
        d = Diagram([c for c in data.get("crossings", ())],
                    tuple(data.get("free_loops", ())),
                    tuple(data["exterior"]) if "exterior" in data else None)
        compute_indices(d)
        geo = crossing_geometry(d)
        comps, regions, ncross, signsum = EXPECT[name]
        assert d.n_components == comps, (name, d.n_components)
        assert d.n_regions == regions, (name, d.n_regions)
        assert len(d.crossings) == ncross, name
        assert sum(g.sign for g in geo) == signsum, (name, [g.sign for g in geo])
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        print(f"wrote {path.name}: {comps} comps, {regions} regions")


if __name__ == "__main__":
    main()
