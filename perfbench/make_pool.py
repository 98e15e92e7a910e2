"""Rebuild search_pool.json, the braid words the `search` workload draws from.

Run from the repository root:  python3 perfbench/make_pool.py

Search time varies a hundredfold between random braid words of one
length, so a workload drawn freely from the seed would measure the seed
more than the program.  This script draws candidate knots with a fixed
seed, times the program's coloring search on each (best of three), and
keeps, for each quandle, the words nearest in time to a few quantiles of
the candidates.  A run then takes one word per stratum, chosen by its
seed, so every seed gives a pass of nearly the same cost while the words
themselves differ.  The words are stored; rerunning this script on other
hardware gives other words.
"""

import json
import math
import pathlib
import random
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import braids  # noqa: E402
from qci.algebra import Quandle  # noqa: E402
from qci.coloring import enumerate_colorings  # noqa: E402
from qci.diagram import parse_diagram  # noqa: E402
from workloads import STRANDS, random_word  # noqa: E402

# name: (n, t, word length)
QUANDLES = {"D5": (5, -1, 44), "D7": (7, -1, 40), "A8_3": (8, 3, 36)}
CANDIDATES = 240
QUANTILES = (0.25, 0.5, 0.75, 0.9)
PER_STRATUM = 12


def search_seconds(word, quandle):
    diagram = parse_diagram(braids.closure(word, STRANDS))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        enumerate_colorings(diagram, quandle)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    rng = random.Random(20141015)
    pool = {}
    for name, (n, t, length) in QUANDLES.items():
        quandle = Quandle(braids.affine(n, t))
        timed = sorted((search_seconds(w, quandle), w) for w in
                       (random_word(rng, length, 1) for _ in range(CANDIDATES)))
        strata = []
        for q in QUANTILES:
            centre = math.log(timed[int(q * (len(timed) - 1))][0])
            near = sorted(timed, key=lambda tw: abs(math.log(tw[0]) - centre))
            chosen = sorted(near[:PER_STRATUM])
            strata.append({"quantile": q,
                           "ms": [round(s * 1e3, 2) for s, _ in chosen],
                           "words": [w for _, w in chosen]})
            for s, w in chosen:
                timed.remove((s, w))
            print(f"{name} q={q}: {chosen[0][0] * 1e3:.1f}-"
                  f"{chosen[-1][0] * 1e3:.1f} ms", flush=True)
        pool[name] = {"n": n, "t": t, "length": length, "strata": strata}
    write_pool(pool)


def write_pool(pool):
    """JSON with one braid word per line."""
    lines = ["{"]
    for qi, (name, entry) in enumerate(sorted(pool.items())):
        lines.append(f'  "{name}": {{"n": {entry["n"]}, "t": {entry["t"]}, '
                     f'"length": {entry["length"]}, "strata": [')
        for si, st in enumerate(entry["strata"]):
            lines.append(f'    {{"quantile": {st["quantile"]}, '
                         f'"ms": {json.dumps(st["ms"])}, "words": [')
            words = [f"      {json.dumps(w)}" for w in st["words"]]
            lines.append(",\n".join(words))
            lines.append("    ]}" + ("," if si < len(entry["strata"]) - 1
                                     else ""))
        lines.append("  ]}" + ("," if qi < len(pool) - 1 else ""))
    lines.append("}")
    (HERE / "search_pool.json").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
