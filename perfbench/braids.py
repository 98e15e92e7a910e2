"""Braid closures and an independent count of affine-quandle colorings.

This module does not import qci: the benchmark uses it to build diagrams
and to check the program's coloring counts against linear algebra done
here, by a different method than the program's backtracking search.
"""

import math

import cochains


def affine(n, t):
    """Op table of the affine (Alexander) quandle a |> b = t*a + (1-t)*b."""
    return [[(t * a + (1 - t) * b) % n for b in range(n)] for a in range(n)]


def permutation(word, strands):
    """Strand permutation of a braid word (letters +-1..+-(strands-1))."""
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def components(word, strands):
    """Number of components of the closure: cycles of the permutation."""
    perm = permutation(word, strands)
    seen = set()
    count = 0
    for start in range(strands):
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return count


def closure(word, strands):
    """Diagram JSON of the closed braid, strands running downwards.

    Strand segments between levels that are not cut by a crossing are
    merged into one semi-arc; the strand entering a positive letter from
    the right passes over.
    """
    levels = len(word)
    parent = {(lv, p): (lv, p)
              for lv in range(levels + 1) for p in range(1, strands + 1)}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def join(x, y):
        parent[root(y)] = root(x)

    for lv, letter in enumerate(word):
        for p in range(1, strands + 1):
            if p not in (abs(letter), abs(letter) + 1):
                join((lv, p), (lv + 1, p))
    for p in range(1, strands + 1):
        join((levels, p), (0, p))
    first = {}
    for seg in sorted(parent):
        first.setdefault(root(seg), seg)
    ids = {r: i for i, r in enumerate(sorted(first, key=first.get))}
    sa = {seg: ids[root(seg)] for seg in parent}

    crossings = []
    for lv, letter in enumerate(word):
        i = abs(letter)
        nw, ne = sa[(lv, i)], sa[(lv, i + 1)]
        sw, se = sa[(lv + 1, i)], sa[(lv + 1, i + 1)]
        if letter > 0:
            crossings.append({"rot": [nw, sw, se, ne], "over": 3})
        else:
            crossings.append({"rot": [ne, nw, sw, se], "over": 1})
    return {"v": 1, "crossings": crossings, "exterior": [sa[(0, 1)], "right"]}


def coloring_relations(diagram):
    """(arc count, [(under_in, under_out, over, sign)]) of a diagram JSON.

    Arcs are the classes of semi-arcs joined through over-passes; every
    free loop is one more arc with no relation.
    """
    crossings = diagram.get("crossings", [])
    parent = {}

    def root(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for x in crossings:
        for s in x["rot"]:
            root(s)
        over = x["over"]
        parent[root(x["rot"][(over + 2) % 4])] = root(x["rot"][over])
    arc = {r: i for i, r in enumerate(sorted({root(s) for s in parent}))}
    rels = [(arc[root(x["rot"][0])], arc[root(x["rot"][2])],
             arc[root(x["rot"][x["over"]])], 1 if x["over"] == 3 else -1)
            for x in crossings]
    return len(arc) + len(diagram.get("free_loops", [])), rels


def count_affine_colorings(diagram, n, t):
    """Number of colorings of a diagram JSON by a |> b = t*a + (1-t)*b
    over Z/n, n a prime power.

    Each crossing gives one linear equation; the colorings are the kernel
    of that system, a direct sum of cyclic groups, one per generator.
    """
    arcs, rels = coloring_relations(diagram)
    rows = []
    for ui, uo, ov, sign in rels:
        src, dst = (ui, uo) if sign > 0 else (uo, ui)
        row = {}
        for arc, coef in ((dst, 1), (src, -t), (ov, t - 1)):
            row[arc] = row.get(arc, 0) + coef
        rows.append(row)
    count = 1
    for gen in cochains.kernel_generators(rows, arcs, n):
        count *= n // math.gcd(n, *gen)
    return count
