"""Cocycle equations written out from their definitions, without qci.

The benchmark draws its cocycles from the kernels computed here and
checks the program's cohomology output against the same definitions.
Keeping this apart from the program means a seed gives the same inputs
whatever the program's linear algebra does, and a defect in that linear
algebra cannot hide in the inputs.

A degree-k cochain is a table over (m, a_1, .., a_k) in lexicographic
order, m dropped for the trivial module; every value is one residue.
The differential of the spec (l, r) is

    (d phi)(m, a_1..a_{k+1}) = sum_i (-1)^(i+1) [ l phi(m|>a_i, a_1|>a_i,
        .., a_{i-1}|>a_i, a_{i+1}, ..) - r phi(m, a_1, .., ^a_i, ..) ]

and a quandle cochain vanishes where two adjacent arguments agree.
"""

import itertools


def quandle_json(op):
    n = len(op)
    inv = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            inv[op[a][b]][b] = a
    return {"v": 1, "size": n, "op": op, "inv": inv}


def module_json(action):
    return {"v": 1, "kind": "table", "size": len(action), "action": action}


def cochain_json(degree, action, n, values):
    return {"v": 1, "degree": degree,
            "module": None if action is None else module_json(action),
            "coeff": {"moduli": [n]}, "values": [[v] for v in values]}


def orbit_ids(op):
    """Orbit of each element under x -> x |> b, numbered by least member."""
    n = len(op)
    ids = list(range(n))
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                lo = min(ids[a], ids[op[a][b]])
                if ids[a] != lo or ids[op[a][b]] != lo:
                    ids[a] = ids[op[a][b]] = lo
                    changed = True
    firsts = sorted(set(ids))
    return [firsts.index(i) for i in ids]


def _index(q, m, args):
    idx = m
    for a in args:
        idx = idx * q + a
    return idx


def _degenerate_rows(q, carrier, degree):
    rows = []
    for m in range(carrier):
        for args in itertools.product(range(q), repeat=degree):
            if any(x == y for x, y in zip(args, args[1:])):
                rows.append({_index(q, m, args): 1})
    return rows


def differential_rows(op, action, degree, spec):
    """Sparse rows of the spec differential plus the degeneracy rows."""
    q = len(op)
    carrier = len(action) if action is not None else 1
    l_unit, r_unit = spec
    rows = []
    for m in range(carrier):
        for args in itertools.product(range(q), repeat=degree + 1):
            row = {}
            for i, ai in enumerate(args):
                sign = 1 if i % 2 == 0 else -1
                acted = action[m][ai] if action is not None else 0
                left = tuple(op[x][ai] for x in args[:i]) + args[i + 1:]
                for idx, coef in ((_index(q, acted, left), sign * l_unit),
                                  (_index(q, m, args[:i] + args[i + 1:]),
                                   -sign * r_unit)):
                    row[idx] = row.get(idx, 0) + coef
            rows.append(row)
    return rows + _degenerate_rows(q, carrier, degree)


def link_twisted_rows(op, n, alphas):
    """Rows of the degree-2 condition with one unit per orbit:
    a^-1_o(c) phi(a|>c, b|>c) - phi(a, b) - a^-1_o(b) phi(a|>b, c)
    + phi(a, c) + a^-1_o(a) phi(b, c) - phi(b, c) = 0."""
    q = len(op)
    orbit = orbit_ids(op)
    inv = [pow(a, -1, n) for a in alphas]
    rows = []
    for a, b, c in itertools.product(range(q), repeat=3):
        row = {}
        for idx, coef in (((op[a][c], op[b][c]), inv[orbit[c]]),
                          ((a, b), -1),
                          ((op[a][b], c), -inv[orbit[b]]),
                          ((a, c), 1),
                          ((b, c), inv[orbit[a]]),
                          ((b, c), -1)):
            key = _index(q, 0, idx)
            row[key] = row.get(key, 0) + coef
        rows.append(row)
    return rows + _degenerate_rows(q, 1, 2)


def kernel_generators(rows, ncols, n):
    """Generators of {x in (Z/n)^ncols : rows . x = 0}, n a prime power.

    A Smith form over the local ring Z/n: pivot on an entry of least
    p-valuation, clear its column by row operations and its row by column
    operations, tracking the column operations in U.  Each pivot column
    of valuation k contributes p^(e-k) times its U column; every column
    never pivoted contributes its U column.
    """
    p = next(d for d in range(2, n + 1) if n % d == 0)
    work = []
    for row in rows:
        r = {j: v % n for j, v in row.items() if v % n}
        if r:
            work.append(r)
    cols = {j: {j: 1} for j in range(ncols)}  # U, column by column
    gens = []

    def valuation(v):
        k = 0
        while v % p == 0:
            v //= p
            k += 1
        return k

    while work:
        k, i, j = min((valuation(v), i, j) for i, r in enumerate(work)
                      for j, v in r.items())
        pivot = work.pop(i)
        unit_inv = pow(pivot[j] // p ** k, -1, n)
        for r in work:
            if j in r:
                f = (r[j] // p ** k) * unit_inv % n
                for c, v in pivot.items():
                    nv = (r.get(c, 0) - f * v) % n
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
        work = [r for r in work if r]
        uj = cols.pop(j)
        for c, v in pivot.items():
            if c != j:
                f = (v // p ** k) * unit_inv % n
                uc = cols[c]
                for t, w in uj.items():
                    nv = (uc.get(t, 0) - f * w) % n
                    if nv:
                        uc[t] = nv
                    else:
                        uc.pop(t, None)
        scale = n // p ** k
        if scale % n:
            gens.append({t: w * scale % n for t, w in uj.items()})
    gens.extend(cols.values())
    return [[g.get(t, 0) for t in range(ncols)] for g in gens if g]


def random_cocycle(rng, gens, n):
    """Seeded combination of kernel generators, redrawn while all of its
    values are equal (a zero or constant cochain weighs nothing)."""
    for _ in range(200):
        cs = [rng.randrange(n) for _ in gens]
        values = [sum(c * g[i] for c, g in zip(cs, gens)) % n
                  for i in range(len(gens[0]))]
        if len(set(values)) > 1:
            return values
    raise RuntimeError("no cocycle combination with distinct values")


def cocycle_witness(op, action, n, degree, spec, values):
    """Number of the first equation (differential rows, then degeneracy
    rows) that the cochain breaks, or None; n = 0 means integer values."""
    for k, row in enumerate(differential_rows(op, action, degree, spec)):
        total = sum(c * values[i] for i, c in row.items())
        if (total % n) if n else total:
            return k
    return None
