"""Independent brute-force oracles used to freeze expected test values.

Nothing here may import from the code paths it checks: signs, constraints
and sums are recomputed from raw tables / raw crossing records.
"""

from itertools import combinations, permutations, product
from math import gcd, isqrt


def rref_rank_mod_p(rows, p):
    """Rank over the field Z/p by plain elimination on sparse rows.

    Each row becomes a dict column -> nonzero entry.  It is reduced by the
    pivot rows at its leading column until it vanishes or leads at a
    column with no pivot row yet, where it becomes one, scaled to lead 1.
    """
    pivots = {}
    for r in rows:
        row = {j: v % p for j, v in enumerate(r) if v % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[lead]
            for j, v in pivot.items():
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    del row[j]
    return len(pivots)


def brute_span(rows, n, width):
    """Every Z/n combination of the rows, the slow way."""
    seen = {tuple([0] * width)}
    frontier = [tuple([0] * width)]
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((a + b) % n for a, b in zip(v, r))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def is_howell_basis(rows, n, width):
    """Do `rows` have the shape of the Howell basis of their Z/n span?

    Checks that every row has `width` entries in [0, n), that the pivots
    (first nonzero entries) sit in strictly increasing columns, that each
    pivot divides n and that every entry above a pivot is smaller than it.
    When n^width is small it also checks the strong echelon property: a
    span vector whose first k entries vanish is a combination of the rows
    pivoting at column k or later.
    """
    pivots = []
    for row in rows:
        if len(row) != width or any(not 0 <= v < n for v in row):
            return False
        nonzero = [j for j, v in enumerate(row) if v]
        if not nonzero or (pivots and nonzero[0] <= pivots[-1]):
            return False
        pivots.append(nonzero[0])
    for i, (j, row) in enumerate(zip(pivots, rows)):
        if n % row[j] or any(above[j] >= row[j] for above in rows[:i]):
            return False
    if n ** width > 4096:
        return True
    span = brute_span(rows, n, width)
    for k in range(width + 1):
        suffix = brute_span([r for j, r in zip(pivots, rows) if j >= k], n,
                            width)
        if any(not any(v[:k]) and v not in suffix for v in span):
            return False
    return True


def brute_invariant_factors(ker, im, n, dim):
    """Invariant factors (> 1) of span(ker)/span(im) inside (Z/n)^dim.

    Both spans are enumerated as sets.  For the quotient G and each prime
    power p^i, |G[p^i]| (elements killed by p^i) is counted from the
    spans; the number of cyclic factors of p-exponent >= i is
    log_p(|G[p^i]| / |G[p^(i-1)]|), and the chain is assembled from those.
    """
    K, M = brute_span(ker, n, dim), brute_span(im, n, dim)
    if not M <= K:
        raise ValueError("im does not lie in the span of ker")

    def killed_by(k):   # |G[k]|: cosets x + M with k*x in M
        return sum(tuple(k * a % n for a in x) in M for x in K) // len(M)

    factors = {}          # j -> product of p^(exponent of j-th factor)
    for p in range(2, n + 1):
        if n % p or any(p % d == 0 for d in range(2, p)):
            continue
        prev, i = 1, 1
        while True:
            cur = killed_by(p ** i)
            count = 0
            while prev * p ** (count + 1) <= cur:
                count += 1
            if count == 0:
                break
            for j in range(count):
                factors[j] = factors.get(j, 1) * p
            prev, i = cur, i + 1
    return sorted(factors.values())


def leibniz_determinant(m):
    """Determinant of a square integer matrix by permutation expansion,
    each term signed by the parity of its inversions."""
    k = len(m)
    total = 0
    for perm in permutations(range(k)):
        term = -1 if sum(perm[i] > perm[j] for i in range(k)
                         for j in range(i + 1, k)) % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def smith_by_minors(rows, n=0):
    """Smith diagonal from determinantal divisors (small matrices only).

    Over Z, d_k = D_k / D_(k-1), where D_k is the gcd of all k x k minors,
    for every k with D_k nonzero.  Over Z/n (n > 0) the Z form of the
    integer entries reduces to gcd(d_k, n) on the diagonal, and the entries
    equal to n, zero in Z/n, are dropped.
    """
    width = max(map(len, rows), default=0)
    rows = [list(r) + [0] * (width - len(r)) for r in rows]
    diag, prev = [], 1
    for k in range(1, min(len(rows), width) + 1):
        dk = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(width), k):
                dk = gcd(dk, leibniz_determinant(
                    [[rows[i][j] for j in cs] for i in rs]))
        if not dk:
            break
        diag.append(dk // prev)
        prev = dk
    if n:
        diag = [g for g in (gcd(d, n) for d in diag) if g != n]
    return diag


def classical_condition_holds(op, vals, n, modulus):
    """Direct check of the classical degree-2 conditions on a flat table.

    vals[a*n+b] is an int; the two conditions are
      w(a,b) + w(a|>b, c) == w(a|>c, b|>c) + w(a, c)   and   w(a,a) == 0.
    """
    w = lambda a, b: vals[a * n + b] % modulus
    for a in range(n):
        if w(a, a):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = w(a, b) + w(op[a][b], c)
                rhs = w(op[a][c], op[b][c]) + w(a, c)
                if (lhs - rhs) % modulus:
                    return False
    return True


def positive_condition_holds(op, vals, n, modulus):
    """w(a,c) + w(a|>b, c) == w(a|>c, b|>c) + w(a,b) + 2 w(b,c), w(a,a)=0."""
    w = lambda a, b: vals[a * n + b] % modulus
    for a in range(n):
        if w(a, a):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = w(a, c) + w(op[a][b], c)
                rhs = w(op[a][c], op[b][c]) + w(a, b) + 2 * w(b, c)
                if (lhs - rhs) % modulus:
                    return False
    return True


def twisted_condition_holds(op, vals, n, modulus, alpha):
    """w(a|>c,b|>c) - alpha w(a,b) - w(a|>b,c) + alpha w(a,c)
    + (1-alpha) w(b,c) == 0 and w(a,a) == 0."""
    w = lambda a, b: vals[a * n + b] % modulus
    for a in range(n):
        if w(a, a):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                total = (w(op[a][c], op[b][c]) - alpha * w(a, b)
                         - w(op[a][b], c) + alpha * w(a, c)
                         + (1 - alpha) * w(b, c))
                if total % modulus:
                    return False
    return True


def pointwise_differential(at, act, op, left, right, moduli, m, args):
    """(d phi)(m, a_1..a_{k+1}) from the definition, one point at a time:

        sum_i (-1)^(i+1) [left[a_i] phi(m.a_i, a_1|>a_i, .., a_{i-1}|>a_i,
                                        a_{i+1}, ..)
                          - right phi(m, a_1, .., a_{i-1}, a_{i+1}, ..)]

    at(m, args) gives phi's value as a tuple of ints, act(m, a) the module
    action (lambda m, a: m for a trivial module) and op(a, b) = a |> b.
    left[a] and right are integer matrices acting on value tuples; the
    result is reduced by each coordinate's modulus (0 leaves Z alone).
    """
    d = len(moduli)
    total = [0] * d
    for i in range(1, len(args) + 1):
        sign = 1 if i % 2 else -1
        ai = args[i - 1]
        pulled = tuple(op(x, ai) for x in args[:i - 1]) + tuple(args[i:])
        for mat, value in ((left[ai], at(act(m, ai), pulled)),
                           ([[-x for x in r] for r in right],
                            at(m, tuple(args[:i - 1]) + tuple(args[i:])))):
            for c in range(d):
                total[c] += sign * sum(mat[c][j] * value[j] for j in range(d))
    return tuple(x % n if n else x for x, n in zip(total, moduli))


def differential_rows(op, left, right, d, degree, module_size=1,
                      act=lambda m, a: m):
    """The differential C^degree -> C^(degree+1) as an integer matrix, from
    the formula of pointwise_differential with coefficients in place of
    values.  Columns are the flattened cochain table: (m, a_1..a_degree)
    in row-major order, then the d value coordinates.  Each point
    (m, a_1..a_{degree+1}) of the next degree gives d rows, one per output
    coordinate.  Entries are not reduced.
    """
    n = len(op)
    width = module_size * n ** degree * d

    def column(m, args, j):
        for a in args:
            m = m * n + a
        return m * d + j

    rows = []
    for m in range(module_size):
        for args in product(range(n), repeat=degree + 1):
            block = [[0] * width for _ in range(d)]
            for i in range(1, degree + 2):
                sign = 1 if i % 2 else -1
                ai = args[i - 1]
                pulled = tuple(op[x][ai] for x in args[:i - 1]) + args[i:]
                dropped = args[:i - 1] + args[i:]
                for c in range(d):
                    for j in range(d):
                        block[c][column(act(m, ai), pulled, j)] += \
                            sign * left[ai][c][j]
                        block[c][column(m, dropped, j)] -= sign * right[c][j]
            rows.extend(block)
    return rows


def degenerate_rows(n, d, degree, module_size=1):
    """Unit rows on the cochain values at degenerate argument tuples (two
    equal neighbours), in the column layout of differential_rows."""
    width = module_size * n ** degree * d
    rows = []
    for i, (m, args) in enumerate(product(range(module_size),
                                          product(range(n), repeat=degree))):
        if any(x == y for x, y in zip(args, args[1:])):
            for j in range(d):
                rows.append([int(k == i * d + j) for k in range(width)])
    return rows


def first_failure(at, act, op, left, right, moduli, n, module_size, degree,
                  quandle_flag):
    """The first violated cocycle condition in table order, or None.

    With quandle_flag the degenerate entries (two equal neighbouring
    arguments) are scanned first, then every point of degree + 1.  Returns
    (axiom, (m, a_1, ...)) with the axiom names the program reports.
    """
    if quandle_flag:
        for m in range(module_size):
            for args in product(range(n), repeat=degree):
                if any(x == y for x, y in zip(args, args[1:])) and \
                        any(at(m, args)):
                    return "degenerate-vanishing", (m,) + args
    for m in range(module_size):
        for args in product(range(n), repeat=degree + 1):
            if any(pointwise_differential(at, act, op, left, right, moduli,
                                          m, args)):
                return "cocycle", (m,) + args
    return None


def enumerate_classical_cocycles(op, n, modulus):
    """All flat value tables satisfying the classical conditions (tiny n)."""
    out = []
    for vals in product(range(modulus), repeat=n * n):
        if classical_condition_holds(op, vals, n, modulus):
            out.append(vals)
    return out


# --- raw-diagram oracles ---------------------------------------------------

def raw_crossing_sign(crossing):
    """Sign read straight off the record: over entering at slot 3 is +."""
    return 1 if crossing["over"] == 3 else -1


def brute_force_colorings(crossing_records, arc_of_semiarc, n_arcs, op, inv):
    """All arc colorings satisfying the under-strand relations, by full
    enumeration over every assignment (oracle for the backtracking search).

    crossing_records: list of {"rot": [...], "over": 1|3} dicts;
    arc_of_semiarc: semiarc id -> arc id.
    """
    n = len(op)
    good = []
    for colors in product(range(n), repeat=n_arcs):
        ok = True
        for rec in crossing_records:
            rot = rec["rot"]
            a_in = colors[arc_of_semiarc[rot[0]]]
            a_out = colors[arc_of_semiarc[rot[2]]]
            b = colors[arc_of_semiarc[rot[rec["over"]]]]
            if raw_crossing_sign(rec) > 0:
                if a_out != op[a_in][b]:
                    ok = False
                    break
            else:
                if a_out != inv[a_in][b]:
                    ok = False
                    break
        if ok:
            good.append(colors)
    return good


def arc_map_from_raw(records):
    """(semi-arc -> arc id, arc count) straight from raw records: a
    union-find glues the semi-arcs that enter and leave each over pass,
    and arcs are numbered by their smallest semi-arc."""
    semiarcs = sorted({sa for rec in records for sa in rec["rot"]})
    parent = {sa: sa for sa in semiarcs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rec in records:
        over_in = rec["rot"][rec["over"]]
        over_out = rec["rot"][(rec["over"] + 2) % 4]
        a, b = find(over_in), find(over_out)
        if a != b:
            parent[a] = b
    classes = {}
    for sa in semiarcs:
        classes.setdefault(find(sa), []).append(sa)
    ordered = sorted((sorted(c) for c in classes.values()), key=lambda c: c[0])
    arc_of = {}
    for i, cls in enumerate(ordered):
        for sa in cls:
            arc_of[sa] = i
    return arc_of, len(ordered)


def raw_crossing_slots(rec):
    """(a_semiarc, b_semiarc, sign) read straight off a crossing record:
    b is the incoming over strand, a the under end next to the source
    quadrant (incoming for positive, outgoing for negative)."""
    rot = rec["rot"]
    sign = raw_crossing_sign(rec)
    a_sa = rot[0] if sign > 0 else rot[2]
    return a_sa, rot[rec["over"]], sign


def oracle_weight_sum(records, arc_of, colors, omega_at, modulus_add,
                      zero, neg, twist=None, regions=None):
    """Signed crossing sum recomputed from raw data.

    omega_at(acolor, bcolor) -> group element; for the shadow flavors,
    ``regions`` lists each crossing's source-region color by crossing
    index and omega_at(region color, acolor, bcolor) is called instead.
    twist, when given, maps (term, crossing_index) -> twisted term.
    """
    total = zero
    for ci, rec in enumerate(records):
        a_sa, b_sa, sign = raw_crossing_slots(rec)
        shadow = () if regions is None else (regions[ci],)
        term = omega_at(*shadow, colors[arc_of[a_sa]], colors[arc_of[b_sa]])
        if twist is not None:
            term = twist(term, ci)
        total = modulus_add(total, term if sign > 0 else neg(term))
    return total


def raw_orbit_ids(op):
    """Orbit id of every color under the right action a -> a |> b, the
    orbits numbered in the order of their smallest colors."""
    n = len(op)
    ids = [None] * n
    count = 0
    for start in range(n):
        if ids[start] is not None:
            continue
        ids[start] = count
        stack = [start]
        while stack:
            a = stack.pop()
            for c in op[a]:
                if ids[c] is None:
                    ids[c] = count
                    stack.append(c)
        count += 1
    return ids


def small_quandles(n):
    """Every quandle op table on 0..n-1 (op[a][b] = a |> b), found column
    by column with backtracking.  Column b, the map a -> a |> b, is a
    permutation fixing b (a bijection, and b |> b = b).  Right
    self-distributivity (x |> y) |> z = (x |> z) |> (y |> z) is checked
    for each pair (y, z) at the first column by which y, z and y |> z are
    all chosen."""
    choices = [[p for p in permutations(range(n)) if p[b] == b]
               for b in range(n)]
    cols, found = [], []

    def fits(b):
        for z in range(b + 1):
            for y in range(b + 1):
                w = cols[z][y]
                if max(y, z, w) == b and any(
                        cols[z][cols[y][x]] != cols[w][cols[z][x]]
                        for x in range(n)):
                    return False
        return True

    def extend(b):
        if b == n:
            found.append(tuple(tuple(c[a] for c in cols) for a in range(n)))
            return
        for p in choices[b]:
            cols.append(p)
            if fits(b):
                extend(b + 1)
            cols.pop()

    extend(0)
    return found


def canonical_table(op):
    """The least relabelling of an op table: two quandles are isomorphic
    exactly when their canonical tables are equal."""
    n = len(op)
    best = None
    for pi in permutations(range(n)):
        table = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[pi[a]][pi[b]] = pi[op[a][b]]
        table = tuple(map(tuple, table))
        if best is None or table < best:
            best = table
    return best


def raw_face_colors(records, exterior, exterior_color, step):
    """The color of the face arriving at each dart (crossing, slot), from
    the raw records alone, with colors in Z^k: crossing a semi-arc along
    its normal, right face to left face, adds the integer vector
    step(semi-arc).  See raw_face_action_colors."""
    def forward(color, sa):
        return tuple(x + y for x, y in zip(color, step(sa)))

    def backward(color, sa):
        return tuple(x - y for x, y in zip(color, step(sa)))

    return raw_face_action_colors(records, exterior, tuple(exterior_color),
                                  forward, backward)


def raw_face_action_colors(records, exterior, exterior_color, forward,
                           backward):
    """The color of the face arriving at each dart (crossing, slot), from
    the raw records alone.

    Faces are traced on the darts: arriving at slot i, the walk leaves by
    slot i - 1, keeping the face on its left.  A semi-arc arrives at its
    head end (slot 0 or the over slot) with its left face on the left, and
    at its tail end with its right face there.  Crossing a semi-arc along
    its normal, right face to left face, maps a color m to
    forward(m, semi-arc); backward(m, semi-arc) is its inverse.  The face
    on the given side of the semi-arc ``exterior = [semi-arc, "left" |
    "right"]`` has color exterior_color.
    """
    if not records:
        return {}
    ends = {}
    for ci, rec in enumerate(records):
        for slot, sa in enumerate(rec["rot"]):
            ends.setdefault(sa, []).append((ci, slot))
    face = {}
    for ci in range(len(records)):
        for slot in range(4):
            dart = (ci, slot)
            while dart not in face:
                face[dart] = (ci, slot)
                leave = (dart[0], (dart[1] - 1) % 4)
                sa = records[leave[0]]["rot"][leave[1]]
                dart = next(e for e in ends[sa] if e != leave)
    steps = []     # (right face, left face, semi-arc) per semi-arc
    for sa, pair in ends.items():
        head = next(e for e in pair if e[1] in (0, records[e[0]]["over"]))
        tail = next(e for e in pair if e != head)
        steps.append((face[tail], face[head], sa))
    sa, side = exterior
    outside = next(e for e in ends[sa]
                   if (e[1] in (0, records[e[0]]["over"])) == (side == "left"))
    color = {face[outside]: exterior_color}
    grew = True
    while grew:
        grew = False
        for right, left, sa in steps:
            if right in color and left not in color:
                color[left] = forward(color[right], sa)
                grew = True
            elif left in color and right not in color:
                color[right] = backward(color[left], sa)
                grew = True
    for right, left, sa in steps:
        if color[left] != forward(color[right], sa):
            raise ValueError("region colors are inconsistent")
    return {dart: color[f] for dart, f in face.items()}


def raw_source_colors(records, exterior, exterior_color, step):
    """Each crossing's source-region color in the face coloring of
    raw_face_colors (see raw_sources)."""
    return raw_sources(records, raw_face_colors(records, exterior,
                                                exterior_color, step))


def raw_sources(records, face_colors):
    """Each crossing's source-region color in a face coloring by dart.
    The source region of a crossing is its sector between slots 0 and 1
    when positive (the face arriving at slot 1) and between slots 1 and 2
    when negative (arriving at slot 2).
    """
    return [face_colors[(ci, 1 if rec["over"] == 3 else 2)]
            for ci, rec in enumerate(records)]


def raw_positive_signs(records, exterior):
    """Checkerboard sign per crossing from the raw records alone: the faces
    2-colored with the exterior white (each semi-arc flips the parity),
    and + where the sector between slots 0 and 1 is white."""
    colors = raw_face_colors(records, exterior, (0,), lambda sa: (1,))
    return [1 if colors[(ci, 1)][0] % 2 == 0 else -1
            for ci in range(len(records))]


def symbolic_shadow_weight(records, exterior, arc_of, colors, table, modulus,
                           units, exterior_color, orbit_of=None):
    """Shadow weight of the transport m -> prod_O u_O^(-m_O) w(a, b) of a
    Z/modulus valued 2-cochain w, table[a * n + b] = w(a, b), with region
    colors in Z (one unit) or in Z^orbits (orbit_of[color] = orbit id).

    Crossing a strand adds 1 to the region color's entry for the orbit of
    the strand's color; the exterior region has exterior_color (an int or
    a tuple).  Returns the weight as an int modulo ``modulus``.
    """
    if not isinstance(exterior_color, tuple):
        exterior_color = (exterior_color,)

    def step(sa):
        o = 0 if orbit_of is None else orbit_of[colors[arc_of[sa]]]
        return tuple(int(i == o) for i in range(len(units)))

    regions = raw_source_colors(records, exterior, exterior_color, step)
    n = isqrt(len(table))

    def at(m, a, b):
        v = table[a * n + b]
        for u, e in zip(units, m):
            v *= pow(u, -e, modulus)
        return v % modulus

    return oracle_weight_sum(records, arc_of, colors, at,
                             lambda x, y: (x + y) % modulus, 0,
                             lambda x: -x % modulus, regions=regions)


def braid_closure(word, strands):
    """Diagram JSON of the closure of a braid word (letters +-1..+-(k-1)).

    Strands run downward, the strand entering a positive letter from the
    right passes over, and the closure joins bottom back to top.  Each
    semi-arc is a class of (level, position) segments joined where no
    letter acts and from the bottom back to the top; classes are numbered
    by their least segment.  The exterior lies right of the semi-arc at
    the top of strand 1.
    """
    levels = len(word)
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for lv in range(levels + 1):
        for p in range(1, strands + 1):
            parent[(lv, p)] = (lv, p)
    for lv, letter in enumerate(word):
        i = abs(letter)
        if not 1 <= i < strands:
            raise ValueError(f"letter {letter} out of range")
        for p in range(1, strands + 1):
            if p not in (i, i + 1):
                union((lv, p), (lv + 1, p))
    for p in range(1, strands + 1):
        union((levels, p), (0, p))

    classes = {}
    for lv in range(levels + 1):
        for p in range(1, strands + 1):
            classes.setdefault(find((lv, p)), set()).add((lv, p))
    reps = sorted(classes, key=lambda r: min(classes[r]))
    sa_id = {}
    for idx, rep in enumerate(reps):
        for seg in classes[rep]:
            sa_id[seg] = idx

    crossings = []
    for lv, letter in enumerate(word):
        i = abs(letter)
        nw, ne = sa_id[(lv, i)], sa_id[(lv, i + 1)]
        sw, se = sa_id[(lv + 1, i)], sa_id[(lv + 1, i + 1)]
        if letter > 0:
            crossings.append({"rot": [nw, sw, se, ne], "over": 3})
        else:
            crossings.append({"rot": [ne, nw, sw, se], "over": 1})
    return {"v": 1, "crossings": crossings,
            "exterior": [sa_id[(0, 1)], "right"]}


def braid_push_colorings(word, strands, op, inv):
    """Colorings of a braid closure, found by pushing colors down the braid.

    Strands run downwards; letter +-i crosses positions i and i+1 (1-based)
    and the strand entering from the right passes over at a positive
    letter, from the left at a negative one.  So a positive letter sends
    the colors (x, y) to (y, x |> y) and a negative one to (y |>^-1 x, x).
    Every choice of top colors is pushed through the word and kept when
    the bottom colors equal the top ones.  A coloring is returned as the
    tuple over the letters of (under-in, over, under-out) colors.
    """
    found = []
    for top in product(range(len(op)), repeat=strands):
        row = list(top)
        seen = []
        for letter in word:
            i = abs(letter) - 1
            x, y = row[i], row[i + 1]
            if letter > 0:
                row[i], row[i + 1] = y, op[x][y]
                seen.append((x, y, op[x][y]))
            else:
                row[i], row[i + 1] = inv[y][x], x
                seen.append((y, x, inv[y][x]))
        if tuple(row) == top:
            found.append(tuple(seen))
    return found
