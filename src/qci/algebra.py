"""Finite quandles, quandle modules, orbits, and coefficient groups.

Elements of every carrier are the integers 0..n-1 and tables are dense
row-major tuples, so ``op[a][b]`` is a right-translated by b.  Every module
is a finite table module.  Region colors over the integers (m |> a = m + 1)
or over the orbit-counting group (m |> a = m + e_O(a)) enter only through
cochains that are periodic in m, so they are counted modulo a period:
cyclic_shadow_module and orbit_shadow_module.

A quandle's op table and a module's action table are both action tables
on their own rows, and both are built by _action_tables: validated once,
with the column inverse given or derived.  Both are refused where they
are built unless they pass the one self-distributivity check,
_self_distributivity.  A unit scalar is its integer matrix; applying it
is that matrix times the vector, reduced.
"""

from itertools import product
from math import gcd


class StructureError(ValueError):
    """Malformed input: wrong shape, out-of-range entry, not a group, ..."""


class UnsupportedCarrierError(StructureError):
    """Operation needs a finite carrier: a free Z summand is not one."""


def is_integer(x):
    """An int that is not a bool, so that JSON true never reads as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_version(data):
    """Refuse a JSON record whose schema version ``v`` is not the integer 1."""
    v = data.get("v", 1)
    if not is_integer(v) or v != 1:
        raise StructureError("unsupported schema version")


class Frozen:
    """Base of the immutable value classes.  A subclass's __init__ stores
    each field once through __dict__; instances refuse assignment, and
    compare and hash by _key: all their fields, unless a subclass names
    fewer."""

    def _key(self):
        return tuple(vars(self).values())

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class AxiomReport(Frozen):
    """Outcome of an axiom check: pass, or the first violation found."""

    def __init__(self, passed, axiom="", witness=()):
        self.__dict__.update(passed=passed, axiom=axiom, witness=witness)

    def __bool__(self):
        return self.passed


def _table(table, nrows, ncols, what):
    """A table of nrows x ncols integers in 0..nrows-1 as a tuple of row
    tuples; malformed input raises, shape and types before ranges."""
    if not isinstance(table, (list, tuple)) or len(table) != nrows:
        raise StructureError(f"{what}: expected {nrows} rows")
    for row in table:
        if not isinstance(row, (list, tuple)) or len(row) != ncols:
            raise StructureError(f"{what}: expected {ncols} columns per row")
        for v in row:
            if not is_integer(v):
                raise StructureError(f"{what}: non-integer entry {v!r}")
    for row in table:
        for v in row:
            if not 0 <= v < nrows:
                raise StructureError(
                    f"{what}: entry {v} out of range 0..{nrows - 1}")
    return tuple(tuple(row) for row in table)


def _action_tables(table, inverse, ncols, names):
    """An action table on its own rows 0..len(table)-1, validated once,
    with its column inverse: the given one, validated as a table only, or
    the one derived from the columns.  Returns (table, inverse, clash);
    where a column is not a bijection the inverse is None and clash is
    (a1, a2, b) with table[a1][b] == table[a2][b]."""
    rows = len(table)
    if rows == 0:
        raise StructureError(f"{names[0]}: empty table")
    table = _table(table, rows, ncols, names[0])
    if inverse is not None:
        return table, _table(inverse, rows, ncols, names[1]), None
    inv = [[None] * ncols for _ in range(rows)]
    for b in range(ncols):
        seen = {}
        for a in range(rows):
            v = table[a][b]
            if v in seen:
                return table, None, (seen[v], a, b)
            seen[v] = a
            inv[v][b] = a
    return table, tuple(map(tuple, inv)), None


def check_quandle(op, inv=None):
    """Validate quandle axioms for dense tables; malformed input raises.

    Returns a passing report or the first violated axiom with a witness:
    ``(a,)`` for idempotence, ``(a, b)`` for invertibility, ``(a, b, c)``
    for self-distributivity.
    """
    return _quandle_axioms(*_action_tables(op, inv, len(op), ("op", "inv")))


def _quandle_axioms(op, inv, clash=None):
    """check_quandle on validated tables; clash as from _action_tables."""
    n = len(op)
    for a in range(n):
        if op[a][a] != a:
            return AxiomReport(False, "idempotence", (a,))
    if clash is not None:
        return AxiomReport(False, "invertibility", (clash[0], clash[2]))
    for a in range(n):
        for b in range(n):
            if inv[op[a][b]][b] != a or op[inv[a][b]][b] != a:
                return AxiomReport(False, "invertibility", (a, b))
    return _self_distributivity(op, op)


def _self_distributivity(table, op):
    """The first (x, b, c) with t[t[x][b]][c] != t[t[x][c]][op[b][c]], t
    the table, as a failing report: the quandle axiom with t = op, the
    module axiom with t a module's action over the quandle op."""
    n = len(op)
    for x, row in enumerate(table):
        for b, ob in enumerate(op):
            xb = table[row[b]]
            for c in range(n):
                if xb[c] != table[row[c]][ob[c]]:
                    return AxiomReport(False, "self-distributivity", (x, b, c))
    return AxiomReport(True)


class Quandle(Frozen):
    """Finite quandle on 0..n-1 with dense op / inverse-op tables.  Two
    quandles are equal when their op tables are, whatever their labels.

    Its orbits are found once, with it (_closure_orbits): ``orbit_map``
    holds the orbits of Inn(Q), and ``moves[x]`` is a composite g_x of
    right translations, each an automorphism, that takes the least color
    of x's orbit to x."""

    def __init__(self, op, inv=None, labels=None):
        op, inv, clash = _action_tables(op, inv, len(op), ("op", "inv"))
        if clash is not None:
            raise StructureError(
                f"op column {clash[2]} is not a bijection; cannot derive inverse")
        report = _quandle_axioms(op, inv)
        if not report:
            raise StructureError(
                f"not a quandle: {report.axiom} fails at {report.witness}")
        orbit_map, moves = _closure_orbits(op)
        self.__dict__.update(op=op, inv=inv, n=len(op),
                             labels=tuple(labels) if labels else None,
                             orbit_map=orbit_map, moves=moves)

    def _key(self):
        return self.op

    def apply(self, a, b):
        return self.op[a][b]

    def unapply(self, a, b):
        return self.inv[a][b]

    def __repr__(self):
        return f"Quandle(n={self.n})"

    def to_json(self):
        data = {"v": 1, "size": self.n,
                "op": [list(r) for r in self.op],
                "inv": [list(r) for r in self.inv]}
        if self.labels:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_json(cls, data):
        op, inv = quandle_tables(data)
        labels = data.get("labels")
        if labels is not None and not (isinstance(labels, list)
                                       and len(labels) == len(op)):
            raise StructureError(f"labels must be a list of {len(op)} "
                                 f"entries, not {labels!r}")
        return cls(op, inv, labels)


def quandle_tables(data):
    """The op and inv tables of a quandle record, its envelope checked."""
    if not isinstance(data, dict) or "op" not in data:
        raise StructureError("quandle json needs an 'op' table")
    check_version(data)
    op = data["op"]
    if not isinstance(op, list) or not all(isinstance(r, list) for r in op):
        raise StructureError(f"op must be a list of lists, not {op!r}")
    if "size" in data and (not is_integer(data["size"])
                           or data["size"] != len(op)):
        raise StructureError("size field disagrees with op table")
    return op, data.get("inv")


def make_trivial(n):
    """Trivial quandle: a |> b = a."""
    return Quandle([[a] * n for a in range(n)])


def make_dihedral(n):
    """Dihedral quandle on Z/n: a |> b = 2b - a."""
    if n < 1:
        raise StructureError("dihedral size must be >= 1")
    op = [[(2 * b - a) % n for b in range(n)] for a in range(n)]
    return Quandle(op)


def make_alexander(n, t):
    """Alexander quandle on Z/n: a |> b = t*a + (1-t)*b, t a unit mod n."""
    if gcd(t % n, n) != 1:
        raise StructureError("t must be a unit mod n")
    op = [[(t * a + (1 - t) * b) % n for b in range(n)] for a in range(n)]
    return Quandle(op)


def _group_inverses(mul):
    n = len(mul)
    mul = _table(mul, n, n, "group")
    e = None
    for cand in range(n):
        if all(mul[cand][a] == a and mul[a][cand] == a for a in range(n)):
            e = cand
            break
    if e is None:
        raise StructureError("group: no identity element")
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    raise StructureError(f"group: not associative at {(a, b, c)}")
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if mul[a][b] == e and mul[b][a] == e:
                inv[a] = b
                break
        if inv[a] is None:
            raise StructureError(f"group: element {a} has no inverse")
    return e, inv


def make_conjugation(mul):
    """Conjugation quandle of a finite group table: a |> b = b^-1 a b."""
    n = len(mul)
    if n == 0:
        raise StructureError("group: empty table")
    _, inv = _group_inverses(mul)
    op = [[mul[mul[inv[b]][a]][b] for b in range(n)] for a in range(n)]
    return Quandle(op)


def _module_axioms(quandle, action, inv_action):
    """A module's validated action and inverse tables over quandle, a given
    inverse checked against the action, and the module axiom's report."""
    action, inv, clash = _action_tables(action, inv_action, quandle.n,
                                        ("action", "inv_action"))
    if clash is not None:
        raise StructureError(f"action column {clash[2]} is not a bijection")
    if inv_action is not None:
        for m, row in enumerate(action):
            for a, x in enumerate(row):
                if inv[x][a] != m:
                    raise StructureError("inv_action is not the inverse "
                                         f"of action at (m, a) = {(m, a)}")
    return action, inv, _self_distributivity(action, quandle.op)


def check_module(quandle, action, inv_action=None):
    """Validate the module axiom for a dense action table over quandle;
    malformed input raises.  Returns a passing report or the first
    self-distributivity failure with its witness ``(m, b, c)``."""
    return _module_axioms(quandle, action, inv_action)[2]


class TableModule(Frozen):
    """Finite quandle module: a dense size x n action table on 0..size-1
    that satisfies the module axiom."""

    def __init__(self, quandle, action, inv_action=None):
        action, inv, report = _module_axioms(quandle, action, inv_action)
        if not report:
            raise StructureError(
                f"not a module: {report.axiom} fails at {report.witness}")
        self.__dict__.update(quandle=quandle, action=action, inv_action=inv,
                             size=len(action))

    def act(self, m, a):
        return self.action[m][a]

    def unact(self, m, a):
        return self.inv_action[m][a]

    def elements(self):
        return range(self.size)

    def describe(self):
        return {"v": 1, "kind": "table", "size": self.size,
                "action": [list(r) for r in self.action]}


def quandle_as_module(q):
    """The quandle acting on itself by its own operation."""
    return TableModule(q, q.op, q.inv)


def trivial_module(q):
    """One-point module: the shadow data of plain arc colorings."""
    return TableModule(q, [[0] * q.n])


def orbit_shadow_module(q, orders):
    """prod_O Z/k_O with m |> a = m + e_o(a): region colors counting, per
    orbit O of the colors crossed, the strands crossed modulo k_O =
    orders[O].  Elements are the digit tuples in itertools.product order
    (the first orbit most significant).  One order puts every color in
    orbit 0, which makes it cyclic_shadow_module(q, k); otherwise there is
    one order per orbit of orbits(q)."""
    if len(orders) == 1:
        orbit_of = [0] * q.n
    else:
        om = orbits(q)
        if len(orders) != om.count:
            raise StructureError("need one shadow order or one per quandle "
                                 f"orbit ({om.count}), not {len(orders)}")
        orbit_of = om.index
    if any(k < 1 for k in orders):
        raise StructureError("shadow orders must be >= 1")
    digits = list(product(*(range(k) for k in orders)))
    position = {m: i for i, m in enumerate(digits)}

    def bump(m, o):
        return position[m[:o] + ((m[o] + 1) % orders[o],) + m[o + 1:]]

    return TableModule(q, [[bump(m, orbit_of[a]) for a in range(q.n)]
                           for m in digits])


def cyclic_shadow_module(q, k):
    """Z/k with m |> a = m + 1: index colors counted modulo k."""
    if k < 1:
        raise StructureError("cyclic shadow modulus must be >= 1")
    return orbit_shadow_module(q, (k,))


class OrbitMap(Frozen):
    """Partition of a carrier into orbits of the right action: orbits is a
    tuple of sorted orbits, and count and index (element -> orbit id) are
    read off it."""
    def __init__(self, orbits):
        index = {x: i for i, orbit in enumerate(orbits) for x in orbit}
        self.__dict__.update(count=len(orbits), orbits=orbits, index=index)

    def _key(self):
        return self.orbits

    def of(self, x):
        return self.index[x]


def _closure_orbits(table):
    """Orbits of x -> table[x][b], numbered by their least element, and
    per element x a map g_x, as a tuple over the carrier, composed of
    columns and taking the least element of x's orbit to x.  Each column
    of a quandle or module table is a bijection, so the colors reached
    from x are its whole orbit; the column b that first reaches z from y
    gives g_z = (v -> table[v][b]) after g_y."""
    moves, found = [None] * len(table), []
    for x in range(len(table)):
        if moves[x] is None:
            moves[x], orbit = tuple(range(len(table))), [x]
            for y in orbit:
                g = moves[y]
                for b, z in enumerate(table[y]):
                    if moves[z] is None:
                        moves[z] = tuple([table[v][b] for v in g])
                        orbit.append(z)
            found.append(tuple(sorted(orbit)))
    return OrbitMap(tuple(found)), tuple(moves)


def orbits(obj):
    """Orbit decomposition of a quandle or of a table module's carrier."""
    if isinstance(obj, Quandle):
        return obj.orbit_map
    if isinstance(obj, TableModule):
        return _closure_orbits(obj.action)[0]
    raise StructureError(f"cannot take orbits of {type(obj).__name__}")


def module_from_json(data, quandle):
    """Rebuild a module from its describe()/JSON form."""
    return TableModule(quandle, *module_tables(data, quandle))


def module_tables(data, quandle):
    """The action and inv_action tables of a module record over quandle,
    its envelope checked."""
    if not isinstance(data, dict) or "kind" not in data:
        raise StructureError("module json needs a 'kind'")
    check_version(data)
    kind = data["kind"]
    if kind == "table":
        if not isinstance(data.get("action"), list):
            raise StructureError("table module json needs an 'action' table")
        size, rows = data.get("size"), len(data["action"])
        if "size" in data and (not is_integer(size) or size != rows):
            raise StructureError(f"table module json 'size' {size!r} "
                                 f"disagrees with its {rows}-row action table")
        return data["action"], data.get("inv_action")
    if kind == "cyclic_shadow":
        k = data.get("modulus")
        if not is_integer(k):
            raise StructureError(
                "cyclic_shadow module json needs an integer 'modulus'")
        module = cyclic_shadow_module(quandle, k)
        return module.action, module.inv_action
    raise StructureError(f"unknown module kind {kind!r}")


class CoeffGroup(Frozen):
    """Finite abelian group Z/n1 x ... x Z/nd; modulus 0 marks a free Z
    summand (allowed for cohomology ranks, rejected by twisted weights)."""

    def __init__(self, moduli):
        moduli = tuple(moduli)
        if not moduli:
            raise StructureError("coefficient group needs at least one modulus")
        for n in moduli:
            if not is_integer(n) or (n != 0 and n < 2):
                raise StructureError(f"modulus {n!r} must be 0 or >= 2")
        self.__dict__.update(moduli=moduli, d=len(moduli))

    @property
    def is_finite(self):
        return 0 not in self.moduli

    def zero(self):
        return (0,) * self.d

    def reduce(self, v):
        return tuple(x % n if n else x for x, n in zip(v, self.moduli))

    def add(self, x, y):
        return tuple((a + b) % n if n else a + b
                     for a, b, n in zip(x, y, self.moduli))

    def neg(self, x):
        return tuple((-a) % n if n else -a for a, n in zip(x, self.moduli))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scale(self, k, x):
        return tuple((k * a) % n if n else k * a
                     for a, n in zip(x, self.moduli))

    def elements(self):
        if not self.is_finite:
            raise UnsupportedCarrierError("free summand is not enumerable")
        out = [()]
        for n in self.moduli:
            out = [t + (r,) for t in out for r in range(n)]
        return out

    def size(self):
        if not self.is_finite:
            raise UnsupportedCarrierError("free summand is not enumerable")
        s = 1
        for n in self.moduli:
            s *= n
        return s

    def random_element(self, rng):
        return tuple(rng.randrange(n) if n else rng.randrange(-9, 10)
                     for n in self.moduli)

    def to_json(self):
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not isinstance(data.get("moduli"),
                                                        list):
            raise StructureError("coeff must be an object with a 'moduli' "
                                 f"list, not {data!r}")
        return cls(data["moduli"])

    def __repr__(self):
        return f"CoeffGroup{self.moduli}"


class Scalar:
    """Invertible scalar acting on a coefficient group.  Open for custom
    units: it stores group through __dict__, so a Frozen subclass can
    call it, and it refuses no assignment itself."""

    def __init__(self, group):
        self.__dict__["group"] = group

    def apply(self, x, power=1):
        """x times the scalar to the given power: its integer matrix
        applied to x, reduced."""
        return self.group.reduce(tuple(sum(m * a for m, a in zip(row, x))
                                       for row in self.int_matrix(power)))

    def int_matrix(self, power=1):
        """Action on residue vectors as a d x d integer matrix."""
        raise NotImplementedError


class IntUnit(Frozen, Scalar):
    """Multiplication by an integer coprime to every modulus."""

    def __init__(self, group, value):
        if not is_integer(value):
            raise StructureError("unit must be an integer")
        for n in group.moduli:
            if n == 0:
                if value not in (1, -1):
                    raise StructureError(
                        f"{value} is not a unit on a free Z summand")
            elif gcd(value % n, n) != 1:
                raise StructureError(f"{value} is not a unit mod {n}")
        super().__init__(group)
        self.__dict__["value"] = value

    def int_matrix(self, power=1):
        d = self.group.d
        mat = [[0] * d for _ in range(d)]
        for i, n in enumerate(self.group.moduli):
            # on a free summand the unit is +-1: the power's parity decides
            mat[i][i] = (pow(self.value, power, n) if n
                         else self.value if power % 2 else 1)
        return mat

    def __repr__(self):
        return f"IntUnit({self.value})"


class ShiftUnit(Frozen, Scalar):
    """Cyclic coordinate shift: multiplication by t on Z_n[t]/(t^d - 1)."""

    def __init__(self, group, step=1):
        mods = set(group.moduli)
        if len(mods) != 1 or 0 in mods:
            raise StructureError("shift unit needs uniform finite moduli")
        super().__init__(group)
        self.__dict__["step"] = step % group.d

    def int_matrix(self, power=1):
        d = self.group.d
        s = (self.step * power) % d
        mat = [[0] * d for _ in range(d)]
        for j in range(d):
            mat[(j + s) % d][j] = 1
        return mat

    def __repr__(self):
        return f"ShiftUnit(step={self.step})"
