"""Quandle axioms, module laws, orbits, coefficient groups, units."""

import pytest

from qci.algebra import (AxiomReport, CoeffGroup, IntUnit, OrbitMap, Quandle,
                         Scalar, ShiftUnit, StructureError, TableModule,
                         check_module, check_quandle, cyclic_shadow_module,
                         make_conjugation, make_dihedral, make_trivial,
                         make_alexander, module_from_json,
                         orbit_shadow_module, orbits, quandle_as_module,
                         trivial_module)
from qci.cohomology import Cochain, CohomologyBasis
from qci.coloring import ShadowColoring
from qci.diagram import Crossing, RewriteResult
from qci.invariants import WeightMultiset
from tests.groups import all_groups_up_to_8, cyclic_group, symmetric_3


def product_table_module(first, second):
    """The diagonal-action product of two table modules over one quandle,
    as a table module: the pair (x, y) sits at position x * |second| + y."""
    k = second.size
    return TableModule(first.quandle,
                       [[first.act(x, a) * k + second.act(y, a)
                         for a in range(first.quandle.n)]
                        for x in range(first.size) for y in range(k)])


def test_trivial_quandle_passes():
    for n in (1, 2, 5):
        q = make_trivial(n)
        assert check_quandle(q.op)


def test_dihedral_quandle_brute_force():
    # independent brute-force verification of all three axioms for n=3
    op = [[(2 * b - a) % 3 for b in range(3)] for a in range(3)]
    for a in range(3):
        assert op[a][a] == a
        for b in range(3):
            for c in range(3):
                assert op[op[a][b]][c] == op[op[a][c]][op[b][c]]
    assert check_quandle(op)
    assert make_dihedral(3).apply(0, 1) == 2


def test_idempotence_witness():
    rep = check_quandle([[1, 0], [1, 1]])
    assert not rep.passed
    assert rep.axiom == "idempotence"
    assert rep.witness == (0,)


def test_structural_errors_are_distinct():
    with pytest.raises(StructureError):
        check_quandle([[0, 1]])          # not square
    with pytest.raises(StructureError):
        check_quandle([[0, 2], [1, 1]])  # out of range
    with pytest.raises(StructureError):
        check_quandle([])


def test_dihedral_4_has_two_orbits():
    # brute-force closure: {0,2} and {1,3}
    q = make_dihedral(4)
    om = orbits(q)
    assert om.count == 2
    assert om.orbits == ((0, 2), (1, 3))
    assert om.of(2) == 0 and om.of(3) == 1


def test_dihedral_1_and_3():
    assert make_dihedral(1).n == 1
    assert orbits(make_dihedral(3)).count == 1


def test_trivial_quandle_orbits():
    assert orbits(make_trivial(5)).count == 5


def test_conjugation_abelian_is_trivial():
    q = make_conjugation(cyclic_group(4))
    assert q.op == make_trivial(4).op
    q2 = make_conjugation(cyclic_group(2))
    assert q2.n == 2 and q2.op == make_trivial(2).op


def test_conjugation_s3_orbits():
    q = make_conjugation(symmetric_3())
    assert orbits(q).count == 3  # conjugacy classes of S3


@pytest.mark.parametrize("q", [make_conjugation(symmetric_3()),
                               make_trivial(3), make_dihedral(4),
                               make_alexander(8, 3)],
                         ids=["S3conj", "trivial3", "D4", "Alex8_3"])
def test_orbit_moves_are_automorphisms_onto_each_color(q):
    # the orbits and their moves come from one pass, kept on the quandle;
    # g_x permutes the colors, commutes with |>, and takes the least color
    # of x's orbit to x
    om, moves = q.orbit_map, q.moves
    assert orbits(q) is om
    colors = range(q.n)
    for orbit in om.orbits:
        for x in orbit:
            g = moves[x]
            assert g[orbit[0]] == x and sorted(g) == list(colors)
            assert all(g[q.op[a][b]] == q.op[g[a]][g[b]]
                       for a in colors for b in colors)


def test_conjugation_rejects_non_group():
    bad = [[0, 1], [0, 1]]  # no inverses / not a group
    with pytest.raises(StructureError):
        make_conjugation(bad)


def test_all_small_groups_give_quandles():
    for name, table in all_groups_up_to_8():
        q = make_conjugation(table)
        assert check_quandle(q.op, q.inv), name


def test_inverse_table_derivation_and_roundtrip():
    q = make_dihedral(5)
    data = q.to_json()
    del data["inv"]
    q2 = Quandle.from_json(data)
    assert q2.inv == q.inv
    assert Quandle.from_json(q.to_json()) == q


def test_module_self_action_passes():
    q = make_dihedral(3)
    assert check_module(q, q.op, q.inv)


def test_symbolic_module_kinds_are_refused():
    # region colors in Z or in the orbit-counting group have no table; the
    # shadow carriers are their finite quotients, built by the transport
    q = make_dihedral(4)
    for data in ({"v": 1, "kind": "int_shadow"},
                 {"v": 1, "kind": "orbit_shadow", "orbits": 2},
                 {"v": 1, "kind": "product", "factors": [
                     quandle_as_module(q).describe(),
                     cyclic_shadow_module(q, 2).describe()]}):
        with pytest.raises(StructureError, match="unknown module kind"):
            module_from_json(data, q)


def test_product_with_integer_module():
    # the integer shadow module counted mod 5, paired with the self-action
    q = make_dihedral(3)
    p = product_table_module(quandle_as_module(q), cyclic_shadow_module(q, 5))
    assert check_module(p.quandle, p.action)
    assert p.act(1 * 5 + 2, 2) == q.apply(1, 2) * 5 + 3
    assert p.act(1 * 5 + 4, 2) == q.apply(1, 2) * 5 + 0


def test_product_of_finite_modules():
    q = make_dihedral(3)
    z2 = cyclic_shadow_module(q, 2)
    p = product_table_module(z2, z2)
    assert p.size == 4
    assert check_module(p.quandle, p.action)
    assert p.act(1, 0) == 2       # (0, 1) -> (1, 0)


def test_product_quandle_mismatch():
    # factors over different quandles make no table: a D4 action table has
    # a column too many for D3
    d3, d4 = make_dihedral(3), make_dihedral(4)
    with pytest.raises(StructureError, match="expected 3 columns"):
        TableModule(d3, trivial_module(d4).action)


def test_trivial_times_m_isomorphic():
    q = make_dihedral(3)
    m = quandle_as_module(q)
    p = product_table_module(trivial_module(q), m)
    assert p.size == m.size
    for x in m.elements():
        for a in range(q.n):
            assert p.act(x, a) == m.act(x, a)


def test_module_orbit_conventions():
    q = make_dihedral(4)
    assert orbits(orbit_shadow_module(q, (2, 3))).count == 1
    assert orbits(cyclic_shadow_module(q, 3)).count == 1
    assert orbits(trivial_module(q)).count == 1


def test_orbit_shadow_action():
    # D4 has the orbits {0, 2} and {1, 3}; over Z/3 x Z/2 the digit pair
    # (i, j) sits at position 2i + j, and acting by a bumps a's orbit digit.
    # One order counts every crossed strand, one per orbit counts them per
    # orbit (the tables are written out by hand), and any other count of
    # orders is refused
    q = make_dihedral(4)
    m = orbit_shadow_module(q, (3, 2))
    assert m.size == 6 and check_module(m.quandle, m.action)
    assert m.act(0, 1) == 1                 # (0, 0) -> (0, 1)
    assert m.act(m.act(0, 0), 2) == 4       # (0, 0) -> (2, 0)
    assert m.act(4, 0) == 0                 # (2, 0) -> (0, 0)
    assert m.unact(m.act(0, 3), 3) == 0
    assert m.action == ((2, 1, 2, 1), (3, 0, 3, 0), (4, 3, 4, 3),
                        (5, 2, 5, 2), (0, 5, 0, 5), (1, 4, 1, 4))
    assert orbit_shadow_module(q, (2, 3)).action == (
        (3, 1, 3, 1), (4, 2, 4, 2), (5, 0, 5, 0),
        (0, 4, 0, 4), (1, 5, 1, 5), (2, 3, 2, 3))
    assert orbit_shadow_module(q, (3,)).action == \
        ((1, 1, 1, 1), (2, 2, 2, 2), (0, 0, 0, 0))
    assert orbit_shadow_module(q, (5,)) == cyclic_shadow_module(q, 5)
    for orders in ((), (5, 5, 5)):
        with pytest.raises(StructureError, match="one per quandle orbit "
                           rf"\(2\), not {len(orders)}"):
            orbit_shadow_module(q, orders)
    # D3 has one orbit: one order either way, two are refused
    d3 = make_dihedral(3)
    assert orbit_shadow_module(d3, (4,)) == cyclic_shadow_module(d3, 4)
    with pytest.raises(StructureError, match=r"orbit \(1\), not 2"):
        orbit_shadow_module(d3, (4, 4))


def test_orbits_idempotent_under_action():
    q = make_conjugation(symmetric_3())
    om = orbits(q)
    for a in range(q.n):
        for b in range(q.n):
            assert om.of(q.apply(a, b)) == om.of(a)


def test_product_module_orbit_containment():
    q = make_dihedral(4)
    m = quandle_as_module(q)
    p = product_table_module(m, m)
    om_p, om_m = orbits(p), orbits(m)
    for xy in p.elements():
        x, y = divmod(xy, m.size)
        for xy2 in om_p.orbits[om_p.of(xy)]:
            x2, y2 = divmod(xy2, m.size)
            assert om_m.of(x2) == om_m.of(x)
            assert om_m.of(y2) == om_m.of(y)


def test_quandle_self_distributivity_failure_witness():
    # idempotent, every column a bijection, and still no quandle:
    # (1 |> 2) |> 3 = 3 |> 3 = 3, but (1 |> 3) |> (2 |> 3) = 2 |> 1 = 2
    op = [[0, 0, 0, 0], [1, 1, 3, 2], [2, 2, 2, 1], [3, 3, 1, 3]]
    rep = check_quandle(op)
    assert (rep.passed, rep.axiom, rep.witness) == (
        False, "self-distributivity", (1, 2, 3))
    with pytest.raises(StructureError, match=r"not a quandle: "
                       r"self-distributivity fails at \(1, 2, 3\)"):
        Quandle(op)


def test_module_axiom_failure_witness():
    q = make_trivial(2)
    # over a trivial quandle the actions must commute; two non-commuting
    # transpositions of a 3-point carrier violate self-distributivity
    rep = check_module(q, [[1, 0], [0, 2], [2, 1]])
    assert not rep.passed and rep.axiom == "self-distributivity"
    # the check is exhaustive: these two transpositions fix 0 and clash
    # only from 1 on
    rep = check_module(q, [[0, 0], [2, 1], [1, 3], [3, 2]])
    assert not rep.passed
    assert (rep.axiom, rep.witness) == ("self-distributivity", (1, 0, 1))


def test_table_module_refuses_the_module_axiom_failure():
    # the same failure check_module reports, refused where the module is
    # built, naming the witness; the D3 action below reached the cohomology
    # solver before and died there
    q = make_trivial(2)
    with pytest.raises(StructureError, match=r"not a module: "
                       r"self-distributivity fails at \(1, 0, 1\)"):
        TableModule(q, [[0, 0], [2, 1], [1, 3], [3, 2]])
    d3, action = make_dihedral(3), [[1, 0, 0], [2, 1, 1], [0, 2, 2]]
    assert check_module(d3, action).witness == (0, 0, 1)
    with pytest.raises(StructureError, match=r"fails at \(0, 0, 1\)"):
        TableModule(d3, action)
    with pytest.raises(StructureError, match=r"fails at \(0, 0, 1\)"):
        module_from_json({"v": 1, "kind": "table", "action": action}, d3)


def test_module_json_roundtrip():
    q = make_dihedral(3)
    for mod in (quandle_as_module(q), cyclic_shadow_module(q, 4),
                product_table_module(cyclic_shadow_module(q, 2),
                                     quandle_as_module(q))):
        back = module_from_json(mod.describe(), q)
        assert back == mod
        for m in mod.elements():
            for a in range(q.n):
                assert back.act(m, a) == mod.act(m, a)


def test_cyclic_shadow_module_record():
    # README's {"kind": "cyclic_shadow", "modulus": k} record
    q = make_dihedral(3)
    for k in (1, 2, 5):
        data = {"v": 1, "kind": "cyclic_shadow", "modulus": k}
        assert module_from_json(data, q) == cyclic_shadow_module(q, k)


def test_malformed_module_records_name_the_field():
    q = make_dihedral(3)
    for data, field in (({"kind": "cyclic_shadow"}, "integer 'modulus'"),
                        ({"kind": "cyclic_shadow", "modulus": "4"},
                         "integer 'modulus'"),
                        ({"kind": "cyclic_shadow", "modulus": True},
                         "integer 'modulus'"),
                        ({"kind": "table"}, "'action' table"),
                        ({"kind": "table", "action": 3}, "'action' table")):
        with pytest.raises(StructureError, match=field):
            module_from_json(data, q)


def test_table_module_size_must_match_the_action_table():
    q = make_dihedral(3)
    action = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
    for size in (7, -1, 2, "3", 3.0, None):
        with pytest.raises(StructureError, match="'size'"):
            module_from_json({"kind": "table", "size": size,
                              "action": action}, q)
    # a lone row: True == 1 would slip past a plain comparison
    with pytest.raises(StructureError, match="'size'"):
        module_from_json({"kind": "table", "size": True,
                          "action": [[0, 0, 0]]}, q)
    for record in ({"kind": "table", "size": 3, "action": action},
                   {"kind": "table", "action": action}):
        assert module_from_json(record, q).size == 3


def test_coeff_group_arithmetic():
    g = CoeffGroup((2, 3))
    assert g.zero() == (0, 0)
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 2)
    assert g.scale(4, (1, 2)) == (0, 2)
    assert g.size() == 6 and len(g.elements()) == 6


def test_coeff_group_free_summand():
    g = CoeffGroup((0,))
    assert g.add((5,), (-2,)) == (3,)
    assert not g.is_finite
    with pytest.raises(StructureError):
        g.elements()
    with pytest.raises(StructureError):
        CoeffGroup((1,))


def test_int_unit_validation():
    g = CoeffGroup((6,))
    with pytest.raises(StructureError):
        IntUnit(g, 2)
    with pytest.raises(StructureError):
        IntUnit(g, 3)
    u = IntUnit(g, 5)
    assert u.apply((1,)) == (5,)
    assert u.apply((1,), -1) == (5,)  # 5 is its own inverse mod 6


def test_unit_inverse_exhaustive():
    for mods in ((5,), (2, 3), (4,), (8,)):
        g = CoeffGroup(mods)
        for v in range(1, 12):
            try:
                u = IntUnit(g, v)
            except StructureError:
                continue
            for x in g.elements():
                assert u.apply(u.apply(x, -1)) == x
                assert u.apply(u.apply(x), -1) == x


def test_shift_unit_cyclic():
    g = CoeffGroup((3, 3, 3, 3))
    t = ShiftUnit(g)
    x = (1, 2, 0, 1)
    assert t.apply(x) == (1, 1, 2, 0)
    assert t.apply(t.apply(x), -1) == x
    assert t.apply(x, 4) == x
    with pytest.raises(StructureError):
        ShiftUnit(CoeffGroup((2, 3)))


def test_unit_matrix_matches_apply():
    g = CoeffGroup((5, 5))
    for sc in (IntUnit(g, 2), ShiftUnit(g)):
        mat = sc.int_matrix(-1)
        for x in g.elements():
            via_mat = tuple(sum(mat[i][j] * x[j] for j in range(2)) % 5
                            for i in range(2))
            assert via_mat == sc.apply(x, -1)


def test_one_element_module_accepted():
    q = make_dihedral(3)
    m = trivial_module(q)
    assert m.size == 1 and check_module(m.quandle, m.action)


def test_alexander_quandle():
    q = make_alexander(5, 2)
    assert check_quandle(q.op)
    assert make_alexander(5, 4).op == make_dihedral(5).op


def test_value_classes_compare_by_field_and_refuse_assignment():
    # equal and hashed alike by their fields, less OrbitMap.count and
    # .index (read off its orbits), ShadowColoring.module, Quandle.labels
    # and a Cochain's quandle and module; never equal across classes;
    # immutable
    a = OrbitMap(((0,), (1,)))
    assert a.count == 2 and a.index == {0: 0, 1: 1}
    assert a == OrbitMap(((0,), (1,)))
    assert hash(a) == hash(OrbitMap(((0,), (1,))))
    assert a != OrbitMap(((0, 1),))
    s = ShadowColoring((0, 1), (2,), None)
    assert s == ShadowColoring((0, 1), (2,), module=object())
    assert s != ShadowColoring((0, 1), (0,), None)
    assert AxiomReport(True) == AxiomReport(True, "", ()) != (True, "", ())
    assert bool(AxiomReport(True)) and not AxiomReport(False, "x", (1,))
    assert WeightMultiset((((0,), 2),)) != AxiomReport((((0,), 2),))
    assert RewriteResult(None, {}).acted == frozenset()
    q = make_dihedral(3)
    named = Quandle(q.op, labels=["x", "y", "z"])
    assert named == q and hash(named) == hash(q) and named.labels
    A = CoeffGroup((5,))
    assert IntUnit(A, 1) != ShiftUnit(A) and ShiftUnit(A) != IntUnit(A, 1)
    assert IntUnit(A, 2) == IntUnit(CoeffGroup([5]), 2) != IntUnit(A, 3)
    listed = Cochain(q, None, A, 1, [[0], [1], [7]])
    tupled = Cochain(q, None, A, 1, ((0,), (1,), (2,)))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.values == ((0,), (1,), (2,))
    values = (a, s, AxiomReport(True), Crossing((0, 1, 2, 3), 1), q,
              quandle_as_module(q), A, IntUnit(A, 2), ShiftUnit(A), listed)
    for obj in values:
        first = next(iter(vars(obj)))
        for name in (first, "new"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, first)
    for rot, over in (((0, 1, 2), 1), ((0, 1, 2, 3), 2)):
        with pytest.raises(StructureError):
            Crossing(rot, over)
    # Scalar stays open for custom units that keep their own state
    class Open(Scalar):
        pass
    unit = Open(A)
    unit.group, unit.matrix = CoeffGroup((7,)), [[3]]
    del unit.matrix
    # the cohomology result stays a mutable, unhashable record
    basis = CohomologyBasis([], [], [], 0)
    basis.free_rank = 1
    assert basis == CohomologyBasis([], [], [], 1)
    with pytest.raises(TypeError):
        hash(basis)
