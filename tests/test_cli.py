"""End-to-end command tests: exit codes, determinism, manifests."""

import hashlib
import json
import pathlib
import random
import re
import subprocess
import sys

import pytest

from qci import algebra, cli, cohomology, coloring, corpus, invariants
from qci.algebra import (CoeffGroup, IntUnit, cyclic_shadow_module,
                         make_alexander, make_dihedral, orbits,
                         quandle_as_module)
from qci.cohomology import (Cochain, DifferentialSpec, cocycle_basis,
                            is_cocycle, link_twisted_cocycle_basis,
                            random_cochain)
from qci.diagram import parse_diagram
from qci.invariants import WeightMultiset, weight_link_twisted
from tests.oracle_utils import (braid_closure, pointwise_differential,
                                raw_orbit_ids, symbolic_shadow_weight)

REPO = pathlib.Path(__file__).resolve().parents[1]


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "qci.cli", *argv],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(REPO / "src"),
                               "PATH": "/usr/bin:/bin"})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def files(tmp_path):
    q = make_dihedral(3)
    qfile = tmp_path / "d3.json"
    qfile.write_text(json.dumps(q.to_json()))
    dfile = tmp_path / "trefoil.json"
    dfile.write_text(json.dumps(corpus.load_json("trefoil")))
    A = CoeffGroup((3,))
    mod = quandle_as_module(q)
    omega = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)[0]
    wfile = tmp_path / "omega.json"
    wfile.write_text(json.dumps(omega.to_json()))
    return {"quandle": qfile, "diagram": dfile, "cocycle": wfile,
            "tmp": tmp_path}


def test_check_quandle_pass(files):
    code, out, _ = run_cli("check", "--kind", "quandle",
                           "--file", str(files["quandle"]))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_quandle_fail_witness(files):
    bad = {"v": 1, "size": 2, "op": [[1, 0], [1, 1]]}
    path = files["tmp"] / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli("check", "--kind", "quandle", "--file", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["axiom"] == "idempotence"
    assert payload["witness"] == [0]


def test_check_structural_error_exit2(files):
    # a malformed table, bytes in no JSON encoding, an integer too long
    # for Python to convert
    path = files["tmp"] / "broken.json"
    for raw in (b"{\"op\": [[0, 1]]}", b"\xff\xfe\xfa",
                b"{\"op\": [[" + b"9" * 5000 + b"]]}"):
        path.write_bytes(raw)
        code, _out, err = run_cli("check", "--kind", "quandle",
                                  "--file", str(path))
        assert code == 2
        assert "error" in json.loads(err)


def test_cohomology_over_product_module_is_exit2(files):
    q = make_dihedral(3)
    prod = {"v": 1, "kind": "product",
            "factors": [quandle_as_module(q).describe(),
                        cyclic_shadow_module(q, 2).describe()]}
    path = files["tmp"] / "product.json"
    path.write_text(json.dumps(prod))
    code, out, err = run_cli("cohomology", "--quandle", str(files["quandle"]),
                             "--coeff", "3", "--module", str(path))
    assert code == 2 and out == ""
    assert "unknown module kind 'product'" in json.loads(err)["error"]


NOT_A_MODULE = {"v": 1, "kind": "table",
                "action": [[1, 0, 0], [2, 1, 1], [0, 2, 2]]}


def test_non_module_action_is_refused_with_its_witness(files):
    # check reports the failing axiom (exit 1); every command that builds
    # the module refuses it with the same witness (exit 2).  Before, the
    # cohomology solver died on it (exit 3) and the shadow invariant blamed
    # the region walk, without a witness
    path = files["tmp"] / "not_a_module.json"
    path.write_text(json.dumps(NOT_A_MODULE))
    q = str(files["quandle"])
    code, out, _ = run_cli("check", "--kind", "module", "--file", str(path),
                           "--quandle", q)
    assert code == 1
    assert out.strip() == ('{"axiom":"self-distributivity","kind":"module",'
                           '"passed":false,"v":1,"witness":[0,0,1]}')
    cochain = files["tmp"] / "over_it.json"
    cochain.write_text(json.dumps(
        {"v": 1, "degree": 2, "module": NOT_A_MODULE,
         "coeff": {"moduli": [3]}, "values": [[0]] * 27}))
    message = "not a module: self-distributivity fails at (0, 0, 1)"
    for argv in (["cohomology", "--quandle", q, "--coeff", "3", "--module",
                  str(path)],
                 ["invariant", "--flavor", "shadow", "--diagram",
                  str(files["diagram"]), "--quandle", q, "--cocycle",
                  str(cochain), "--exterior", "0"]):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv[0]
        assert json.loads(err)["error"] == message


def test_disconnected_rotation_system_is_exit2(files):
    # a torus piece beside a sphere piece passes V - E + F = 2; every
    # command that reads the diagram refuses it
    path = files["tmp"] / "torus_and_sphere.json"
    path.write_text(json.dumps(
        {"v": 1, "crossings": [{"rot": [0, 1, 0, 1], "over": 3},
                               {"rot": [2, 2, 3, 3], "over": 3}],
         "exterior": [2, "left"]}))
    for argv in (["regions", "--diagram", str(path)],
                 ["indices", "--diagram", str(path)],
                 ["colorings", "--diagram", str(path), "--quandle",
                  str(files["quandle"])]):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv[0]
        assert json.loads(err)["error"] == \
            "rotation system is not a connected sphere diagram"


def test_check_module_out_of_range_inv_action_is_exit2(files):
    q = make_dihedral(3)
    inv = [list(r) for r in q.inv]
    inv[0][1] = 99
    record = dict(quandle_as_module(q).describe(), inv_action=inv)
    path = files["tmp"] / "bad_inv.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli("check", "--kind", "module", "--file", str(path),
                             "--quandle", str(files["quandle"]))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "inv_action: entry 99 out of range 0..2"


def test_check_module_inv_action_must_invert_the_action(files):
    # a valid table that is not the action's inverse once reached the
    # region walk, which blamed the diagram
    q = make_dihedral(3)
    inv = [list(r) for r in q.inv]
    inv[0], inv[1] = inv[1], inv[0]
    record = dict(quandle_as_module(q).describe(), inv_action=inv)
    path = files["tmp"] / "swapped_inv.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli("check", "--kind", "module", "--file", str(path),
                             "--quandle", str(files["quandle"]))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == \
        "inv_action is not the inverse of action at (m, a) = (0, 0)"


def test_cyclic_shadow_module_record_cli(files, capsys):
    # a module file of kind cyclic_shadow reads as the --module Z/k word
    A = CoeffGroup((5,))
    q = make_dihedral(3)
    omega = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)[0]
    shadow = cohomology.transport_to_shadow(omega, [IntUnit(A, 2)])
    cfile = files["tmp"] / "shadow.json"
    cfile.write_text(json.dumps(shadow.to_json()))
    mfile = files["tmp"] / "z4.json"
    mfile.write_text(json.dumps({"v": 1, "kind": "cyclic_shadow",
                                 "modulus": 4}))
    base = ["invariant", "--flavor", "shadow", "--diagram",
            str(files["diagram"]), "--quandle", str(files["quandle"]),
            "--cocycle", str(cfile), "--exterior", "1", "--module"]
    code, word, err = _main_in_process(capsys, base + ["Z/4"])
    assert code == 0, err
    assert _main_in_process(capsys, base + [str(mfile)]) == (0, word, "")


def test_zero_cocycle_passes_any_spec(files):
    q = make_dihedral(3)
    zero = {"v": 1, "degree": 2, "module": None, "coeff": {"moduli": [3]},
            "values": [[0]] * 9}
    path = files["tmp"] / "zero.json"
    path.write_text(json.dumps(zero))
    for spec in ("1,1", "1,-1", "1,2"):
        code, out, _ = run_cli("check", "--kind", "cocycle", "--file",
                               str(path), "--quandle", str(files["quandle"]),
                               "--spec", spec)
        assert code == 0 and json.loads(out)["passed"]


def test_orbits_and_indices_and_regions(files):
    code, out, _ = run_cli("orbits", "--quandle", str(files["quandle"]))
    assert code == 0 and json.loads(out)["count"] == 1
    code, out, _ = run_cli("regions", "--diagram", str(files["diagram"]))
    assert code == 0 and json.loads(out)["count"] == 5
    code, out, _ = run_cli("indices", "--diagram", str(files["diagram"]))
    payload = json.loads(out)
    assert code == 0
    assert payload["totals"][payload["exterior"]] == 0


def test_colorings_count(files):
    code, out, _ = run_cli("colorings", "--diagram", str(files["diagram"]),
                           "--quandle", str(files["quandle"]))
    assert code == 0 and json.loads(out)["count"] == 9


def test_cohomology_command(files):
    code, out, _ = run_cli("cohomology", "--quandle", str(files["quandle"]),
                           "--coeff", "3", "--spec", "1,1", "--degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["cocycle_count"] == 2
    # membership query: an actual coboundary lands in both spans
    import random
    from qci.cohomology import differential, random_cochain
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    spec = DifferentialSpec.quandle(A)
    db = differential(spec, random_cochain(random.Random(5), q, None, A, 1))
    path = files["tmp"] / "db.json"
    path.write_text(json.dumps(db.to_json()))
    code, out, _ = run_cli("cohomology", "--quandle", str(files["quandle"]),
                           "--coeff", "3", "--spec", "1,1", "--degree", "2",
                           "--contains", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["contains"] == {"cocycle": True, "coboundary": True}


@pytest.mark.parametrize("cochain,flags,field", [
    ("z3", ["--coeff", "5"], "coeff"),
    ("cocycle", ["--coeff", "3"], "module"),
    ("z3", ["--coeff", "3", "--degree", "1"], "degree"),
    # a degree-3 basis once met the degree-2 cochain deep in the
    # elimination, as an internal error (exit 3)
    ("z3", ["--coeff", "3", "--degree", "3"], "degree")])
def test_cohomology_contains_must_match_the_command(files, capsys, cochain,
                                                    flags, field):
    # a D3 cochain over Z/3 with trivial module, degree 2; "cocycle" is
    # the same over the D3 self-module
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    phi = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)[0]
    files["z3"] = files["tmp"] / "z3.json"
    files["z3"].write_text(json.dumps(phi.to_json()))
    code = cli.main(["cohomology", "--quandle", str(files["quandle"]),
                     *flags, "--contains", str(files[cochain])])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == \
        f"the --contains cochain's {field} differs from the command's"


def test_invariant_shadow_and_determinism(files):
    args = ("invariant", "--flavor", "shadow",
            "--diagram", str(files["diagram"]),
            "--quandle", str(files["quandle"]),
            "--cocycle", str(files["cocycle"]), "--exterior", "0")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["weights"] == [[[0], 3], [[1], 6]]


def test_invariant_twisted_alpha1_equals_classical(files):
    # alpha = 1 twisting degenerates to the classical sum, byte for byte
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    omega = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)[0]
    path = files["tmp"] / "cl.json"
    path.write_text(json.dumps(omega.to_json()))
    base = ("--diagram", str(files["diagram"]),
            "--quandle", str(files["quandle"]), "--cocycle", str(path))
    code1, out1, _ = run_cli("invariant", "--flavor", "classical", *base)
    code2, out2, _ = run_cli("invariant", "--flavor", "twisted",
                             "--alpha", "1", *base)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-for-byte


def test_corpus_paths_resolve(files):
    code, out, _ = run_cli("regions", "--diagram", "corpus:figure_eight")
    assert code == 0 and json.loads(out)["count"] == 6


def test_invariant_cocycle_gate(files):
    q = make_dihedral(3)
    bad = {"v": 1, "degree": 2, "module": None, "coeff": {"moduli": [3]},
           "values": [[1]] + [[0]] * 8}
    path = files["tmp"] / "bad_cocycle.json"
    path.write_text(json.dumps(bad))
    base = ("--diagram", str(files["diagram"]),
            "--quandle", str(files["quandle"]), "--cocycle", str(path))
    code, out, _ = run_cli("invariant", "--flavor", "classical", *base)
    assert code == 1
    assert json.loads(out)["error"] == "cocycle"
    code, _, _ = run_cli("invariant", "--flavor", "classical", "--force",
                         *base)
    assert code == 0


def test_rmove_roundtrip(files):
    code, out, _ = run_cli("rmove", "--diagram", str(files["diagram"]),
                           "--move", "r1", "--target", "0",
                           "--chirality", "-1", "--side", "right")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["crossings"]) == 4


def test_rmove_loop_poke_beside_crossings_is_refused(files):
    # the trefoil with a free loop: poking the loop would split the
    # diagram, so the refusal names that case, not a bad rotation system
    data = dict(corpus.load_json("trefoil"), free_loops=[1])
    path = files["tmp"] / "trefoil_loop.json"
    path.write_text(json.dumps(data))
    for extra in (["--move", "r1", "--target", "loop:0"],
                  ["--move", "r2", "--target", "loop:0",
                   "--target2", "loop:0"]):
        code, out, err = run_cli("rmove", "--diagram", str(path), *extra)
        assert (code, out) == (2, "")
        assert "free loop 0 lies beside crossings" in err
        assert "sphere" not in err
    code, _out, err = run_cli("rmove", "--diagram", str(path), "--move",
                              "r1", "--target", "loop:7")
    assert code == 2 and "no free loop 7" in err


def test_manifest_reproducibility(files):
    man1 = files["tmp"] / "m1.json"
    man2 = files["tmp"] / "m2.json"
    args = ("colorings", "--diagram", str(files["diagram"]),
            "--quandle", str(files["quandle"]))
    _code, out, _err = run_cli(*args, "--manifest", str(man1))
    run_cli(*args, "--manifest", str(man2))
    m1 = json.loads(man1.read_text())
    m2 = json.loads(man2.read_text())
    assert m1["output_sha256"] == m2["output_sha256"] == \
        hashlib.sha256(out.encode()).hexdigest()
    assert m1["inputs"] == m2["inputs"] == {
        str(files[k]): hashlib.sha256(files[k].read_bytes()).hexdigest()
        for k in ("diagram", "quandle")}
    assert m1["library_version"] == m2["library_version"]


def test_unwritable_manifest_is_exit_2(files):
    # the payload is not printed when its manifest cannot be written
    missing = files["tmp"] / "no" / "such" / "dir" / "m.json"
    code, out, err = run_cli("orbits", "--quandle", str(files["quandle"]),
                             "--manifest", str(missing))
    assert code == 2
    assert out == ""
    assert json.loads(err)["v"] == 1 and json.loads(err)["error"]
    assert "Traceback" not in err


# sha256 of `qci corpus-verify` stdout at its default sample count; the
# seed only draws the random coboundaries, which all weigh zero
CORPUS_VERIFY_SHA256 = \
    "07b51ac4840e35069cd1eddcadd859aba65edf618bf8209d2528fb1752b61e39"


def test_corpus_verify(capsys):
    code, out, _ = run_cli("corpus-verify", "--seed", "7", "--samples", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["checks"] > 20
    # no benchmark workload runs the command, so its bytes are frozen here
    for seed in ("0", "7"):
        code, out, err = _main_in_process(
            capsys, ["corpus-verify", "--seed", seed])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            CORPUS_VERIFY_SHA256, seed


def _two_component_d4_files(files):
    """D4 and a 3-strand, 2-component closure whose colorings tell the
    per-orbit units apart (see tests/test_fuzz_braids.py)."""
    d = parse_diagram(braid_closure([1, -2, -1, -1, -2], 3))
    dfile = files["tmp"] / "closure.json"
    dfile.write_text(json.dumps(d.to_json()))
    q = make_dihedral(4)
    qfile = files["tmp"] / "d4.json"
    qfile.write_text(json.dumps(q.to_json()))
    return d, q, dfile, qfile


def test_shadow_over_symbolic_module_cli(files, capsys):
    # shadow flavor over the symbolic modules: the file carries a twisted
    # (per-orbit twisted) table and the command weighs it with that plan.
    # The reference is the qci-free oracle: the shadow sum of the transport
    # prod_O u_O^-m_O w, its integer region colors traced on the raw
    # crossing records from the exterior color.
    def check(argv, d, q, omega, units, exteriors, force=()):
        raw = d.to_json()
        table = [v for v, in omega.values]
        orbit_of = raw_orbit_ids(q.op) if len(units) > 1 else None
        outs = []
        for e in exteriors:
            text = ",".join(map(str, e)) if isinstance(e, tuple) else str(e)
            code, out, err = _main_in_process(
                capsys, argv + [f"--exterior={text}", *force])
            assert code == 0, err
            ms = WeightMultiset.from_values(
                (symbolic_shadow_weight(raw["crossings"], raw["exterior"],
                                        d.arc_of, col, table, 5, units, e,
                                        orbit_of),)
                for col in coloring.enumerate_colorings(d, q))
            assert json.loads(out) == {"total": ms.total(), "v": 1,
                                       "weights": ms.to_json()["weights"]}
            outs.append(out)
        return outs

    A = CoeffGroup((5,))
    # 2 and 4 are not inverse mod 5: swapping the orbits' units changes
    # the factor of every nonzero exterior below
    units = [IntUnit(A, 2), IntUnit(A, 4)]
    q = make_dihedral(3)
    omega = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)[0]
    path = files["tmp"] / "tw.json"
    path.write_text(json.dumps(omega.to_json()))
    check(["invariant", "--flavor", "shadow", "--diagram",
           str(files["diagram"]), "--quandle", str(files["quandle"]),
           "--cocycle", str(path), "--module", "Z", "--alpha", "2"],
          corpus.load("trefoil"), q, omega, [2], (0, 1, -2))
    # over the orbit-counting module of D4, which has two orbits
    d, q, dfile, qfile = _two_component_d4_files(files)
    basis = link_twisted_cocycle_basis(q, A, units)
    lt = basis[0].add(basis[-1])
    path.write_text(json.dumps(lt.to_json()))
    exteriors = ((0, 0), (1, -1), (2, 0))
    check(["invariant", "--flavor", "shadow", "--diagram", str(dfile),
           "--quandle", str(qfile), "--cocycle", str(path), "--module",
           "orbitZ", "--alpha-per-orbit", "2,4"],
          d, q, lt, [2, 4], exteriors)
    # those cocycles weigh 0 on those diagrams; a cochain that is no
    # cocycle weighs nonzero, so under --force the unit factor shows
    q, A, omega, base = _bad_d4_source(files)
    for args, ints, exts in (
            (["--module", "Z", "--alpha", "2"], [2], (0, 1, -2)),
            (["--module", "orbitZ", "--alpha-per-orbit", "2,4"], [2, 4],
             exteriors)):
        assert _main_in_process(capsys, list(base) + args)[0] == 1
        outs = check(list(base) + args, corpus.load("hopf_pos"), q, omega,
                     ints, exts, ["--force"])
        # every nonzero exterior here scales by a unit other than 1
        assert all(out != outs[0] for out in outs[1:])


def test_symbolic_shadow_propagates_no_region_colors(files, monkeypatch,
                                                    capsys):
    # the symbolic shadow commands weigh the file with the twisted plan:
    # no region coloring and no transport to a shadow table on the way
    q, A, omega, base = _bad_d4_source(files)
    calls = []
    propagate = coloring.propagate_shadow
    transport = cohomology.transport_to_shadow

    def counted(*args, **kwargs):
        calls.append(args)
        return propagate(*args, **kwargs)

    def transported(*args, **kwargs):
        calls.append(("transport_to_shadow",))
        return transport(*args, **kwargs)

    for module in (coloring, invariants, cli):
        monkeypatch.setattr(module, "propagate_shadow", counted)
    for module in (cohomology, cli):
        monkeypatch.setattr(module, "transport_to_shadow", transported)
    for args in (["--module", "Z", "--alpha", "2", "--exterior", "1"],
                 ["--module", "orbitZ", "--alpha-per-orbit", "2,3",
                  "--exterior", "1,0"]):
        code, _, err = _main_in_process(capsys, list(base) + args +
                                        ["--force"])
        assert code == 0, err
    assert calls == []
    # a table-module shadow still propagates, so the counter is live
    code, _, err = _main_in_process(
        capsys, ["invariant", "--flavor", "shadow", "--diagram",
                 str(files["diagram"]), "--quandle", str(files["quandle"]),
                 "--cocycle", str(files["cocycle"]), "--exterior", "0"])
    assert code == 0, err
    assert len(calls) == 9


def test_symbolic_module_words_are_shadow_only(files, capsys):
    # --module Z|orbitZ name the symbolic shadow carriers, which only
    # --flavor shadow reads (through the twisted plans).  shadow_twisted
    # used to accept them and print the plain twisted bytes, ignoring the
    # region colors: its weight over Z of the file's transport alpha^-m w,
    # sum sign alpha^-i alpha^-m w = alpha^-e sum sign (alpha^2)^-i w,
    # differs from those bytes at exteriors 1 and 2 here.
    q, A, omega, base = _bad_d4_source(files)
    files_only = list(base[3:])     # --diagram, --quandle, --cocycle
    code, twisted, err = _main_in_process(
        capsys, ["invariant", "--flavor", "twisted", "--alpha", "2",
                 "--force", *files_only])
    assert code == 0, err
    d = corpus.load("hopf_pos")
    raw = d.to_json()
    table = [v for v, in omega.values]
    for e in (1, 2):
        ms = WeightMultiset.from_values(
            (symbolic_shadow_weight(raw["crossings"], raw["exterior"],
                                    d.arc_of, col, table, 5, [4], 0)
             * pow(2, -e, 5) % 5,)
            for col in coloring.enumerate_colorings(d, q))
        assert json.loads(twisted)["weights"] != ms.to_json()["weights"]
        code, out, err = _main_in_process(
            capsys, ["invariant", "--flavor", "shadow_twisted", "--module",
                     "Z", "--alpha", "2", "--exterior", str(e), "--force",
                     *files_only])
        assert (code, out) == (2, "")
        assert "not shadow_twisted" in err
    for flavor, units in (("classical", []), ("positive", []),
                          ("twisted", ["--alpha", "2"]),
                          ("shadow_twisted", ["--alpha", "2"]),
                          ("link_twisted", ["--alpha-per-orbit", "2,3"])):
        for word in ("Z", "orbitZ"):
            code, out, err = _main_in_process(
                capsys, ["invariant", "--flavor", flavor, "--module", word,
                         *units, *files_only])
            assert (code, out) == (2, "")
            assert f"--module {word} applies to --flavor shadow only, " \
                f"not {flavor}" in json.loads(err)["error"]
    # no other command reads them, and no module file may name them
    for word in ("Z", "orbitZ"):
        code, out, err = _main_in_process(
            capsys, ["cohomology", "--quandle", str(files["quandle"]),
                     "--coeff", "3", "--module", word])
        assert (code, out) == (2, "")
    for kind in ("int_shadow", "orbit_shadow"):
        path = files["tmp"] / f"{kind}.json"
        path.write_text(json.dumps({"v": 1, "kind": kind}))
        code, out, err = _main_in_process(
            capsys, ["check", "--kind", "module", "--file", str(path),
                     "--quandle", str(files["quandle"])])
        assert (code, out) == (2, "")
        assert f"unknown module kind '{kind}'" in err


def _bad_d4_source(files):
    """D4 files and a Z/5 cochain that vanishes on degenerate pairs but
    is neither twisted (alpha 2) nor per-orbit twisted (units 2, 3)."""
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    omega = random_cochain(random.Random(3), q, None, A, 2)
    omega = Cochain(q, None, A, 2,
                    [A.zero() if a == b else omega.at(0, (a, b))
                     for a in range(4) for b in range(4)])
    qfile = files["tmp"] / "d4.json"
    qfile.write_text(json.dumps(q.to_json()))
    dfile = files["tmp"] / "hopf.json"
    dfile.write_text(json.dumps(corpus.load_json("hopf_pos")))
    wfile = files["tmp"] / "bad_source.json"
    wfile.write_text(json.dumps(omega.to_json()))
    base = ("invariant", "--flavor", "shadow", "--diagram", str(dfile),
            "--quandle", str(qfile), "--cocycle", str(wfile))
    return q, A, omega, base


def _link_twisted_defect(q, omega, units, a, b, c):
    """Left side of the per-orbit twisted condition at (a, b, c), with
    units[o] the unit of orbit o, written out from its definition."""
    om = orbits(q)
    w = lambda x, y: omega.at(0, (x, y))[0]
    inv = lambda x, y: pow(units[om.of(x)], -1, 5) * y
    total = (inv(c, w(q.apply(a, c), q.apply(b, c))) - w(a, b)
             - inv(b, w(q.apply(a, b), c)) + w(a, c)
             + inv(a, w(b, c)) - w(b, c))
    return total % 5


def test_shadow_over_z_gates_the_twisted_source(files):
    q, A, omega, base = _bad_d4_source(files)
    args = base + ("--module", "Z", "--alpha", "2", "--exterior", "0")
    code, out, _ = run_cli(*args)
    assert code == 1
    payload = json.loads(out)
    assert payload["flavor"] == "twisted"
    assert payload["axiom"] == "cocycle"
    m, *abc = payload["witness"]
    value = pointwise_differential(omega.at, lambda m, a: m, q.apply,
                                   [[[1]]] * q.n, [[2]], A.moduli, m,
                                   tuple(abc))
    assert value != A.zero()
    code, _, err = run_cli(*args, "--force")
    assert code == 0, err


def test_shadow_over_orbitz_gates_the_link_twisted_source(files):
    q, A, omega, base = _bad_d4_source(files)
    args = base + ("--module", "orbitZ", "--alpha-per-orbit", "2,3",
                   "--exterior", "0,0")
    code, out, _ = run_cli(*args)
    assert code == 1
    payload = json.loads(out)
    assert payload["flavor"] == "link_twisted"
    assert payload["axiom"] == "cocycle"
    assert _link_twisted_defect(q, omega, [2, 3], *payload["witness"]) != 0
    code, _, err = run_cli(*args, "--force")
    assert code == 0, err
    # one unit per orbit, no more and no fewer
    for units in ("2", "2,3,4"):
        code, _, err = run_cli(*base, "--module", "orbitZ",
                               "--alpha-per-orbit", units, "--exterior", "0,0")
        assert code == 2 and "one unit per quandle orbit" in err


def test_deep_plans_search_without_recursion(files):
    # 1,000 free loops plan 1,000 levels; a search that recursed once per
    # level died here with RecursionError (exit 3)
    paths = {}
    for key, data in (
            ("diagram", {"v": 1, "free_loops": [1] * 1000}),
            ("quandle", {"v": 1, "op": [[0]]}),
            ("cocycle", {"v": 1, "degree": 2, "coeff": {"moduli": [2]},
                         "values": [[0]]})):
        paths[key] = files["tmp"] / f"deep_{key}.json"
        paths[key].write_text(json.dumps(data))
    code, out, err = run_cli("invariant", "--flavor", "classical",
                             *(f"--{k}={p}" for k, p in paths.items()))
    assert code == 0, err
    assert json.loads(out)["total"] == 1


def test_every_invariant_runs_the_gate_once(files, monkeypatch, capsys):
    # the cocycle gate runs through validate_cocycle, once per command,
    # and --force skips it
    calls = []
    gate = invariants.validate_cocycle

    def counted(*args, **kwargs):
        calls.append(args[0])
        return gate(*args, **kwargs)

    monkeypatch.setattr(invariants, "validate_cocycle", counted)
    base = ["invariant", "--flavor", "shadow", "--diagram",
            str(files["diagram"]), "--quandle", str(files["quandle"]),
            "--cocycle", str(files["cocycle"]), "--exterior", "0"]
    for extra, expected in (([], ["shadow"]), (["--force"], [])):
        calls.clear()
        code, _, err = _main_in_process(capsys, base + extra)
        assert code == 0, err
        assert calls == expected


def test_refine_orbits_colors_once(files, monkeypatch, capsys):
    # --refine-orbits runs one coloring search, and its whole multiset is
    # the one the plain command prints
    q = make_dihedral(4)
    A = CoeffGroup((2,))
    omega = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)[0]
    qfile = files["tmp"] / "d4.json"
    qfile.write_text(json.dumps(q.to_json()))
    wfile = files["tmp"] / "cl.json"
    wfile.write_text(json.dumps(omega.to_json()))
    base = ["invariant", "--flavor", "classical", "--diagram",
            "corpus:hopf_pos", "--quandle", str(qfile), "--cocycle",
            str(wfile)]
    calls = []
    search = invariants.enumerate_colorings

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(invariants, "enumerate_colorings", counted)
    assert cli.main(base + ["--refine-orbits"]) == 0
    refined = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert len(refined["refined"]) > 1
    assert cli.main(base) == 0
    plain = json.loads(capsys.readouterr().out)
    for key in ("total", "weights"):
        assert json.dumps(refined[key]) == json.dumps(plain[key])


def test_refine_orbits_reads_orbits_off_the_search(files, monkeypatch,
                                                   capsys):
    # link_twisted needs each coloring's component orbits both for its
    # bucket and for its units.  The search keeps every component inside
    # one orbit, so --refine-orbits reads them off one arc per component
    # and never runs the full component_orbits check
    d, q, dfile, qfile = _two_component_d4_files(files)
    A = CoeffGroup((5,))
    units = [IntUnit(A, 2), IntUnit(A, 3)]
    lt = link_twisted_cocycle_basis(q, A, units)[0]
    wfile = files["tmp"] / "lt.json"
    wfile.write_text(json.dumps(lt.to_json()))
    om = orbits(q)
    expected = {}
    for c in coloring.enumerate_colorings(d, q):
        key = list(coloring.component_orbits(d, c, om))
        expected.setdefault(json.dumps(key), []).append(
            list(weight_link_twisted(d, c, lt, units, check=False)))
    calls = []
    find = invariants.component_orbits

    def counted(*args, **kwargs):
        calls.append(args)
        return find(*args, **kwargs)

    monkeypatch.setattr(invariants, "component_orbits", counted)
    code, out, err = _main_in_process(
        capsys, ["invariant", "--flavor", "link_twisted", "--diagram",
                 str(dfile), "--quandle", str(qfile), "--cocycle",
                 str(wfile), "--alpha-per-orbit", "2,3", "--refine-orbits"])
    assert code == 0, err
    refined = json.loads(out)
    assert len(refined["refined"]) > 1
    assert calls == []
    got = {json.dumps(part["orbits"]): sorted(
        w for w, m in part["weights"] for _ in range(m))
        for part in refined["refined"]}
    assert got == {key: sorted(ws) for key, ws in expected.items()}


def test_force_weighs_every_coloring(files, capsys):
    # --force skips the gate, so a weight need not be constant on an orbit
    # of Inn(Q), and every coloring is weighed.  A random Alex(8,3) cochain
    # over Z/4 weighs this knot's 16 colorings {0: 5, 1: 5, 2: 3, 3: 3};
    # one coloring per orbit, counted 4 times, would read {0: 4, 1: 4, 3: 8}
    q, A = make_alexander(8, 3), CoeffGroup((4,))
    d = parse_diagram(braid_closure([1, 1, 1, 2, 1, 1, -2], 3))
    omega = random_cochain(random.Random(0), q, None, A, 2)
    assert not is_cocycle(DifferentialSpec.quandle(A), omega)
    cols = coloring.enumerate_colorings(d, q)
    weights = [invariants.weight_classical(d, c, omega, check=False)
               for c in cols]
    lowest = {orbit[0]: len(orbit) for orbit in orbits(q).orbits}
    by_orbit = {}
    for c, (w,) in zip(cols, weights):
        if c[0] in lowest:
            by_orbit[w] = by_orbit.get(w, 0) + lowest[c[0]]
    assert by_orbit == {0: 4, 1: 4, 3: 8}
    full = WeightMultiset.from_values(weights)
    assert full.to_json()["weights"] == [[[0], 5], [[1], 5], [[2], 3],
                                         [[3], 3]]
    assert invariants.invariant_multiset(d, q, "classical", omega,
                                         check=False) == full
    paths = {}
    for name, data in (("d", d.to_json()), ("q", q.to_json()),
                       ("w", omega.to_json())):
        paths[name] = files["tmp"] / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    base = ["invariant", "--flavor", "classical", "--diagram",
            str(paths["d"]), "--quandle", str(paths["q"]), "--cocycle",
            str(paths["w"])]
    assert _main_in_process(capsys, base)[0] == 1
    for extra in ([], ["--refine-orbits"]):
        code, out, err = _main_in_process(capsys, base + ["--force"] + extra)
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["total"], payload["weights"]) == (
            16, full.to_json()["weights"])


def test_weights_refuse_cochains_of_the_wrong_shape(files, capsys):
    # the weights read w(m, a, b): a degree-2 table whose module slot only
    # the shadow flavors fill.  Anything else is refused before the gate.
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    path = files["tmp"] / "shape.json"
    base = ["invariant", "--quandle", str(files["quandle"]),
            "--cocycle", str(path)]
    trefoil = ["--diagram", str(files["diagram"])]
    # degree 1: the weights used to index past the table
    path.write_text(json.dumps(
        random_cochain(random.Random(1), q, None, A, 1).to_json()))
    code, out, err = _main_in_process(
        capsys, base + trefoil + ["--flavor", "classical"])
    assert (code, out) == (2, "")
    assert "classical weighs a degree-2 cochain, not degree 1" in err
    # degree 3: a cocycle that passes its gate, weighed off its first n^2
    # entries before
    omega = next(c for c in cocycle_basis(DifferentialSpec.quandle(A), q,
                                          None, A, 3) if not c.is_zero())
    assert is_cocycle(DifferentialSpec.quandle(A), omega)
    path.write_text(json.dumps(omega.to_json()))
    for flavor in ("classical", "positive"):
        code, out, err = _main_in_process(
            capsys, base + trefoil + ["--flavor", flavor])
        assert (code, out) == (2, "")
        assert "degree-2 cochain, not degree 3" in err
    # a self-module shadow cocycle passes the shadow gate; classical
    # weighed its m = 0 slice, which differs across an R3 move
    mod = quandle_as_module(q)
    omega = cocycle_basis(DifferentialSpec.quandle(A), q, mod, A, 2)[1]
    path.write_text(json.dumps(omega.to_json()))
    for name in ("trefoil_r3a", "trefoil_r3b"):
        diagram = ["--diagram", f"corpus:{name}"]
        code, out, err = _main_in_process(
            capsys, base + diagram + ["--flavor", "classical"])
        assert (code, out) == (2, "")
        assert "classical weighs a trivial-module cochain" in err
        code, _, err = _main_in_process(
            capsys, base + diagram + ["--flavor", "shadow", "--exterior", "0"])
        assert code == 0, err


def test_check_module_missing_quandle_is_structural():
    code, _out, err = run_cli("check", "--kind", "module",
                              "--file", "nonexistent.json")
    assert code == 2


def _main_in_process(capsys, argv):
    """(code, stdout, stderr) of one cli.main call in this process."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:   # argparse errors, --version
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_main_calls_match_lone_calls(files, capsys):
    # the parser is built once per process; every call must still print
    # what a fresh process prints, argparse errors included
    q, d, w = (str(files[k]) for k in ("quandle", "diagram", "cocycle"))
    commands = [
        ["check", "--kind", "quandle", "--file", q],
        ["cohomology", "--quandle", q, "--coeff", "3"],
        ["cohomology", "--quandle", q],                     # argparse: exit 2
        ["invariant", "--flavor", "shadow", "--diagram", d,
         "--quandle", q, "--cocycle", w, "--exterior", "0"],
        ["rmove", "--diagram", d, "--move", "r3", "--target", "0"],  # exit 2
        ["colorings", "--diagram", d, "--quandle", q],
        ["check", "--kind", "quandle", "--file", d],        # structural: 2
        ["--version"],
    ]
    lone = [run_cli(*argv) for argv in commands]
    assert sorted({code for code, _, _ in lone}) == [0, 2]
    for _ in range(2):
        for argv, want in zip(commands, lone):
            assert _main_in_process(capsys, argv) == want, argv
    for argv, want in zip(reversed(commands), reversed(lone)):
        assert _main_in_process(capsys, argv) == want, argv


def test_one_invariant_command_finds_the_orbits_once(files, capsys,
                                                     monkeypatch):
    # the orbits are kept on the quandle: the unit step (run by the gate
    # and by the plan), the gate, the plan and the search read one pass
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    omega = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)[0]
    path = files["tmp"] / "cl.json"
    path.write_text(json.dumps(omega.to_json()))
    passes = []

    def counted(table, _orig=algebra._closure_orbits):
        passes.append(len(table))
        return _orig(table)

    monkeypatch.setattr(algebra, "_closure_orbits", counted)
    code, out, _ = _main_in_process(capsys, [
        "invariant", "--flavor", "classical", "--diagram",
        str(files["diagram"]), "--quandle", str(files["quandle"]),
        "--cocycle", str(path)])
    assert code == 0 and json.loads(out)["total"] == 9
    assert passes == [3]


# sha256 of `qci cohomology` stdout, recorded before the Z/n elimination
# became sparse; the Howell form is canonical, so no route may move them
COHOMOLOGY_SHA256 = {
    "d5.z5.deg3":
        "2cf26eb398eb19a8271ed27257329fa0ad53914c3a830f006cb0ee9a2989a9b3",
    "a8_3.z4.mod_z2":
        "5a6b42aa62d8bfd0510fa61bb3ca18697c28c8f7570669e155e0066cca4dd86a",
    "d3.self.z3.deg3":
        "6c20e791a25377d7d119cf229aefc0eab7cb6d2593ae920d9accccf9c44e5cf5",
    "d3.z6":
        "a1de1927267f9c56e6c87d279ed229335b3ae29f7f00b57b516121b905b949ac",
}


def test_cohomology_output_bytes_are_frozen(tmp_path, capsys):
    def write(name, data):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    d3 = make_dihedral(3)
    q = {"d3": write("d3", d3.to_json()),
         "d5": write("d5", make_dihedral(5).to_json()),
         "a8_3": write("a8_3", make_alexander(8, 3).to_json())}
    self3 = write("d3_self", {"v": 1, "kind": "table", "size": 3,
                              "action": [list(r) for r in d3.op]})
    cases = {
        "d5.z5.deg3": ["--quandle", q["d5"], "--coeff", "5", "--degree", "3"],
        "a8_3.z4.mod_z2": ["--quandle", q["a8_3"], "--coeff", "4",
                           "--module", "Z/2"],
        "d3.self.z3.deg3": ["--quandle", q["d3"], "--coeff", "3",
                            "--degree", "3", "--module", self3],
        "d3.z6": ["--quandle", q["d3"], "--coeff", "6"],
    }
    for name, argv in cases.items():
        code, out, err = _main_in_process(capsys, ["cohomology", *argv])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            COHOMOLOGY_SHA256[name], name


# sha256 of `qci cohomology --coeff 0` stdout.  Recorded before the integer
# route became the n = 0 case of the sparse Howell elimination, except for
# the three marked ones: there the older dense Hermite form printed entries
# outside [0, pivot) above a pivot, which the canonical form reduces
INTEGER_COHOMOLOGY_SHA256 = {
    "d3.deg2": "651d53e3dc9af9354f5a75b33b321fc010063a49af074efe6350a20211f6dfe8",
    "d4.deg2": "e384c51cecf3961fecd2635548957ae6d128f30fb234abbf0c326c941890ab6c",
    "d5.deg2": "a994ed3011094724bc16463168def3305cc1d270556ab5619b8b8aa5b409a3e2",
    "d6.deg2": "324f0c197012779fb65bbdae453421eb8cbfa9abc5ee54ba88d071d15113c523",
    "d7.deg2": "ea0d1aacd4e62b55612fb1f039cf6d2fd0a4eb1b6a00bbdfe44ccc9f3220df5c",
    "a8_3.deg2":
        "cb74340f193fdafc063002cb535abda3914ca3e5640dfba8a1dbc2fac0ac4b35",
    "d3.deg3": "ffe50c4bf70e8e27004c2deeef78c458fdc7731fdf4e517327319073b2ff3b7c",
    "d4.deg3": "42b5a88f9b47962535e837dbce9027a3a10353fffea4f594dcc10fcb068e3d81",
    "d5.deg3": "43079d8198796ae17b99c1f843dc9143da11ddc89f3c5758017216138ff721ad",
    "d3.self.deg2":
        "f0f74049e8b4e506f7004a48e5dae74a986998d38d3e3dadd288436f1b5fa7f0",
    "d4.self.deg2":
        "fb051304f4661fcbd81aa600deb47bd7632a1fb8d37e040154183a5160ff5a4b",
    "d5.self.deg2":
        "820491a86c3b9de87e5061f7f566928f1fc626e3217ce5141d32ae51a3756995",
    "d3.self.deg3":   # reduced: was 1539e2cf04da...
        "8a942d624114a16ca6e54f041ec71a4d58f8f4ef3dc90091b414301d2b9d3da5",
    "d3.positive":
        "19ea61eaad1fc2fd273098cf0be9d2dabf4701886c31cac754d108e0d2f5a824",
    "d4.positive":    # reduced: was 1ab548f11a3d...
        "a7fbae26ee4a848070730dcc2ab99823931140cb3de84ba96f614fe25b459020",
    "d5.positive":    # reduced: was e37086ab0245...
        "7eddd7ea84473202dffaccca6dd825cc45cb73b70a97bd0800f906a8fb3e2686",
}


def test_integer_cohomology_output_bytes_are_frozen(tmp_path, capsys):
    quandles = {f"d{n}": make_dihedral(n) for n in range(3, 8)}
    quandles["a8_3"] = make_alexander(8, 3)
    cases = {}
    for name in quandles:
        cases[f"{name}.deg2"] = (name, 2, False, "1,1")
    for name in ("d3", "d4", "d5"):
        cases[f"{name}.deg3"] = (name, 3, False, "1,1")
        cases[f"{name}.self.deg2"] = (name, 2, True, "1,1")
        cases[f"{name}.positive"] = (name, 2, False, "1,-1")
    cases["d3.self.deg3"] = ("d3", 3, True, "1,1")
    assert cases.keys() == INTEGER_COHOMOLOGY_SHA256.keys()
    for label, (name, degree, self_module, spec) in cases.items():
        q = quandles[name]
        qfile = tmp_path / f"{name}.json"
        qfile.write_text(json.dumps(q.to_json()))
        argv = ["cohomology", "--quandle", str(qfile), "--coeff", "0",
                "--degree", str(degree), "--spec", spec]
        if self_module:
            mfile = tmp_path / f"{name}_self.json"
            mfile.write_text(json.dumps(quandle_as_module(q).describe()))
            argv += ["--module", str(mfile)]
        code, out, err = _main_in_process(capsys, argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            INTEGER_COHOMOLOGY_SHA256[label], label


# sha256 of `qci cohomology` stdout with several moduli, recorded before
# the differential rows became sparse per coefficient piece: mixed moduli
# solve one piece per coordinate, equal ones one piece of all coordinates
MIXED_COHOMOLOGY_SHA256 = {
    "d3.z2_4":
        "46f8ec3e6c9eb4c4d74ab6c1618cc414ff4b8cfe192bf80cff3e91f8781dfaa1",
    "d4.z2_4":
        "6525757ab3d3cf0b54e48e1753480f4b3f00f982f85b0fff36bb84a1e2e2fe16",
    "d4.z2_4.deg3":
        "64fe6473e5606ff0289a9d1d062900c84abb9e9c555cf9b357c62e8cf12766b7",
    "d3.z3_0":
        "d7933ee44fa8e12d79a6268b0bb48eb22adbde3e9c1e5b25bb5b82411eb7bc1f",
    "d3.z2_3.positive":
        "28da181ad4489c3ccf6421e9395fcb62b729b72b56b1cf19167d35d573713820",
    "d3.self.z3_9":
        "a1cf1232e899e012c475d71eb2c2db5062e12709e938306dfc8100829ed7463f",
    "d3.z3_3.spec1_2":
        "2480e689cd3a87439cd1ec80942fdac07120a12ca78b11088c930a5fd54b026c",
    "a8_3.z2_4.mod_z2":
        "a143e2604b764ba47d5a1ad41921c1446d310839e4ef3bcbb01e490ce3dd8936",
    "d3.z2_4.no_flag":
        "77e2b2ccfce78d49343c26c80947ba8268b8bad22d7128119778741fe6729245",
}


def test_mixed_moduli_cohomology_output_bytes_are_frozen(tmp_path, capsys):
    paths = {}
    for name, q in (("d3", make_dihedral(3)), ("d4", make_dihedral(4)),
                    ("a8_3", make_alexander(8, 3))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(q.to_json()))
    paths["d3_self"] = tmp_path / "d3_self.json"
    paths["d3_self"].write_text(json.dumps(
        quandle_as_module(make_dihedral(3)).describe()))
    cases = {
        "d3.z2_4": ("d3", "2,4"),
        "d4.z2_4": ("d4", "2,4"),
        "d4.z2_4.deg3": ("d4", "2,4", "--degree", "3"),
        "d3.z3_0": ("d3", "3,0"),
        "d3.z2_3.positive": ("d3", "2,3", "--spec", "1,-1"),
        "d3.self.z3_9": ("d3", "3,9", "--module", str(paths["d3_self"])),
        "d3.z3_3.spec1_2": ("d3", "3,3", "--spec", "1,2"),
        "a8_3.z2_4.mod_z2": ("a8_3", "2,4", "--module", "Z/2"),
        "d3.z2_4.no_flag": ("d3", "2,4", "--no-quandle-flag"),
    }
    assert cases.keys() == MIXED_COHOMOLOGY_SHA256.keys()
    for label, (name, coeff, *extra) in cases.items():
        code, out, err = _main_in_process(capsys, [
            "cohomology", "--quandle", str(paths[name]), "--coeff", coeff,
            *extra])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            MIXED_COHOMOLOGY_SHA256[label], label


# sha256, per flavor, of the exit code, stdout and stderr of `qci
# invariant` on a non-cocycle whose degenerate entries are 0, so that each
# gate reports the cocycle axiom: over three diagrams, with and without
# --force.  Recorded before every flavor but link_twisted was gated as a
# twisted cocycle at its unit (1, 1, -1 or alpha).
GATE_SHA256 = {
    "classical":
        "79afdba2f1cca7339ccd2f99935cf04ba9e6cb473611197a942d536b75154910",
    "shadow":
        "368e9ac532cdb5860c5190bb7b3d7899998f65ad987ab72ce98be867d915bf16",
    "positive":
        "1223a9c46a322c5f85b9b37c0f65c214d1fe170508d589f68e4572538b99f4f0",
    "twisted":
        "5fd815478aac21c6034e5598ca0d968bd162e7704ad426d01362b302713b1452",
    "shadow_twisted":
        "3f362b2a2f611812efa59a35be72ed6e60f2677acdd99d96669c5b0242d89c35",
    "link_twisted":
        "e50b03d09472db5c74f834ac4401432b68e9a0e4c22c051b58c6cad38d51c152",
}


def test_gate_output_bytes_are_frozen(tmp_path, capsys):
    q = make_dihedral(4)
    A = CoeffGroup((5,))
    mod = quandle_as_module(q)
    trivial = Cochain(q, None, A, 2, [
        ((a + 2 * b + 1) % 5 * (a != b),) for a in range(4) for b in range(4)])
    shadow = Cochain(q, mod, A, 2, [
        ((m + a + 2 * b + 1) % 5 * (a != b),)
        for m in range(4) for a in range(4) for b in range(4)])
    paths = {}
    for name, obj in (("q", q), ("trivial", trivial), ("shadow", shadow)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj.to_json()))
    paths["mod"] = tmp_path / "mod.json"
    paths["mod"].write_text(json.dumps(mod.describe()))
    extra = {"classical": [], "positive": [],
             "shadow": ["--module", str(paths["mod"]), "--exterior", "1"],
             "twisted": ["--alpha", "2"],
             "shadow_twisted": ["--module", str(paths["mod"]),
                                "--exterior", "1", "--alpha", "2"],
             "link_twisted": ["--alpha-per-orbit", "2,3"]}
    assert extra.keys() == GATE_SHA256.keys()
    for flavor, args in extra.items():
        cochain = paths["shadow" if "--module" in args else "trivial"]
        digest = hashlib.sha256()
        for name in ("trefoil", "hopf_pos", "link_r3a"):
            for force in ([], ["--force"]):
                code, out, err = _main_in_process(capsys, [
                    "invariant", "--diagram", f"corpus:{name}",
                    "--quandle", str(paths["q"]), "--cocycle", str(cochain),
                    "--flavor", flavor] + args + force)
                if not force:
                    assert code == 1, (flavor, name, err)
                    assert json.loads(out)["axiom"] == "cocycle"
                digest.update(f"{code}\n{out}\n{err}\n".encode())
        assert digest.hexdigest() == GATE_SHA256[flavor], flavor


def test_indices_malformed_exterior_is_exit2(files):
    # a short exterior once escaped main as an IndexError traceback (exit
    # 1, the witness code), and a long one lost its extra entries
    record = corpus.load_json("trefoil")
    path = files["tmp"] / "exterior.json"
    for exterior in ([0], 5, [0, 1, 2]):
        path.write_text(json.dumps(dict(record, exterior=exterior)))
        code, out, err = run_cli("indices", "--diagram", str(path))
        assert (code, out) == (2, ""), exterior
        assert json.loads(err)["error"] == \
            "exterior must be a list [semi-arc, side] of two entries"


def test_exterior_semiarc_must_be_an_integer(files):
    # a bool semi-arc once read as 1, a list one failed as unhashable
    record = corpus.load_json("trefoil")
    path = files["tmp"] / "exterior.json"
    for semiarc in (True, [0], "0", 1.0):
        path.write_text(json.dumps(dict(record, exterior=[semiarc, "left"])))
        code, out, err = run_cli("indices", "--diagram", str(path))
        assert (code, out) == (2, ""), semiarc
        assert json.loads(err)["error"] == \
            f"exterior semi-arc must be an integer, not {semiarc!r}"


def test_diagram_integers_refuse_bool_and_non_integers(files, capsys):
    # JSON true once read as the integer 1 in each of these fields: as
    # semi-arc 1, over slot 1, orients entry 0, a counterclockwise loop and
    # schema version 1
    trefoil = corpus.load_json("trefoil")
    mirror = corpus.load_json("trefoil_mirror")

    def crossing0(record, **fields):
        first = dict(record["crossings"][0], **fields)
        return dict(record, crossings=[first] + record["crossings"][1:])

    cases = [
        (crossing0(trefoil, rot=[0, 2, 3, True]),
         "crossings[0].rot[3] must be an integer, not True"),
        (crossing0(trefoil, rot=[0, 2, 3, 1.0]),
         "crossings[0].rot[3] must be an integer, not 1.0"),
        (crossing0(trefoil, rot=5),
         "crossings[0].rot must be a list of integers, not 5"),
        (crossing0(mirror, over=True),
         "crossings[0].over must be an integer, not True"),
        (crossing0(mirror, orients=[False, 1]),
         "crossings[0].orients[0] must be an integer, not False"),
        ({"v": 1, "free_loops": [True]},
         "free_loops[0] must be an integer, not True"),
        ({"v": 1, "free_loops": ["1"]},
         "free_loops[0] must be an integer, not '1'"),
        (dict(trefoil, v=True), "v must be an integer, not True"),
        (dict(trefoil, v="1"), "v must be an integer, not '1'"),
        ({"v": 1, "crossings": 5},
         "crossings must be a list, not 5"),
        # JSON text inside a JSON string is not decoded a second time
        (json.dumps(trefoil), "diagram json must be an object"),
    ]
    path = files["tmp"] / "bools.json"
    for data, message in cases:
        path.write_text(json.dumps(data))
        code, out, err = _main_in_process(capsys, [
            "indices", "--diagram", str(path)])
        assert (code, out) == (2, ""), message
        assert json.loads(err)["error"] == message
    # the integer forms still read
    for data in (trefoil, crossing0(mirror, orients=[0, 1]),
                 {"v": 1, "free_loops": [1]}):
        path.write_text(json.dumps(data))
        assert _main_in_process(capsys, [
            "indices", "--diagram", str(path)])[0] == 0


def test_component_hints_are_checked(files, capsys):
    # a list once escaped main as an AttributeError traceback, and a key
    # that is no integer exited 2 with Python's int() message
    trefoil = corpus.load_json("trefoil")
    cases = [
        ([1], "components must be an object from semi-arc ids to "
              "components, not [1]"),
        ({"x": 0}, "components key 'x' is not a semi-arc id"),
        ({"0": True}, "components[0] must be an integer, not True"),
        ({"0": 1}, "component hints disagree with the diagram"),
    ]
    path = files["tmp"] / "hints.json"
    for hints, message in cases:
        path.write_text(json.dumps(dict(trefoil, components=hints)))
        code, out, err = _main_in_process(capsys, [
            "indices", "--diagram", str(path)])
        assert (code, out) == (2, ""), hints
        assert json.loads(err)["error"] == message
    path.write_text(json.dumps(dict(trefoil, components={"0": 0, "5": 0})))
    assert _main_in_process(capsys, ["indices", "--diagram", str(path)])[0] \
        == 0


def test_cochain_entries_are_checked(files, capsys):
    # every entry is a list of d integers (a bare integer when d = 1) and
    # the degree a non-negative integer; values[0] must be 0, and its
    # malformed versions once passed as 0 or weighed as a float
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    omega = cocycle_basis(DifferentialSpec.quandle(A), q, None, A, 2)[0]
    record = omega.to_json()
    path = files["tmp"] / "entries.json"
    commands = (["check", "--kind", "cocycle", "--quandle",
                 str(files["quandle"]), "--file", str(path)],
                ["invariant", "--diagram", str(files["diagram"]),
                 "--quandle", str(files["quandle"]), "--cocycle", str(path),
                 "--flavor", "classical"])
    bad_values = ([0, 5], [0.0], [False], [], False, "0", None)
    cases = [(dict(record, values=[v] + record["values"][1:]),
              f"values[0] must be a list of 1 integers, not {v!r}")
             for v in bad_values]
    cases += [(dict(record, degree=k),
               f"degree must be an integer >= 0, not {k!r}")
              for k in (-1, True, 2.0, "2")]
    # a degree whose table outgrows the values, refused before n^degree
    cases += [(dict(record, degree=k),
               f"degree {k} needs more than the 9 values given")
              for k in (4, 10 ** 6)]
    # a missing or mistyped envelope field is named, not met by Python's
    # own KeyError or TypeError message
    missing = {key: {k: v for k, v in record.items() if k != key}
               for key in ("coeff", "values", "degree")}
    cases += [(missing["coeff"],
               "coeff must be an object with a 'moduli' list, not None"),
              (dict(record, coeff=5),
               "coeff must be an object with a 'moduli' list, not 5"),
              (dict(record, coeff={"moduli": 3}), "coeff must be an object "
               "with a 'moduli' list, not {'moduli': 3}"),
              (missing["values"], "values must be a list, not None"),
              (dict(record, values=5), "values must be a list, not 5"),
              (missing["degree"], "degree must be an integer >= 0, not None"),
              ([record], "cochain json must be an object")]
    # a bool modulus once read as Z (false), and "v" was never read
    cases += [(dict(record, coeff={"moduli": [m]}),
               f"modulus {m!r} must be 0 or >= 2") for m in (False, True)]
    cases += [(dict(record, v=v), "unsupported schema version")
              for v in (7, 0, True, "1", None)]
    for data, message in cases:
        path.write_text(json.dumps(data))
        for argv in commands:
            code, out, err = _main_in_process(capsys, argv)
            assert (code, out) == (2, ""), (argv[0], message)
            assert json.loads(err)["error"] == message
    # a bare integer still reads as a one-entry list
    path.write_text(json.dumps(dict(record, values=[
        v[0] for v in record["values"]])))
    for argv in commands:
        assert _main_in_process(capsys, argv)[0] == 0


def test_coeff_flag_names_itself(files, capsys):
    for text in ("3,false", "x", "3,,4"):
        code, out, err = _main_in_process(capsys, [
            "cohomology", "--quandle", str(files["quandle"]),
            "--coeff", text])
        assert (code, out) == (2, ""), text
        assert json.loads(err)["error"] == \
            "--coeff expects integer moduli like 3 or 2,4"


def test_check_quandle_envelope_matches_the_reader(files, capsys):
    # check --kind quandle refuses what Quandle.from_json refuses
    op = make_dihedral(3).to_json()["op"]
    path = files["tmp"] / "envelope.json"
    cases = [({"v": 0, "op": op}, "unsupported schema version"),
             ({"v": True, "op": op}, "unsupported schema version"),
             ({"v": 1, "size": 7, "op": op},
              "size field disagrees with op table"),
             ({"v": 1, "size": True, "op": [[0]]},
              "size field disagrees with op table"),
             ({"size": 3}, "quandle json needs an 'op' table"),
             ({"v": 1, "op": 5}, "op must be a list of lists, not 5"),
             ({"v": 1, "size": 1, "op": [0]},
              "op must be a list of lists, not [0]")]
    for data, message in cases:
        path.write_text(json.dumps(data))
        for argv in (["check", "--kind", "quandle", "--file", str(path)],
                     ["orbits", "--quandle", str(path)]):
            code, out, err = _main_in_process(capsys, argv)
            assert (code, out) == (2, ""), (argv[0], data)
            assert json.loads(err)["error"] == message


def test_check_module_size_disagreement_is_exit2(files):
    record = {"v": 1, "kind": "table", "size": 7,
              "action": [[0, 0, 0], [1, 1, 1], [2, 2, 2]]}
    path = files["tmp"] / "sized.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli("check", "--kind", "module", "--file", str(path),
                             "--quandle", str(files["quandle"]))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == \
        "table module json 'size' 7 disagrees with its 3-row action table"


def test_check_module_reads_the_version(files, capsys):
    # a module record's v was never read
    path = files["tmp"] / "versioned.json"
    for v in (7, True, "1"):
        path.write_text(json.dumps(dict(
            quandle_as_module(make_dihedral(3)).describe(), v=v)))
        code, out, err = _main_in_process(capsys, [
            "check", "--kind", "module", "--file", str(path),
            "--quandle", str(files["quandle"])])
        assert (code, out) == (2, ""), v
        assert json.loads(err)["error"] == "unsupported schema version"


FLAG_ROLES = {"--spec": "two integers like 1,-1",
              "--alpha-per-orbit": "integer units like 2,3",
              "--module": "an integer k like Z/5",
              "--exterior": "integers like 0 or 1,2",
              "--target": "a semi-arc id or loop:j like 3 or loop:0",
              "--target2": "a semi-arc id or loop:j like 3 or loop:0"}


@pytest.mark.parametrize("flag", sorted(FLAG_ROLES))
def test_integer_flags_name_themselves(files, capsys, flag):
    # each flag read as integers names itself instead of passing on
    # Python's "invalid literal for int()"; --coeff has its own test
    d, q, w = (str(files[k]) for k in ("diagram", "quandle", "cocycle"))
    argv, value = {
        "--spec": (["check", "--kind", "cocycle", "--file", w,
                    "--quandle", q], "1,x"),
        "--alpha-per-orbit": (["invariant", "--flavor", "link_twisted",
                               "--diagram", d, "--quandle", q,
                               "--cocycle", w], "2,x"),
        "--module": (["cohomology", "--quandle", q, "--coeff", "3"], "Z/x"),
        "--exterior": (["invariant", "--flavor", "shadow", "--diagram", d,
                        "--quandle", q, "--cocycle", w], "x"),
        "--target": (["rmove", "--diagram", d, "--move", "r1"], "x"),
        "--target2": (["rmove", "--diagram", d, "--move", "r2",
                       "--target", "0"], "loop:x"),
    }[flag]
    code, out, err = _main_in_process(capsys, argv + [flag, value])
    assert (code, out) == (2, "")
    name = "--module Z/k" if flag == "--module" else flag
    assert json.loads(err)["error"] == f"{name} expects {FLAG_ROLES[flag]}"


@pytest.mark.parametrize("flavor", invariants.FLAVORS)
@pytest.mark.parametrize("flag", ["--exterior", "--alpha-per-orbit"])
def test_invariant_integer_flags_are_read_on_every_flavor(files, capsys,
                                                          flag, flavor):
    # --exterior was read on the shadow flavors only, so a malformed value
    # passed on the others while one of --alpha-per-orbit did not
    code, out, err = _main_in_process(capsys, [
        "invariant", "--flavor", flavor, "--diagram", str(files["diagram"]),
        "--quandle", str(files["quandle"]), "--cocycle",
        str(files["cocycle"]), flag, "x"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == f"{flag} expects {FLAG_ROLES[flag]}"


def test_internal_error_is_exit_3_with_its_traceback(files, monkeypatch,
                                                     capsys):
    # a KeyError inside a command is a fault in qci, not bad input
    def broken(quandle):
        raise KeyError("internal")
    monkeypatch.setattr(cli, "orbits", broken)
    code, out, err = _main_in_process(
        capsys, ["orbits", "--quandle", str(files["quandle"])])
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and "KeyError: 'internal'" in err


# Each flavor-input refusal: the invariant flags after --flavor, the
# cochain file ("plain" has no module, "module" is over D3 acting on
# itself), the flavor and input the message names, and the library call
# that refuses the same input (function, flavor, cochain, keywords).
FLAVOR_REFUSALS = {
    "twisted_without_alpha": (
        ["twisted"], "plain", "twisted", "alpha",
        ("invariant_multiset", "twisted", "plain", {})),
    "shadow_twisted_without_alpha": (
        ["shadow_twisted"], "module", "shadow_twisted", "alpha",
        ("invariant_multiset", "shadow_twisted", "module", {"exterior": 0})),
    "shadow_over_z_without_alpha": (
        ["shadow", "--module", "Z"], "plain", "twisted", "alpha",
        ("invariant_multiset", "twisted", "plain", {})),
    "link_twisted_without_alphas": (
        ["link_twisted"], "plain", "link_twisted", "alphas",
        ("invariant_multiset", "link_twisted", "plain", {})),
    "shadow_over_orbitz_without_alphas": (
        ["shadow", "--module", "orbitZ"], "plain", "link_twisted", "alphas",
        ("invariant_multiset", "link_twisted", "plain", {})),
    "shadow_without_module": (
        ["shadow"], "plain", "shadow", "module",
        ("invariant_multiset", "shadow", "plain", {"exterior": 0})),
    "shadow_twisted_without_module": (
        ["shadow_twisted", "--alpha", "2"], "plain", "shadow_twisted",
        "module", ("invariant_multiset", "shadow_twisted", "plain",
                   {"alpha": 2, "exterior": 0})),
    "shadow_exterior_outside_module": (
        ["shadow", "--exterior", "7"], "module", "shadow", "exterior",
        ("invariant_multiset", "shadow", "module", {"exterior": 7})),
    "shadow_twisted_exterior_outside_module": (
        ["shadow_twisted", "--alpha", "2", "--exterior=-1"], "module",
        "shadow_twisted", "exterior",
        ("invariant_multiset", "shadow_twisted", "module",
         {"alpha": 2, "exterior": -1})),
    "refine_shadow": (
        ["shadow", "--refine-orbits"], "module", "shadow", "refinement",
        ("orbit_refined_multisets", "shadow", "module", {})),
    "refine_shadow_twisted": (
        ["shadow_twisted", "--alpha", "2", "--refine-orbits"], "module",
        "shadow_twisted", "refinement",
        ("orbit_refined_multisets", "shadow_twisted", "module",
         {"alpha": 2})),
    "refine_shadow_over_z": (
        ["shadow", "--module", "Z", "--alpha", "2", "--refine-orbits"],
        "plain", "shadow", "refinement",
        ("orbit_refined_multisets", "shadow", "plain", {"alpha": 2})),
}


@pytest.mark.parametrize("case", sorted(FLAVOR_REFUSALS))
def test_flavor_input_refusals(files, monkeypatch, capsys, case):
    # qci.invariants alone decides what each flavor needs: the command
    # passes its flags on and prints the library's refusal, which comes
    # before any coloring search, and the library refuses the same input
    # with a StructureError rather than Python's own TypeError/IndexError
    flags, cochain, flavor, needed, direct = FLAVOR_REFUSALS[case]
    q = make_dihedral(3)
    A = CoeffGroup((3,))
    omegas = {"plain": Cochain(q, None, A, 2, [A.zero()] * 9),
              "module": Cochain.from_json(
                  json.loads(files["cocycle"].read_text()), q)}
    plain = files["tmp"] / "plain.json"
    plain.write_text(json.dumps(omegas["plain"].to_json()))
    paths = {"plain": plain, "module": files["cocycle"]}
    searches = []
    monkeypatch.setattr(invariants, "enumerate_colorings",
                        lambda *args: searches.append(args))
    code, out, err = _main_in_process(
        capsys, ["invariant", "--diagram", str(files["diagram"]),
                 "--quandle", str(files["quandle"]),
                 "--cocycle", str(paths[cochain]), "--flavor"] + flags)
    assert (code, out) == (2, ""), err
    message = json.loads(err)["error"]
    words = re.findall(r"\w+", message)
    assert flavor in words and needed in words, message
    assert searches == []
    fn, lib_flavor, lib_cochain, kwargs = direct
    with pytest.raises(cli.StructureError) as exc:
        getattr(invariants, fn)(corpus.load("trefoil"), q, lib_flavor,
                                omegas[lib_cochain], **kwargs)
    assert str(exc.value) == message
    assert searches == []
    if needed in ("alpha", "alphas"):
        # the gate alone resolves the flavor's units as the plan does
        with pytest.raises(cli.StructureError) as exc:
            invariants.validate_cocycle(lib_flavor, omegas[lib_cochain])
        assert str(exc.value) == message


def test_cochain_module_record_is_read_with_module_flag(files, capsys):
    # --module used to skip the cochain's own module record, so a
    # corrupted record passed unread; a matching record changes nothing
    q = make_dihedral(3)
    record = json.loads(files["cocycle"].read_text())
    mod = files["tmp"] / "self.json"
    mod.write_text(json.dumps(quandle_as_module(q).describe()))
    path = files["tmp"] / "w.json"
    base = ["invariant", "--flavor", "shadow", "--diagram",
            str(files["diagram"]), "--quandle", str(files["quandle"]),
            "--cocycle", str(path)]

    def run(data, *extra):
        path.write_text(json.dumps(data))
        return _main_in_process(capsys, base + list(extra))

    code, own, err = run(record)
    assert code == 0, err
    assert run(record, "--module", str(mod)) == (0, own, "")
    assert run(dict(record, module=None), "--module", str(mod)) == \
        (0, own, "")
    for bad in (2.5, "x", []):
        action = [list(r) for r in record["module"]["action"]]
        action[1][2] = bad
        data = dict(record, module=dict(record["module"], action=action))
        code, out, err = run(data, "--module", str(mod))
        assert (code, out) == (2, ""), bad
        assert "action" in json.loads(err)["error"]
    # a valid record of another module on the same three elements
    other = dict(record, module=cyclic_shadow_module(q, 3).describe())
    code, out, err = run(other, "--module", str(mod))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == \
        "the cochain's module record differs from the given module"


def test_quandle_labels_must_be_a_list_of_size_entries(files, capsys):
    data = json.loads(files["quandle"].read_text())
    path = files["tmp"] / "labelled.json"
    for labels in (5, "abc", ["a", "b"], {"0": "a"}):
        path.write_text(json.dumps(dict(data, labels=labels)))
        code, out, err = _main_in_process(
            capsys, ["orbits", "--quandle", str(path)])
        assert (code, out) == (2, ""), labels
        assert json.loads(err)["error"] == \
            f"labels must be a list of 3 entries, not {labels!r}"
    path.write_text(json.dumps(dict(data, labels=["r", "s", "t"])))
    code, out, err = _main_in_process(
        capsys, ["orbits", "--quandle", str(path)])
    assert code == 0, err
