"""End-to-end command tests: exit codes, determinism, manifests."""

import json
import pathlib
import subprocess
import sys

import pytest

from qci import corpus
from qci.algebra import CoeffGroup, make_dihedral, quandle_as_module
from qci.cohomology import DifferentialSpec, cocycle_basis

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
    path = files["tmp"] / "broken.json"
    path.write_text("{\"op\": [[0, 1]]}")
    code, _out, err = run_cli("check", "--kind", "quandle",
                              "--file", str(path))
    assert code == 2
    assert "error" in json.loads(err)


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


def test_manifest_reproducibility(files):
    man1 = files["tmp"] / "m1.json"
    man2 = files["tmp"] / "m2.json"
    args = ("colorings", "--diagram", str(files["diagram"]),
            "--quandle", str(files["quandle"]))
    run_cli(*args, "--manifest", str(man1))
    run_cli(*args, "--manifest", str(man2))
    m1 = json.loads(man1.read_text())
    m2 = json.loads(man2.read_text())
    assert m1["output_sha256"] == m2["output_sha256"]
    assert m1["inputs"] == m2["inputs"]
    assert m1["library_version"] == m2["library_version"]


def test_corpus_verify():
    code, out, _ = run_cli("corpus-verify", "--seed", "7", "--samples", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["checks"] > 20


def test_shadow_over_symbolic_module_cli(files):
    # shadow flavor over the integer module: the cocycle file carries the
    # twisted table, the transport happens inside the command; exterior 0
    # must reproduce the plain twisted multiset
    q = make_dihedral(3)
    A = CoeffGroup((5,))
    omega = cocycle_basis(DifferentialSpec.twisted(A, 2), q, None, A, 2)[0]
    path = files["tmp"] / "tw.json"
    path.write_text(json.dumps(omega.to_json()))
    base = ("--diagram", str(files["diagram"]),
            "--quandle", str(files["quandle"]), "--cocycle", str(path))
    code1, out1, _ = run_cli("invariant", "--flavor", "twisted",
                             "--alpha", "2", *base)
    code2, out2, err = run_cli("invariant", "--flavor", "shadow",
                               "--module", "Z", "--alpha", "2",
                               "--exterior", "0", *base)
    assert code1 == 0 and code2 == 0, err
    assert out1 == out2


def test_check_module_missing_quandle_is_structural():
    code, _out, err = run_cli("check", "--kind", "module",
                              "--file", "nonexistent.json")
    assert code == 2
