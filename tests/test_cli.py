from __future__ import annotations

import json

import numpy as np
import pytest

import qdil.cli
from conftest import hand_built_amp_damp, random_cp_instrument
from qdil.cli import main
from qdil.correlations import from_instrument
from qdil.dilation import mp_from_correlations, mp_to_json
from qdil.instrument import instrument_to_json
from qdil.operator_core import matrix_to_json
from qdil.vn_model import load_fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_fixture(tmp_path, name, filename=None):
    path = tmp_path / (filename or f"{name}.json")
    path.write_text(json.dumps(instrument_to_json(load_fixture(name))))
    return path


def write_plus_state(tmp_path):
    path = tmp_path / "plus.json"
    path.write_text(json.dumps(matrix_to_json(np.full((2, 2), 0.5))))
    return path


def test_dilate_writes_process_and_report(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    code, report = run(capsys, "dilate", "-i", str(inst))
    assert code == 0
    assert report["command"] == "dilate"
    assert report["round_trip_residual"] <= 1e-8
    assert report["dims"]["dimL"] == report["dims"]["dimH"] + 4
    mp_path = tmp_path / "luders-z.mp.json"
    assert mp_path.exists()
    data = json.loads(mp_path.read_text())
    assert data["dimH"] == 2


def test_dilate_seed_changes_completion(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    code, report = run(capsys, "dilate", "-i", str(inst), "--seed", "3")
    assert code == 0
    assert report["substitutions"]["completion"] == "seeded(3)"


def test_extend_then_verify_mc_pipeline(tmp_path, capsys):
    inst = write_fixture(tmp_path, "amp-damp-0.5")
    code, report = run(capsys, "extend", "-i", str(inst))
    assert code == 0
    sys_path = tmp_path / "amp-damp-0.5.sys.json"
    assert sys_path.exists()
    code, report = run(capsys, "verify-mc", "-i", str(sys_path),
                       "--depth", "2", "--samples", "80")
    assert code == 0
    assert report["all_pass"] is True
    assert set(report["axioms"]) >= {"MC1", "MC2", "MC3", "MC4", "MC5", "MC6"}


def negated(x):
    return [negated(y) for y in x] if isinstance(x, list) else -x


def test_verify_mc_flags_corrupted_system(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    run(capsys, "extend", "-i", str(inst))
    sys_path = tmp_path / "luders-z.sys.json"
    data = json.loads(sys_path.read_text())
    # Flip the sign of one atom map: the axioms must notice.
    data["pi_atoms"]["1"] = negated(data["pi_atoms"]["1"])
    sys_path.write_text(json.dumps(data))
    code, report = run(capsys, "verify-mc", "-i", str(sys_path),
                       "--depth", "2", "--samples", "60")
    assert code == 1
    assert report["all_pass"] is False


def test_extend_rejects_unknown_anchor(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    code, report = run(capsys, "extend", "-i", str(inst), "--anchor", "zz")
    assert code == 2
    assert report["error"] == "unknown-anchor"
    assert report["outcomes"] == ["0", "1"]


def test_equiv_same_process(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    run(capsys, "dilate", "-i", str(inst))
    mp = str(tmp_path / "luders-z.mp.json")
    code, report = run(capsys, "equiv", mp, mp, "--order", "2")
    assert code == 0
    assert report["all_equivalent"] is True
    assert set(report["orders"]) == {"1", "2"}


def test_equiv_distinct_instruments(tmp_path, capsys):
    a = write_fixture(tmp_path, "luders-z")
    run(capsys, "dilate", "-i", str(a))
    # Same labels, different update: projective x-basis measurement.
    p_plus = np.full((2, 2), 0.5)
    p_minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    lx = {
        "dim": 2,
        "outcomes": ["0", "1"],
        "kraus": {"0": [matrix_to_json(p_plus)],
                  "1": [matrix_to_json(p_minus)]},
    }
    b = tmp_path / "luders-x.json"
    b.write_text(json.dumps(lx))
    run(capsys, "dilate", "-i", str(b))
    code, report = run(capsys, "equiv",
                       str(tmp_path / "luders-z.mp.json"),
                       str(tmp_path / "luders-x.mp.json"))
    assert code == 1
    assert report["all_equivalent"] is False


def test_equiv_mismatched_outcomes_is_input_error(tmp_path, capsys):
    a = write_fixture(tmp_path, "luders-z")
    b = write_fixture(tmp_path, "amp-damp-0.5")
    run(capsys, "dilate", "-i", str(a))
    run(capsys, "dilate", "-i", str(b))
    code, report = run(capsys, "equiv",
                       str(tmp_path / "luders-z.mp.json"),
                       str(tmp_path / "amp-damp-0.5.mp.json"))
    assert code == 2
    assert report["error"] == "mismatch"


def test_equiv_reports_every_order_from_one_pass(tmp_path, capsys,
                                                 monkeypatch):
    canonical = mp_from_correlations(from_instrument(
        load_fixture("amp-damp-0.5")))
    paths = []
    for name, mp in (("canonical", canonical),
                     ("hand", hand_built_amp_damp())):
        paths.append(tmp_path / f"{name}.mp.json")
        paths[-1].write_text(json.dumps(mp_to_json(mp)))
    calls = []
    original = qdil.cli.n_equivalent

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(qdil.cli, "n_equivalent", counted)
    code, report = run(capsys, "equiv", str(paths[0]), str(paths[1]),
                       "--order", "3")
    assert code == 1
    assert calls == [3]
    orders = report["orders"]
    assert [orders[k]["equivalent"] for k in ("1", "2", "3")] == [
        True, True, False]
    assert orders["2"]["note"] == "statistical equivalence"
    assert report["all_equivalent"] is False


@pytest.mark.parametrize("pvm", [[], "x", 1, None, True])
def test_equiv_non_object_pvm_is_schema_error(tmp_path, capsys, pvm):
    inst = write_fixture(tmp_path, "luders-z")
    run(capsys, "dilate", "-i", str(inst))
    mp = tmp_path / "luders-z.mp.json"
    data = json.loads(mp.read_text())
    data["pvm"] = pvm
    mp.write_text(json.dumps(data))
    code, report = run(capsys, "equiv", str(mp), str(mp))
    assert code == 2
    assert report["error"] == "schema"


def test_dilate_non_object_weights_is_schema_error(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    data = json.loads(inst.read_text())
    data["weights"] = [1.0]
    inst.write_text(json.dumps(data))
    code, report = run(capsys, "dilate", "-i", str(inst))
    assert code == 2
    assert report["error"] == "schema"


def test_inner_succeeds_on_full_algebra(tmp_path, capsys):
    inst = write_fixture(tmp_path, "trine-povm")
    code, report = run(capsys, "inner", "-i", str(inst))
    assert code == 0
    assert report["inner_membership_residual"] <= 1e-9
    assert (tmp_path / "trine-povm.mp.json").exists()


def test_inner_rejects_kraus_outside_algebra(tmp_path, capsys):
    inst = write_fixture(tmp_path, "diag-amp-damp")
    code, report = run(capsys, "inner", "-i", str(inst))
    assert code == 2
    assert report["error"] == "kraus-outside-algebra"
    assert report["suggestion"] == "faithful"


def test_faithful_on_restricted_algebra(tmp_path, capsys):
    inst = write_fixture(tmp_path, "diag-amp-damp")
    code, report = run(capsys, "faithful", "-i", str(inst))
    assert code == 0
    assert report["unit_preservation_residual"] <= 1e-12
    assert report["basis_agreement_residual"] <= 1e-9
    assert (tmp_path / "diag-amp-damp.mp.json").exists()


def test_sample_is_deterministic_and_checked(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    state = write_plus_state(tmp_path)
    code, report = run(capsys, "sample", "-i", str(inst),
                       "--state", str(state), "--steps", "500", "--seed", "11")
    assert code == 0
    assert report["all_within_3sigma"] is True
    traj_path = tmp_path / "luders-z.traj.json"
    first = traj_path.read_bytes()
    code, _ = run(capsys, "sample", "-i", str(inst),
                  "--state", str(state), "--steps", "500", "--seed", "11")
    assert code == 0
    assert traj_path.read_bytes() == first


def test_sample_rejects_zero_steps(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    state = write_plus_state(tmp_path)
    code, report = run(capsys, "sample", "-i", str(inst),
                       "--state", str(state), "--steps", "0")
    assert code == 2
    assert report["error"] == "steps-must-be-positive"


def test_sample_rejects_non_state(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    bad = tmp_path / "bad_state.json"
    bad.write_text(json.dumps(matrix_to_json(np.diag([2.0, -1.0]))))
    code, report = run(capsys, "sample", "-i", str(inst),
                       "--state", str(bad), "--steps", "5")
    assert code == 2
    assert report["error"] == "not-a-state"


def test_vn_model_command(tmp_path, capsys):
    out = tmp_path / "vn.mp.json"
    code, report = run(capsys, "vn-model", "--dim", "8", "-o", str(out))
    assert code == 0
    assert out.exists()
    assert report["dims"]["dimK"] == 8
    assert report["coupling"] == pytest.approx(2 * np.pi / 8)


def test_fixtures_catalog_and_export(tmp_path, capsys):
    code, report = run(capsys, "fixtures")
    assert code == 0
    assert "luders-z" in report["fixtures"]
    out = tmp_path / "exported.json"
    code, report = run(capsys, "fixtures", "--name", "trine-povm",
                       "-o", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["outcomes"] == ["t0", "t1", "t2"]


def test_fixtures_unknown_name(capsys):
    code, report = run(capsys, "fixtures", "--name", "nope")
    assert code == 2
    assert report["error"] == "unknown-fixture"


def test_missing_input_file_is_schema_error(tmp_path, capsys):
    code, report = run(capsys, "dilate", "-i", str(tmp_path / "absent.json"))
    assert code == 2
    assert report["error"] == "schema"


def test_incomplete_instrument_is_rejected(tmp_path, capsys):
    data = instrument_to_json(load_fixture("luders-z"))
    for s in data["kraus"]:
        data["kraus"][s] = [[[[0.9 * re, 0.9 * im] for re, im in row]
                             for row in k] for k in data["kraus"][s]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    code, report = run(capsys, "dilate", "-i", str(path))
    assert code == 2
    assert report["error"] == "not-complete"


def test_non_cp_instrument_is_rejected(tmp_path, capsys):
    data = instrument_to_json(load_fixture("luders-z"))
    # A transpose-like Kraus pair with a sign twist is not CP: easiest
    # corruption is an off-diagonal entry that breaks positivity of the
    # reassembled Choi matrix via inconsistent weights. Simpler: give
    # one atom two conflicting copies scaled to keep completeness.
    data["kraus"]["0"] = [matrix_to_json(np.array([[1.0, 0.0], [0.0, 0.0]]))]
    data["weights"] = {"0": [-1.0], "1": [1.0]}
    path = tmp_path / "noncp.json"
    path.write_text(json.dumps(data))
    code, report = run(capsys, "dilate", "-i", str(path))
    assert code == 2
    assert report["error"] in ("choi-negative", "not-complete")


def test_tol_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    inst = write_fixture(tmp_path, "luders-z")
    monkeypatch.setenv("QDIL_TOL", "1e-6")
    code, report = run(capsys, "dilate", "-i", str(inst))
    assert code == 0
    assert report["config"]["tol"] == pytest.approx(1e-6)
    code, report = run(capsys, "dilate", "-i", str(inst), "--tol", "1e-7")
    assert code == 0
    assert report["config"]["tol"] == pytest.approx(1e-7)


def test_reports_echo_effective_config(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    code, report = run(capsys, "dilate", "-i", str(inst))
    assert code == 0
    cfg = report["config"]
    assert cfg["tol"] == pytest.approx(1e-9)
    assert cfg["seed"] == 0
    assert cfg["output"].endswith(".mp.json")


def test_output_flag_overrides_derived_path(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    target = tmp_path / "custom_name.json"
    code, _ = run(capsys, "dilate", "-i", str(inst), "-o", str(target))
    assert code == 0
    assert target.exists()


def extended_system(tmp_path, capsys, name="luders-z"):
    inst = write_fixture(tmp_path, name)
    code, _ = run(capsys, "extend", "-i", str(inst))
    assert code == 0
    return tmp_path / f"{name}.sys.json"


def test_verify_mc_rejects_zero_samples(tmp_path, capsys):
    sys_path = extended_system(tmp_path, capsys)
    code, report = run(capsys, "verify-mc", "-i", str(sys_path),
                       "--samples", "0")
    assert code == 2
    assert report["error"] == "invalid-input"


@pytest.mark.parametrize("order", ["0", "-3"])
def test_equiv_rejects_non_positive_order(tmp_path, capsys, order):
    inst = write_fixture(tmp_path, "luders-z")
    run(capsys, "dilate", "-i", str(inst))
    mp = str(tmp_path / "luders-z.mp.json")
    code, report = run(capsys, "equiv", mp, mp, "--order", order)
    assert code == 2
    assert report["error"] == "invalid-input"


def test_infinite_tolerance_is_input_error(tmp_path, capsys, monkeypatch):
    sys_path = extended_system(tmp_path, capsys)
    code, report = run(capsys, "verify-mc", "-i", str(sys_path),
                       "--tol", "inf")
    assert code == 2
    assert "error" in report
    monkeypatch.setenv("QDIL_TOL", "inf")
    code, report = run(capsys, "verify-mc", "-i", str(sys_path))
    assert code == 2
    assert "error" in report


def test_verify_mc_rejects_truncated_pi_in(tmp_path, capsys):
    sys_path = extended_system(tmp_path, capsys)
    data = json.loads(sys_path.read_text())
    data["pi_in"] = data["pi_in"][:-1]
    sys_path.write_text(json.dumps(data))
    code, report = run(capsys, "verify-mc", "-i", str(sys_path))
    assert code == 2
    assert report["error"] == "schema"


def test_boolean_matrix_entry_is_schema_error(tmp_path, capsys):
    data = instrument_to_json(load_fixture("luders-z"))
    assert data["kraus"]["0"][0][0][0] == [1.0, 0.0]
    data["kraus"]["0"][0][0][0] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    code, report = run(capsys, "dilate", "-i", str(path))
    assert code == 2
    assert report["error"] == "schema"


# A string outcome list and non-integer dimensions, each against the
# loader of every command that reads the file.
BAD_SHAPE_FIELDS = [("outcomes", "01"), ("outcomes", {"0": 1}),
                    ("dim", 2.7), ("dim", 2.0), ("dim", True), ("dim", "2")]


@pytest.mark.parametrize("command", ["dilate", "extend", "inner", "faithful",
                                     "sample"])
@pytest.mark.parametrize("key,value", BAD_SHAPE_FIELDS)
def test_instrument_loader_rejects_bad_shape_fields(tmp_path, capsys, command,
                                                    key, value):
    inst = write_fixture(tmp_path, "luders-z")
    data = json.loads(inst.read_text())
    data[key] = value
    inst.write_text(json.dumps(data))
    extra = (["--state", str(write_plus_state(tmp_path))]
             if command == "sample" else [])
    code, report = run(capsys, command, "-i", str(inst), *extra)
    assert code == 2
    assert report["error"] == "schema"
    assert f"'{key}'" in report["detail"]


@pytest.mark.parametrize("key,value", [
    ("outcomes", "01"), ("dimH", 2.7), ("dimH", False), ("dimK", 2.0),
    ("dimK", "4")])
def test_equiv_loader_rejects_bad_shape_fields(tmp_path, capsys, key, value):
    inst = write_fixture(tmp_path, "luders-z")
    run(capsys, "dilate", "-i", str(inst))
    mp = tmp_path / "luders-z.mp.json"
    data = json.loads(mp.read_text())
    data[key] = value
    bad = tmp_path / "bad.mp.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, "equiv", str(mp), str(bad))
    assert code == 2
    assert report["error"] == "schema"
    assert f"'{key}'" in report["detail"]


@pytest.mark.parametrize("key,value", [
    ("outcomes", "01"), ("dimH", 2.7), ("dimH", True), ("dimL", 6.0),
    ("dimL", None)])
def test_verify_mc_loader_rejects_bad_shape_fields(tmp_path, capsys, key,
                                                   value):
    sys_path = extended_system(tmp_path, capsys)
    data = json.loads(sys_path.read_text())
    data[key] = value
    sys_path.write_text(json.dumps(data))
    code, report = run(capsys, "verify-mc", "-i", str(sys_path))
    assert code == 2
    assert report["error"] == "schema"
    assert f"'{key}'" in report["detail"]
