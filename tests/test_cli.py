from __future__ import annotations

import builtins
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import qdil.cli
from conftest import (
    hand_built_amp_damp,
    luders_z_schema_mutants,
    random_cp_instrument,
    scaled_instrument,
)
from qdil.cli import main
from qdil.algebra import algebra_to_json, full_algebra
from qdil.correlations import from_instrument, system_to_json
from qdil.dilation import mp_from_correlations, mp_to_json
from qdil.instrument import instrument_to_json
from qdil.operator_core import Tolerance, matrix_to_json
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


def test_sample_checks_the_state_at_the_tol_flag(tmp_path, capsys):
    # Trace 1 + 2e-7: within the trace bound at --tol 1e-6 (1e-5), not
    # at the default tolerance (1e-8).
    inst = write_fixture(tmp_path, "luders-z")
    state = tmp_path / "heavy.json"
    state.write_text(json.dumps(matrix_to_json(
        np.full((2, 2), 0.5) + 1e-7 * np.eye(2))))
    argv = ["sample", "-i", str(inst), "--state", str(state), "--steps", "5"]
    code, _ = run(capsys, *argv, "--tol", "1e-6")
    assert code in (0, 1)
    traj = json.loads((tmp_path / "luders-z.traj.json").read_text())
    assert len(traj["trajectory"]) == 5
    code, report = run(capsys, *argv)
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


# Values the correlation-system schema forbids for 'certified_depth'.
BAD_CERTIFIED_DEPTHS = ["abc", 0, -3, 2.5, True, [1]]


@pytest.mark.parametrize("key,value", [
    ("outcomes", "01"), ("dimH", 2.7), ("dimH", True), ("dimL", 6.0),
    ("dimL", None)] + [("certified_depth", d) for d in BAD_CERTIFIED_DEPTHS])
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


@pytest.mark.parametrize("depth", [None, "missing", 2])
def test_verify_mc_loader_accepts_certified_depth(tmp_path, capsys, depth):
    sys_path = extended_system(tmp_path, capsys)
    data = json.loads(sys_path.read_text())
    if depth == "missing":
        del data["certified_depth"]
    else:
        data["certified_depth"] = depth
    sys_path.write_text(json.dumps(data))
    code, report = run(capsys, "verify-mc", "-i", str(sys_path))
    assert code == 0
    assert report["all_pass"] is True


def write_tilted_diag_luders(tmp_path, angle=1e-8):
    """``diag-luders-z`` with each Kraus operator rotated by ``angle``.

    The instrument stays CP and complete, but its dual maps leave the
    diagonal algebra by about ``angle``: between ``tol.abs`` and the
    CLI's own ``100·tol.abs`` closure gate at the default tolerance.
    """
    data = instrument_to_json(load_fixture("diag-luders-z"))
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    for label, ops in data["kraus"].items():
        data["kraus"][label] = [matrix_to_json(np.array(
            [[complex(*z) for z in row] for row in k]) @ rot) for k in ops]
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["dilate", "extend", "inner", "faithful",
                                     "sample"])
@pytest.mark.parametrize("angle", [2e-8, 2e-6])
def test_algebra_residual_above_tol_is_algebra_closure(tmp_path, capsys,
                                                       angle, command):
    # The commands that build load the instrument strictly, holding
    # closure to tol; sample keeps its 100·tol bound, which only 2e-6
    # exceeds.
    inst = write_tilted_diag_luders(tmp_path, angle)
    extra = (["--state", str(write_plus_state(tmp_path)), "--steps", "50"]
             if command == "sample" else [])
    code, report = run(capsys, command, "-i", str(inst), *extra)
    if command == "sample" and angle < 1e-7:
        assert code in (0, 1)
        assert "error" not in report
        return
    assert code == 2
    assert report == {"command": command, "error": "algebra-closure",
                      "algebra_residual": pytest.approx(angle, rel=1e-3)}


def test_algebra_residual_between_gates_still_samples(tmp_path, capsys):
    inst = write_tilted_diag_luders(tmp_path)
    code, report = run(capsys, "sample", "-i", str(inst), "--state",
                       str(write_plus_state(tmp_path)), "--steps", "50")
    assert code in (0, 1)
    assert "error" not in report


def test_unknown_anchor_outranks_algebra_residual_between_gates(tmp_path,
                                                                capsys):
    inst = write_tilted_diag_luders(tmp_path)
    code, report = run(capsys, "extend", "-i", str(inst), "--anchor", "9")
    assert code == 2
    assert report["error"] == "unknown-anchor"


@pytest.mark.parametrize("command", ["dilate", "extend", "inner", "faithful",
                                     "sample"])
def test_each_command_checks_its_instrument_once(tmp_path, capsys,
                                                 monkeypatch, command):
    import qdil.instrument

    # inner needs Kraus operators inside the algebra; faithful is run on
    # a restricted algebra, as its own test does.
    name = {"inner": "trine-povm", "faithful": "diag-amp-damp"}.get(
        command, "amp-damp-0.5")
    inst = write_fixture(tmp_path, name)
    checked = []
    original = qdil.instrument.verify_cp

    def counting(instrument, *args, **kwargs):
        checked.append(instrument)
        return original(instrument, *args, **kwargs)

    monkeypatch.setattr(qdil.instrument, "verify_cp", counting)
    monkeypatch.setattr(qdil.cli, "verify_cp", counting)
    extra = (["--state", str(write_plus_state(tmp_path))]
             if command == "sample" else [])
    code, _ = run(capsys, command, "-i", str(inst), *extra)
    assert code == 0
    assert sum(x is checked[0] for x in checked) == 1


@pytest.mark.parametrize("value", [2.7, "2", True])
@pytest.mark.parametrize("where", ["dim", "blocks"])
def test_algebra_loader_rejects_non_integer_sizes(tmp_path, capsys, where,
                                                  value):
    inst = write_fixture(tmp_path, "diag-luders-z")
    data = json.loads(inst.read_text())
    if where == "dim":
        data["algebra"]["dim"] = value
    else:
        data["algebra"]["blocks"][0][1] = value
    inst.write_text(json.dumps(data))
    code, report = run(capsys, "extend", "-i", str(inst))
    assert code == 2
    assert report["error"] == "schema"
    assert f"algebra JSON '{where}'" in report["detail"]


def assert_artifact_is_compact(path):
    text = path.read_text()
    assert "\n" not in text.rstrip("\n")
    assert ": " not in text and ", " not in text


def bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=complex)).view(np.uint64)


def test_dilate_artifact_decodes_to_the_process_built(tmp_path, capsys):
    from qdil.dilation import mp_from_json

    inst = write_fixture(tmp_path, "amp-damp-0.5")
    out = tmp_path / "out.mp.json"
    assert run(capsys, "dilate", "-i", str(inst), "--seed", "2",
               "-o", str(out))[0] == 0
    assert_artifact_is_compact(out)
    mp = mp_from_correlations(from_instrument(load_fixture("amp-damp-0.5")),
                              completion_seed=2)
    got = mp_from_json(json.loads(out.read_text()))
    for a, b in [(got.u, mp.u), (got.sigma, mp.sigma),
                 *((got.e[s], mp.e[s]) for s in mp.outcomes.labels)]:
        assert np.array_equal(bits(a), bits(b))


def test_extend_artifact_decodes_to_the_system_built(tmp_path, capsys):
    from qdil.correlations import system_from_json

    inst = write_fixture(tmp_path, "diag-amp-damp")
    out = tmp_path / "out.sys.json"
    assert run(capsys, "extend", "-i", str(inst), "-o", str(out))[0] == 0
    assert_artifact_is_compact(out)
    built = from_instrument(load_fixture("diag-amp-damp"))
    got = system_from_json(json.loads(out.read_text()), validate=False)
    pairs = [(got.pi_in.tensor, built.pi_in.tensor), (got.v, built.v)]
    pairs += [(got.pi_atom[s].tensor, built.pi_atom[s].tensor)
              for s in built.outcomes.labels]
    for a, b in pairs:
        assert np.array_equal(bits(a), bits(b))


def test_sample_artifact_decodes_to_the_trajectory_drawn(tmp_path, capsys):
    from qdil.instrument import sample_trajectory
    from qdil.operator_core import matrix_from_json

    inst = write_fixture(tmp_path, "amp-damp-0.5")
    out = tmp_path / "out.traj.json"
    code, _ = run(capsys, "sample", "-i", str(inst), "--state",
                  str(write_plus_state(tmp_path)), "--steps", "40",
                  "--seed", "5", "-o", str(out))
    assert code in (0, 1)
    assert_artifact_is_compact(out)
    drawn = sample_trajectory(load_fixture("amp-damp-0.5"),
                              np.full((2, 2), 0.5), 40, 5)
    got = json.loads(out.read_text())["trajectory"]
    assert [step["outcome"] for step in got] == [s for s, _ in drawn]
    for step, (_, rho) in zip(got, drawn):
        assert np.array_equal(bits(matrix_from_json(step["posterior"])),
                              bits(rho))


@pytest.mark.parametrize("command", ["extend", "dilate", "sample", "inner",
                                     "faithful", "vn-model", "fixtures"])
def test_write_json_writes_the_compact_sorted_dump(tmp_path, capsys,
                                                   monkeypatch, command):
    """An artifact of every command that writes one is
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` byte
    for byte, the cycle check skipped."""
    written = []
    write_json = qdil.cli._write_json
    monkeypatch.setattr(qdil.cli, "_write_json", lambda path, payload:
                        written.append((path, payload))
                        or write_json(path, payload))
    out = str(tmp_path / "artifact.json")
    if command == "vn-model":
        argv = [command, "-o", out]
    elif command == "fixtures":
        argv = [command, "--name", "amp-damp-0.5", "-o", out]
    else:
        argv = [command, "-i", str(write_fixture(tmp_path, "amp-damp-0.5"))]
    if command == "sample":
        argv += ["--state", str(write_plus_state(tmp_path)), "--steps", "40"]
    assert run(capsys, *argv)[0] in (0, 1)
    [(path, payload)] = written
    expected = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode("utf-8")


def test_fixture_export_round_trips_awkward_entries(tmp_path, capsys,
                                                    monkeypatch):
    """Exports keep -0.0, subnormals, the largest double and 0.1 + 0.2."""
    from qdil.instrument import CPInstrument, instrument_from_json

    base = load_fixture("luders-z")
    awkward = np.array([[1.0, complex(-0.0, 0.1 + 0.2)],
                        [5e-324, complex(1.7976931348623157e308, -0.0)]])
    assert np.signbit(awkward.real[0, 1]) and np.signbit(awkward.imag[1, 1])
    kraus = {**base.kraus, "0": [awkward]}
    inst = CPInstrument(2, base.algebra, base.outcomes, kraus, validate=False)
    monkeypatch.setattr(qdil.cli, "load_fixture", lambda name: inst)
    out = tmp_path / "export.json"
    code, report = run(capsys, "fixtures", "--name", "luders-z",
                       "-o", str(out))
    assert code == 0
    assert_artifact_is_compact(out)
    got = instrument_from_json(json.loads(out.read_text()), validate=False)
    for s in inst.outcomes.labels:
        for a, b in zip(got.kraus[s], inst.kraus[s]):
            assert np.array_equal(bits(a), bits(b))
    assert report == {"command": "fixtures", "name": "luders-z",
                      "written": str(out)}


def test_report_stays_indented_while_artifact_is_compact(tmp_path, capsys):
    inst = write_fixture(tmp_path, "luders-z")
    out = tmp_path / "out.sys.json"
    assert main(["extend", "-i", str(inst), "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == json.dumps(json.loads(printed), indent=2,
                                 sort_keys=True) + "\n"
    assert_artifact_is_compact(out)


def build_argv(tmp_path, command, out):
    """``command`` on amp-damp-0.5 writing its artifact to ``out``."""
    if command == "fixtures":
        return ["fixtures", "--name", "amp-damp-0.5", "-o", str(out)]
    argv = [command, "-i", str(write_fixture(tmp_path, "amp-damp-0.5")),
            "-o", str(out)]
    if command == "sample":
        argv += ["--state", str(write_plus_state(tmp_path)), "--steps", "40"]
    return argv


def fresh_artifact(tmp_path, capsys, command):
    fresh = tmp_path / f"fresh-{command}.json"
    assert run(capsys, *build_argv(tmp_path, command, fresh))[0] in (0, 1)
    return fresh.read_bytes()


@pytest.mark.parametrize("command", ["dilate", "extend", "sample", "fixtures"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_is_output_error(tmp_path, capsys, command, where):
    out = (tmp_path / "missing" / "x.json" if where == "missing-dir"
           else tmp_path)
    code = main(build_argv(tmp_path, command, out))
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["error"] == "output"
    reason = ("No such file or directory" if where == "missing-dir"
              else "Is a directory")
    assert report["detail"] == f"cannot write {out}: {reason}"
    assert "Traceback" not in captured.err


def cli_env() -> dict:
    """The environment of a CLI subprocess that imports this checkout."""
    src = str(Path(qdil.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_unwritable_output_prints_no_traceback(tmp_path):
    """Run as a process, the CLI reports the error on stdout and prints
    no traceback on stderr."""
    inst = write_fixture(tmp_path, "amp-damp-0.5")
    proc = subprocess.run(
        [sys.executable, "-m", "qdil.cli", "dilate", "-i", str(inst),
         "-o", str(tmp_path / "missing" / "x.json")],
        capture_output=True, text=True, env=cli_env(), check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "output"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,tol", [("dilate", "0.6"), ("extend", "0.6"),
                                         ("inner", "0.6"), ("faithful", "1")])
def test_tolerance_that_drops_every_kraus_operator_is_invalid_input(
        tmp_path, command, tol):
    """At a tolerance whose rank cut-off drops every Kraus operator no
    meter is left: the CLI exits 2 with ``invalid-input`` naming the
    cut-off, and prints no traceback."""
    inst = write_fixture(tmp_path, "luders-z")
    proc = subprocess.run(
        [sys.executable, "-m", "qdil.cli", command, "-i", str(inst),
         "--tol", tol, "-o", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=cli_env(), check=False)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert (report["error"], report["command"]) == ("invalid-input", command)
    assert "rank cut-off" in report["detail"]
    assert "Traceback" not in proc.stderr


USAGE_ERRORS = {
    "sample without --state": (["sample", "-i", "x.json"], "sample",
                               "the following arguments are required: "
                               "--state"),
    "non-numeric --tol": (["dilate", "-i", "x.json", "--tol", "abc"],
                          "dilate", "argument --tol: invalid float value: "
                                    "'abc'"),
    "non-numeric --depth": (["verify-mc", "-i", "x.json", "--depth", "two"],
                            "verify-mc", "argument --depth: invalid int "
                                         "value: 'two'"),
    "unknown option": (["extend", "-i", "x.json", "--bogus", "1"], "extend",
                       "unrecognized arguments: --bogus 1"),
    "unknown subcommand": (["bogus"], None, "argument command: invalid "
                                            "choice: 'bogus'"),
    "missing subcommand": ([], None, "the following arguments are required: "
                                     "command"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_is_an_exit_2_report(capsys, case):
    """An argument vector argparse refuses gives the ``usage`` report with
    the subcommand, if one was named, and exit code 2; nothing reaches
    stderr and no input file is read."""
    argv, command, detail = USAGE_ERRORS[case]
    code, report = run(capsys, *argv)
    assert code == 2
    assert report.keys() == {"error", "detail", "command"}
    assert (report["error"], report["command"]) == ("usage", command)
    assert report["detail"].startswith(detail)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["--help"], ["verify-mc", "--help"]])
def test_help_still_exits_0_with_usage_text(argv):
    proc = subprocess.run([sys.executable, "-m", "qdil.cli", *argv],
                          capture_output=True, text=True, env=cli_env(),
                          check=False)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: qdil")
    assert proc.stderr == ""


def test_usage_error_in_a_process_prints_only_the_report():
    proc = subprocess.run(
        [sys.executable, "-m", "qdil.cli", "sample", "-i", "x.json"],
        capture_output=True, text=True, env=cli_env(), check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "usage"
    assert proc.stderr == ""


def off_dimension_documents(tmp_path) -> dict[str, tuple[list[str], str]]:
    """Documents whose data do not fit their own dimensions, each with the
    argument vector that loads it and the message that refuses it."""
    inst = load_fixture("luders-z")
    sys_doc = system_to_json(from_instrument(inst))
    mp_doc = mp_to_json(mp_from_correlations(from_instrument(inst)))
    good = tmp_path / "lz.mp.json"
    good.write_text(json.dumps(mp_doc))
    docs = {
        "pointer 1x1": ({**mp_doc, "pvm": {s: matrix_to_json(np.eye(1))
                                           for s in mp_doc["pvm"]}},
                        "pointer projection '0' has shape (1, 1), expected "
                        "(3, 3)"),
        "process algebra on C^1": (
            {**mp_doc, "algebra": algebra_to_json(full_algebra(1))},
            "algebra dimension does not match dimH"),
        "system algebra on C^3": (
            {**sys_doc, "algebra": algebra_to_json(full_algebra(3))},
            "algebra dimension does not match dimH"),
    }
    out = {}
    for name, (doc, message) in docs.items():
        path = tmp_path / f"{name.replace(' ', '-')}.json"
        path.write_text(json.dumps(doc))
        argv = (["verify-mc", "-i", str(path)] if "system" in name
                else ["equiv", str(good), str(path)])
        out[name] = argv, message
    return out


@pytest.mark.parametrize("name", ["pointer 1x1", "process algebra on C^1",
                                  "system algebra on C^3"])
def test_documents_off_their_own_dimensions_are_schema_errors(
        tmp_path, capsys, name):
    argv, message = off_dimension_documents(tmp_path)[name]
    code, report = run(capsys, *argv)
    assert code == 2
    assert report == {"error": "schema", "detail": message,
                      "command": argv[0]}


@pytest.mark.parametrize("output,code", [("/dev/stdout", 2), ("file", 0)])
def test_reader_closing_stdout_early_prints_no_traceback(tmp_path, output,
                                                         code):
    """stdout's reader is gone before the CLI writes. The report is lost,
    nothing is printed on stderr, and the exit code is the command's
    own: 0 with the artifact in a file, 2 (``output``) when the artifact
    itself went to the closed stdout."""
    inst = write_fixture(tmp_path, "amp-damp-0.5")
    out = str(tmp_path / "x.mp.json") if output == "file" else output
    proc = subprocess.Popen(
        [sys.executable, "-m", "qdil.cli", "dilate", "-i", str(inst),
         "-o", out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == code
    assert err == ""


def test_equiv_past_the_memory_budget_exits_too_large(tmp_path, capsys):
    """At dimH = 8 and order 4 one node's Gram blocks take about 7.3 GB.
    Under a 2 GiB address-space limit, set on the child process alone,
    ``equiv`` finishes or exits 2 with ``too-large``; it is never killed."""
    resource = pytest.importorskip("resource")
    inst = tmp_path / "8x2x2.json"
    inst.write_text(json.dumps(instrument_to_json(random_cp_instrument(
        np.random.default_rng(3), 8, 2, 2))))
    mp = str(tmp_path / "8x2x2.mp.json")
    assert run(capsys, "dilate", "-i", str(inst), "-o", mp)[0] == 0
    limit = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "qdil.cli", "equiv", mp, mp, "--order", "4"],
        capture_output=True, text=True, env=cli_env(), check=False,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    report = json.loads(proc.stdout)
    if proc.returncode == 2:
        assert report["error"] == "too-large"
        assert report["estimated_bytes"] > report["budget_bytes"]
    else:
        assert proc.returncode == 0 and report["all_equivalent"]
    assert "Traceback" not in proc.stderr


def prior_contents(fresh):
    """What an ``-o`` file may hold before it is overwritten."""
    junk = np.random.default_rng(7).integers(0, 256, 1 << 20, dtype=np.uint8)
    return {"junk-1mb": junk.tobytes(),
            "longer": fresh + b"stale tail" * 10,
            "shorter": fresh[:len(fresh) // 3]}


@pytest.mark.parametrize("command", ["dilate", "extend"])
@pytest.mark.parametrize("prior", ["junk-1mb", "longer", "shorter"])
def test_overwritten_output_equals_a_fresh_write(tmp_path, capsys, command,
                                                 prior):
    fresh = fresh_artifact(tmp_path, capsys, command)
    out = tmp_path / "out.json"
    out.write_bytes(prior_contents(fresh)[prior])
    assert run(capsys, *build_argv(tmp_path, command, out))[0] == 0
    assert out.read_bytes() == fresh


@pytest.mark.parametrize("command", ["dilate", "extend"])
def test_overwrite_keeps_inode_and_mode(tmp_path, capsys, command):
    fresh = fresh_artifact(tmp_path, capsys, command)
    out = tmp_path / "out.json"
    out.write_bytes(b"x" * (2 * len(fresh)))
    out.chmod(0o640)
    before = out.stat()
    assert run(capsys, *build_argv(tmp_path, command, out))[0] == 0
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert out.read_bytes() == fresh


def test_symlinked_output_writes_its_target(tmp_path, capsys):
    fresh = fresh_artifact(tmp_path, capsys, "dilate")
    target = tmp_path / "target.json"
    target.write_bytes(b"old " * 1000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run(capsys, *build_argv(tmp_path, "dilate", link))[0] == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh


def test_output_to_devnull(tmp_path, capsys):
    code, report = run(capsys, *build_argv(tmp_path, "dilate", os.devnull))
    assert code == 0
    assert report["config"]["output"] == os.devnull


def test_output_to_a_fifo(tmp_path, capsys):
    """A FIFO at ``-o`` streams the artifact to its reader; it is not
    cut, as a regular file is."""
    fresh = fresh_artifact(tmp_path, capsys, "dilate")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(
        fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = main(build_argv(tmp_path, "dilate", fifo))
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 0
    assert received == [fresh]


def test_overwrite_never_truncates_or_renames(tmp_path, capsys, monkeypatch):
    """The in-place write: no ``O_TRUNC`` open, no ``"w"`` mode open and
    no rename over the old file. Truncating a file to zero or renaming
    over it makes some filesystems flush it on close."""
    out = tmp_path / "out.json"
    out.write_bytes(b"x" * 100_000)
    argv = build_argv(tmp_path, "dilate", out)
    flags, modes = [], []
    os_open, builtin_open = os.open, builtins.open

    def spy_os_open(path, flag, *args, **kwargs):
        flags.append((os.fspath(path), flag))
        return os_open(path, flag, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return builtin_open(file, mode, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the artifact was renamed into place")

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(os, "replace", forbidden)
    monkeypatch.setattr(os, "rename", forbidden)
    assert main(argv) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert str(out) in [path for path, _ in flags]
    assert not any(flag & os.O_TRUNC for _, flag in flags)
    assert not any("w" in mode for mode in modes)


def test_vn_model_checks_the_observable_at_the_tol_flag(tmp_path, capsys):
    obs = tmp_path / "obs.json"
    obs.write_text("[[0, 1e-8], [0, 1]]")
    argv = ["vn-model", "--observable", str(obs),
            "-o", str(tmp_path / "vn.mp.json")]
    code, report = run(capsys, *argv)
    assert code == 2
    assert report["error"] == "invalid-model"
    assert run(capsys, *argv, "--tol", "1e-6")[0] == 0


def loader_mutants():
    mutants = luders_z_schema_mutants()
    # The schema cannot tie weights keys to the outcome list; the loader does.
    mutants["unknown-outcome-weight"] = {
        **instrument_to_json(load_fixture("luders-z")),
        "weights": {"0": [1.0], "1": [1.0], "zz": [1.0]}}
    return mutants


@pytest.mark.parametrize("name", sorted(loader_mutants()))
def test_instrument_loader_rejects_what_the_schema_forbids(tmp_path, capsys,
                                                           name):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(loader_mutants()[name]))
    code, report = run(capsys, "dilate", "-i", str(path))
    assert code == 2
    assert report["error"] == "schema"
    assert report["command"] == "dilate"


@pytest.mark.parametrize("command,name", [("dilate", "amp-damp-0.5"),
                                          ("faithful", "diag-amp-damp")])
def test_each_instrument_is_checked_once_at_the_callers_tolerance(
        tmp_path, capsys, monkeypatch, command, name):
    import qdil.instrument

    inst = write_fixture(tmp_path, name)
    checked = []

    def counting(original):
        def counted(instrument, tol=qdil.instrument.DEFAULT_TOL):
            checked.append((instrument, tol.abs))
            return original(instrument, tol)
        return counted

    # The loader reads verify_cp's report; a constructor or require_valid
    # checks through _require_cp, which may accept by its bounds.
    monkeypatch.setattr(qdil.cli, "verify_cp", counting(qdil.cli.verify_cp))
    monkeypatch.setattr(qdil.instrument, "_require_cp",
                        counting(qdil.instrument._require_cp))
    code, _ = run(capsys, command, "-i", str(inst), "--tol", "1e-6")
    assert code == 0
    # The input, then the induced instrument (dilate) or the extension
    # through the conditional expectation (faithful).
    assert len(checked) == 2
    assert checked[0][0] is not checked[1][0]
    assert [tol for _, tol in checked] == [1e-6, 1e-6]


def test_fixtures_checks_the_tolerance_like_every_command(capsys,
                                                          monkeypatch):
    code, report = run(capsys, "fixtures", "--tol", "inf")
    assert code == 2
    assert report["error"] == "invalid-input"
    monkeypatch.setenv("QDIL_TOL", "nan")
    code, report = run(capsys, "fixtures", "--name", "luders-z")
    assert code == 2
    assert report == {"command": "fixtures", "error": "invalid-input",
                      "detail": "tolerances must be positive and finite"}


def test_unreadable_input_is_schema_error(tmp_path, capsys):
    code, report = run(capsys, "dilate", "-i", str(tmp_path))
    assert code == 2
    assert report["error"] == "schema"
    assert report["detail"].startswith(f"cannot read {tmp_path}")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"dim": 2, "outcomes": ["\xe9"]}')
    code, report = run(capsys, "dilate", "-i", str(latin1))
    assert code == 2
    assert report["error"] == "schema"
    assert report["detail"].startswith("malformed JSON: 'utf-8' codec")


def test_vn_model_malformed_pointer_is_schema_error(tmp_path, capsys):
    pointer = tmp_path / "pointer.json"
    pointer.write_text(json.dumps({"vector": [1, 0]}))
    code, report = run(capsys, "vn-model", "--dim", "2", "--pointer",
                       str(pointer), "-o", str(tmp_path / "vn.mp.json"))
    assert code == 2
    assert report == {"command": "vn-model", "error": "schema",
                      "detail": "matrix JSON must be a nonempty list of rows"}


def write_scaled_amp_damp(tmp_path):
    """``amp-damp-0.5`` with its Kraus operators ×(1+1e-8).

    Its completeness residual, 2e-8, passes ``verify_cp`` at tol 1e-7.
    """
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(instrument_to_json(
        scaled_instrument(load_fixture("amp-damp-0.5"), 1 + 1e-8))))
    return path


@pytest.mark.parametrize("command", ["extend", "dilate"])
def test_builders_check_at_the_given_tolerance(tmp_path, capsys, command):
    """The system and process are checked at ``--tol``, not the default.

    At the default tolerance the system's multiplicativity residual,
    1e-8, would exceed its bound 1e-9·(1 + dimL).
    """
    path = write_scaled_amp_damp(tmp_path)
    code, report = run(capsys, command, "-i", str(path), "--tol", "1e-6",
                       "-o", str(tmp_path / "out.json"))
    assert code == 0, report


@pytest.mark.parametrize("command", ["inner", "dilate"])
def test_a_completeness_excess_within_tol_dilates(tmp_path, capsys, command):
    """``1 − I(1,S)`` has eigenvalue −2e-8: no square root of it is taken,
    and both commands build the chain's process at ``--tol 1e-7``."""
    path = write_scaled_amp_damp(tmp_path)
    code, report = run(capsys, command, "-i", str(path), "--tol", "1e-7",
                       "-o", str(tmp_path / "out.json"))
    assert code == 0, report
    assert report["round_trip_residual"] <= Tolerance(1e-7, 1e-8).bound("loose")


# An integer JSON entry beyond the float range: float() of it overflows.
HUGE = 10 ** 400


def huge_entry_argv(tmp_path, capsys, where):
    """The argv of a command reading a file with a ``HUGE`` entry at
    ``where``, and the ``error`` its report must carry."""
    inst = write_fixture(tmp_path, "luders-z")
    data = json.loads(inst.read_text())
    if where == "kraus":
        data["kraus"]["0"][0][0][0] = HUGE
    elif where == "weights":
        data["weights"] = {"0": [HUGE], "1": [1.0]}
    if where in ("kraus", "weights"):
        inst.write_text(json.dumps(data))
        return ["dilate", "-i", str(inst)], "schema"
    if where == "state":
        state = write_plus_state(tmp_path)
        state.write_text(json.dumps([[HUGE, 0], [0, 0]]))
        return ["sample", "-i", str(inst), "--state", str(state)], \
            "not-a-state"
    if where == "sys":
        path = extended_system(tmp_path, capsys)
        data = json.loads(path.read_text())
        data["pi_in"][0][0][0][0] = [1.0, -HUGE]
        path.write_text(json.dumps(data))
        return ["verify-mc", "-i", str(path)], "schema"
    run(capsys, "dilate", "-i", str(inst))
    path = tmp_path / "luders-z.mp.json"
    data = json.loads(path.read_text())
    data["u"][0][0] = [HUGE, 0.0]
    bad = tmp_path / "huge.mp.json"
    bad.write_text(json.dumps(data))
    return ["equiv", str(path), str(bad)], "schema"


@pytest.mark.parametrize("where", ["kraus", "weights", "state", "sys", "mp"])
def test_integer_beyond_float_range_is_input_error(tmp_path, capsys, where):
    argv, error = huge_entry_argv(tmp_path, capsys, where)
    code, report = run(capsys, *argv)
    assert code == 2
    assert report["error"] == error
    assert ("float range" if where == "weights" else "finite") in \
        report["detail"]


@pytest.mark.parametrize("command", ["dilate", "extend"])
@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_weight_is_schema_error(tmp_path, capsys, command, weight):
    """``NaN``, ``Infinity`` and ``-Infinity`` weights are rejected where
    the document is read, like a non-finite matrix entry."""
    inst = write_fixture(tmp_path, "luders-z")
    data = json.loads(inst.read_text())
    data["weights"] = {"0": [weight], "1": [1.0]}
    inst.write_text(json.dumps(data))
    code, report = run(capsys, command, "-i", str(inst))
    assert code == 2
    assert report["error"] == "schema"
    assert "array of finite numbers in the float range" in report["detail"]


def test_parser_is_built_once_per_process(tmp_path, capsys):
    """Two commands, and the first again, run in one process with one
    parser report what each reports with a parser of its own."""
    inst = write_fixture(tmp_path, "luders-z")
    state = write_plus_state(tmp_path)
    argvs = [["extend", "-i", str(inst)],
             ["sample", "-i", str(inst), "--state", str(state), "--steps",
              "50"],
             ["extend", "-i", str(inst)]]
    fresh = []
    for argv in argvs:
        qdil.cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    qdil.cli._build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert qdil.cli._build_parser.cache_info().misses == 1
