from __future__ import annotations

import json
from importlib import resources

import numpy as np
import pytest

import qdil.dilation
from conftest import luders_z_schema_mutants
from qdil.cli import main
from qdil.instrument import coarse_grain, instrument_to_json
from qdil.operator_core import matrix_to_json
from qdil.vn_model import load_fixture
from test_cli import BAD_CERTIFIED_DEPTHS

jsonschema = pytest.importorskip("jsonschema")


def schema(kind):
    path = resources.files("qdil") / "schemas" / f"{kind}.schema.json"
    return json.loads(path.read_text())


def test_all_shipped_schemas_are_valid_json_schema():
    for kind in ("instrument", "measuring-process", "correlation-system",
                 "report", "trajectory"):
        jsonschema.Draft202012Validator.check_schema(schema(kind))


def test_pipeline_outputs_validate(tmp_path, capsys):
    inst_path = tmp_path / "luders-z.json"
    inst_path.write_text(json.dumps(instrument_to_json(
        load_fixture("luders-z"))))
    state_path = tmp_path / "plus.json"
    state_path.write_text(json.dumps(matrix_to_json(np.full((2, 2), 0.5))))

    jsonschema.validate(json.loads(inst_path.read_text()),
                        schema("instrument"))

    for argv in (["dilate", "-i", str(inst_path)],
                 ["extend", "-i", str(inst_path)],
                 ["sample", "-i", str(inst_path), "--state", str(state_path),
                  "--steps", "25"]):
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema("report"))

    jsonschema.validate(
        json.loads((tmp_path / "luders-z.mp.json").read_text()),
        schema("measuring-process"))
    jsonschema.validate(
        json.loads((tmp_path / "luders-z.sys.json").read_text()),
        schema("correlation-system"))
    jsonschema.validate(
        json.loads((tmp_path / "luders-z.traj.json").read_text()),
        schema("trajectory"))


def test_error_report_validates(tmp_path, capsys):
    assert main(["dilate", "-i", str(tmp_path / "absent.json")]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "dilate"
    assert "error" in report
    jsonschema.validate(report, schema("report"))


@pytest.mark.parametrize("argv", [["bogus"], ["sample", "-i", "x.json"]])
def test_usage_report_validates(capsys, argv):
    """A usage report validates, with ``command`` null only when no
    subcommand was named; a null ``command`` on any other report does
    not."""
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "usage"
    jsonschema.validate(report, schema("report"))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**report, "command": None, "error": "schema"},
                            schema("report"))


def test_too_large_report_validates(tmp_path, capsys, monkeypatch):
    """Past the budget of ``_gram_blocks``, ``equiv`` reports the
    estimate, which the schema requires of a ``too-large`` error."""
    inst_path = tmp_path / "luders-z.json"
    inst_path.write_text(json.dumps(instrument_to_json(
        load_fixture("luders-z"))))
    assert main(["dilate", "-i", str(inst_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(qdil.dilation, "_GRAM_BUDGET", 1000)
    mp = str(tmp_path / "luders-z.mp.json")
    assert main(["equiv", mp, mp, "--order", "2"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "too-large"
    assert report["estimated_bytes"] > report["budget_bytes"] == 1000
    jsonschema.validate(report, schema("report"))
    del report["estimated_bytes"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, schema("report"))


def test_coarse_grained_export_validates():
    # t1 becomes a null atom, written as an empty Kraus list.
    coarse = coarse_grain(load_fixture("trine-povm"), [("t0", "t1")])
    data = json.loads(json.dumps(instrument_to_json(coarse)))
    assert data["kraus"]["t1"] == []
    jsonschema.validate(data, schema("instrument"))


def test_schema_forbids_the_loader_mutants():
    for data in luders_z_schema_mutants().values():
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, schema("instrument"))


def test_schema_forbids_the_bad_certified_depths(tmp_path):
    inst_path = tmp_path / "luders-z.json"
    inst_path.write_text(json.dumps(instrument_to_json(
        load_fixture("luders-z"))))
    assert main(["extend", "-i", str(inst_path)]) == 0
    data = json.loads((tmp_path / "luders-z.sys.json").read_text())
    jsonschema.validate(data, schema("correlation-system"))
    for depth in BAD_CERTIFIED_DEPTHS:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**data, "certified_depth": depth},
                                schema("correlation-system"))
