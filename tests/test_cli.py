import csv
import io
import json

import numpy as np
import pytest

from cartanfinsler import cli
from cartanfinsler.errors import ConfigError


def _config(**overrides):
    doc = {
        "task": "eval",
        "domain": {"type": "I", "m": 2, "n": 2},
        "metric": {"family": "bergman"},
        "seed": 3,
        "samples": 10,
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_config():
    cfg = cli.parse_config(_config())
    assert cfg.task == "eval"
    assert str(cfg.domain) == "I(2, 2)"
    assert cfg.metric.label.startswith("bergman(c=4)")
    assert cfg.seed == 3 and cfg.samples == 10
    assert cfg.tolerances["invariance"] == 1e-9


def test_parse_rejects_bad_tk_parameters():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(_config(metric={"family": "tk", "t": -1, "k": 1}))
    msgs = exc.value.errors
    assert any(m.startswith("metric.t:") and "[0, inf)" in m for m in msgs)
    assert any(m.startswith("metric.k:") and "k >= 2" in m for m in msgs)


def test_parse_collects_all_errors_with_paths():
    text = json.dumps({
        "task": "bogus",
        "domain": {"type": "V"},
        "metric": {"family": "nope"},
        "seed": -1,
        "surprise": 0,
    })
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(text)
    joined = "\n".join(exc.value.errors)
    for path in ("task:", "domain.type:", "metric.family:", "seed:", "surprise:"):
        assert path in joined


def test_parse_rejects_family_domain_mismatch():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(_config(domain={"type": "IV", "n": 3},
                                 metric={"family": "tk", "t": 1, "k": 2}))
    assert any(m.startswith("metric.family:") for m in exc.value.errors)


def test_parse_task_subcommand_conflict():
    with pytest.raises(ConfigError):
        cli.parse_config(_config(task="certify"), task="eval")
    # omitted task falls back to the subcommand
    doc = json.loads(_config())
    del doc["task"]
    cfg = cli.parse_config(json.dumps(doc), task="eval")
    assert cfg.task == "eval"


def test_flag_overrides_and_tolerance_clamp():
    text = _config(tolerances={"invariance": 1e-20, "mixed": 1e-3})
    cfg = cli.parse_config(text, seed=99, samples=5)
    assert cfg.seed == 99 and cfg.samples == 5
    assert cfg.tolerances["invariance"] == 1e-14  # clamped to the floor
    assert cfg.tolerances["mixed"] == 1e-3
    with pytest.raises(ConfigError):
        cli.parse_config(_config(tolerances={"bogus_tol": 1e-6}))


def test_eval_task_with_configured_point(capsys, tmp_path):
    z = [[0.0, 0.0], [0.0, 0.0]]
    v = [[1.0, 0.0], [0.0, 0.0]]
    doc = _config(points=[{"z": [z, z], "v": [v, z]}], samples=4)
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    rc = cli.main(["eval", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdict"] == "pass"
    row = out["table"][0]
    assert row["source"] == "config"
    # Bergman I(2,2) at the origin: F^2 = 4 |V|^2
    assert row["f2"] == pytest.approx(4.0, rel=1e-12)


def test_curvature_task_lu(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "curvature",
        "domain": {"type": "I", "m": 3, "n": 3},
        "metric": {"family": "bergman"},
        "seed": 7,
        "samples": 2000,
    }))
    rc = cli.main(["curvature", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["summary"]["lu"] == pytest.approx(np.sqrt(3.0), abs=1e-6)
    assert out["summary"]["range_ok"] is True
    assert out["provenance"]["tolerances"]["curvature_slack"] == 1e-7


def test_certify_negative_control_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "certify",
        "domain": {"type": "IV", "n": 3},
        "metric": {"family": "affine", "t": 2.0},
        "samples": 20,
    }))
    rc = cli.main(["certify", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["verdict"] == "violation"
    assert out["summary"]["failed_condition"] == "slope_bound"
    assert out["summary"]["witness"][0] > 0.5


def test_certify_pass(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "certify",
        "domain": {"type": "II", "m": 2},
        "metric": {"family": "tk", "t": 1.0, "k": 2},
        "samples": 20,
    }))
    rc = cli.main(["certify", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    checks = {row["check"]: row["status"] for row in out["table"]}
    assert checks["scc_certificate"] == "pass"
    assert checks["connection_vs_hermitian"] == "pass"


def test_sandwich_task(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "sandwich",
        "domain": {"type": "I", "m": 1, "n": 1},
        "metric": {"family": "bergman"},
        "samples": 300,
    }))
    rc = cli.main(["sandwich", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(out["summary"]["worst_lower_margin"]) < 1e-9  # disc is tight
    assert out["summary"]["equality_upper"] < 1e-4


def test_schwarz_task_reproducible_and_threads_retired(tmp_path, capsys):
    doc = {
        "task": "schwarz",
        "domain": {"type": "I", "m": 2, "n": 2},
        "metric": {"family": "bergman"},
        "seed": 5,
        "maps": 12,
        "samples": 25,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["schwarz", "--config", str(path)])
    first = capsys.readouterr().out
    assert rc == 0
    rc = cli.main(["schwarz", "--config", str(path)])
    second = capsys.readouterr().out
    assert rc == 0
    a, b = json.loads(first), json.loads(second)
    assert a["table"] == b["table"]
    assert a["summary"] == b["summary"]
    assert "threads" not in a["provenance"]

    with pytest.raises(SystemExit) as exc:
        cli.main(["schwarz", "--config", str(path), "--threads", "4"])
    assert exc.value.code == 2
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps({**doc, "threads": 2}))
    assert err.value.errors == ["threads: unexpected key"]


def test_certify_reports_capped_sample_count(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "certify",
        "domain": {"type": "I", "m": 1, "n": 2},
        "metric": {"family": "bergman"},
        "samples": 150,
    }))
    rc = cli.main(["certify", "--config", str(path)])
    prov = json.loads(capsys.readouterr().out)["provenance"]
    assert rc == 0
    assert prov["samples"] == 150
    assert prov["effective_samples"] == {"invariance_points": 100,
                                         "invariance_maps": 100}


def test_structured_output_deterministic(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(_config(samples=6))
    cli.main(["eval", "--config", str(path)])
    first = capsys.readouterr().out
    cli.main(["eval", "--config", str(path)])
    second = capsys.readouterr().out
    assert first == second


def test_tabular_round_trip(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "schwarz",
        "domain": {"type": "II", "m": 2},
        "metric": {"family": "bergman"},
        "seed": 2,
        "maps": 8,
        "samples": 20,
    }))
    rc = cli.main(["schwarz", "--config", str(path), "--format", "tabular"])
    text = capsys.readouterr().out
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 8
    cli.main(["schwarz", "--config", str(path)])
    structured = json.loads(capsys.readouterr().out)
    for parsed, original in zip(rows, structured["table"]):
        assert int(parsed["map_index"]) == original["map_index"]
        assert parsed["kind"] == original["kind"]
        for col in ("min_margin", "min_margin_rel", "sup_ratio"):
            assert float(parsed[col]) == original[col]  # lossless floats


def test_missing_config_file_is_config_error(capsys):
    rc = cli.main(["eval", "--config", "/nonexistent/nope.json"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    rc = cli.main(["eval", "--config", str(path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_points_shape_mismatch(tmp_path):
    doc = _config(points=[{"z": [[0.0, 0.0]], "v": [[1.0, 0.0]]}])
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(doc)
    assert any("points[0].z" in m for m in exc.value.errors)


def test_zero_dimensional_type_iii_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(_config(domain={"type": "III", "m": 1}))
    rc = cli.main(["eval", "--config", str(path)])
    assert rc == 2
    assert "order >= 2" in capsys.readouterr().err
