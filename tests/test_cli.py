import csv
import dataclasses
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

from cartanfinsler import (automorphisms as am, cli, curvature, domains, metrics, norms,
                           numkernel)
from cartanfinsler.errors import ConfigError, StructureError
from oracles import LAPACK_KERNELS


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
    # the search's own value, and C against k1 (B(V,V) = K(V) reaches -k1)
    summary = out["summary"]
    assert summary["bisectional_search"] == pytest.approx(summary["K1"],
                                                          rel=1e-14)
    assert summary["bisectional_excess"] == \
        summary["bisectional_C"] / summary["K1"] - 1.0


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


def test_certify_connection_tolerance_drives_the_verdict(tmp_path, capsys,
                                                        monkeypatch):
    doc = {
        "task": "certify",
        "domain": {"type": "II", "m": 2},
        "metric": {"family": "tk", "t": 1.0, "k": 2},
        "seed": 1,
        "samples": 20,
    }
    real = metrics._connection_jet

    def bent(metric, zs, vs, v0s):
        # a fault of 1e-6 times a term of degree 1 in v that is not linear,
        # in N only: the origin's derivative (the mixed row) is left as it is
        c = domains.pack(metric.domain, vs)
        quad = (c[..., :, None] * c[..., None, :]
                / np.linalg.norm(c, axis=-1)[..., None, None])
        mixed, nonlinear, hermitian = real(metric, zs, vs, v0s)
        return mixed, nonlinear + 1e-6 * quad, hermitian

    monkeypatch.setattr(metrics, "_connection_jet", bent)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(doc, tolerances={"connection": 1e-3})))
    assert cli.main(["certify", "--config", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(dict(doc, tolerances={"connection": 1e-9})))
    rc = cli.main(["certify", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["verdict"] == "violation"
    rows = {row["check"]: row for row in out["table"]}
    assert rows["connection_fiber_variation"]["status"] == "fail"
    assert rows["connection_fiber_variation"]["threshold"] == 1e-9
    assert rows["invariance_deviation"]["status"] == "pass"
    assert rows["mixed_derivative"]["value"] == 0.0


def test_certify_invariance_tolerance_drives_the_verdict(tmp_path, capsys):
    doc = {
        "task": "certify",
        "domain": {"type": "I", "m": 1, "n": 3},
        "metric": {"family": "bergman"},
        "seed": 1,
        "samples": 20,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["certify", "--config", str(path)]) == 0
    deviation = json.loads(capsys.readouterr().out)["summary"]["invariance_deviation"]
    # rounding-level (about 4e-14 on this config) but not zero
    assert 1e-14 < deviation <= 1e-12
    path.write_text(json.dumps(dict(doc, tolerances={"invariance": 1e-14})))
    rc = cli.main(["certify", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["verdict"] == "violation"
    rows = {row["check"]: row for row in out["table"]}
    assert rows["invariance_deviation"]["status"] == "fail"
    assert rows["invariance_deviation"]["threshold"] == 1e-14
    assert all(row["status"] == "pass" for name, row in rows.items()
               if name != "invariance_deviation")


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


def _run_task(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = cli.main([doc["task"], "--config", str(path)])
    return rc, json.loads(capsys.readouterr().out)


def _run_sandwich(tmp_path, capsys, doc):
    return _run_task(tmp_path, capsys,
                     {"task": "sandwich", "seed": 1, "samples": 100, **doc})


def test_sandwich_equality_tolerance_drives_the_verdict(tmp_path, capsys):
    tk = {"domain": {"type": "I", "m": 2, "n": 3},
          "metric": {"family": "tk", "t": 1, "k": 2}}
    rc, out = _run_sandwich(tmp_path, capsys, tk)
    assert rc == 0 and out["summary"]["passed"] is True
    assert 1e-9 < out["summary"]["equality_upper"] < 1e-4
    rc, out = _run_sandwich(tmp_path, capsys,
                            {**tk, "tolerances": {"sandwich_equality": 1e-9}})
    assert rc == 1 and out["verdict"] == "violation"
    assert out["summary"]["passed"] is False
    # the Lie ball's K1 and K2 are exact, so its equality residuals vanish
    rc, out = _run_sandwich(tmp_path, capsys, {
        "domain": {"type": "IV", "n": 3}, "metric": {"family": "bergman"}})
    assert rc == 0
    assert out["summary"]["equality_lower"] <= 1e-14
    assert out["summary"]["equality_upper"] <= 1e-14


def _scale_k1(monkeypatch, factor):
    """Make every curvature_bounds call report factor * K1."""
    bounds_of = curvature.curvature_bounds

    def scaled(*args, **kwargs):
        report = bounds_of(*args, **kwargs)
        return dataclasses.replace(report, k1=factor * report.k1)

    monkeypatch.setattr(curvature, "curvature_bounds", scaled)


# No shipped config moves these margins above the 1e-14 tolerance floor (the
# disc's sandwich margins are -9.7e-16 at worst, the ball's curvature excesses
# -slack +- 6e-17), so each control reports K1 low by a known relative delta.


def test_curvature_slack_drives_the_verdict(tmp_path, capsys, monkeypatch):
    # the ball's sectional curvature is -K1 everywhere: a K1 reported delta
    # low leaves every sample K1 * delta below the reported range
    delta = 1e-6
    _scale_k1(monkeypatch, 1.0 - delta)
    doc = {"task": "curvature", "domain": {"type": "I", "m": 1, "n": 2},
           "metric": {"family": "bergman"}, "seed": 1, "samples": 100}
    rc, out = _run_task(tmp_path, capsys, doc)
    assert rc == 1 and out["verdict"] == "violation"
    assert out["summary"]["range_ok"] is False
    rows = {row["quantity"]: row["value"] for row in out["table"]}
    k1 = rows["K1"] / (1.0 - delta)
    assert rows["worst_low_excess"] == pytest.approx(k1 * delta - 1e-7, rel=1e-6)
    rc, out = _run_task(tmp_path, capsys,
                        dict(doc, tolerances={"curvature_slack": 2.0 * k1 * delta}))
    assert rc == 0 and out["verdict"] == "pass"
    assert out["summary"]["range_ok"] is True


def test_sandwich_slack_drives_the_verdict(tmp_path, capsys, monkeypatch, clear_memos):
    # the disc is tight on its lower side: a K1 reported delta low moves every
    # lower margin to 1 - 1/(1 - delta), about -delta.  The sandwich reads K1
    # through its memo of the equality residuals, emptied around the test
    delta = 1e-6
    _scale_k1(monkeypatch, 1.0 - delta)
    doc = {"domain": {"type": "I", "m": 1, "n": 1}, "metric": {"family": "bergman"}}
    rc, out = _run_sandwich(tmp_path, capsys, doc)
    assert rc == 1 and out["verdict"] == "violation"
    summary = out["summary"]
    assert summary["passed"] is False
    assert summary["worst_lower_margin"] == pytest.approx(-delta, rel=1e-5)
    assert summary["witness"]["side"] == "lower"
    rc, out = _run_sandwich(tmp_path, capsys,
                            dict(doc, tolerances={"sandwich_slack": 2.0 * delta}))
    assert rc == 0 and out["verdict"] == "pass"
    assert out["summary"]["passed"] is True and "witness" not in out["summary"]


def test_schwarz_slack_sets_the_violation_threshold(tmp_path, capsys, monkeypatch):
    # on the disc sqrt(K1/K2) = 1; with K1 reported as (1 - delta)^2 K1 the
    # identity and every automorphism have relative margin -delta
    delta = 1e-3
    _scale_k1(monkeypatch, (1.0 - delta) ** 2)
    doc = {"task": "schwarz", "domain": {"type": "I", "m": 1, "n": 1},
           "metric": {"family": "bergman"}, "seed": 4, "maps": 6, "samples": 20}
    rc, out = _run_task(tmp_path, capsys,
                        dict(doc, tolerances={"schwarz_slack": 0.5 * delta}))
    assert rc == 1 and out["verdict"] == "violation"
    tight = out["summary"]
    assert tight["min_margin_rel"] == pytest.approx(-delta, rel=1e-9)
    assert tight["violations"] >= 1
    rc, out = _run_task(tmp_path, capsys,
                        dict(doc, tolerances={"schwarz_slack": 2.0 * delta}))
    assert rc == 0 and out["verdict"] == "pass"
    assert out["summary"]["violations"] == 0
    assert out["summary"]["min_margin_rel"] == tight["min_margin_rel"]


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
    # three base points, max(10, dim + 1) = 10 fibers each
    assert prov["effective_samples"] == {"invariance_points": 100,
                                         "invariance_maps": 100,
                                         "connection_fibers": 30}
    assert prov["rng_scheme"] == \
        "philox4x64-10/key(seed,check)/counter(block,part,attempt)/box-muller"


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


@pytest.mark.parametrize("overrides, field", [
    ({"samples": 0}, "samples"),
    ({"task": "schwarz", "maps": 0}, "maps"),
    ({"domain": {"type": "IV", "n": 1}}, "domain"),
    ({"domain": {"type": "I", "m": 3, "n": 2}}, "domain"),
    # json reads NaN and Infinity; a config number must be finite
    ({"task": "certify", "tolerances": {"invariance": float("nan")}},
     "tolerances.invariance"),
    ({"metric": {"family": "bergman", "scale": float("inf")}}, "metric.scale"),
    ({"metric": {"family": "bergman", "scale": 10**400}}, "metric.scale"),
    ({"metric": {"family": "tk", "t": float("inf"), "k": 2}}, "metric.t"),
    ({"points": [{"z": [[[0.0, 0.0]] * 2] * 2,
                  "v": [[[float("nan"), 0.0], [1.0, 0.0]], [[0.0, 0.0]] * 2]}]},
     "points[0].v"),
], ids=["samples-0", "maps-0", "IV(1)", "I(3,2)", "tolerance-NaN", "scale-inf",
        "scale-1e400-int", "t-inf", "tangent-NaN"])
def test_degenerate_config_exits_2_naming_the_field(tmp_path, capsys, overrides,
                                                     field):
    doc = json.loads(_config(**overrides))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = cli.main([doc["task"], "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"config error: {field}")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("seed", [1, 7])
def test_schwarz_self_map_on_non_square_type_i(tmp_path, capsys, m, seed):
    # the corpus must not offer matrix powers Z^d on a non-square source
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "schwarz",
        "domain": {"type": "I", "m": m, "n": 3},
        "metric": {"family": "bergman"},
        "seed": seed,
        "maps": 12,
        "samples": 20,
    }))
    rc = cli.main(["schwarz", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["table"]) == 12


def test_zero_tangent_point_is_config_error(tmp_path, capsys):
    z = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    v = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "cfg.json"
    path.write_text(_config(points=[{"z": z, "v": v}, {"z": z, "v": z}]))
    rc = cli.main(["eval", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "points[1].v" in err and "points[0]" not in err


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    # a program fault exits 2, not 1 (the code of a verified violation)
    def broken(config):
        raise ValueError("operands could not be broadcast")

    monkeypatch.setattr(cli, "run", broken)
    path = tmp_path / "cfg.json"
    path.write_text(_config())
    rc = cli.main(["eval", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.strip() == \
        "internal error: ValueError: operands could not be broadcast"


def _benchmark_request_types():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [kind for mix in module.WORKLOADS.values() for kind in mix]


# the checks each task samples for; certify's connection pass draws only
# behind a passed certificate
TASK_CHECKS = {"eval": {"eval"},
               "certify": {"automorphism_invariance", "kahler_berwald"},
               "curvature": {"bisectional", "curvature_range"},
               "sandwich": {"sandwich"}, "schwarz": {"corpus", "schwarz_samples"}}


@pytest.mark.parametrize("seed", [1, 7])
def test_no_two_checks_of_a_request_share_a_key(seed, monkeypatch):
    words_of = domains._philox_words
    calls = []

    def recorded(key_seed, check, part, attempt, n_words):
        calls.append((key_seed, check, part, attempt))
        return words_of(key_seed, check, part, attempt, n_words)

    monkeypatch.setattr(domains, "_philox_words", recorded)
    kinds = _benchmark_request_types()
    assert len(kinds) == 12
    for kind in kinds:
        calls.clear()
        report = cli.run(cli.parse_config(json.dumps(dict(kind.config, seed=seed))))
        # every (key, part) pair is read once, under the request's seed and
        # the task's own checks
        pairs = [(s, check, part) for s, check, part, _ in calls]
        assert len(set(pairs)) == len(pairs), (kind.name, calls)
        checks = {check for _, check, _ in pairs}
        if report.task == "certify" and not report.summary["certificate_passed"]:
            checks.add("kahler_berwald")
        assert checks == TASK_CHECKS[report.task], kind.name
        assert {s for s, *_ in calls} == {seed}, kind.name
    # and no two library checks share an id
    assert len(set(domains.CHECKS.values())) == len(domains.CHECKS)


# Lie spectral stages (domains._lie_spectrum) per certify request on IV(3):
# the invariance check's two point draws (samples and map base points), the
# frame of its stacked normalizing map, whose l1 decides membership too, and
# the frame of its one eval2_many; behind a passed certificate, the
# connection check's point draw and the one frame of its pass.
LIE_SPECTRA = {"certify_IV3_bergman": 6, "certify_IV3_affine_t2": 4}


def test_a_repeated_request_builds_no_generator_and_no_index_pairs(monkeypatch):
    # the Philox generator is built once per process and the index pairs
    # once per shape: the first run of each request type may build them, a
    # second run (at another seed) builds none
    calls = dict.fromkeys(["Philox", "triu_indices", "_lie_spectrum"], 0)
    for module, name in ((np.random, "Philox"), (np, "triu_indices"),
                         (domains, "_lie_spectrum")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(domains, "_GENERATOR", [])
    domains._pairs.cache_clear()
    built = 0
    for kind in _benchmark_request_types():
        for seed in (1, 7):
            calls.update(dict.fromkeys(calls, 0))
            cli.run(cli.parse_config(json.dumps(dict(kind.config, seed=seed))))
            built += calls["Philox"]
        assert calls["Philox"] == calls["triu_indices"] == 0, (kind.name, calls)
        if kind.name in LIE_SPECTRA:
            assert calls["_lie_spectrum"] == LIE_SPECTRA[kind.name], (kind.name, calls)
    assert built == 1


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # the generator and the shape caches are built on first use, so none of
    # their cost (numpy.random pulls in secrets and hashlib) moves into import
    code = "import sys; from cartanfinsler import cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert out.stdout.split() == ["False"]


# Mobius cores (I - Z0* Z)^{-1} per request: certify pushes its stacked
# invariance maps once, and each of the two maps of schwarz_I22_tk's corpus
# that go through an automorphism takes one core in schwarz_check.  A push
# that solved the image again for the tangent would raise these counts.
MOBIUS_CORES = {"certify_I13_tk": 1, "certify_II2_bergman": 1, "schwarz_I22_tk": 2}


@pytest.mark.parametrize("seed", [1, 7])
def test_one_mobius_core_per_push(seed, monkeypatch):
    core_of = am._mobius_core
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return core_of(*args, **kwargs)

    monkeypatch.setattr(am, "_mobius_core", counted)
    for kind in _benchmark_request_types():
        calls.clear()
        cli.run(cli.parse_config(json.dumps(dict(kind.config, seed=seed))))
        assert len(calls) == MOBIUS_CORES.get(kind.name, 0), (kind.name, len(calls))


# Base-point frames per certify request, as (metrics._frame, domains.lie_frame)
# calls: one for the invariance pass (the samples and their images in one
# stack), one for the roots of its normalizing maps, and one for the base
# points and the origin of the connection pass, which its fiber jet and the
# reference connection both read.  certify_IV3_affine_t2 fails its
# certificate, so its connection pass does not run.  A formula that built the
# frame again for itself would raise these counts.
CERTIFY_FRAMES = {"certify_I13_tk": (3, 0), "certify_II2_bergman": (3, 0),
                  "certify_IV3_bergman": (0, 3), "certify_IV3_affine_t2": (0, 2)}


def _frame_counts(monkeypatch):
    """A function of a run config that runs it and returns its counts of
    metrics._frame and domains.lie_frame calls."""
    calls = {(metrics, "_frame"): 0, (domains, "lie_frame"): 0}
    for module, name in calls:
        def counted(*args, _real=getattr(module, name), _key=(module, name), **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def run(config):
        calls.update(dict.fromkeys(calls, 0))
        cli.run(cli.parse_config(json.dumps(config)))
        return tuple(calls.values())
    return run


@pytest.mark.parametrize("seed", [1, 7])
def test_one_frame_per_formula_in_certify(seed, monkeypatch):
    counts = _frame_counts(monkeypatch)
    kinds = [kind for kind in _benchmark_request_types()
             if kind.name.startswith("certify")]
    assert {kind.name for kind in kinds} == set(CERTIFY_FRAMES)
    for kind in kinds:
        got = counts(dict(kind.config, seed=seed))
        assert got == CERTIFY_FRAMES[kind.name], (kind.name, got)


@pytest.mark.parametrize("seed", [1, 7])
def test_one_evaluation_pass_per_certify_check(seed, monkeypatch):
    # the invariance check makes one eval2_many call and the connection check
    # one _fiber_jet call; the failed certificate of affine(2) skips the
    # connection check
    calls, check = [], [None]
    for name in ("eval2_many", "_fiber_jet"):
        def counted(*args, _real=getattr(metrics, name), _name=name):
            calls.append((check[0], _name))
            return _real(*args)

        monkeypatch.setattr(metrics, name, counted)
    for name in ("verify_invariance", "verify_kahler_berwald"):
        def within(*args, _real=getattr(metrics, name), _name=name, **kwargs):
            check[0] = _name
            try:
                return _real(*args, **kwargs)
            finally:
                check[0] = None

        monkeypatch.setattr(metrics, name, within)
    kinds = [kind for kind in _benchmark_request_types()
             if kind.name.startswith("certify")]
    for kind in kinds:
        calls.clear()
        cli.run(cli.parse_config(json.dumps(dict(kind.config, seed=seed))))
        within_checks = [call for call in calls if call[0] is not None]
        expected = [("verify_invariance", "eval2_many")]
        if kind.verdict == "pass":
            expected.append(("verify_kahler_berwald", "_fiber_jet"))
        assert within_checks == expected, (kind.name, calls)


# (_frame, lie_frame) calls per sandwich request.  On every type the samples
# take one frame, which gives W = dphi_Z V for both sides (the Cholesky roots
# on types I-III, V M^(1/2) / Delta on the Lie ball), and the origin probes
# take none (W = V there).
SANDWICH_FRAMES = {"sandwich_II3_tk": (1, 0), "sandwich_I23_tk": (1, 0),
                   "sandwich_IV3_bergman": (0, 1)}
SANDWICH_IV3 = {"task": "sandwich", "domain": {"type": "IV", "n": 3},
                "metric": {"family": "bergman"}, "samples": 100}


@pytest.mark.parametrize("seed", [1, 7])
def test_one_frame_per_sandwich(seed, monkeypatch):
    counts = _frame_counts(monkeypatch)
    configs = {kind.name: kind.config for kind in _benchmark_request_types()
               if kind.name.startswith("sandwich")}
    configs["sandwich_IV3_bergman"] = SANDWICH_IV3
    assert set(configs) == set(SANDWICH_FRAMES)
    for name, config in configs.items():
        got = counts(dict(config, seed=seed))
        assert got == SANDWICH_FRAMES[name], (name, got)


@pytest.mark.parametrize("seed", [1, 7])
def test_corpus_reports_match_the_lapack_kernels(seed, monkeypatch, clear_memos):
    # the corpus requests on numkernel's stack kernels and on the LAPACK calls
    # they replaced: sampled points scale by 0.9 u / gauge, so the reports
    # move at rounding level and no verdict moves.  The LAPACK side recomputes
    # the curvature bounds too, with the memos emptied
    kinds = [kind for kind in _benchmark_request_types()
             if kind.name in ("schwarz_I22_tk", "schwarz_II2_bergman_to_I22_tk")]
    run = lambda kind: cli.run(cli.parse_config(json.dumps(dict(kind.config, seed=seed))))
    fast = [run(kind) for kind in kinds]
    for name, oracle in LAPACK_KERNELS.items():
        monkeypatch.setattr(numkernel, name, oracle)
    clear_memos()
    close = lambda a, b: a == pytest.approx(b, rel=1e-13, abs=1e-13)
    for kind, ours, lapack in zip(kinds, fast, [run(kind) for kind in kinds]):
        assert ours.verdict == lapack.verdict, kind.name
        assert ours.summary["violations"] == lapack.summary["violations"], kind.name
        for key in ("min_margin_rel", "sup_ratio"):
            assert close(ours.summary[key], lapack.summary[key]), (kind.name, key)
        for row, row_lapack in zip(_rows_of(ours.table), _rows_of(lapack.table), strict=True):
            assert row["kind"] == row_lapack["kind"]
            for key in ("min_margin", "min_margin_rel", "sup_ratio"):
                assert close(row[key], row_lapack[key]), (kind.name, row["map_index"], key)


# Each tolerance key and the test above in which a config value of it flips
# both the verdict and the exit code.  "mixed" has none: its row reads exactly
# 0.0 on every metric invariant under z -> -z, all shipped ones included.
VERDICT_CONTROLS = {
    "invariance": test_certify_invariance_tolerance_drives_the_verdict,
    "connection": test_certify_connection_tolerance_drives_the_verdict,
    "curvature_slack": test_curvature_slack_drives_the_verdict,
    "sandwich_slack": test_sandwich_slack_drives_the_verdict,
    "sandwich_equality": test_sandwich_equality_tolerance_drives_the_verdict,
    "schwarz_slack": test_schwarz_slack_sets_the_violation_threshold,
}
UNCONTROLLED_TOLERANCES = {"mixed"}


def test_every_tolerance_has_a_verdict_flipping_control():
    assert set(VERDICT_CONTROLS) | UNCONTROLLED_TOLERANCES == set(cli.DEFAULT_TOLERANCES)
    assert not set(VERDICT_CONTROLS) & UNCONTROLLED_TOLERANCES
    for key, control in VERDICT_CONTROLS.items():
        source = inspect.getsource(control)
        assert f'"{key}"' in source, key  # sets the key in a config
        assert "rc == 1" in source and "== 0" in source, key  # both exit codes


def test_the_only_random_source_is_the_one_philox_call():
    # every sampled check draws through domains._philox_words: no other line
    # of the package names numpy's random module, a Generator or the
    # standard library's random
    words = re.compile(r"np\.random|numpy\.random|default_rng|^\s*(import|from) random\b")
    lines, first = inspect.getsourcelines(domains._philox_words)
    allowed = {("domains.py", first + i) for i in range(len(lines))}
    package = Path(cli.__file__).parent
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(package.glob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if words.search(line) and (path.name, i) not in allowed]
    assert hits == []
    assert sum(line.count("np.random.Philox(") for line in lines) == 1


def _package_names(words):
    """(file, line, name) of every code token of the package that is one of
    words; names in strings and comments do not count."""
    package = Path(cli.__file__).parent
    return [(path.name, tok.start[0], tok.string)
            for path in sorted(package.glob("*.py"))
            for tok in tokenize.generate_tokens(
                io.StringIO(path.read_text(encoding="utf-8")).readline)
            if tok.type == tokenize.NAME and tok.string in words]


def test_the_only_eigensolver_is_the_one_values_call():
    # no code of the package names an eigh (no formula takes eigenvectors),
    # and eigvalsh is named only in numkernel.eigvalsh_batch
    lines, first = inspect.getsourcelines(numkernel.eigvalsh_batch)
    allowed = {("numkernel.py", first + i) for i in range(len(lines))}
    assert [f"{name}:{i}: {word}" for name, i, word in _package_names(("eigh", "eigvalsh"))
            if word == "eigh" or (name, i) not in allowed] == []
    assert sum(line.count("np.linalg.eigvalsh(") for line in lines) == 1


def test_no_code_takes_singular_vectors():
    # no code of the package names an svd, and metrics.py names no inv: the
    # Lie-ball frame (domains.lie_frame) is closed form, so no formula takes
    # singular vectors and none inverts M(z)
    assert [f"{name}:{i}: {word}" for name, i, word in _package_names(("svd", "inv"))
            if word == "svd" or name == "metrics.py"] == []


def test_schwarz_onto_its_own_domain_computes_the_bounds_once(monkeypatch,
                                                              clear_memos):
    # with no target_metric and target_domain == domain the target metric is
    # the source metric, and an explicit, separately parsed target_metric is
    # an equal one: the bounds take one simplex_scan per distinct metric, and
    # the two reports are equal
    scan = norms.simplex_scan
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return scan(*args, **kwargs)

    monkeypatch.setattr(norms, "simplex_scan", counted)
    doc = {"task": "schwarz", "domain": {"type": "I", "m": 2, "n": 2},
           "metric": {"family": "bergman"}, "seed": 3, "samples": 10, "maps": 6}
    doc["target_domain"] = doc["domain"]
    run = lambda doc: cli.emit_report(cli.run(cli.parse_config(json.dumps(doc))))
    same = run(doc)
    assert len(calls) == 1
    explicit = run({**doc, "target_metric": doc["metric"]})
    assert len(calls) == 1
    assert same == explicit
    run({**doc, "target_metric": {"family": "tk", "t": 1, "k": 2}})
    assert len(calls) == 2


def test_two_parses_of_one_metric_are_one_memo_key():
    doc = {"task": "curvature", "domain": {"type": "I", "m": 2, "n": 3},
           "metric": {"family": "tk", "t": 1, "k": 2}}
    parse = lambda metric: cli.parse_config(json.dumps({**doc, "metric": metric})).metric
    one, other = parse(doc["metric"]), parse({**doc["metric"], "t": 1.0})
    assert one is not other and one.family.value is not other.family.value
    assert one == other and hash(one) == hash(other)
    assert parse({**doc["metric"], "t": 2}) != one
    assert parse({**doc["metric"], "scale": 5.0}) == parse({**doc["metric"], "scale": 5})
    assert parse({**doc["metric"], "scale": 5.0}) != parse({**doc["metric"], "scale": 5.1})


# One request of each task whose bounds or certificate are metric-only work,
# on domains of up to two rows, where no other step calls the eigensolver
REPEATED = {
    "sandwich": {"domain": {"type": "I", "m": 2, "n": 3},
                 "metric": {"family": "tk", "t": 1, "k": 2}, "samples": 100},
    "schwarz": {"domain": {"type": "II", "m": 2}, "metric": {"family": "bergman"},
                "target_domain": {"type": "I", "m": 2, "n": 2},
                "target_metric": {"family": "tk", "t": 1, "k": 2},
                "maps": 3, "samples": 20},
    "curvature": {"domain": {"type": "IV", "n": 4}, "metric": {"family": "bergman"},
                  "samples": 100},
    "certify": {"domain": {"type": "I", "m": 1, "n": 3},
                "metric": {"family": "tk", "t": 1, "k": 2}, "samples": 10},
}


@pytest.mark.parametrize("task", sorted(REPEATED))
def test_a_repeated_request_does_no_metric_only_work(task, monkeypatch, clear_memos):
    # the curvature bounds, the bisectional search and the certificate are
    # computed once per metric: the second run of a request scans, polishes
    # and eigensolves nothing, and every run writes the same text
    counts = {}
    for module, name in ((norms, "simplex_scan"), (norms, "polish_many"),
                         (numkernel, "eigvalsh_batch")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def run():
        counts.update(simplex_scan=0, polish_many=0, eigvalsh_batch=0)
        config = cli.parse_config(json.dumps({**REPEATED[task], "seed": 5}), task=task)
        return cli.emit_report(cli.run(config)), dict(counts)

    first, work = run()
    assert sum(work.values()) > 0
    second, repeated = run()
    assert repeated == {"simplex_scan": 0, "polish_many": 0, "eigvalsh_batch": 0}
    assert second == first
    clear_memos()
    assert run() == (first, work)


def test_tolerances_are_applied_only_in_the_cli():
    # the library returns raw margins: no module but cli names a slack or a
    # tolerance key
    words = re.compile(r"\bslack\b|[\"'](%s)[\"']" % "|".join(cli.DEFAULT_TOLERANCES))
    package = Path(cli.__file__).parent
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(package.glob("*.py")) if path.name != "cli.py"
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if words.search(line)]
    assert hits == []


# ---------------------------------------------------------------------------
# report emission: byte identity with the plain json.dumps and CSV forms


def _rows_of(table):
    """A report table's rows, rebuilt from its columns; columns of unequal
    length raise ValueError."""
    return [dict(zip(table, cells)) for cells in zip(*table.values(), strict=True)]


def _structured_oracle(report):
    doc = {"task": report.task, "verdict": report.verdict,
           "summary": report.summary, "table": _rows_of(report.table),
           "provenance": report.provenance}
    return json.dumps(doc, indent=2, default=cli._json_default) + "\n"


def _tabular_oracle(report):
    rows = _rows_of(report.table) or [{"key": k, "value": v}
                                      for k, v in report.summary.items()]
    rows = json.loads(json.dumps(rows, default=cli._json_default))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = list(rows[0].keys())
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v)
                         for v in (row[c] for c in columns)])
    return buf.getvalue()


def _assert_emits_like_the_oracles(report):
    """Both formats equal their oracle's text, or raise what the oracle raises."""
    for fmt, oracle in (("structured", _structured_oracle),
                        ("tabular", _tabular_oracle)):
        try:
            expected = oracle(report)
        except Exception as exc:
            with pytest.raises(type(exc)):
                cli.emit_report(report, fmt)
        else:
            assert cli.emit_report(report, fmt) == expected


EMIT_CONFIGS = {
    "eval": {"task": "eval", "domain": {"type": "I", "m": 2, "n": 3},
             "metric": {"family": "tk", "t": 1, "k": 3}, "samples": 40,
             "points": [{"z": [[[0.1, 0.2], [0, 0], [0, -0.3]],
                               [[0, 0], [0.2, 0], [0, 0]]],
                         "v": [[[1, 0], [0, 1], [0, 0]],
                               [[0, 0], [0.5, 0], [0, 0]]]}]},
    "certify": {"task": "certify", "domain": {"type": "II", "m": 2},
                "metric": {"family": "bergman"}, "samples": 10},
    "curvature": {"task": "curvature", "domain": {"type": "IV", "n": 4},
                  "metric": {"family": "bergman"}, "samples": 100},
    "sandwich": {"task": "sandwich", "domain": {"type": "II", "m": 3},
                 "metric": {"family": "tk", "t": 1, "k": 2}, "samples": 50},
    "schwarz": {"task": "schwarz", "domain": {"type": "II", "m": 2},
                "metric": {"family": "bergman"},
                "target_domain": {"type": "I", "m": 2, "n": 2},
                "target_metric": {"family": "tk", "t": 1, "k": 2},
                "maps": 4, "samples": 20},
}


@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("task", sorted(EMIT_CONFIGS))
def test_every_task_table_is_written_by_the_row_template(task, seed):
    # each runner builds its table as columns: lists of one length
    report = cli.run(cli.parse_config(json.dumps({**EMIT_CONFIGS[task],
                                                  "seed": seed})))
    assert all(type(column) is list for column in report.table.values())
    assert len({len(column) for column in report.table.values()}) == 1
    assert cli._flat_columns(report.table) is not None
    _assert_emits_like_the_oracles(report)


def _certify_report():
    return cli.run(cli.parse_config(json.dumps({**EMIT_CONFIGS["certify"],
                                                "seed": 4})))


@pytest.mark.parametrize("cell", [
    float("nan"), float("inf"), -float("inf"), np.array([1.0, 2.5]),
    complex(1.0, -2.0), np.int64(3), np.float32(0.1), True, np.bool_(False),
    None, [1.0, [2, 3]], {"a": 1.0}, 2])
def test_a_column_not_flat_finite_and_of_one_type_falls_back(cell):
    # one certify row's value is replaced: the column is no longer flat,
    # finite and of one type (2 makes it int among floats)
    report = _certify_report()
    table = {key: list(column) for key, column in report.table.items()}
    table["value"][1] = cell
    report = dataclasses.replace(report, table=table)
    assert cli._flat_columns(report.table) is None
    _assert_emits_like_the_oracles(report)


@pytest.mark.parametrize("text", ["Kähler–Berwald", 'say "pass"', "100% pass",
                                  "%s %(x)s %%", "tab\there\nnewline\\", "\u0000\x7f",
                                  "\U0001d4d5"])
def test_any_string_cell_or_key_keeps_the_row_template(text):
    report = _certify_report()
    checks = report.table["check"]
    table = {**report.table, "check": [check + text for check in checks],
             text: [text] * len(checks)}
    report = dataclasses.replace(report, table=table)
    assert cli._flat_columns(report.table) is not None
    _assert_emits_like_the_oracles(report)


@pytest.mark.parametrize("reshape", [
    lambda t: dict(enumerate(t.values())),
    lambda t: {key: [] for key in t},
    lambda t: {},
], ids=["int_key", "empty_rows", "empty_table"])
def test_rows_that_cannot_share_one_template_fall_back(reshape):
    # a column name that is not a str, and a table without rows (columns of
    # length 0, or no columns)
    report = _certify_report()
    report = dataclasses.replace(report, table=reshape(report.table))
    assert cli._flat_columns(report.table) is None
    _assert_emits_like_the_oracles(report)


@pytest.mark.parametrize("reshape", [
    lambda t: {**t, "status": t["status"][:-1]},
    lambda t: {**t, "value": t["value"] + [1.0]},
    lambda t: {**t, "extra": [1.0]},
], ids=["short_column", "long_column", "extra_column"])
def test_columns_of_unequal_length_raise(reshape):
    # zip would cut every row at the shortest column: both formats and the
    # row rebuild refuse the table instead
    report = _certify_report()
    report = dataclasses.replace(report, table=reshape(report.table))
    for fmt in ("structured", "tabular"):
        with pytest.raises(StructureError, match="differ in length"):
            cli.emit_report(report, fmt)
    with pytest.raises(StructureError):
        cli._rows(report.table)


def test_a_numpy_float64_column_writes_python_float_text():
    # np.float64 is a float whose repr is "np.float64(...)": the template
    # writes its values by float.__repr__, as json.dumps does
    report = _certify_report()
    values = report.table["value"]
    report = dataclasses.replace(report, table={
        **report.table, "value": [np.float64(x) for x in values]})
    assert cli._flat_columns(report.table) is not None
    _assert_emits_like_the_oracles(report)
    for fmt in ("structured", "tabular"):
        text = cli.emit_report(report, fmt)
        assert "np.float64" not in text
        assert all(float.__repr__(x) in text for x in values)


def test_summary_rows_of_an_empty_table_keep_their_csv_text():
    # an empty table writes the summary as key/value rows; their values are
    # of mixed types and nested, so they take the JSON round trip
    for task in ("eval", "curvature", "certify"):
        report = cli.run(cli.parse_config(json.dumps({**EMIT_CONFIGS[task],
                                                      "seed": 5})))
        report = dataclasses.replace(report, table={})
        _assert_emits_like_the_oracles(report)
