import contextlib
import copy
import hashlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from causalblocks import (PlaceAction, load_trace, sample_episode, save_trace, save_scenario,
                          scenario_to_dict)
from causalblocks.cli import main
from causalblocks.scenarios import two_cube_scenario

TWO_CUBES = str(Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "two_cubes.json")


@pytest.fixture
def zero_scenario(tmp_path):
    path = tmp_path / "zero.json"
    save_scenario(two_cube_scenario(0.0, 0.0), path)
    return str(path)


@pytest.fixture
def noisy_scenario(tmp_path):
    path = tmp_path / "noisy.json"
    save_scenario(two_cube_scenario(0.02, 0.02), path)
    return str(path)


# --- simulate -----------------------------------------------------------------


def test_simulate_stable(zero_scenario, tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["simulate", "--scenario", zero_scenario,
                 "--action", "place b2 0 0", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "outcome: stable" in capsys.readouterr().out
    trace = load_trace(out)
    assert trace.outcome
    assert trace.scenario_id == "two-cubes"


def test_simulate_collapse_reports_interface(zero_scenario, tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["simulate", "--scenario", zero_scenario,
                 "--action", "place b2 0.06 0", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "outcome: collapsed (interface 1)" in capsys.readouterr().out


def test_simulate_byte_identical_reruns(zero_scenario, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["simulate", "--scenario", zero_scenario,
                     "--action", "place b2 0 0", "--seed", "9",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_unknown_block(zero_scenario, tmp_path, capsys):
    code = main(["simulate", "--scenario", zero_scenario,
                 "--action", "place nosuch 0 0", "--seed", "1",
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "unknown block id" in capsys.readouterr().err


def test_simulate_bad_action_spec(zero_scenario, tmp_path):
    code = main(["simulate", "--scenario", zero_scenario,
                 "--action", "pickup b2", "--seed", "1",
                 "--out", str(tmp_path / "t.json")])
    assert code == 2


# --- predict ------------------------------------------------------------------


def test_predict_null_zero_noise(zero_scenario, capsys):
    code = main(["predict", "--scenario", zero_scenario, "--action", "null",
                 "--n", "100", "--seed", "1"])
    assert code == 0
    assert "p=1.000000 stderr=0.000000" in capsys.readouterr().out


def test_predict_matches_library_value(noisy_scenario, capsys):
    code = main(["predict", "--scenario", noisy_scenario,
                 "--action", "place b2 0 0", "--n", "5000", "--seed", "42"])
    assert code == 0
    out = capsys.readouterr().out
    from causalblocks import predict_stability
    sc = two_cube_scenario(0.02, 0.02)
    est = predict_stability(sc.tower, PlaceAction(sc.pending_blocks[0], 0.0, 0.0),
                            sc.noise, 5000, 42)
    assert f"p={est.p:.6f} stderr={est.stderr:.6f}" in out


def test_predict_single_sample_warns(noisy_scenario, capsys):
    code = main(["predict", "--scenario", noisy_scenario,
                 "--action", "place b2 0 0", "--n", "1", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert "stderr=0.000000" in captured.out
    assert "warning" in captured.err


def test_predict_missing_scenario(tmp_path, capsys):
    code = main(["predict", "--scenario", str(tmp_path / "nope.json"),
                 "--action", "null", "--n", "10", "--seed", "1"])
    assert code == 2


def test_predict_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario_id": "x"}')
    code = main(["predict", "--scenario", str(bad), "--action", "null",
                 "--n", "10", "--seed", "1"])
    assert code == 2
    assert "missing fields" in capsys.readouterr().err


def test_predict_zero_samples_is_usage_error(noisy_scenario, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--scenario", noisy_scenario, "--action", "null",
              "--n", "0", "--seed", "1"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_predict_negative_sigma_is_usage_error(tmp_path, capsys):
    doc = scenario_to_dict(two_cube_scenario(0.02, 0.02))
    doc["noise"]["sigma_s"] = -0.01
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code = main(["predict", "--scenario", str(path), "--action", "null",
                 "--n", "10", "--seed", "1"])
    assert code == 2
    assert "sigma" in capsys.readouterr().err


def test_predict_infinite_sigma_is_usage_error(tmp_path, capsys):
    doc = scenario_to_dict(two_cube_scenario(0.02, 0.02))
    doc["noise"]["sigma_s"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    assert '"sigma_s": Infinity' in path.read_text()
    code = main(["predict", "--scenario", str(path), "--action", "null",
                 "--n", "10", "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "sigma_s must be finite" in captured.err
    assert captured.out == ""


def test_predict_nan_offset_is_usage_error(noisy_scenario, capsys):
    code = main(["predict", "--scenario", noisy_scenario, "--action", "place b2 nan 0",
                 "--n", "10", "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "offset_x must be finite" in captured.err
    assert captured.out == ""


def test_predict_nan_token_in_scenario_is_usage_error(tmp_path, capsys):
    # Python's json reads NaN, which JSON does not have, as a float
    text = json.dumps(scenario_to_dict(two_cube_scenario(0.02, 0.02)))
    path = tmp_path / "nan.json"
    path.write_text(text.replace('"center_x": 0.0', '"center_x": NaN', 1))
    assert '"center_x": NaN' in path.read_text()
    code = main(["predict", "--scenario", str(path), "--action", "null",
                 "--n", "10", "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "center_x must be finite, got NaN" in captured.err
    assert captured.out == ""


def _set_center_x(doc, value):
    doc["blocks"][0]["center_x"] = value


def _set_width(doc, value):
    doc["blocks"][0]["width"] = value


def _set_sigma_s(doc, value):
    doc["noise"]["sigma_s"] = value


def _set_support_half_extents(doc, value):
    doc["support_half_extents"][0] = value


@pytest.mark.parametrize("field, setter", [
    ("center_x", _set_center_x),
    ("width", _set_width),
    ("sigma_s", _set_sigma_s),
    ("support_half_extents", _set_support_half_extents),
], ids=["center_x", "width", "sigma_s", "support_half_extents"])
def test_predict_int_beyond_float_range_is_usage_error(field, setter, tmp_path, capsys):
    # json reads a 401-digit integer as an int, which float() cannot convert
    doc = scenario_to_dict(two_cube_scenario(0.02, 0.02))
    setter(doc, 10 ** 400)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = main(["predict", "--scenario", str(path), "--action", "null",
                 "--n", "10", "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert f"{field} is out of float range" in captured.err
    assert captured.out == ""


# --- heatmap ------------------------------------------------------------------


def test_heatmap_writes_csv_and_pgm(zero_scenario, tmp_path, capsys):
    csv_path = tmp_path / "hm.csv"
    pgm_path = tmp_path / "hm.pgm"
    code = main(["heatmap", "--scenario", zero_scenario, "--block", "b2",
                 "--grid", "9x1", "--n", "16", "--seed", "3",
                 "--out", str(csv_path), "--pgm", str(pgm_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "offset_x,offset_y,p_stable,stderr"
    assert len(lines) == 10
    assert pgm_path.read_text().startswith("P2\n9 1\n255\n")


def test_heatmap_byte_identical_rerun(zero_scenario, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["heatmap", "--scenario", zero_scenario, "--block", "b2",
                     "--grid", "5x1", "--n", "32", "--seed", "7",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_heatmap_zero_grid_is_usage_error(zero_scenario, tmp_path, capsys):
    code = main(["heatmap", "--scenario", zero_scenario, "--block", "b2",
                 "--grid", "0x9", "--n", "16", "--seed", "3",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "grid dimensions" in capsys.readouterr().err


def test_heatmap_workers_flag_is_unknown_argument(zero_scenario, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heatmap", "--scenario", zero_scenario, "--block", "b2",
              "--grid", "3x3", "--n", "16", "--seed", "3", "--workers", "2",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_heatmap_bad_grid_spec(zero_scenario, tmp_path):
    code = main(["heatmap", "--scenario", zero_scenario, "--block", "b2",
                 "--grid", "nine", "--n", "16", "--seed", "3",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_readme_heatmap_outputs_are_frozen(tmp_path):
    # The README command's CSV and PGM, pinned: a change to the draws, the
    # kernel, the cell streams or the packing of cells shows up here.
    csv_path, pgm_path = tmp_path / "heatmap.csv", tmp_path / "heatmap.pgm"
    assert main(["heatmap", "--scenario", TWO_CUBES, "--block", "b2", "--grid", "9x9",
                 "--n", "2000", "--seed", "7", "--out", str(csv_path),
                 "--pgm", str(pgm_path)]) == 0
    assert _sha256(csv_path.read_bytes()) == (
        "2cddb2594a9fd47e36467d4473694a909f33d26ddf2cbb52510eb114ef8fbf54")
    assert _sha256(pgm_path.read_bytes()) == (
        "ea4926bbab82e63b351f0976470bec7c6b5ba2464e666443f23c33dc61ce9b43")


def test_readme_select_output_is_frozen(capsys):
    assert main(["select", "--scenario", TWO_CUBES, "--block", "b2", "--grid", "9x9",
                 "--threshold", "0.8", "--n", "2000", "--seed", "7"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == (
        "fb962155512ab2c0a6f12361e01594f55067c6c02146fce49aec426521aee914")


def _simulate_readme_trace(scenario, out):
    assert main(["simulate", "--scenario", scenario, "--action", "place b2 0.01 0",
                 "--seed", "7", "--out", str(out)]) == 0


def test_readme_trace_and_report_are_frozen(tmp_path):
    # The README simulate and explain commands, pinned: a change to the trace
    # or report codec, the draws, abduction or scoring shows up here.
    trace_path, report_path = tmp_path / "trace.json", tmp_path / "report.json"
    _simulate_readme_trace(TWO_CUBES, trace_path)
    assert _sha256(trace_path.read_bytes()) == (
        "b72ece496938c2f251f14a52a5c6b235da18abac02495ce6f44c2c5fcb91d846")
    assert main(["explain", "--trace", str(trace_path), "--n", "2000", "--seed", "7",
                 "--out", str(report_path)]) == 0
    assert _sha256(report_path.read_bytes()) == (
        "18b8f0c80917b7a8a7dc83692633ac19cff8796ee1c6f6267b5174ca7cde8aa5")


def test_discrete_noise_trace_is_frozen(tmp_path):
    # the README trace with "support_points": 5 added to the scenario's noise
    doc = json.loads(Path(TWO_CUBES).read_text())
    doc["noise"]["support_points"] = 5
    scenario_path, trace_path = tmp_path / "k5.json", tmp_path / "trace.json"
    scenario_path.write_text(json.dumps(doc))
    _simulate_readme_trace(str(scenario_path), trace_path)
    assert _sha256(trace_path.read_bytes()) == (
        "0b14958edb5bdc6c13c414f38868b2b5b77429102945d22218f10e1f8e998f87")


# --- select -------------------------------------------------------------------


def test_select_symmetric_scenario_centers(zero_scenario, capsys):
    code = main(["select", "--scenario", zero_scenario, "--block", "b2",
                 "--grid", "9x1", "--threshold", "0.5", "--n", "64",
                 "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "place b2 @ (0.0000, 0.0000)" in out
    assert "expected_p=1.000000" in out


def test_select_reports_fallback(zero_scenario, capsys):
    code = main(["select", "--scenario", zero_scenario, "--block", "b2",
                 "--grid", "3x1", "--threshold", "1.01", "--n", "16",
                 "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "admissible set empty" in out
    assert "place b2 @" in out


def test_select_nan_threshold_is_usage_error(zero_scenario, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--scenario", zero_scenario, "--block", "b2",
              "--grid", "3x1", "--threshold", "nan", "--n", "16", "--seed", "3"])
    assert exc.value.code == 2
    assert "--threshold" in capsys.readouterr().err


def test_select_optional_heatmap_dump(zero_scenario, tmp_path):
    out = tmp_path / "dump.csv"
    code = main(["select", "--scenario", zero_scenario, "--block", "b2",
                 "--grid", "3x1", "--threshold", "0.5", "--n", "16",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    assert out.exists()


# --- explain ------------------------------------------------------------------


def make_failure_trace(tmp_path):
    sc = two_cube_scenario(0.0, 0.0)
    action = PlaceAction(sc.pending_blocks[0], 0.06, 0.0)
    trace = sample_episode(sc.tower, action, sc.noise, 1,
                           scenario_id=sc.scenario_id)
    path = tmp_path / "fail.json"
    save_trace(trace, path)
    return path, trace


def test_explain_ranks_action_first(tmp_path, capsys):
    path, _ = make_failure_trace(tmp_path)
    report = tmp_path / "report.json"
    code = main(["explain", "--trace", str(path), "--n", "200", "--seed", "5",
                 "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "observed outcome: collapsed" in out
    assert "1. [PNS=1.00]" in out
    doc = json.loads(report.read_text())
    assert doc["explanations"][0]["target"]["kind"] == "action"
    assert doc["acceptance_rate"] == 1.0


def test_explain_inconsistent_trace_exits_3(tmp_path, capsys):
    path, trace = make_failure_trace(tmp_path)
    impossible = replace(trace, outcome=True)  # zero noise cannot succeed here
    save_trace(impossible, path)
    code = main(["explain", "--trace", str(path), "--n", "10", "--seed", "5"])
    assert code == 3
    assert "abduction failed" in capsys.readouterr().err


def test_explain_deterministic_reports(tmp_path, capsys):
    path, _ = make_failure_trace(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["explain", "--trace", str(path), "--n", "100",
                     "--seed", "5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_explain_collapsed_observation_is_usage_error(tmp_path, capsys):
    path, trace = make_failure_trace(tmp_path)
    save_trace(replace(trace, z0=replace(trace.z0, collapsed=True)), path)
    code = main(["explain", "--trace", str(path), "--n", "10", "--seed", "1"])
    assert code == 2
    assert "error: cannot abduct from a collapsed observation" in capsys.readouterr().err


def test_explain_trace_without_candidates_is_usage_error(zero_scenario, tmp_path, capsys):
    # zero noise and a centered placement: every candidate equals its factual value
    path = tmp_path / "trace.json"
    assert main(["simulate", "--scenario", zero_scenario, "--action", "place b2 0 0",
                 "--seed", "1", "--out", str(path)]) == 0
    code = main(["explain", "--trace", str(path), "--n", "10", "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: every candidate equals its factual value")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_explain_non_finite_token_in_trace_is_usage_error(token, tmp_path, capsys):
    path, _ = make_failure_trace(tmp_path)
    text = path.read_text()
    assert '"offset_x": 0.06' in text
    path.write_text(text.replace('"offset_x": 0.06', f'"offset_x": {token}', 1))
    code = main(["explain", "--trace", str(path), "--n", "10", "--seed", "1"])
    assert code == 2
    assert f"offset_x must be finite, got {token}" in capsys.readouterr().err


def test_explain_overflowing_literal_in_trace_is_usage_error(tmp_path, capsys):
    # json reads the literal 1e400 as inf
    path, _ = make_failure_trace(tmp_path)
    doc = json.loads(path.read_text())
    doc["ground_truth"]["exo"]["ws"][0][0] = 0.125
    path.write_text(json.dumps(doc).replace("0.125", "1e400", 1))
    code = main(["explain", "--trace", str(path), "--n", "10", "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "ws[0] is out of float range" in captured.err
    assert captured.out == ""


def test_explain_missing_trace_file(tmp_path):
    code = main(["explain", "--trace", str(tmp_path / "none.json"),
                 "--n", "10", "--seed", "1"])
    assert code == 2


# --- argparse behavior ----------------------------------------------------------


def test_missing_seed_is_usage_error(zero_scenario, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--scenario", zero_scenario, "--action", "null",
              "--n", "10"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --- corrupt documents ----------------------------------------------------------
#
# One leaf of a valid scenario or trace replaced by a hostile value: the
# command exits 0 or 2, and 3 only where abduction ran on a trace that
# loads. Python's json writes the non-finite floats as the NaN, Infinity and
# -Infinity tokens, which the readers refuse.

CORRUPTIONS = (math.nan, math.inf, -math.inf, 10 ** 400, -0.0, True, None, "x", [], {})


def _leaves(doc, path=()):
    """Paths of every number, string, boolean and null in ``doc``."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]
    return [path]


def _write_corrupted(doc, leaf, value, path):
    doc = copy.deepcopy(doc)
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path.write_text(json.dumps(doc))


def _run(argv):
    """``main(argv)``'s exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _predict(path, action="place b2 0.01 0"):
    return _run(["predict", "--scenario", str(path), "--action", action,
                 "--n", "200", "--seed", "7"])


def _explain(path):
    return _run(["explain", "--trace", str(path), "--n", "20", "--seed", "7"])


SCENARIO_DOC = json.loads(Path(TWO_CUBES).read_text())


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


@pytest.fixture(scope="module")
def trace_doc(corrupt_dir):
    path = corrupt_dir / "readme-trace.json"
    _simulate_readme_trace(TWO_CUBES, path)
    return json.loads(path.read_text())


@settings(max_examples=150, deadline=None)
@given(leaf=st.sampled_from(_leaves(SCENARIO_DOC)), value=st.sampled_from(CORRUPTIONS),
       command=st.sampled_from(["predict", "simulate"]))
def test_corrupt_scenario_leaf_exits_0_or_2(leaf, value, command, corrupt_dir):
    path = corrupt_dir / "scenario.json"
    _write_corrupted(SCENARIO_DOC, leaf, value, path)
    if command == "predict":
        code, err = _predict(path)
    else:
        code, err = _run(["simulate", "--scenario", str(path), "--action", "place b2 0.01 0",
                          "--seed", "7", "--out", str(corrupt_dir / "out.json")])
    assert code in (0, 2), (leaf, value, err)
    assert err.startswith("error: ") if code == 2 else err == ""


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=st.sampled_from(CORRUPTIONS))
def test_corrupt_trace_leaf_exits_0_2_or_3(data, value, trace_doc, corrupt_dir):
    leaf = data.draw(st.sampled_from(_leaves(trace_doc)), label="leaf")
    path = corrupt_dir / "trace.json"
    _write_corrupted(trace_doc, leaf, value, path)
    code, err = _explain(path)
    assert code in (0, 2, 3), (leaf, value, err)
    if code == 3:
        load_trace(path)  # abduction failed on a trace that is well formed
    assert err.startswith("error: ") if code in (2, 3) else err == ""


# Bad inputs that once exited 1, 3 or 4, exited 0 silently, or warned.
@pytest.mark.parametrize("document, leaf, value, code, message", [
    pytest.param("scenario", ("blocks", 0, "center_x"), math.nan, 2,
                 "center_x must be finite, got NaN", id="center-NaN"),
    pytest.param("scenario", ("blocks", 0, "center_y"), math.inf, 2,
                 "center_y must be finite, got Infinity", id="center-Infinity"),
    pytest.param("trace", ("action", "offset_x"), math.nan, 2,
                 "offset_x must be finite, got NaN", id="trace-offset-NaN"),
    pytest.param("scenario", None, "place b2 nan 0", 2,
                 "offset_x must be finite", id="action-offset-nan"),
    pytest.param("scenario", ("blocks", 0, "width"), 10 ** 400, 2,
                 "width is out of float range", id="width-10**400"),
    pytest.param("scenario", ("blocks", 0, "center_x"), 10 ** 400, 2,
                 "center_x is out of float range", id="center-10**400"),
    pytest.param("scenario", ("support_half_extents", 1), 10 ** 400, 2,
                 "support_half_extents is out of float range", id="support-10**400"),
    pytest.param("trace", ("action", "offset_y"), 10 ** 400, 2,
                 "offset_y is out of float range", id="trace-offset-10**400"),
    pytest.param("scenario", ("noise", "sigma_s"), math.inf, 2,
                 "sigma_s must be finite, got Infinity", id="sigma_s-Infinity"),
    pytest.param("trace", ("noise", "sigma_a"), math.inf, 2,
                 "sigma_a must be finite, got Infinity", id="trace-sigma_a-Infinity"),
    pytest.param("trace", ("ground_truth", "exo", "ws", 0, 1), math.nan, 2,
                 "ws[0] must be finite, got NaN", id="trace-ws-NaN"),
    pytest.param("trace", ("ground_truth", "exo", "wa", 0), math.nan, 2,
                 "wa must be finite, got NaN", id="trace-wa-NaN"),
    pytest.param("scenario", ("noise", "sigma_s"), 1e308, 0, "", id="sigma_s-1e308",
                 marks=pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                                         reason="the draws overflow: sigma_s times a unit "
                                                "draw exceeds the float range")),
])
def test_hostile_input(document, leaf, value, code, message, trace_doc, tmp_path):
    path = tmp_path / f"{document}.json"
    if leaf is None:
        path.write_text(json.dumps(SCENARIO_DOC))
        result = _predict(path, action=value)
    else:
        _write_corrupted(SCENARIO_DOC if document == "scenario" else trace_doc, leaf, value, path)
        result = _predict(path) if document == "scenario" else _explain(path)
    assert result[0] == code
    assert message in result[1] if message else result[1] == ""
