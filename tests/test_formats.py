import ast
import importlib
from pathlib import Path

import pytest

from causalblocks import NoiseModel, PlaceAction, SchemaError, formats, sample_episode, scm
from causalblocks.formats import (load_trace, parse_scenario, save_trace, scenario_to_dict,
                                  trace_from_dict, trace_to_dict)
from causalblocks.scenarios import cube, column, two_cube_scenario

SRC = Path(__file__).resolve().parents[1] / "src" / "causalblocks"


def five_block_trace():
    tower = column([cube(f"b{i}") for i in range(1, 6)], [(0.0, 0.0)] * 5)
    return sample_episode(tower, PlaceAction(cube("b6"), 0.01, 0.0), NoiseModel(0.005, 0.005), 3)


def test_only_formats_reads_or_writes_files():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "formats.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        opened = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "open"]
        assert "json" not in imported and not opened, path.name


def test_codec_names_kept_at_their_old_paths_are_the_formats_functions():
    assert scm.save_trace is formats.save_trace
    assert scm.load_trace is formats.load_trace
    # the package binds ``explain`` to the function of that name
    explain = importlib.import_module("causalblocks.explain")
    assert explain.report_to_dict is formats.report_to_dict


def test_each_distinct_spec_is_validated_once(tmp_path, monkeypatch):
    trace = five_block_trace()
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    built, checked = [], []
    block_spec, check_keys = formats.BlockSpec, formats._check_keys
    monkeypatch.setattr(formats, "_specs", {})
    monkeypatch.setattr(formats, "BlockSpec", lambda *a: built.append(a) or block_spec(*a))
    monkeypatch.setattr(formats, "_check_keys",
                        lambda obj, *a, **k: checked.append(obj) or check_keys(obj, *a, **k))
    assert load_trace(path) == trace
    # six specs: five in the towers, one more placed by the action
    assert len(built) == 6
    # the trace, its noise, ground truth, exo, four towers, the action and
    # its block, and each placed block once: 5 in z0, belief and s0, 6 in s1
    assert len(checked) == 10 + 21
    built.clear()
    assert load_trace(path) == trace
    assert built == []


@pytest.mark.parametrize("cached, bad", [(1, True), (1.0, True), (0.5, [0.5])])
def test_spec_memo_tells_values_apart_by_type(cached, bad):
    # true == 1 and hash(True) == hash(1), but a true width is no number
    doc = scenario_to_dict(two_cube_scenario())
    doc["pending_blocks"][0]["width"] = cached
    assert parse_scenario(doc).pending_blocks[0].width == cached
    doc["pending_blocks"][0]["width"] = bad
    with pytest.raises(SchemaError, match="field 'width' must be a number"):
        parse_scenario(doc)


@pytest.mark.parametrize("tower", ["z0", "belief"])
def test_bad_trace_support_names_its_tower_once(tower):
    doc = trace_to_dict(five_block_trace())
    doc[tower]["support_half_extents"][0] = "x"
    with pytest.raises(SchemaError) as exc:
        trace_from_dict(doc)
    assert str(exc.value) == f"trace.{tower}: field 'support_half_extents' must contain numbers"
