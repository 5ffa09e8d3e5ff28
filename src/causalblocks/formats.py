"""Every file format of the package, with its one reader and writer.

Scenario files, trace files and explanation reports are JSON with a
two-space indent and a final newline; heatmaps are CSV and plain PGM.
README "File formats" gives the schemas. Readers are strict: an unknown or
missing field, a value of the wrong type, a number that is not finite, or a
value that breaks a domain invariant is a ``SchemaError`` at the path of the
first bad field, checked in a fixed order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .core import (
    Action, BlockSpec, EpisodeTrace, ExogenousSample, GroundTruth, InterventionTarget,
    NoiseModel, NullAction, PlaceAction, PlacedBlock, Scenario, SchemaError, SetAction,
    SetActuationNoise, SetInitialState, SetSensorNoise, StabilityHeatmap, TowerState,
    ValidationError,
)

if TYPE_CHECKING:
    from .explain import Explanation
    from .scm import AbductionResult


# ---------------------------------------------------------------------------
# JSON documents and their fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _NonFinite:
    """A ``NaN``, ``Infinity`` or ``-Infinity`` token. JSON (RFC 8259) has
    none of them, but Python's ``json`` reads them as floats; the loaders
    read them as this instead, which no field accepts."""

    token: str


def _load_json(path, what: str):
    """The document of a ``what`` JSON file, strictly: bad JSON and
    non-finite tokens are ``SchemaError``s."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_NonFinite)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{what} file {path}: invalid JSON ({exc})") from exc


def _save_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _check_keys(obj: dict, required: Iterable[str], optional: Iterable[str] = (),
                where: str = "document") -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    missing = set(required) - obj.keys()
    unknown = obj.keys() - set(required) - set(optional)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")


def _float(value, key: str, where: str, expected: str) -> float:
    """``value`` of field ``key`` as a finite float: the one number rule of
    every reader. A non-finite token names itself, any other non-number says
    the field ``must {expected}``. An int too large for a float and a
    literal such as ``1e400``, which ``json`` reads as inf, are out of
    range."""
    if isinstance(value, _NonFinite):
        raise SchemaError(f"{where}: {key} must be finite, got {value.token}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: field {key!r} must {expected}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if math.isinf(number):
        raise SchemaError(f"{where}: {key} is out of float range")
    return number


def _number(obj: dict, key: str, where: str) -> float:
    return _float(obj[key], key, where, "be a number")


def _pair(obj: dict, key: str, where: str) -> tuple[float, float]:
    value = obj[key]
    if (not isinstance(value, list)) or len(value) != 2:
        raise SchemaError(f"{where}: field {key!r} must be a 2-element array")
    return tuple(_float(v, key, where, "contain numbers") for v in value)


def _checked(where: str, build, *args):
    """``build(*args)``, with a domain ``ValidationError`` reported as a
    ``SchemaError`` at path ``where``."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Blocks, towers and noise
# ---------------------------------------------------------------------------


_SPEC_FIELDS = ("id", "width", "depth", "height", "mass", "color")
_PLACED_FIELDS = _SPEC_FIELDS + ("center_x", "center_y")

# A trace repeats each spec in up to four towers and its action, and callers
# load many files of the same blocks: each distinct spec is validated once,
# and every later read of it shares the one BlockSpec. The key holds each
# value's type, since ``true == 1`` but a ``true`` width is no number.
_specs: dict[tuple, BlockSpec] = {}
_MAX_SPECS = 256


def _block_spec(obj: dict, where: str) -> BlockSpec:
    """The spec of ``obj``, a dict whose keys are checked to hold the spec
    fields."""
    key = tuple((type(obj[k]), obj[k]) for k in _SPEC_FIELDS)
    try:
        return _specs[key]
    except (KeyError, TypeError):  # new, or a value no spec accepts
        pass
    if not isinstance(obj["id"], str) or not isinstance(obj["color"], str):
        raise SchemaError(f"{where}: id and color must be strings")
    sizes = (_number(obj, "width", where), _number(obj, "depth", where),
             _number(obj, "height", where), _number(obj, "mass", where))
    spec = _checked(where, BlockSpec, obj["id"], *sizes, obj["color"])
    if len(_specs) >= _MAX_SPECS:
        _specs.clear()
    _specs[key] = spec
    return spec


def _block_spec_from_dict(obj: dict, where: str) -> BlockSpec:
    _check_keys(obj, _SPEC_FIELDS, where=where)
    return _block_spec(obj, where)


def _block_spec_to_dict(spec: BlockSpec) -> dict:
    return {k: getattr(spec, k) for k in _SPEC_FIELDS}


def _blocks_from_list(entries: list, where: str) -> tuple[PlacedBlock, ...]:
    """Placed blocks from a JSON array at path ``where`` (e.g. ``scenario.blocks``)."""
    placed = []
    for i, entry in enumerate(entries):
        bwhere = f"{where}[{i}]"
        _check_keys(entry, _PLACED_FIELDS, where=bwhere)
        spec = _block_spec(entry, bwhere)
        cx, cy = _number(entry, "center_x", bwhere), _number(entry, "center_y", bwhere)
        placed.append(_checked(bwhere, PlacedBlock, spec, cx, cy))
    return tuple(placed)


def _blocks_to_list(blocks: Iterable[PlacedBlock]) -> list[dict]:
    return [{**_block_spec_to_dict(b.spec), "center_x": b.center_x, "center_y": b.center_y}
            for b in blocks]


def tower_to_dict(tower: TowerState) -> dict:
    return {
        "support_half_extents": list(tower.support_half_extents),
        "collapsed": tower.collapsed,
        "blocks": _blocks_to_list(tower.blocks),
    }


def tower_from_dict(doc: dict, where: str = "tower") -> TowerState:
    _check_keys(doc, ("support_half_extents", "collapsed", "blocks"), where=where)
    if not isinstance(doc["collapsed"], bool):
        raise SchemaError(f"{where}: collapsed must be a boolean")
    if not isinstance(doc["blocks"], list):
        raise SchemaError(f"{where}: blocks must be an array")
    placed = _blocks_from_list(doc["blocks"], f"{where}.blocks")
    return _checked(where, TowerState, placed, _pair(doc, "support_half_extents", where),
                    doc["collapsed"])


def _noise_from_dict(obj: dict, where: str) -> NoiseModel:
    _check_keys(obj, ("sigma_s", "sigma_a"), ("support_points",), where=where)
    k = obj.get("support_points")
    if "support_points" in obj and (isinstance(k, bool) or not isinstance(k, int)):
        raise SchemaError(f"{where}: field 'support_points' must be an integer")
    sigma_s, sigma_a = _number(obj, "sigma_s", where), _number(obj, "sigma_a", where)
    return _checked(where, NoiseModel, sigma_s, sigma_a, k)


def _noise_to_dict(noise: NoiseModel) -> dict:
    doc = {"sigma_s": noise.sigma_s, "sigma_a": noise.sigma_a}
    if noise.support_points is not None:
        doc["support_points"] = noise.support_points
    return doc


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document (strict: unknown fields
    are rejected)."""
    _check_keys(doc, ("scenario_id", "support_half_extents", "blocks",
                      "pending_blocks", "noise"), where="scenario")
    if not isinstance(doc["scenario_id"], str):
        raise SchemaError("scenario: scenario_id must be a string")
    support = _pair(doc, "support_half_extents", "scenario")

    if not isinstance(doc["blocks"], list) or not isinstance(doc["pending_blocks"], list):
        raise SchemaError("scenario: blocks and pending_blocks must be arrays")

    placed = _blocks_from_list(doc["blocks"], "scenario.blocks")
    pending = tuple(
        _block_spec_from_dict(entry, f"scenario.pending_blocks[{i}]")
        for i, entry in enumerate(doc["pending_blocks"])
    )

    noise = _noise_from_dict(doc["noise"], "scenario.noise")
    tower = _checked("scenario", TowerState, placed, support)
    _checked("scenario", tower.validate)

    ids = [b.spec.id for b in placed] + [s.id for s in pending]
    if len(set(ids)) != len(ids):
        raise SchemaError(f"scenario: block ids must be unique, got {ids}")

    return Scenario(doc["scenario_id"], tower, pending, noise)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "scenario_id": scenario.scenario_id,
        "support_half_extents": list(scenario.tower.support_half_extents),
        "blocks": _blocks_to_list(scenario.tower.blocks),
        "pending_blocks": [_block_spec_to_dict(s) for s in scenario.pending_blocks],
        "noise": _noise_to_dict(scenario.noise),
    }


def load_scenario(path) -> Scenario:
    return parse_scenario(_load_json(path, "scenario"))


def save_scenario(scenario: Scenario, path) -> None:
    _save_json(scenario_to_dict(scenario), path)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


def action_to_dict(action: Action) -> dict:
    if isinstance(action, NullAction):
        return {"kind": "null"}
    if isinstance(action, PlaceAction):
        return {
            "kind": "place",
            "block": _block_spec_to_dict(action.spec),
            "offset_x": action.offset_x,
            "offset_y": action.offset_y,
        }
    raise TypeError(f"unknown action type: {action!r}")


def action_from_dict(doc: dict, where: str = "action") -> Action:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError(f"{where}: expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "null":
        _check_keys(doc, ("kind",), where=where)
        return NullAction()
    if kind == "place":
        _check_keys(doc, ("kind", "block", "offset_x", "offset_y"), where=where)
        spec = _block_spec_from_dict(doc["block"], f"{where}.block")
        dx, dy = _number(doc, "offset_x", where), _number(doc, "offset_y", where)
        return _checked(where, PlaceAction, spec, dx, dy)
    raise SchemaError(f"{where}: unknown action kind {kind!r}")


def trace_to_dict(trace: EpisodeTrace) -> dict:
    gt = trace.ground_truth
    return {
        "scenario_id": trace.scenario_id,
        "z0": tower_to_dict(trace.z0),
        "belief": tower_to_dict(trace.belief),
        "action": action_to_dict(trace.action),
        "outcome": trace.outcome,
        "noise": _noise_to_dict(trace.noise),
        "ground_truth": None if gt is None else {
            "s0": tower_to_dict(gt.s0),
            "exo": {"ws": [list(pair) for pair in gt.exo.ws], "wa": list(gt.exo.wa)},
            "s1": tower_to_dict(gt.s1),
        },
    }


def trace_from_dict(doc: dict) -> EpisodeTrace:
    _check_keys(doc, ("scenario_id", "z0", "belief", "action", "outcome",
                      "noise", "ground_truth"), where="trace")
    if not isinstance(doc["scenario_id"], str):
        raise SchemaError("trace: scenario_id must be a string")
    if not isinstance(doc["outcome"], bool):
        raise SchemaError("trace: outcome must be a boolean")
    noise = _noise_from_dict(doc["noise"], "trace.noise")

    ground_truth = None
    gt_doc = doc["ground_truth"]
    if gt_doc is not None:
        _check_keys(gt_doc, ("s0", "exo", "s1"), where="trace.ground_truth")
        exo_doc = gt_doc["exo"]
        _check_keys(exo_doc, ("ws", "wa"), where="trace.ground_truth.exo")
        if not isinstance(exo_doc["ws"], list):
            raise SchemaError("trace.ground_truth.exo: ws must be an array")
        ws = tuple(_pair({f"ws[{i}]": pair}, f"ws[{i}]", "trace.ground_truth.exo")
                   for i, pair in enumerate(exo_doc["ws"]))
        wa = _pair(exo_doc, "wa", "trace.ground_truth.exo")
        ground_truth = GroundTruth(
            s0=tower_from_dict(gt_doc["s0"], "trace.ground_truth.s0"),
            exo=_checked("trace.ground_truth.exo", ExogenousSample, ws, wa),
            s1=tower_from_dict(gt_doc["s1"], "trace.ground_truth.s1"),
        )

    trace = EpisodeTrace(
        scenario_id=doc["scenario_id"],
        z0=tower_from_dict(doc["z0"], "trace.z0"),
        belief=tower_from_dict(doc["belief"], "trace.belief"),
        action=action_from_dict(doc["action"]),
        outcome=doc["outcome"],
        noise=noise,
        ground_truth=ground_truth,
    )
    if ground_truth is not None and len(ground_truth.exo.ws) != len(trace.z0):
        raise SchemaError("trace.ground_truth.exo: ws length must equal the "
                          "observed block count")
    return trace


def save_trace(trace: EpisodeTrace, path) -> None:
    _save_json(trace_to_dict(trace), path)


def load_trace(path) -> EpisodeTrace:
    return trace_from_dict(_load_json(path, "trace"))


# ---------------------------------------------------------------------------
# Explanation reports and heatmaps
# ---------------------------------------------------------------------------


def target_to_dict(target: InterventionTarget) -> dict:
    if isinstance(target, SetActuationNoise):
        return {"kind": "actuation_noise", "wa": list(target.wa)}
    if isinstance(target, SetSensorNoise):
        return {"kind": "sensor_noise", "ws": [list(p) for p in target.ws]}
    if isinstance(target, SetAction):
        return {"kind": "action", "action": action_to_dict(target.action)}
    if isinstance(target, SetInitialState):
        return {"kind": "initial_state", "s0": tower_to_dict(target.s0)}
    raise TypeError(f"unknown intervention target: {target!r}")


def report_to_dict(explanations: list[Explanation],
                   abduction: AbductionResult, trace: EpisodeTrace) -> dict:
    return {
        "scenario_id": trace.scenario_id,
        "observed_outcome": trace.outcome,
        "acceptance_rate": abduction.acceptance_rate,
        "abduction_attempts": abduction.attempts,
        "explanations": [{"target": target_to_dict(e.target),
                          "factual_summary": e.factual_summary, "pn": e.pn, "pns": e.pns,
                          "n_samples": e.n_samples, "text": e.text} for e in explanations],
    }


def save_report(explanations: list[Explanation], abduction: AbductionResult,
                trace: EpisodeTrace, path) -> None:
    _save_json(report_to_dict(explanations, abduction, trace), path)


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6f}"  # +0.0 normalizes negative zero


def heatmap_to_csv(heatmap: StabilityHeatmap) -> str:
    """CSV text: header then one row per cell in row-major grid order,
    six fractional digits, LF newlines."""
    lines = ["offset_x,offset_y,p_stable,stderr"]
    for (ox, oy), p, se in zip(heatmap.offsets, heatmap.probabilities, heatmap.stderr):
        lines.append(f"{_fmt(ox)},{_fmt(oy)},{_fmt(p)},{_fmt(se)}")
    return "\n".join(lines) + "\n"


def heatmap_to_pgm(heatmap: StabilityHeatmap) -> str:
    """Plain (P2) PGM: probabilities quantized to 0..255, ny rows of nx
    values, row iy listing cells (0, iy) .. (nx-1, iy)."""
    nx, ny = heatmap.dims
    lines = ["P2", f"{nx} {ny}", "255"]
    for iy in range(ny):
        row = [str(int(round(heatmap.probabilities[ix * ny + iy] * 255)))
               for ix in range(nx)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def write_heatmap_csv(heatmap: StabilityHeatmap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(heatmap_to_csv(heatmap))


def write_heatmap_pgm(heatmap: StabilityHeatmap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(heatmap_to_pgm(heatmap))
