"""Command-line front end.

Thin adapters over the library: every number a command prints is computable
through the public functions with the same seed. Scenario files describe
the robot's current believed tower for predict/heatmap/select and the true
initial tower for simulate.

Exit codes: 0 success, 2 usage or schema error (including a trace that
cannot be explained), 3 abduction failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .core import (
    Action,
    NullAction,
    PlaceAction,
    Scenario,
    SchemaError,
    ValidationError,
)
from .explain import explain_with_abduction
from .formats import (
    load_scenario,
    load_trace,
    save_report,
    save_trace,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from .inference import candidate_grid, predict_stability, select_action, stability_heatmap
from .scm import AbductionFailure, replay_ground_truth, sample_episode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ABDUCTION = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


def _parse_action(spec: str, scenario: Scenario) -> Action:
    parts = spec.split()
    if parts == ["null"]:
        return NullAction()
    if len(parts) == 4 and parts[0] == "place":
        block = _pending_block(scenario, parts[1])
        try:
            dx, dy = float(parts[2]), float(parts[3])
        except ValueError:
            raise UsageError(f"offsets must be numbers, got {parts[2]!r} {parts[3]!r}")
        try:
            return PlaceAction(block, dx, dy)
        except ValidationError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(
        f"cannot parse action {spec!r}; expected 'null' or 'place BLOCK_ID DX DY'")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if math.isnan(value):
        raise argparse.ArgumentTypeError("must be a number, got nan")
    return value


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        nx_s, ny_s = spec.lower().split("x")
        nx, ny = int(nx_s), int(ny_s)
    except ValueError:
        raise UsageError(f"cannot parse grid {spec!r}; expected NXxNY, e.g. 9x9")
    if nx < 1 or ny < 1:
        raise UsageError(f"grid dimensions must be >= 1, got {nx}x{ny}")
    return nx, ny


def _pending_block(scenario: Scenario, block_id: str):
    try:
        return scenario.pending_by_id(block_id)
    except KeyError:
        raise UsageError(
            f"unknown block id {block_id!r}; pending blocks: "
            f"{[b.id for b in scenario.pending_blocks]}")


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    action = _parse_action(args.action, scenario)
    trace = sample_episode(scenario.tower, action, scenario.noise, args.seed,
                           scenario_id=scenario.scenario_id)
    save_trace(trace, args.out)
    if trace.outcome:
        print("outcome: stable")
    else:
        failed = replay_ground_truth(trace).failed_interface
        print(f"outcome: collapsed (interface {failed})")
    print(f"trace written to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    scenario = load_scenario(args.scenario)
    action = _parse_action(args.action, scenario)
    if args.n < 2:
        print(f"warning: n={args.n} gives a degenerate standard error",
              file=sys.stderr)
    est = predict_stability(scenario.tower, action, scenario.noise, args.n, args.seed)
    print(f"p={est.p:.6f} stderr={est.stderr:.6f}")
    return EXIT_OK


def _build_heatmap(args, scenario: Scenario, block):
    nx, ny = _parse_grid(args.grid)
    grid = candidate_grid(scenario.tower, block, nx, ny)
    return stability_heatmap(scenario.tower, block, grid, scenario.noise,
                             args.n, args.seed, dims=(nx, ny))


def cmd_heatmap(args) -> int:
    scenario = load_scenario(args.scenario)
    block = _pending_block(scenario, args.block)
    heatmap = _build_heatmap(args, scenario, block)
    write_heatmap_csv(heatmap, args.out)
    print(f"heatmap written to {args.out}")
    if args.pgm:
        write_heatmap_pgm(heatmap, args.pgm)
        print(f"pgm written to {args.pgm}")
    return EXIT_OK


def cmd_select(args) -> int:
    scenario = load_scenario(args.scenario)
    block = _pending_block(scenario, args.block)
    heatmap = _build_heatmap(args, scenario, block)
    if args.out:
        write_heatmap_csv(heatmap, args.out)
        print(f"heatmap written to {args.out}")
    result = select_action(heatmap, scenario.tower, block, scenario.noise,
                           args.threshold, args.n, args.seed)
    if result.fallback:
        print(f"admissible set empty at threshold {args.threshold}; "
              f"falling back to the best cell")
    print(f"place {block.id} @ ({result.action.offset_x:.4f}, "
          f"{result.action.offset_y:.4f})")
    print(f"expected_p={result.expected_p:.6f}")
    return EXIT_OK


def cmd_explain(args) -> int:
    trace = load_trace(args.trace)
    try:
        explanations, abduction = explain_with_abduction(trace, trace.noise,
                                                         args.n, args.seed)
    except ValidationError as exc:
        # the trace came from outside: one it cannot explain is bad input
        raise UsageError(str(exc)) from exc
    print(f"observed outcome: {'stable' if trace.outcome else 'collapsed'}")
    print(f"abduction: {abduction.accepted}/{abduction.attempts} worlds kept "
          f"(acceptance rate {abduction.acceptance_rate:.4f})")
    for rank, e in enumerate(explanations, start=1):
        print(f"{rank}. [PNS={e.pns:.2f}] {e.text}")
    if args.out:
        save_report(explanations, abduction, trace, args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalblocks",
        description="Stability prediction, placement selection, and "
                    "counterfactual explanation for block-stacking scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample one episode and write its trace")
    sim.add_argument("--scenario", required=True, help="scenario JSON path")
    sim.add_argument("--action", required=True,
                     help="'null' or 'place BLOCK_ID DX DY' (meters)")
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", required=True, help="trace JSON output path")
    sim.set_defaults(func=cmd_simulate)

    pre = sub.add_parser("predict", help="estimate stability probability")
    pre.add_argument("--scenario", required=True)
    pre.add_argument("--action", required=True)
    pre.add_argument("--n", type=_positive_int, default=2000, help="Monte-Carlo samples")
    pre.add_argument("--seed", required=True, type=int)
    pre.set_defaults(func=cmd_predict)

    hea = sub.add_parser("heatmap", help="stability heatmap over candidate placements")
    hea.add_argument("--scenario", required=True)
    hea.add_argument("--block", required=True, help="pending block id to place")
    hea.add_argument("--grid", default="9x9", help="candidate grid, NXxNY")
    hea.add_argument("--n", type=_positive_int, default=2000, help="samples per cell")
    hea.add_argument("--seed", required=True, type=int)
    hea.add_argument("--out", required=True, help="CSV output path")
    hea.add_argument("--pgm", default=None, help="optional PGM output path")
    hea.set_defaults(func=cmd_heatmap)

    sel = sub.add_parser("select", help="pick the next placement offset")
    sel.add_argument("--scenario", required=True)
    sel.add_argument("--block", required=True)
    sel.add_argument("--grid", default="9x9")
    sel.add_argument("--threshold", type=_threshold, default=0.8)
    sel.add_argument("--n", type=_positive_int, default=2000)
    sel.add_argument("--seed", required=True, type=int)
    sel.add_argument("--out", default=None, help="optional heatmap CSV dump")
    sel.set_defaults(func=cmd_select)

    exp = sub.add_parser("explain", help="counterfactual explanations for a trace")
    exp.add_argument("--trace", required=True, help="trace JSON path")
    exp.add_argument("--n", type=_positive_int, default=2000, help="abduction samples")
    exp.add_argument("--seed", required=True, type=int)
    exp.add_argument("--out", default=None, help="optional JSON report path")
    exp.set_defaults(func=cmd_explain)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AbductionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABDUCTION
    except ValidationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
