"""The three closed-loop workloads: one caller, one operation at a time.

A workload builds its inputs when it is constructed. ``op(round, slot)``
is one operation; a round calls it once per input slot, in order, with
program seeds derived from (benchmark seed, round, slot). ``check`` runs
after the timed rounds and compares every recorded output with
``oracle.py``.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import replace

import inputs as inp
import oracle


def program_seed(seed: int, workload: str, round_index: int, slot: int) -> int:
    return inp.seeded(seed, workload, "program", round_index, slot).getrandbits(63)


class Problems:
    """Failed checks, keyed by operation index (None: a pooled check)."""

    def __init__(self):
        self.by_op: dict = defaultdict(list)

    def expect(self, ok: bool, op, message: str) -> None:
        if not ok:
            self.by_op[op].append(message)


class Workload:
    def __init__(self, cb, seed: int, cases):
        self.cb = cb
        self.seed = seed
        self.cases = cases
        self.objects = [inp.package_objects(cb, c) for c in cases]
        for _tower, _action, noise in self.objects:
            if noise.discrete:
                noise.support_grid()  # resolves the package's lazy scipy import

    def slots(self) -> int:
        return len(self.cases)

    def known_fault(self, slot: int) -> bool:
        """Whether the slot's operations fail on every run because of a
        known fault of the program (counted as failed, not as wrong)."""
        return False


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


class Predict(Workload):
    name = "predict"

    def __init__(self, cb, seed: int, out_dir: str):
        super().__init__(cb, seed, inp.predict_cases(seed))

    def worlds(self, slot: int) -> int:
        return inp.PREDICT_WORLDS

    def op(self, round_index: int, slot: int):
        tower, action, noise = self.objects[slot]
        est = self.cb.inference.predict_stability(
            tower, action, noise, inp.PREDICT_WORLDS,
            program_seed(self.seed, self.name, round_index, slot))
        return (est.p, est.stderr, est.n_samples)

    def check(self, records, problems: Problems) -> None:
        n = inp.PREDICT_WORLDS
        pooled = defaultdict(list)
        refs = {}
        for slot, case in enumerate(self.cases):
            refs[slot] = oracle.reference_probability(case, 20_000, self.seed, slot)
            p_ref = refs[slot][0]
            problems.expect(0.005 < p_ref < 0.995, None,
                            f"{case.name}: reference p={p_ref} is too close to 0 or 1")
        for op_id, slot, (p, stderr, n_samples) in records:
            name = self.cases[slot].name
            problems.expect(n_samples == n, op_id, f"{name}: n_samples {n_samples} != {n}")
            problems.expect(math.isclose(stderr, math.sqrt(p * (1 - p) / n), rel_tol=1e-12,
                                         abs_tol=1e-15), op_id, f"{name}: stderr {stderr}")
            problems.expect(oracle.matches(p, n, refs[slot]), op_id,
                            f"{name}: p={p} against reference {refs[slot]}")
            pooled[slot].append(p)
        for slot, ps in pooled.items():
            problems.expect(oracle.matches(sum(ps) / len(ps), n * len(ps), refs[slot]), None,
                            f"{self.cases[slot].name}: pooled p against {refs[slot]}")


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _mirrors(nx: int, ny: int):
    """Cell index pairs (i, j), i < j, mirrored across x = 0 and across
    y = 0; within each list no cell appears twice."""
    across_x = [(ix * ny + iy, (nx - 1 - ix) * ny + iy)
                for ix in range(nx // 2) for iy in range(ny)]
    across_y = [(ix * ny + iy, ix * ny + ny - 1 - iy)
                for ix in range(nx) for iy in range(ny // 2)]
    return across_x, across_y


class Plan(Workload):
    name = "plan"

    def __init__(self, cb, seed: int, out_dir: str):
        super().__init__(cb, seed, inp.plan_cases(seed))

    def worlds(self, slot: int) -> int:
        nx, ny = inp.PLAN_GRID
        return (nx * ny + 1) * inp.PLAN_WORLDS_PER_CELL

    def op(self, round_index: int, slot: int):
        inference = self.cb.inference
        tower, action, noise = self.objects[slot]
        nx, ny = inp.PLAN_GRID
        n = inp.PLAN_WORLDS_PER_CELL
        seed = program_seed(self.seed, self.name, round_index, slot)
        grid = inference.candidate_grid(tower, action.spec, nx, ny)
        heatmap = inference.stability_heatmap(tower, action.spec, grid, noise, n, seed,
                                              dims=(nx, ny))
        sel = inference.select_action(heatmap, tower, action.spec, noise,
                                      inp.PLAN_THRESHOLD, n, seed)
        return (grid, heatmap.dims, heatmap.probabilities, heatmap.stderr, heatmap.offsets,
                (sel.action.offset_x, sel.action.offset_y), sel.expected_p,
                sel.admissible_count, sel.fallback)

    @staticmethod
    def _checked_cells(case):
        """Every cell has an exact reference under a closed form; otherwise
        the corners, edge midpoints and center get a Monte-Carlo one."""
        nx, ny = inp.PLAN_GRID
        if case.closed_form is not None:
            return range(nx * ny)
        return [ix * ny + iy for ix in (0, nx // 2, nx - 1) for iy in (0, ny // 2, ny - 1)]

    def _reference(self, case, offset, m, *key):
        at = replace(case, place=replace(case.place, offset_x=offset[0], offset_y=offset[1]))
        return oracle.reference_probability(at, m, *key)

    def check(self, records, problems: Problems) -> None:
        nx, ny = inp.PLAN_GRID
        n = inp.PLAN_WORLDS_PER_CELL
        cell_refs = {}
        pooled = defaultdict(lambda: [0.0] * (nx * ny))
        counts = defaultdict(int)
        for op_id, slot, out in records:
            grid, dims, probs, errs, offsets, chosen, expected_p, n_adm, fallback = out
            case = self.cases[slot]
            top = case.specs[-1]
            name = case.name
            problems.expect(tuple(dims) == (nx, ny) and len(grid) == nx * ny, op_id,
                            f"{name}: grid dims {dims}")
            problems.expect(list(offsets) == list(grid), op_id, f"{name}: heatmap offsets")
            ends = (grid[0], grid[-1])
            problems.expect(all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(
                ends[0] + ends[1], (-top.width / 2, -top.depth / 2, top.width / 2,
                                    top.depth / 2))), op_id, f"{name}: grid extent {ends}")
            across_x, across_y = _mirrors(nx, ny)
            problems.expect(all(grid[i] == (-grid[j][0], grid[j][1]) for i, j in across_x)
                            and all(grid[i] == (grid[j][0], -grid[j][1]) for i, j in across_y),
                            op_id, f"{name}: grid offsets not mirror images")
            problems.expect(all(math.isclose(se, math.sqrt(p * (1 - p) / n), rel_tol=1e-12,
                                             abs_tol=1e-15) for p, se in zip(probs, errs)),
                            op_id, f"{name}: stderr")
            if slot not in cell_refs:
                cell_refs[slot] = {i: self._reference(case, grid[i], 1500, self.seed, slot, i)
                                   for i in self._checked_cells(case)}
            refs = cell_refs[slot]
            bad = [i for i in refs if not oracle.matches(probs[i], n, refs[i])]
            problems.expect(not bad, op_id, f"{name}: cells {bad} against references")
            problems.expect(oracle.chi2_ok([(probs[i], n, ref) for i, ref in refs.items()]),
                            op_id, f"{name}: cells jointly against references")
            if inp.PLAN_SLOTS[slot] in inp.PLAN_SYMMETRIC:
                for pairs in (across_x, across_y):
                    problems.expect(all(oracle.same_proportion(probs[i], n, probs[j], n)
                                        for i, j in pairs), op_id,
                                    f"{name}: not mirror-symmetric")
                    problems.expect(oracle.chi2_ok([(probs[i], n, (probs[j], n))
                                                    for i, j in pairs]), op_id,
                                    f"{name}: mirror cells jointly differ")
            admissible = [i for i, p in enumerate(probs) if p >= inp.PLAN_THRESHOLD]
            if admissible:
                want = (math.fsum(offsets[i][0] for i in admissible) / len(admissible),
                        math.fsum(offsets[i][1] for i in admissible) / len(admissible))
                problems.expect(tuple(chosen) == want and n_adm == len(admissible)
                                and not fallback, op_id,
                                f"{name}: selected {chosen} ({n_adm}) != centroid {want} "
                                f"({len(admissible)})")
                ref = self._reference(case, want, 2000, self.seed, slot, 10_000 + op_id)
                problems.expect(oracle.matches(expected_p, n, ref), op_id,
                                f"{name}: expected_p {expected_p} against {ref}")
            else:
                best = min(range(len(probs)), key=lambda i: (-probs[i], offsets[i]))
                problems.expect(fallback and tuple(chosen) == offsets[best]
                                and expected_p == probs[best], op_id,
                                f"{name}: fallback choice {chosen}")
            counts[slot] += 1
            for i, p in enumerate(probs):
                pooled[slot][i] += p
        for slot, sums in pooled.items():
            d = counts[slot]
            problems.expect(oracle.chi2_ok([(sums[i] / d, n * d, ref)
                                            for i, ref in cell_refs[slot].items()]), None,
                            f"{self.cases[slot].name}: pooled cells against references")


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

_KINDS = {"actuation_noise": "actuation", "sensor_noise": "sensing",
          "action": "action", "initial_state": "initial_state"}


class Explain(Workload):
    name = "explain"

    def __init__(self, cb, seed: int, out_dir: str):
        self.slots_ = inp.explain_slots(seed)
        super().__init__(cb, seed, [slot.case for slot in self.slots_])
        self.path = os.path.join(out_dir, f"trace-{os.getpid()}.json")
        self.traces = [None if slot.simulated else cb.core.EpisodeTrace(
            scenario_id=slot.case.name, z0=tower, belief=tower, action=action,
            outcome=slot.outcome, noise=noise, ground_truth=None)
            for slot, (tower, action, noise) in zip(self.slots_, self.objects)]
        self._pick_episode_seeds()

    def _pick_episode_seeds(self) -> None:
        """Give each simulated slot the first episode seed whose outcome is
        the slot's; the outcome, not the seed, fixes what abduction costs."""
        for i, slot in enumerate(self.slots_):
            if not slot.simulated:
                continue
            tower, action, noise = self.objects[i]
            r = inp.seeded(self.seed, "episode", i)
            for _ in range(10_000):
                s = r.getrandbits(63)
                trace = self.cb.scm.sample_episode(tower, action, noise, s)
                if trace.outcome == slot.outcome:
                    break
            else:
                raise RuntimeError(f"{slot.case.name}: no episode with outcome {slot.outcome}")
            self.slots_[i] = replace(slot, episode_seed=s)

    def worlds(self, slot: int) -> int:
        return inp.EXPLAIN_WORLDS

    def op(self, round_index: int, i: int):
        cb = self.cb
        slot = self.slots_[i]
        tower, action, noise = self.objects[i]
        if slot.simulated:
            trace = cb.scm.sample_episode(tower, action, noise, slot.episode_seed,
                                          scenario_id=slot.case.name)
            seed = program_seed(self.seed, self.name, round_index, i)
        else:
            trace = self.traces[i]
            seed = slot.abduct_seed
        cb.scm.save_trace(trace, self.path)
        loaded = cb.scm.load_trace(self.path)
        explanations, abduction = cb.explain.explain_with_abduction(
            loaded, loaded.noise, inp.EXPLAIN_WORLDS, seed)
        report = cb.explain.report_to_dict(explanations, abduction, loaded)
        return (trace, loaded == trace, report,
                [(e.pn, e.pns, e.n_samples) for e in explanations],
                (abduction.acceptance_rate, abduction.accepted, abduction.attempts))

    def known_fault(self, slot: int) -> bool:
        """Recorded discrete-noise traces: the trace codec drops
        ``support_points``, so they are explained under Gaussian noise."""
        return not self.slots_[slot].simulated

    def _check_episode(self, slot, trace, op_id, problems) -> None:
        case = slot.case
        name = case.name
        z0 = [(b.center_x, b.center_y) for b in trace.z0.blocks]
        belief = [(b.center_x, b.center_y) for b in trace.belief.blocks]
        problems.expect(z0 == list(case.centers) and trace.outcome == slot.outcome, op_id,
                        f"{name}: episode z0 or outcome differs from its input")
        gt = trace.ground_truth
        if gt is None:
            problems.expect(False, op_id, f"{name}: simulated trace without ground truth")
            return
        problems.expect(belief == [(x + dx, y + dy) for (x, y), (dx, dy) in zip(z0, gt.exo.ws)],
                        op_id, f"{name}: belief is not z0 + ws")
        new = None
        if case.place is not None:
            bx, by = belief[-1]
            new = (bx + case.place.offset_x + gt.exo.wa[0], by + case.place.offset_y + gt.exo.wa[1])
        problems.expect(oracle.stands(case, z0, new) == trace.outcome, op_id,
                        f"{name}: recorded outcome disagrees with the physics oracle")
        if case.place is not None:
            problems.expect(gt.s1.collapsed == (not trace.outcome), op_id,
                            f"{name}: s1.collapsed disagrees with the outcome")

    def check(self, records, problems: Problems) -> None:
        n = inp.EXPLAIN_WORLDS
        refs = {}
        pooled = defaultdict(lambda: defaultdict(list))
        for op_id, i, out in records:
            trace, round_trip_ok, report, scores, (acc, accepted, attempts) = out
            slot = self.slots_[i]
            name = slot.case.name
            if slot.simulated:
                self._check_episode(slot, trace, op_id, problems)
            problems.expect(round_trip_ok, op_id, f"{name}: trace changed through save/load")
            kinds = [_KINDS[e["target"]["kind"]] for e in report["explanations"]]
            want = {"actuation", "sensing", "initial_state"}
            if slot.case.place is not None:
                want.add("action")
            problems.expect(sorted(kinds) == sorted(want), op_id, f"{name}: candidates {kinds}")
            problems.expect(all(pn == pns and m == n for pn, pns, m in scores), op_id,
                            f"{name}: pns != pn under hard abduction, or N != {n}")
            problems.expect(all(a >= b for a, b in zip(scores, scores[1:])), op_id,
                            f"{name}: explanations not ranked by PNS")
            problems.expect(
                report["scenario_id"] == name and report["observed_outcome"] == slot.outcome
                and report["acceptance_rate"] == acc and report["abduction_attempts"] == attempts
                and [(e["pn"], e["pns"], e["n_samples"]) for e in report["explanations"]] == scores,
                op_id, f"{name}: report does not match the explanations")
            problems.expect(accepted == n and acc == accepted / attempts, op_id,
                            f"{name}: accepted {accepted} of {attempts}, rate {acc}")
            if i not in refs:
                belief = tuple((b.center_x, b.center_y) for b in trace.belief.blocks)
                case = replace(slot.case, belief_centers=belief)
                refs[i] = oracle.twin_world_reference(
                    case, slot.outcome, sorted(want),
                    min(40_000, math.ceil(3000 / slot.target_accept)) if slot.simulated else 0,
                    self.seed, 100 + i)
                p_acc = refs[i]["accept"][0]
                problems.expect(abs(p_acc - slot.target_accept) < 0.05 or not slot.simulated,
                                None, f"{name}: acceptance {p_acc} far from its design "
                                f"{slot.target_accept}")
            ref = refs[i]
            problems.expect(oracle.matches(acc, attempts, ref["accept"]), op_id,
                            f"{name}: acceptance {acc} against {ref['accept']}")
            for kind, e in zip(kinds, report["explanations"]):
                problems.expect(oracle.matches(e["pn"], n, ref["pn"][kind]), op_id,
                                f"{name}: PN({kind}) {e['pn']} against {ref['pn'][kind]}")
                if slot.simulated:
                    pooled[i][kind].append(e["pn"])
        for i, by_kind in pooled.items():
            for kind, pns in by_kind.items():
                problems.expect(oracle.matches(sum(pns) / len(pns), n * len(pns),
                                               refs[i]["pn"][kind]), None,
                                f"{self.slots_[i].case.name}: pooled PN({kind})")


WORKLOADS = {w.name: w for w in (Predict, Plan, Explain)}
