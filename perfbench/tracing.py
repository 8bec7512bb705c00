"""Spans and per-layer counters for the traced run.

The tracer wraps, from outside the package, the names through which each
layer's public functions are looked up by their callers, for example
``htsolve.cli.ground`` or ``htsolve.search.stable_models_bool``.  Nothing
under ``src/`` changes.  A span carries a name, start, end, parent and job
id; spans stay in memory and are written out when the run ends.

Counters that need to look at a call's arguments or result (rules kept,
Boolean atoms, valuation grid sizes, ...) are derived after each job from
the calls recorded during it, so that work is not charged to any layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (object attribute path, span name): every lookup site a job goes through
SITES = (
    ("cli.run", "cli.run"),
    ("cli.parse_program", "parser.parse_program"),
    ("cli.ground", "grounder.ground"),
    ("cli.atoms_of", "core.atoms_of"),
    ("cli.solve", "search.solve"),
    ("parse_program", "parser.parse_program"),
    ("load_model", "configkit.load"),
    ("load_instance", "configkit.load"),
    ("translate", "configkit.translate"),
    ("ground", "grounder.ground"),
    ("value_bounds", "configkit.value_bounds"),
    ("solve", "search.solve"),
    ("decode_instance", "configkit.decode_instance"),
    ("check_instance", "configkit.check_instance"),
    ("search.abstract", "search.abstract"),
    ("search.stable_models_bool", "search.stable_models_bool"),
    ("search.theory_certify", "search.theory_certify"),
    ("search.atoms_of", "core.atoms_of"),
    ("search.enumerate_equilibrium", "semantics.enumerate_equilibrium"),
    ("semantics.atoms_of", "core.atoms_of"),
    ("dl.DiffGraph.assert_diff", "dl.assert_diff"),
)

LAYERS = ("parser", "grounder", "configkit", "search", "dl", "semantics", "core", "cli")

# calls whose arguments and result feed a counter
KEEP = {
    "parser.parse_program", "grounder.ground", "configkit.translate",
    "search.solve", "search.stable_models_bool", "search.theory_certify",
    "semantics.enumerate_equilibrium", "dl.assert_diff",
}


class Tracer:
    """Records spans around wrapped functions; ``install`` / ``remove`` patch them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.calls = []  # (span index, args, result) of KEEP spans of the open job
        self._stack = []
        self._job = -1
        self._patches = []
        self._clock = time.perf_counter

    def install(self, package) -> None:
        for path, name in SITES:
            *owner_path, attr = path.split(".")
            owner = package
            for part in owner_path:
                owner = getattr(owner, part)
            self._wrap(owner, attr, name)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, owner, attr, name) -> None:
        original = getattr(owner, attr)
        keep = name in KEEP
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self._job])
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if keep:
                self.calls.append((idx, args, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def begin_job(self, job: int) -> int:
        self._job = job
        self.calls = []
        idx = len(self.spans)
        self.spans.append(["job", self._clock(), 0.0, -1, job])
        self._stack.append(idx)
        return idx

    def end_job(self, idx: int) -> list:
        """Close the job span; return the calls recorded during the job."""
        self._stack.pop()
        self.spans[idx][2] = self._clock()
        return self.calls

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({
                    "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "parent": parent, "job": job,
                }) + "\n")


def span_times(spans, scale=None) -> dict:
    """Per span name and per layer: busy time, self time and call count.

    Self time is a span's duration minus the time its child spans cover;
    a layer is busy while any of its spans is open, so nested spans of the
    same layer are not counted twice.  ``scale`` maps a job id to the factor
    that turns that job's measured seconds into reference seconds.
    """
    scale = scale or {}
    child_time = defaultdict(float)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_time[parent] += (end - start) * scale.get(job, 1.0)
    out = defaultdict(float)
    for idx, (name, start, end, parent, job) in enumerate(spans):
        layer = name.split(".")[0]
        duration = (end - start) * scale.get(job, 1.0)
        out[f"{name}.self"] += duration - child_time[idx]
        out[f"{name}.calls"] += 1
        out[f"{name}.total"] += duration
        out[f"{layer}.self"] += duration - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0].split(".")[0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{layer}.busy"] += duration
    return out


def job_counts(spans, calls, atoms_of, rule_variables) -> dict:
    """Counters of one job, from the calls recorded during it."""
    c = defaultdict(int)
    certified = defaultdict(int)  # search.solve span -> certified sign patterns
    for idx, args, result in calls:
        name = spans[idx][0]
        if name == "parser.parse_program" and hasattr(result, "rules"):
            c["parser.rules"] += len(result.rules)
        elif name == "grounder.ground":
            program = args[0]
            universe = len(result.universe)
            c["grounder.candidates"] += sum(
                universe ** len(rule_variables(r)) for r in program.rules
            )
            c["grounder.rules_kept"] += len(result.rules)
            atoms, theory, variables = atoms_of(result)
            c["size.programs"] += 1
            c["size.ground_rules"] += len(result.rules)
            c["size.atoms"] += len(atoms)
            c["size.theory_atoms"] += len(theory)
            c["size.vars"] += len(variables)
        elif name == "configkit.translate":
            c["configkit.rules_out"] += len(result.rules)
        elif name == "search.stable_models_bool":
            c["search.bool_atoms"] += len(atoms_of(args[0])[0])
            c["search.bool_models"] += len(result)
        elif name == "search.theory_certify":
            if result is not None:
                c["search.certified"] += 1
                certified[spans[idx][3]] += 1
        elif name == "dl.assert_diff":
            c["dl.conflicts"] += type(result).__name__ == "Conflict"
        elif name == "semantics.enumerate_equilibrium":
            g, mode, (lo, hi) = args[:3]
            atoms, _, variables = atoms_of(g)
            values = hi - lo + 1 + (mode == "founded")
            c["semantics.candidates"] += values ** len(variables) * 2 ** len(atoms)
            c["semantics.answers"] += len(result)
    for idx, args, result in calls:
        if spans[idx][0] != "search.solve":
            continue
        g, mode, (lo, hi) = args[:3]
        c["size.domain"] += hi - lo + 1
        c["size.solves"] += 1
        if len(args) > 3 and args[3] == "search":
            grid = certified[idx] * (hi - lo + 1) ** len(atoms_of(g)[2])
            c["search.grid_points"] += grid
            c["search.grid_answers"] += len(result)
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(times: dict, counts: dict, rounds: int) -> dict:
    """Per-layer metrics, each per round of the workload's inputs.

    Times are seconds per round; ``*_s`` of a single function is its
    inclusive time, ``busy_s``/``self_s`` of a layer as in ``span_times``.
    Ratios whose base is 0 (a layer the workload never calls) read 0.
    """
    t = defaultdict(float, {k: v / rounds for k, v in times.items()})
    c = defaultdict(float, {k: v / rounds for k, v in counts.items()})
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (t[f"{layer}.busy"], "s")
        out[f"{layer}.self_s"] = (t[f"{layer}.self"], "s")
    certify_calls = t["search.theory_certify.calls"]
    programs = c["size.programs"]
    out.update({
        "parser.rules": (c["parser.rules"], "count"),
        "grounder.candidates": (c["grounder.candidates"], "count"),
        "grounder.rules_kept": (c["grounder.rules_kept"], "count"),
        "grounder.keep_ratio": (
            _ratio(c["grounder.rules_kept"], c["grounder.candidates"]), "ratio"),
        "configkit.translate_s": (t["configkit.translate.total"], "s"),
        "configkit.decode_check_s": (
            t["configkit.decode_instance.total"] + t["configkit.check_instance.total"], "s"),
        "configkit.rules_out": (c["configkit.rules_out"], "count"),
        "search.abstract_s": (t["search.abstract.total"], "s"),
        "search.bool_s": (t["search.stable_models_bool.total"], "s"),
        "search.bool_atoms": (c["search.bool_atoms"], "count"),
        "search.bool_models": (c["search.bool_models"], "count"),
        "search.certify_calls": (certify_calls, "count"),
        "search.certify_s": (t["search.theory_certify.total"], "s"),
        "search.certified_ratio": (_ratio(c["search.certified"], certify_calls), "ratio"),
        "search.valuation_s": (t["search.solve.self"], "s"),
        "search.grid_points": (c["search.grid_points"], "count"),
        "search.grid_yield": (_ratio(c["search.grid_answers"], c["search.grid_points"]), "ratio"),
        "dl.assert_calls": (t["dl.assert_diff.calls"], "count"),
        "dl.assert_s": (t["dl.assert_diff.total"], "s"),
        "dl.conflicts": (c["dl.conflicts"], "count"),
        "semantics.oracle_calls": (t["semantics.enumerate_equilibrium.calls"], "count"),
        "semantics.oracle_s": (t["semantics.enumerate_equilibrium.total"], "s"),
        "semantics.candidates": (c["semantics.candidates"], "count"),
        "semantics.answer_yield": (
            _ratio(c["semantics.answers"], c["semantics.candidates"]), "ratio"),
        "core.atoms_of_calls": (t["core.atoms_of.calls"], "count"),
        "core.atoms_of_s": (t["core.atoms_of.total"], "s"),
        "cli.render_s": (t["cli.run.self"], "s"),
        "cli.bytes_out": (c["cli.bytes_out"], "B"),
        "size.ground_rules": (_ratio(c["size.ground_rules"], programs), "count"),
        "size.atoms": (_ratio(c["size.atoms"], programs), "count"),
        "size.theory_atoms": (_ratio(c["size.theory_atoms"], programs), "count"),
        "size.vars": (_ratio(c["size.vars"], programs), "count"),
        "size.domain": (_ratio(c["size.domain"], c["size.solves"]), "count"),
    })
    return out
