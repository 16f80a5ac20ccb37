"""Per-layer tracing from outside folkit, by wrapping the public names callers look up.

Each wrapped name is replaced in the module that calls it, for the length
of a ``with Tracer(fk):`` block:

    folkit.analysis  clausify, ModelSearch, find_model, check_derivation, Verdict
    folkit.models    clausify, ground, ModelSearch, find_model, CdclSolver, evaluate
    folkit.cli       parse_tptp

No underscore name is touched.  Spans are recorded only while an operation
runs (``Tracer.op``), kept in memory, and written out by ``dump``.  Saturation
has no public entry point inside a decision, so a decision's span is
rebuilt from the Verdict it returns: the decision ends when the Verdict is
made and began ``stats.elapsed`` seconds earlier, both on the monotonic
clock.  Saturation's self time is that span minus the clausify, model and
check spans inside it.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

CLOCK = time.monotonic  # RunStats.elapsed is measured on this clock too
SLACK = 1e-3


class Tracer:
    def __init__(self, fk):
        self.fk = fk
        self.spans: list[dict] = []
        self.decisions: list[dict] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.ops: list[dict] = []
        self.patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin_op(self, name: str) -> None:
        self.op = len(self.ops)
        self.ops.append({"name": name, "start": CLOCK()})

    def end_op(self) -> None:
        self.op = None

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            {"name": name, "op": self.op, "parent": parent, "start": CLOCK(), "end": None}
        )
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int, **counts) -> None:
        self.spans[index]["end"] = CLOCK()
        self.spans[index].update(counts)
        self.stack.pop()

    def _wrap(self, name: str, fn, counts=lambda result: {}):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, **(counts(result) if result is not None else {}))
            return result

        return traced

    def _patch(self, module, name: str, value) -> None:
        self.patched.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        fk, tracer = self.fk, self
        analysis, models = fk.analysis, fk.models

        clausify = self._wrap("clausify", fk.clausal.clausify, lambda r: {"clauses": len(r)})
        self._patch(analysis, "clausify", clausify)
        self._patch(models, "clausify", clausify)
        self._patch(models, "ground", self._wrap(
            "ground", models.ground,
            lambda r: {"vars": r[0].n, "ground_clauses": len(r[0].clauses)},
        ))
        self._patch(models, "evaluate", self._wrap("evaluate", models.evaluate))
        self._patch(analysis, "check_derivation",
                    self._wrap("check_derivation", fk.saturation.check_derivation))
        find_model = self._wrap("find_model", models.find_model)
        self._patch(analysis, "find_model", find_model)
        self._patch(models, "find_model", find_model)
        self._patch(fk.cli, "parse_tptp", self._wrap("parse_tptp", fk.tptp.parse_tptp))

        class TracedSolver(fk.sat.CdclSolver):
            def solve(self, max_conflicts=None):
                if tracer.op is None:
                    return super().solve(max_conflicts)
                before = self.conflicts
                index = tracer._open("solve")
                try:
                    return super().solve(max_conflicts)
                finally:
                    tracer._close(index, conflicts=self.conflicts - before)

        class TracedModelSearch(models.ModelSearch):
            def __init__(self, *args, **kwargs):
                if tracer.op is None:
                    return super().__init__(*args, **kwargs)
                index = tracer._open("model.init")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(index)

            step = tracer._wrap("model.step", models.ModelSearch.step)

        class TracedVerdict(analysis.Verdict):
            def __post_init__(self):
                super().__post_init__()
                tracer._decided(self)

        self._patch(models, "CdclSolver", TracedSolver)
        self._patch(analysis, "ModelSearch", TracedModelSearch)
        self._patch(models, "ModelSearch", TracedModelSearch)
        self._patch(analysis, "Verdict", TracedVerdict)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self.patched):
            setattr(module, name, original)
        self.patched.clear()

    def _decided(self, verdict) -> None:
        if self.op is None:
            return
        # prove_conjecture renames a decision's Verdict, reusing its stats
        if self.decisions and self.decisions[-1]["stats"] is verdict.stats:
            return
        end = CLOCK()
        steps = len(verdict.witness.steps) if verdict.status == "Unsatisfiable" else 0
        self.decisions.append({
            "op": self.op,
            "start": end - verdict.stats.elapsed,
            "end": end,
            "status": verdict.status,
            "generated": verdict.stats.clauses_generated,
            "proof_steps": steps,
            "stats": verdict.stats,
        })

    # -- reporting ----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures for one pass: totals over all passes divided by passes."""
        spans = self.spans

        def total(name: str, key: str | None = None) -> float:
            return sum(
                (s.get(key, 0) if key else s["end"] - s["start"])
                for s in spans if s["name"] == name
            )

        # direct children of an operation; nested spans are inside these
        top: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is None:
                top.setdefault(s["op"], []).append(s)
        sat_self = answering = losing = decided = 0.0
        previous_end: dict[int, float] = {}
        for d in self.decisions:
            # the rebuilt start lags the true one by the few microseconds
            # between RunStats and Verdict, so allow a little slack, but
            # never reach back into the operation's previous decision
            after = max(d["start"] - SLACK, previous_end.get(d["op"], float("-inf")))
            previous_end[d["op"]] = d["end"]
            inside = [s for s in top.get(d["op"], ())
                      if after <= s["start"] and s["end"] <= d["end"]]
            model = sum(s["end"] - s["start"] for s in inside if s["name"].startswith("model."))
            other = sum(s["end"] - s["start"] for s in inside
                        if s["name"] in ("clausify", "check_derivation"))
            span = d["end"] - d["start"]
            saturation = max(0.0, span - model - other)
            sat_self += saturation
            decided += span
            if d["status"] == "Unsatisfiable":
                answering += saturation
                losing += model
            elif d["status"] == "Satisfiable":
                answering += model
                losing += saturation
            else:
                losing += saturation + model

        generated = sum(d["generated"] for d in self.decisions)
        proof_steps = sum(d["proof_steps"] for d in self.decisions)
        solve_s = total("solve")
        conflicts = total("solve", "conflicts")
        per_pass = {
            "saturation.self_s": sat_self,
            "saturation.generated": generated,
            "saturation.proof_steps": proof_steps,
            "saturation.check_s": total("check_derivation"),
            "models.ground_s": total("ground"),
            "models.ground_clauses": total("ground", "ground_clauses"),
            "models.ground_vars": total("ground", "vars"),
            "models.sizes_tried": sum(1 for s in spans if s["name"] == "ground"),
            "models.evaluate_s": total("evaluate"),
            "sat.solve_s": solve_s,
            "sat.conflicts": conflicts,
            "analysis.losing_engine_s": losing,
            "analysis.probes": len(self.decisions),
            "clausal.clausify_s": total("clausify"),
            "clausal.calls": sum(1 for s in spans if s["name"] == "clausify"),
            "clausal.clauses": total("clausify", "clauses"),
            "tptp.parse_s": total("parse_tptp"),
        }
        out = {name: value / passes for name, value in per_pass.items()}
        # ratios of totals; 0 where the layer did no work in this workload
        out["saturation.us_per_generated"] = 1e6 * sat_self / generated if generated else 0.0
        out["saturation.proof_share"] = proof_steps / generated if generated else 0.0
        out["sat.conflicts_per_s"] = conflicts / solve_s if solve_s else 0.0
        out["analysis.answering_share"] = answering / decided if decided else 0.0
        return out

    def dump(self, path: Path, header: dict) -> None:
        """Write every span and decision, times relative to the first operation."""
        zero = self.ops[0]["start"] if self.ops else 0.0
        ops = [{**o, "start": o["start"] - zero} for o in self.ops]
        spans = [
            {**s, "start": s["start"] - zero, "end": s["end"] - zero} for s in self.spans
        ]
        decisions = [
            {k: (v - zero if k in ("start", "end") else v) for k, v in d.items() if k != "stats"}
            for d in self.decisions
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({**header, "ops": ops, "spans": spans, "decisions": decisions}) + "\n",
            encoding="utf-8",
        )
