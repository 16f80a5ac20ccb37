"""The benchmark's four workloads, built on folkit's public API, and their checks.

A workload is a list of operations.  An operation is one call a user of
folkit would make: one decision, one model search or one MUS extraction.
Each operation returns an outcome; ``check`` judges the outcome against the
independent checker or a property the method must have, never against a
stored copy of an earlier output, and ``failed`` says whether the operation
gave up.  ``check_pass`` adds the checks that span a whole pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checker

SIX = ("ax4", "ax5", "ax7", "ax8", "ax10", "ax12")
CORE9 = ("ax4", "ax5", "ax7", "ax9", "ax10", "ax12")

REFUTE_SECONDS = 10.0
MUS_PROBE_SECONDS = 60.0
SWEEP_SECONDS = 15.0
MODEL_MAX_SIZE = 8

# The sweep: every singleton and pair, five refutable supersets of the six,
# and a seeded sample of larger subsets.  The sample leaves out ax3 and ax7.
# ax3's `!=` literals pull in the equality axioms, and saturation then runs
# to its limit on some refutable supersets.  Every superset of a known core,
# every undecided set without ax3 and every satisfiable set slower than
# 0.1 s contains ax7.  Without the two, each subset of size 3 to 6 is
# satisfiable in a few milliseconds, so the seed changes which sets are
# decided but not what a pass costs.
SWEEP_SAMPLED = 120
SWEEP_SIZES = (3, 6)
SWEEP_LEFT_OUT = ("ax3", "ax7")
SWEEP_REFUTED = (
    SIX,
    ("ax1",) + SIX,
    ("ax2",) + SIX,
    ("ax4", "ax5", "ax7", "ax8", "ax9", "ax10", "ax12"),
    ("ax4", "ax5", "ax7", "ax8", "ax10", "ax11", "ax12"),
)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    failed: Callable[[Any], bool]
    labels: frozenset = frozenset()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check_pass: Callable[[list[tuple[Op, Any]]], list[str]] = lambda done: []


class Checks:
    """Checks shared by the workloads; caches the enumerator per label set.

    Checks run between operations, where the tracer records nothing.
    """

    def __init__(self, fk):
        self.fk = fk
        self.no_small_model: dict[frozenset, bool] = {}

    def has_no_model_up_to_2(self, units) -> bool:
        key = frozenset(u.label for u in units)
        if key not in self.no_small_model:
            found = checker.smallest_model(u.formula for u in units)
            self.no_small_model[key] = found is None
        return self.no_small_model[key]

    def refutation(self, derivation, units) -> list[str]:
        """A refutation of exactly these units, checked three ways."""
        fk = self.fk
        clauses = fk.analysis.saturation_inputs(units)
        errors = []
        if not derivation.is_refutation():
            errors.append("derivation does not end in the empty clause")
        report = fk.saturation.check_derivation(derivation, clauses)
        if not report:
            errors.append(f"derivation fails check_derivation: {report.message}")
        own = {label for c in clauses for label in c.labels}
        for step in derivation.steps:
            if isinstance(step.rule, fk.saturation.Input):
                foreign = set(step.rule.label.split(",")) - own
                if foreign:
                    errors.append(f"input step names foreign labels {sorted(foreign)}")
        if not self.has_no_model_up_to_2(units):
            errors.append("refuted set has a model of size <= 2")
        return errors

    def model(self, interpretation, units) -> list[str]:
        errors = []
        for u in units:
            try:
                ok = checker.holds(interpretation, u.formula)
            except KeyError as exc:
                errors.append(f"model leaves {exc} uninterpreted in {u.label}")
                continue
            if not ok:
                errors.append(f"model falsifies {u.label}")
        return errors

    def verdict(self, verdict, units) -> list[str]:
        if verdict.status == "Unsatisfiable":
            return self.refutation(verdict.witness, units)
        if verdict.status == "Satisfiable":
            return self.model(verdict.witness, units)
        return []


def _decision(fk, checks: Checks, name: str, units, seconds: float) -> Op:
    limits = fk.saturation.Limits(max_seconds=seconds)
    return Op(
        name,
        run=lambda: fk.analysis.check_consistency(units, limits=limits),
        check=lambda v: checks.verdict(v, units),
        failed=lambda v: v.status == "Unknown",
        labels=frozenset(u.label for u in units),
    )


def _named(fk, labels) -> list:
    return fk.asylum.subset(list(labels))


def build_refute(fk, seed: int, root: Path) -> Workload:
    checks = Checks(fk)
    figure1 = root / "src" / "folkit" / "data" / "figure1.p"
    problem = fk.tptp.parse_tptp(figure1.read_text(encoding="utf-8"))
    axioms = problem.axioms()
    argv = ["prove", str(figure1), "--check", "--time-limit", str(REFUTE_SECONDS)]

    def prove_figure1():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fk.cli.main(argv)
        return code, out.getvalue()

    def check_figure1(outcome) -> list[str]:
        code, text = outcome
        lines = text.splitlines()
        errors = []
        if code != 0 or not lines or lines[0] != "SZS status Unsatisfiable":
            return [f"figure1 exited {code} with {lines[:1]}"]
        if lines[-1] != "witness check: ok":
            errors.append("figure1 witness check did not pass")
        if not any(line.startswith("0. ") for line in lines):
            errors.append("figure1 proof has no empty clause")
        own = {l for c in fk.analysis.saturation_inputs(axioms) for l in c.labels}
        for line in lines:
            if "[input " in line:
                label = line.rsplit("[input ", 1)[1].rstrip("]")
                if not set(label.split(",")) <= own:
                    errors.append(f"figure1 proof cites {label}")
        if not checks.has_no_model_up_to_2(axioms):
            errors.append("figure1 axioms have a model of size <= 2")
        return errors

    twelve = _named(fk, fk.asylum.LABELS)
    six = _named(fk, SIX)
    ops = [
        _decision(fk, checks, "twelve", twelve, REFUTE_SECONDS),
        _decision(fk, checks, "six", six, REFUTE_SECONDS),
        Op("figure1 cli", prove_figure1, check_figure1, lambda o: o[0] == 1),
    ]
    return Workload("refute", ops)


def build_mus(fk, seed: int, root: Path) -> Workload:
    checks = Checks(fk)
    twelve = _named(fk, fk.asylum.LABELS)
    limits = fk.saturation.Limits(max_seconds=MUS_PROBE_SECONDS)

    def run():
        try:
            return fk.analysis.extract_mus(twelve, limits=limits)
        except fk.analysis.PreconditionViolated:
            return None

    def check(report) -> list[str]:
        if report is None:
            return []
        if not set(report.core) <= set(fk.asylum.LABELS) or not report.core:
            return [f"core {report.core} is not a nonempty subset of the input"]
        core = _named(fk, report.core)
        errors = checks.refutation(report.refutation, core)
        for label in report.core:
            model = report.deletions.get(label)
            if model is None:
                errors.append(f"deleting {label} from the core is not certified")
                continue
            rest = [u for u in core if u.label != label]
            errors += [f"delete {label}: {e}" for e in checks.model(model, rest)]
        return errors

    return Workload("mus", [Op("mus twelve", run, check, lambda r: r is None)])


def sweep_sample(labels: tuple[str, ...], seed: int) -> list[tuple[str, ...]]:
    """Singletons, pairs, SWEEP_REFUTED, then SWEEP_SAMPLED seeded subsets."""
    fixed = [(l,) for l in labels] + list(itertools.combinations(labels, 2))
    fixed += list(SWEEP_REFUTED)
    kept = [l for l in labels if l not in SWEEP_LEFT_OUT]
    lo, hi = SWEEP_SIZES
    pool = [c for k in range(lo, hi + 1) for c in itertools.combinations(kept, k)]
    return fixed + random.Random(seed).sample(pool, SWEEP_SAMPLED)


def build_sweep(fk, seed: int, root: Path) -> Workload:
    checks = Checks(fk)
    ops = [
        _decision(fk, checks, " ".join(labels), _named(fk, labels), SWEEP_SECONDS)
        for labels in sweep_sample(fk.asylum.LABELS, seed)
    ]

    def exclusive(done) -> list[str]:
        refuted = [op.labels for op, v in done if v.status == "Unsatisfiable"]
        errors = []
        for op, v in done:
            if v.status == "Satisfiable":
                for small in refuted:
                    if small <= op.labels:
                        errors.append(f"{op.name} is Satisfiable but contains a refuted set")
        return errors

    return Workload("sweep", ops, exclusive)


def build_models(fk, seed: int, root: Path) -> Workload:
    checks = Checks(fk)
    labels = fk.asylum.LABELS
    sets = [("twelve", labels), ("six", SIX), ("core9", CORE9)]
    sets += [(f"twelve-{d}", tuple(l for l in labels if l != d)) for d in labels]

    def op(name, chosen) -> Op:
        units = _named(fk, chosen)

        def check(result) -> list[str]:
            if isinstance(result, fk.models.Model):
                return checks.model(result.interpretation, units)
            if isinstance(result, fk.models.NoModelUpTo):
                if result.size != MODEL_MAX_SIZE:
                    return [f"{name}: NoModelUpTo({result.size}), asked for {MODEL_MAX_SIZE}"]
                if not checks.has_no_model_up_to_2(units):
                    return [f"{name}: NoModelUpTo but a model of size <= 2 exists"]
            return []

        return Op(
            name,
            run=lambda: fk.models.find_model(units, max_size=MODEL_MAX_SIZE),
            check=check,
            failed=lambda r: not isinstance(r, (fk.models.Model, fk.models.NoModelUpTo)),
        )

    return Workload("models", [op(name, chosen) for name, chosen in sets])


BUILDERS = {
    "refute": build_refute,
    "mus": build_mus,
    "sweep": build_sweep,
    "models": build_models,
}
