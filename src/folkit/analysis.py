"""High-level reasoning services: consistency checks, conjecture proving, and MUS extraction.

Every decisive verdict carries a witness that has been re-verified
before it is returned: refutations pass check_derivation, models pass
evaluate on every input formula.  Saturation and finite model search
run interleaved on a fixed round-robin schedule measured in work units
(given-clause selections and solver conflicts), so identical inputs
yield identical verdicts and witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .syntax import Falsity, Formula, Not, Signature, free_variables, signature_of
from .tptp import NamedFormula, Problem
from .clausal import Clause, clause_signature, clausify, equality_axioms, uses_equality
from .saturation import (
    Derivation,
    Limits,
    Prover,
    Refutation,
    check_derivation,
    format_derivation,
)
from .models import (
    Interpretation,
    Model,
    ModelSearch,
    evaluate,
    find_model,
    format_interpretation,
)

STATUSES = ("Unsatisfiable", "Satisfiable", "Theorem", "CounterSatisfiable", "Unknown")

# work done per round of the interleave: given-clause selections on the
# saturation side, solver conflicts on the model side
_SELECTION_SLICE = 50
_CONFLICT_SLICE = 2000

DEFAULT_MAX_MODEL_SIZE = 8
CERTIFICATION_SIZE = 4


class PreconditionViolated(Exception):
    """The input set does not meet an operation's stated precondition."""


@dataclass
class RunStats:
    """Resource usage of one reasoning run."""

    elapsed: float = 0.0
    clauses_generated: int = 0
    domain_sizes_tried: list[int] = field(default_factory=list)


@dataclass
class Verdict:
    """Outcome of a reasoning run, with a re-verified witness.

    Unsatisfiable and Theorem carry a checked Derivation; Satisfiable
    and CounterSatisfiable carry a verified Interpretation; Unknown
    carries no witness.
    """

    status: str
    witness: Derivation | Interpretation | None
    stats: RunStats

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status in ("Unsatisfiable", "Theorem"):
            if not isinstance(self.witness, Derivation):
                raise ValueError(f"{self.status} requires a derivation witness")
        elif self.status in ("Satisfiable", "CounterSatisfiable"):
            if not isinstance(self.witness, Interpretation):
                raise ValueError(f"{self.status} requires a model witness")
        elif self.witness is not None:
            raise ValueError("Unknown carries no witness")


@dataclass
class MusReport:
    """A certified unsatisfiable core and its minimality evidence.

    deletions maps each core label to a model of the core minus that
    axiom, or to None when no model was found within the certification
    bound (minimality then holds only modulo that bound).
    """

    core: list[str]
    refutation: Derivation
    deletions: dict[str, Interpretation | None]
    certification_size: int = CERTIFICATION_SIZE


def saturation_inputs(units: list[NamedFormula]) -> list[Clause]:
    """Clausify the units, appending equality axioms when equality occurs.

    The congruence axioms are instantiated for every symbol appearing in
    the clauses, which includes Skolem symbols that clausification
    introduced; missing those would make saturation's Saturated verdict
    unsound on equality problems.
    """
    return _with_equality(clausify(units), signature_of(u.formula for u in units))


def _with_equality(clauses: list[Clause], signature: Signature) -> list[Clause]:
    """The clauses plus, if they use equality, its axioms for every symbol."""
    if uses_equality(clauses):
        clauses = clauses + equality_axioms(clause_signature(clauses, base=signature))
    return clauses


def _decide(units: list[NamedFormula], limits: Limits, max_size: int) -> Verdict:
    """Run saturation and model search interleaved; first decisive answer wins.

    Unsatisfiable always comes from saturation with a checked
    refutation, Satisfiable always from the model finder with a
    verified interpretation, so reports do not depend on timing.
    Each engine stops on its own clock once limits.max_seconds has
    passed; when both have stopped without an answer, it is Unknown.
    """
    start = time.monotonic()
    hunter = ModelSearch(units, max_size=max_size, limits=limits)
    # the model finder's clauses are what saturation_inputs would build
    clauses = _with_equality(hunter.clauses, hunter.signature)
    prover = Prover(clauses, limits)

    def stats() -> RunStats:
        return RunStats(
            elapsed=time.monotonic() - start,
            clauses_generated=prover.generated,
            domain_sizes_tried=list(hunter.sizes_tried),
        )

    proving = True
    hunting = True
    while proving or hunting:
        if proving:
            result = prover.step(_SELECTION_SLICE)
            if isinstance(result, Refutation):
                report = check_derivation(result.derivation, clauses)
                if not report:
                    raise RuntimeError(f"refutation failed checking: {report.message}")
                return Verdict("Unsatisfiable", result.derivation, stats())
            if result is not None:
                proving = False
        if hunting:
            found = hunter.step(_CONFLICT_SLICE)
            if isinstance(found, Model):
                return Verdict("Satisfiable", found.interpretation, stats())
            if found is not None:
                hunting = False
    return Verdict("Unknown", None, stats())


def check_consistency(
    axioms: list[NamedFormula],
    limits: Limits | None = None,
    max_size: int = DEFAULT_MAX_MODEL_SIZE,
) -> Verdict:
    """Decide whether a set of formulas is satisfiable.

    Returns Unsatisfiable with a checked refutation, Satisfiable with a
    verified finite model, or Unknown when resource limits ran out
    before either engine answered.
    """
    return _decide(list(axioms), limits or Limits(), max_size)


def _fresh_label(base: str, taken: set[str]) -> str:
    label = base
    while label in taken:
        label += "_"
    return label


def conjecture_units(axioms: list[NamedFormula], conjecture: Formula) -> list[NamedFormula]:
    """The axioms plus the negated conjecture as a fresh labeled unit.

    This is the exact unit list prove_conjecture reasons about, exposed
    so callers can re-verify its witnesses against the same inputs.
    """
    free = free_variables(conjecture)
    if free:
        names = ", ".join(sorted(free))
        raise ValueError(f"conjecture must be closed; free: {names}")
    taken = {u.label for u in axioms}
    label = _fresh_label("negated_conjecture", taken)
    return list(axioms) + [NamedFormula(label, "axiom", Not(conjecture))]


def prove_conjecture(
    axioms: list[NamedFormula],
    conjecture: Formula,
    limits: Limits | None = None,
    max_size: int = DEFAULT_MAX_MODEL_SIZE,
) -> Verdict:
    """Prove a closed conjecture from axioms by refuting its negation.

    Theorem when saturation refutes axioms plus the negated conjecture;
    CounterSatisfiable when the model finder satisfies that set.
    """
    units = conjecture_units(axioms, conjecture)
    verdict = _decide(units, limits or Limits(), max_size)
    rename = {"Unsatisfiable": "Theorem", "Satisfiable": "CounterSatisfiable"}
    status = rename.get(verdict.status, verdict.status)
    return Verdict(status, verdict.witness, verdict.stats)


def decide_problem(
    problem: Problem,
    limits: Limits | None = None,
    max_size: int = DEFAULT_MAX_MODEL_SIZE,
) -> Verdict:
    """Dispatch a parsed problem to the right reasoning mode.

    A problem without a conjecture is a consistency question.  A
    conjecture of $false asks whether the axioms themselves are
    contradictory, so it is answered in consistency vocabulary
    (Unsatisfiable/Satisfiable) rather than Theorem/CounterSatisfiable.
    """
    conjecture = problem.conjecture()
    axioms = [u for u in problem.units if u.role != "conjecture"]
    if conjecture is None or isinstance(conjecture.formula, Falsity):
        return check_consistency(axioms, limits, max_size)
    return prove_conjecture(axioms, conjecture.formula, limits, max_size)


def _refutes(units: list[NamedFormula], limits: Limits, max_size: int) -> Derivation | None:
    """A checked refutation of the units, or None if none found in bounds."""
    verdict = _decide(units, limits, max_size)
    if verdict.status == "Unsatisfiable":
        assert isinstance(verdict.witness, Derivation)
        return verdict.witness
    return None


def extract_mus(
    axioms: list[NamedFormula],
    limits: Limits | None = None,
    max_size: int = DEFAULT_MAX_MODEL_SIZE,
    certification_size: int = CERTIFICATION_SIZE,
) -> MusReport:
    """Shrink an unsatisfiable set to a certified core by deletion.

    Axioms are dropped in input order; a deletion sticks when the rest
    still refutes within the limits, otherwise the axiom is restored.
    Each single deletion from the final core is then certified
    Satisfiable by a model of size at most certification_size, or
    marked Unknown.  Limits apply per probe, not to the whole run.
    """
    limits = limits or Limits()
    core = list(axioms)
    refutation = _refutes(core, limits, max_size)
    if refutation is None:
        raise PreconditionViolated(
            "input set was not refuted within the given limits"
        )
    # the last probe that refuted ran on exactly the current core
    for axiom in list(core):
        rest = [a for a in core if a is not axiom]
        found = _refutes(rest, limits, max_size)
        if found is not None:
            core, refutation = rest, found
    deletions: dict[str, Interpretation | None] = {}
    for axiom in core:
        rest = [a for a in core if a is not axiom]
        found = find_model(rest, max_size=certification_size, limits=limits)
        deletions[axiom.label] = found.interpretation if isinstance(found, Model) else None
    return MusReport([a.label for a in core], refutation, deletions, certification_size)


def verify_verdict(verdict: Verdict, units: list[NamedFormula]) -> bool:
    """Re-check a verdict's witness against the exact units it ran on.

    Derivations are replayed step by step against the clausified units;
    interpretations are evaluated on every unit formula.  Unknown has
    nothing to check and passes.
    """
    if isinstance(verdict.witness, Derivation):
        return bool(check_derivation(verdict.witness, saturation_inputs(units)))
    if isinstance(verdict.witness, Interpretation):
        return all(evaluate(verdict.witness, u.formula) for u in units)
    return True


def format_verdict(verdict: Verdict, signature: Signature | None = None) -> str:
    """SZS status line followed by the proof or model block, if any."""
    text = f"SZS status {verdict.status}\n"
    if isinstance(verdict.witness, Derivation):
        text += format_derivation(verdict.witness)
    elif isinstance(verdict.witness, Interpretation):
        text += format_interpretation(verdict.witness, signature)
    return text


def format_mus_report(report: MusReport, signature: Signature | None = None) -> str:
    """Core label line plus one certification line per deletion."""
    lines = ["core: " + " ".join(report.core)]
    bounded = False
    for label in report.core:
        model = report.deletions.get(label)
        if model is None:
            bounded = True
            lines.append(
                f"delete {label}: Unknown"
                f" (no model of size <= {report.certification_size})"
            )
        else:
            lines.append(f"delete {label}: Satisfiable (domain size {model.size})")
    if bounded:
        lines.append(
            "minimality holds modulo the size bound; uncertified deletions"
            " may still be unsatisfiable"
        )
    return "\n".join(lines) + "\n"
