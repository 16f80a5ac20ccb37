"""High-level reasoning services: consistency checks, conjecture proving, and MUS extraction.

Every decisive verdict carries a witness that has been re-verified
before it is returned: refutations pass check_derivation, models pass
evaluate on every input formula.  Three engines run interleaved on a
fixed round-robin schedule measured in work units, never in time:
saturation (given-clause selections), finite model search (solver
conflicts) and Herbrand-level grounding (ground instances and solver
conflicts), so identical inputs yield identical verdicts and witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .syntax import Falsity, Formula, Not, Signature, free_variables, signature_of
from .tptp import NamedFormula, Problem
from .clausal import (
    Clause,
    clause_signature,
    clausify,
    equality_axioms,
    has_positive_equality,
    uses_equality,
)
from .grounding import Grounder
from .saturation import (
    Derivation,
    Limits,
    Prover,
    Refutation,
    Saturated,
    check_derivation,
    format_derivation,
)
from .models import (
    DEFAULT_MAX_MODEL_SIZE,
    Interpretation,
    Model,
    ModelSearch,
    evaluate,
    find_model,  # unused here; bench/tracing.py patches analysis.find_model by name
    format_interpretation,
)

STATUSES = ("Unsatisfiable", "Satisfiable", "Theorem", "CounterSatisfiable", "Unknown")

# work done per round of the interleave: given-clause selections on the
# saturation side, solver conflicts on the model and grounding sides
_SELECTION_SLICE = 50
_CONFLICT_SLICE = 2000
# a grounding level starts once saturation has generated this many
# clauses per ground instance that the levels up to it enumerate
_GENERATED_PER_INSTANCE = 2


class PreconditionViolated(Exception):
    """The input set does not meet an operation's stated precondition."""


@dataclass
class RunStats:
    """Resource usage of one reasoning run.

    engine names what answered: "saturation", "grounding" or "models";
    it is None when nothing did.
    """

    elapsed: float = 0.0
    clauses_generated: int = 0
    domain_sizes_tried: list[int] = field(default_factory=list)
    engine: str | None = None


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

    deletions maps each core label to a verified model of the core minus
    that axiom, or to None when its last probe found neither a
    refutation nor a model (minimality then is not certified).
    """

    core: list[str]
    refutation: Derivation
    deletions: dict[str, Interpretation | None]


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
    """Run saturation, model search and grounding interleaved; first decisive answer wins.

    Each round gives saturation _SELECTION_SLICE selections and the
    model finder _CONFLICT_SLICE conflicts.  The grounder gets a round
    of _CONFLICT_SLICE conflicts while a level is loaded; it starts
    level k only while saturation is still searching and has generated
    _GENERATED_PER_INSTANCE clauses per instance that levels 0..k
    enumerate, so a set that saturation refutes quickly never pays for
    grounding.  It grounds reflexivity as the only equality axiom, and
    sits out when a clause has a positive equality literal.  A
    Saturated prover stops it, since the set then has no refutation.
    Unsatisfiable comes from saturation or grounding with a refutation
    that check_derivation has passed, Satisfiable from the model finder
    with a verified interpretation; the schedule counts work, not time,
    so reports do not depend on timing.  Each engine stops on its own
    clock once limits.max_seconds has passed; when all have stopped
    without an answer, it is Unknown.
    """
    start = time.monotonic()
    hunter = ModelSearch(units, max_size=max_size, limits=limits)
    # the model finder's clauses are what saturation_inputs would build
    clauses = _with_equality(hunter.clauses, hunter.signature)
    prover = Prover(clauses, limits)
    grounder = None
    if not has_positive_equality(hunter.clauses):
        # of the equality axioms only reflexivity, which equality_axioms lists first
        grounder = Grounder(clauses[: len(hunter.clauses) + 1], limits)

    def verdict(status: str, witness, engine: str | None) -> Verdict:
        stats = RunStats(
            elapsed=time.monotonic() - start,
            clauses_generated=prover.generated,
            domain_sizes_tried=list(hunter.sizes_tried),
            engine=engine,
        )
        return Verdict(status, witness, stats)

    def refuted(derivation: Derivation, engine: str) -> Verdict:
        report = check_derivation(derivation, clauses)
        if not report:
            raise RuntimeError(f"{engine} refutation failed checking: {report.message}")
        return verdict("Unsatisfiable", derivation, engine)

    proving = hunting = True
    grounding = grounder is not None
    while proving or hunting or grounding:
        if proving:
            result = prover.step(_SELECTION_SLICE)
            if isinstance(result, Refutation):
                return refuted(result.derivation, "saturation")
            if result is not None:
                proving = False
                grounding = grounding and not isinstance(result, Saturated)
        if hunting:
            found = hunter.step(_CONFLICT_SLICE)
            if isinstance(found, Model):
                return verdict("Satisfiable", found.interpretation, "models")
            if found is not None:
                hunting = False
        if grounding:
            if grounder.solving or (
                proving and prover.generated >= _GENERATED_PER_INSTANCE * grounder.cost()
            ):
                outcome = grounder.step(_CONFLICT_SLICE)
                if isinstance(outcome, Refutation):
                    return refuted(outcome.derivation, "grounding")
                grounding = outcome is None
            else:
                grounding = proving
    return verdict("Unknown", None, None)


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

    Theorem when saturation or grounding refutes axioms plus the negated conjecture;
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


def extract_mus(
    axioms: list[NamedFormula],
    limits: Limits | None = None,
    max_size: int = DEFAULT_MAX_MODEL_SIZE,
) -> MusReport:
    """Shrink an unsatisfiable set to a certified core by deletion.

    Axioms are probed in input order; a deletion sticks when the rest
    still refutes.  A probe's model certifies its axiom, since it also
    satisfies every smaller core without that axiom.  A probe that ends
    Unknown is asked again once the core is smaller than the set it
    asked about.  limits.max_seconds is one deadline for the whole run,
    each probe getting the time left, and a probe with no time left is
    Unknown without running; max_clauses applies per probe.
    """
    limits = limits or Limits()
    deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds

    def probe(units: list[NamedFormula]) -> Verdict:
        left = None if deadline is None else deadline - time.monotonic()
        if left is not None and left <= 0.0:
            return Verdict("Unknown", None, RunStats())
        return _decide(units, Limits(limits.max_clauses, left), max_size)

    core = list(axioms)
    verdict = probe(core)
    if verdict.status != "Unsatisfiable":
        raise PreconditionViolated(
            "input set was not refuted within the given limits"
        )
    refutation = verdict.witness
    models: dict[str, Interpretation] = {}
    # uncertified label -> size of the set its last probe asked about (first: the input)
    asked = {a.label: len(core) for a in core}
    while todo := [a for a in core if asked.get(a.label, 0) >= len(core)]:
        for axiom in todo:
            rest = [a for a in core if a is not axiom]
            verdict = probe(rest)
            if verdict.status == "Unsatisfiable":
                core, refutation = rest, verdict.witness
            elif verdict.status == "Satisfiable":
                models[axiom.label] = verdict.witness
                del asked[axiom.label]
            else:
                asked[axiom.label] = len(rest)
    deletions = {a.label: models.get(a.label) for a in core}
    return MusReport([a.label for a in core], refutation, deletions)


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


def format_mus_report(report: MusReport) -> str:
    """Core label line plus one certification line per deletion."""
    lines = ["core: " + " ".join(report.core)]
    uncertified = False
    for label in report.core:
        model = report.deletions.get(label)
        if model is None:
            uncertified = True
            lines.append(
                f"delete {label}: Unknown"
                " (its probe found neither a refutation nor a model)"
            )
        else:
            lines.append(f"delete {label}: Satisfiable (domain size {model.size})")
    if uncertified:
        lines.append(
            "minimality is not certified: an uncertified deletion"
            " may still be unsatisfiable"
        )
    return "\n".join(lines) + "\n"
