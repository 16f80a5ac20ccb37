"""Reasoning services: consistency, conjectures, and minimal unsatisfiable cores."""

import pytest

from folkit import analysis, clausal, models
from folkit.syntax import And, Atom, Forall, Implies, Not, Var
from folkit.tptp import parse_tptp
from folkit.models import Interpretation, evaluate
from folkit.saturation import Derivation, Limits
from folkit.analysis import (
    DEFAULT_MAX_MODEL_SIZE,
    STATUSES,
    MusReport,
    PreconditionViolated,
    RunStats,
    Verdict,
    check_consistency,
    conjecture_units,
    decide_problem,
    extract_mus,
    format_mus_report,
    format_verdict,
    prove_conjecture,
    verify_verdict,
)


def units_of(text: str):
    return parse_tptp(text).units


@pytest.mark.parametrize(
    "text, status",
    [
        ("fof(a, axiom, c = d).\nfof(b, axiom, p(c)).\nfof(n, axiom, ~p(d)).", "Unsatisfiable"),
        ("fof(a, axiom, f(c) = d).\nfof(b, axiom, p(d)).", "Satisfiable"),
    ],
)
def test_a_decision_clausifies_its_units_once(monkeypatch, text, status):
    calls = []

    def counting(units):
        calls.append(units)
        return clausal.clausify(units)

    monkeypatch.setattr(analysis, "clausify", counting)
    monkeypatch.setattr(models, "clausify", counting)
    units = units_of(text)
    verdict = check_consistency(units)
    assert verdict.status == status
    assert len(calls) == 1
    assert verify_verdict(verdict, units)  # the witness checks against fresh inputs


# -- verdict invariants ---------------------------------------------------------

def test_verdict_requires_matching_witness():
    with pytest.raises(ValueError):
        Verdict("Unsatisfiable", None, RunStats())
    with pytest.raises(ValueError):
        Verdict("Satisfiable", Derivation(), RunStats())
    with pytest.raises(ValueError):
        Verdict("Unknown", Interpretation(1), RunStats())
    with pytest.raises(ValueError):
        Verdict("Maybe", None, RunStats())
    assert "Unknown" in STATUSES
    assert Verdict("Unknown", None, RunStats()).witness is None


# -- consistency ----------------------------------------------------------------

def test_empty_set_is_satisfiable():
    verdict = check_consistency([])
    assert verdict.status == "Satisfiable"
    assert verdict.witness.size == 1
    assert verify_verdict(verdict, [])


def test_single_hypothesis_is_satisfiable(hypotheses):
    verdict = check_consistency([hypotheses["ax4"]])
    assert verdict.status == "Satisfiable"
    assert evaluate(verdict.witness, hypotheses["ax4"].formula)


def test_plain_contradiction_is_unsatisfiable():
    units = units_of("fof(a, axiom, p(c)).\nfof(b, axiom, ![X] : ~p(X)).")
    verdict = check_consistency(units)
    assert verdict.status == "Unsatisfiable"
    assert verdict.witness.is_refutation()
    assert verify_verdict(verdict, units)


def test_equality_contradiction_is_unsatisfiable():
    units = units_of(
        "fof(a, axiom, a = b).\n"
        "fof(b, axiom, p(a)).\n"
        "fof(c, axiom, ~p(b)).\n"
    )
    verdict = check_consistency(units)
    assert verdict.status == "Unsatisfiable"
    assert verify_verdict(verdict, units)


def test_unknown_when_both_engines_give_up():
    units = units_of("fof(a, axiom, ?[X] : ?[Y] : ~(X = Y)).")
    verdict = check_consistency(units, max_size=1)
    # no size-1 model exists and saturation cannot refute a satisfiable set
    assert verdict.status in ("Unknown", "Satisfiable")
    if verdict.status == "Unknown":
        assert verdict.witness is None


def test_stats_are_populated(hypotheses):
    verdict = check_consistency([hypotheses["ax1"]])
    assert verdict.stats.elapsed >= 0.0
    assert verdict.stats.domain_sizes_tried[:1] == [1]


# -- conjectures ------------------------------------------------------------------

def test_prove_conjecture_theorem():
    axioms = units_of("fof(a, axiom, ![X] : p(X) => q(X)).\nfof(b, axiom, p(c)).")
    verdict = prove_conjecture(axioms, parse_tptp("fof(c, conjecture, q(c)).").units[0].formula)
    assert verdict.status == "Theorem"
    assert verdict.witness.is_refutation()


def test_prove_conjecture_countersatisfiable():
    axioms = units_of("fof(a, axiom, p(c)).")
    X = Var("X")
    verdict = prove_conjecture(axioms, Forall("X", Atom("p", (X,))))
    assert verdict.status == "CounterSatisfiable"
    assert evaluate(verdict.witness, axioms[0].formula)
    assert not evaluate(verdict.witness, Forall("X", Atom("p", (X,))))


def test_prove_conjecture_rejects_free_variables():
    with pytest.raises(ValueError, match="X"):
        prove_conjecture([], Atom("p", (Var("X"),)))


def test_conjecture_units_appends_negation_with_fresh_label():
    axioms = units_of("fof(negated_conjecture, axiom, p).")
    out = conjecture_units(axioms, Atom("q", ()))
    assert [u.label for u in out] == ["negated_conjecture", "negated_conjecture_"]
    assert isinstance(out[-1].formula, Not)


def test_theorem_matches_consistency_of_negation(hypotheses):
    axioms = units_of("fof(a, axiom, p => q).\nfof(b, axiom, p).")
    conjecture = Atom("q", ())
    proved = prove_conjecture(axioms, conjecture)
    assert proved.status == "Theorem"
    refuted = check_consistency(conjecture_units(axioms, conjecture))
    assert refuted.status == "Unsatisfiable"


def test_decide_problem_dispatches_on_conjecture():
    with_conj = parse_tptp("fof(a, axiom, p).\nfof(c, conjecture, p).")
    assert decide_problem(with_conj).status == "Theorem"
    without = parse_tptp("fof(a, axiom, p).")
    assert decide_problem(without).status == "Satisfiable"


def test_decide_problem_treats_false_conjecture_as_consistency_check():
    problem = parse_tptp("fof(a, axiom, p).\nfof(c, conjecture, false).")
    assert decide_problem(problem).status == "Satisfiable"
    contradictory = parse_tptp(
        "fof(a, axiom, p).\nfof(b, axiom, ~p).\nfof(c, conjecture, false)."
    )
    assert decide_problem(contradictory).status == "Unsatisfiable"


# -- verification -----------------------------------------------------------------

def test_verify_verdict_rejects_foreign_witness():
    units = units_of("fof(a, axiom, p(c)).\nfof(b, axiom, ![X] : ~p(X)).")
    other = units_of("fof(a, axiom, q(d)).\nfof(b, axiom, ![X] : ~q(X)).")
    verdict = check_consistency(units)
    assert verify_verdict(verdict, units)
    assert not verify_verdict(verdict, other)


def test_verify_verdict_rejects_wrong_model():
    units = units_of("fof(a, axiom, p(c)).")
    verdict = check_consistency(units)
    assert verdict.status == "Satisfiable"
    empty = Interpretation(
        verdict.witness.size,
        constants=dict(verdict.witness.constants),
        predicates={"p": set()},
    )
    doctored = Verdict("Satisfiable", empty, RunStats())
    assert not verify_verdict(doctored, units)


def test_verify_verdict_accepts_unknown():
    assert verify_verdict(Verdict("Unknown", None, RunStats()), [])


# -- minimal unsatisfiable cores ----------------------------------------------------

def test_extract_mus_simple():
    units = units_of("fof(p1, axiom, p).\nfof(p2, axiom, ~p).\nfof(q1, axiom, q).")
    report = extract_mus(units)
    assert report.core == ["p1", "p2"]
    assert report.refutation.is_refutation()
    assert set(report.deletions) == {"p1", "p2"}
    assert all(m is not None and m.size == 1 for m in report.deletions.values())


def test_extract_mus_singleton_core():
    units = units_of("fof(only, axiom, p & ~p).\nfof(extra, axiom, q).")
    report = extract_mus(units)
    assert report.core == ["only"]
    deleted = report.deletions["only"]
    assert deleted is not None and deleted.size == 1


def test_extract_mus_requires_refutable_input():
    with pytest.raises(PreconditionViolated):
        extract_mus(units_of("fof(a, axiom, p)."))


def test_extract_mus_is_idempotent_on_its_own_core():
    units = units_of(
        "fof(p1, axiom, p | q).\nfof(p2, axiom, ~p).\nfof(p3, axiom, ~q).\n"
        "fof(p4, axiom, r)."
    )
    first = extract_mus(units)
    core_units = [u for u in units if u.label in first.core]
    second = extract_mus(core_units)
    assert second.core == first.core == ["p1", "p2", "p3"]


def test_extract_mus_on_the_twelve_hypotheses(all_twelve):
    """Label-order deletion lands on the ax9 variant of the six-element core.

    Dropping ax8 leaves a set that is still refutable through ax9, so the
    deletion pass discards ax8 and later finds ax9 indispensable.  The core
    differs from the reduced set used elsewhere in exactly that one member;
    both are genuine minimal unsatisfiable subsets.
    """
    report = extract_mus(all_twelve, limits=Limits(max_seconds=60.0))
    assert report.core == ["ax4", "ax5", "ax7", "ax9", "ax10", "ax12"]
    assert report.refutation.is_refutation()
    by_label = {u.label: u for u in all_twelve}
    core_units = [by_label[l] for l in report.core]
    assert verify_verdict(
        Verdict("Unsatisfiable", report.refutation, RunStats()), core_units
    )
    for dropped, model in report.deletions.items():
        assert model is not None, f"deletion of {dropped} was not certified"
        assert model.size <= report.certification_size
        rest = [by_label[l].formula for l in report.core if l != dropped]
        assert all(evaluate(model, f) for f in rest)


def test_extract_mus_deletion_models_satisfy_remaining_axioms():
    units = units_of("fof(p1, axiom, p).\nfof(p2, axiom, ~p).\nfof(q1, axiom, q).")
    report = extract_mus(units)
    by_label = {u.label: u for u in units}
    for dropped, model in report.deletions.items():
        rest = [by_label[l] for l in report.core if l != dropped]
        assert all(evaluate(model, u.formula) for u in rest)


# -- report text --------------------------------------------------------------------

def test_format_verdict_starts_with_status_line(hypotheses):
    verdict = check_consistency([hypotheses["ax1"]])
    text = format_verdict(verdict)
    assert text.startswith("SZS status Satisfiable\n")
    assert "domain size" in text
    unknown = format_verdict(Verdict("Unknown", None, RunStats()))
    assert unknown == "SZS status Unknown\n"


def test_format_mus_report_lists_core_and_deletions():
    units = units_of("fof(p1, axiom, p).\nfof(p2, axiom, ~p).")
    text = format_mus_report(extract_mus(units))
    lines = text.splitlines()
    assert lines[0] == "core: p1 p2"
    assert "delete p1: Satisfiable (domain size 1)" in lines
    assert "delete p2: Satisfiable (domain size 1)" in lines
    assert not any("uncertified" in line for line in lines)


def test_format_mus_report_flags_uncertified_deletions():
    report = MusReport(
        core=["a"],
        refutation=Derivation(),
        deletions={"a": None},
        certification_size=4,
    )
    text = format_mus_report(report)
    assert "delete a: Unknown (no model of size <= 4)" in text
    assert "minimality holds modulo the size bound" in text


def test_default_bounds_are_visible():
    assert DEFAULT_MAX_MODEL_SIZE == 8
    assert isinstance(Limits().max_seconds, float)
