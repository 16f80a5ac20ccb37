"""Reasoning services: consistency, conjectures, and minimal unsatisfiable cores."""

import itertools
from types import SimpleNamespace

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
    assert verdict.stats.engine == "models"


def test_stats_name_the_engine_that_answered(reduced_six):
    assert check_consistency(reduced_six).stats.engine == "saturation"
    units = units_of("fof(a, axiom, ?[X] : ?[Y] : ~(X = Y)).")
    assert check_consistency(units, max_size=1).stats.engine is None


@pytest.mark.parametrize(
    "numbers",
    [
        (4, 5, 6, 7, 9, 11, 12),
        (3, 4, 5, 6, 7, 8, 9, 11, 12),
        (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12),
    ],
    ids=["mus7", "nine", "twelve-without-ax8"],
)
def test_grounding_refutes_the_sets_saturation_finds_hard(hypotheses, numbers):
    """The prover alone needs 137k-237k generated clauses on these sets.

    Under a 20,000-clause limit only the grounder can answer, and its
    refutation must pass the same check as saturation's.
    """
    units = [hypotheses[f"ax{n}"] for n in numbers]
    verdict = check_consistency(units, limits=Limits(max_seconds=15, max_clauses=20_000))
    assert verdict.status == "Unsatisfiable"
    assert verdict.stats.engine == "grounding"
    assert verdict.stats.clauses_generated <= 20_000
    assert verify_verdict(verdict, units)


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
    sizes = {"ax4": 2, "ax5": 2, "ax7": 2, "ax9": 2, "ax10": 1, "ax12": 2}
    for dropped, model in report.deletions.items():
        assert model is not None, f"deletion of {dropped} was not certified"
        assert model.size == sizes[dropped]
        rest = [by_label[l].formula for l in report.core if l != dropped]
        assert all(evaluate(model, f) for f in rest)


def test_mus7_is_a_third_minimal_core(hypotheses):
    """{ax4, ax5, ax6, ax7, ax9, ax11, ax12} is refuted and needs every member.

    It is neither the six nor the core that deletion finds on the twelve,
    and no single deletion from it stays refutable: each has a model.
    """
    labels = ["ax4", "ax5", "ax6", "ax7", "ax9", "ax11", "ax12"]
    units = [hypotheses[l] for l in labels]
    report = extract_mus(units)
    assert report.core == labels
    assert verify_verdict(Verdict("Unsatisfiable", report.refutation, RunStats()), units)
    for dropped, model in report.deletions.items():
        assert model is not None, f"deletion of {dropped} was not certified"
        rest = [u.formula for u in units if u.label != dropped]
        assert all(evaluate(model, f) for f in rest)


def test_extract_mus_gives_each_probe_the_time_left_of_one_deadline(monkeypatch):
    """limits.max_seconds bounds the whole run, not each probe.

    analysis reads a clock that moves one second per probe and not
    otherwise, so every budget and elapsed time is exact.
    """
    now = [100.0]
    monkeypatch.setattr(analysis, "time", SimpleNamespace(monotonic=lambda: now[0]))
    probes = []
    decide = analysis._decide

    def recording(units, limits, max_size):
        probes.append((limits.max_seconds, now[0]))
        now[0] += 1.0
        return decide(units, limits, max_size)

    monkeypatch.setattr(analysis, "_decide", recording)
    units = units_of("fof(p1, axiom, p).\nfof(p2, axiom, ~p).\nfof(q1, axiom, q).")
    called = now[0]
    report = extract_mus(units, Limits(max_seconds=60.0))
    assert report.core == ["p1", "p2"]
    assert len(probes) == 4
    for budget, at in probes:
        assert budget <= 60.0 - (at - called)


def test_extract_mus_runs_no_probe_once_the_deadline_has_passed(monkeypatch):
    """A probe with no time left is Unknown without a decision being run."""
    now = [100.0]
    monkeypatch.setattr(analysis, "time", SimpleNamespace(monotonic=lambda: now[0]))
    probes = []
    decide = analysis._decide

    def recording(units, limits, max_size):
        probes.append([u.label for u in units])
        now[0] += 10.0
        return decide(units, limits, max_size)

    monkeypatch.setattr(analysis, "_decide", recording)
    units = units_of("fof(p1, axiom, p).\nfof(p2, axiom, ~p).\nfof(q1, axiom, q).")
    report = extract_mus(units, Limits(max_seconds=5.0))
    assert probes == [["p1", "p2", "q1"]]
    assert report.core == ["p1", "p2", "q1"]
    assert report.deletions == {"p1": None, "p2": None, "q1": None}


def _five_distinct_and_at_most_four():
    constants = [f"c{i}" for i in range(1, 6)]
    distinct = " & ".join(f"{a} != {b}" for a, b in itertools.combinations(constants, 2))
    return units_of(
        f"fof(distinct, axiom, {distinct}).\n"
        "fof(four, axiom, ![X] : (X = c1 | X = c2 | X = c3 | X = c4))."
    )


def test_extract_mus_certifies_a_deletion_with_a_size_5_model():
    units = _five_distinct_and_at_most_four()
    report = extract_mus(units)
    assert report.core == ["distinct", "four"]
    model = report.deletions["four"]
    assert model is not None and model.size == 5
    assert evaluate(model, units[0].formula)
    assert "delete four: Satisfiable (domain size 5)" in format_mus_report(report)


def test_extract_mus_reports_a_deletion_past_max_size_as_uncertified():
    report = extract_mus(_five_distinct_and_at_most_four(), max_size=4)
    assert report.core == ["distinct", "four"]
    assert report.deletions["four"] is None
    lines = format_mus_report(report).splitlines()
    assert "delete four: Unknown (its probe found neither a refutation nor a model)" in lines
    assert lines[-1] == (
        "minimality is not certified: an uncertified deletion may still be unsatisfiable"
    )


def test_extract_mus_asks_an_unknown_probe_again_once_the_core_shrinks(
    monkeypatch, hypotheses
):
    """The ax8 probe runs out, and a probe of the final core certifies ax8.

    Deleting ax8 from these eight leaves core9 plus ax11.  Saturation
    refutes it only after 32,938 generated clauses, and the grounder at
    level 1, which it starts only once saturation has generated 4,472;
    both lie past max_clauses.  The input needs 2,980 generated clauses.
    The deletions of ax9 and ax11 then stick, and the six minus ax8 has
    a model.
    """
    statuses = []
    decide = analysis._decide

    def recording(units, limits, max_size):
        verdict = decide(units, limits, max_size)
        statuses.append(verdict.status)
        return verdict

    monkeypatch.setattr(analysis, "_decide", recording)
    labels = ["ax4", "ax5", "ax7", "ax8", "ax9", "ax10", "ax11", "ax12"]
    report = extract_mus([hypotheses[l] for l in labels], Limits(max_clauses=4000))
    assert "Unknown" in statuses
    assert report.core == ["ax4", "ax5", "ax7", "ax8", "ax10", "ax12"]
    # ax4, ax5 and ax7 keep their probes' models of the seven-axiom sets
    sizes = {"ax4": 2, "ax5": 2, "ax7": 2, "ax8": 2, "ax10": 1, "ax12": 2}
    for dropped, model in report.deletions.items():
        assert model is not None, f"deletion of {dropped} was not certified"
        assert model.size == sizes[dropped]
        rest = [hypotheses[l].formula for l in report.core if l != dropped]
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
    report = MusReport(core=["a"], refutation=Derivation(), deletions={"a": None})
    text = format_mus_report(report)
    assert "delete a: Unknown (its probe found neither a refutation nor a model)" in text
    assert "minimality is not certified" in text
    assert "size" not in text


def test_default_bounds_are_visible():
    assert DEFAULT_MAX_MODEL_SIZE == 8
    assert isinstance(Limits().max_seconds, float)
