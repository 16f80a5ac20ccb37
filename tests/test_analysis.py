"""Reasoning services: consistency, conjectures, and minimal unsatisfiable cores."""

import itertools
from types import SimpleNamespace

import pytest

from folkit import analysis, clausal, grounding, models, saturation
from folkit.syntax import And, Atom, Forall, Implies, Not, Var
from folkit.tptp import parse_tptp
from folkit.models import Interpretation, evaluate
from folkit.saturation import Derivation, Limits, check_derivation, format_derivation
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


def test_stats_name_the_engine_that_answered(all_twelve):
    """A positive equality literal keeps the grounder out, so saturation answers."""
    units = units_of("fof(a, axiom, c = d).\nfof(b, axiom, p(c)).\nfof(n, axiom, ~p(d)).")
    assert check_consistency(units).stats.engine == "saturation"
    assert check_consistency(all_twelve).stats.engine == "grounding"
    units = units_of("fof(a, axiom, ?[X] : ?[Y] : ~(X = Y)).")
    assert check_consistency(units, max_size=1).stats.engine is None


def test_the_grounder_starts_a_level_only_within_its_share_of_the_work(monkeypatch):
    """Each level starts while the levels before it enumerated <= 8 instances per generated clause.

    The set's smallest model has size 2, so under max_size=1 the model
    finder cannot answer, saturation never ends before its clause limit,
    and every grounding level is satisfiable.
    """
    provers, starts = [], []

    class Recording(analysis.Prover):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            provers.append(self)

    ground_level = grounding.Grounder._ground_level

    def recording(self):
        starts.append((self.enumerated, provers[-1].generated))
        return ground_level(self)

    monkeypatch.setattr(analysis, "Prover", Recording)
    monkeypatch.setattr(grounding.Grounder, "_ground_level", recording)
    units = units_of(
        "fof(a, axiom, p(a)).\n"
        "fof(b, axiom, ![X] : (p(X) => q(f(X)))).\n"
        "fof(c, axiom, ![X] : (q(X) => p(f(X)))).\n"
        "fof(d, axiom, ![X] : ~(p(X) & q(X))).\n"
    )
    verdict = check_consistency(units, limits=Limits(max_clauses=500), max_size=1)
    assert verdict.status == "Unknown"
    assert len(starts) > 10
    assert all(enumerated <= 8 * generated for enumerated, generated in starts)
    # some level waited for saturation to catch up
    assert any(e > 8 * g for (_, g), (e, _) in zip(starts, starts[1:]))


def test_a_set_the_model_finder_satisfies_at_once_pays_for_no_saturation(
    monkeypatch, hypotheses
):
    """The model finder takes each round's first turn, and the other engines are built at theirs."""

    def unbuilt(*args, **kwargs):
        raise AssertionError("an engine was built after the model finder answered")

    monkeypatch.setattr(analysis, "Prover", unbuilt)
    monkeypatch.setattr(analysis, "Grounder", unbuilt)
    verdict = check_consistency([hypotheses["ax6"], hypotheses["ax7"]])
    assert verdict.status == "Satisfiable"
    assert verdict.stats.engine == "models"
    assert verdict.stats.clauses_generated == 0
    assert verdict.stats.domain_sizes_tried == [1]


def test_a_set_whose_smallest_model_has_size_2_pays_for_no_saturation(
    monkeypatch, hypotheses
):
    """Size 1 is refuted as its clauses load, so the model finder's first turn reaches size 2."""

    def unbuilt(*args, **kwargs):
        raise AssertionError("an engine was built after the model finder answered")

    monkeypatch.setattr(analysis, "Prover", unbuilt)
    monkeypatch.setattr(analysis, "Grounder", unbuilt)
    units = [hypotheses[l] for l in ("ax4", "ax5", "ax6", "ax9", "ax12")]
    verdict = check_consistency(units)
    assert verdict.status == "Satisfiable"
    assert verdict.witness.size == 2
    assert verdict.stats.clauses_generated == 0
    assert verdict.stats.domain_sizes_tried == [1, 2]


def test_a_prover_built_late_stops_at_the_decision_deadline(monkeypatch):
    """Its time limit counts from the start of the decision, not from its own construction.

    The engines read a clock that moves 6 s during the model finder's
    first turn and 3 s during each saturation slice, and not otherwise.
    The set has no model of size 1 and saturation never ends, so no
    engine can answer under max_size=1.  Built at 6 s under a 10 s
    limit, the prover runs its slices at 6 s and 9 s and finds the
    clock past its deadline at 12 s.
    """
    now = [0.0]
    for module in (analysis, saturation, models, grounding):
        monkeypatch.setattr(module, "time", SimpleNamespace(monotonic=lambda: now[0]))
    provers, slices, turns = [], [], []
    hunter_step = models.ModelSearch.step

    def first_turn_takes_6_s(self, *args):
        result = hunter_step(self, *args)
        turns.append(result)
        if len(turns) == 1:
            now[0] += 6.0
        return result

    class Recording(analysis.Prover):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            provers.append(self)

        def step(self, *args):
            result = super().step(*args)
            slices.append(result)
            now[0] += 3.0
            return result

    monkeypatch.setattr(models.ModelSearch, "step", first_turn_takes_6_s)
    monkeypatch.setattr(analysis, "Prover", Recording)
    units = units_of(
        "fof(start, axiom, p(a)).\n"
        "fof(step, axiom, ![X] : (p(X) => p(f(X)))).\n"
        "fof(two, axiom, a != b).\n"
    )
    verdict = check_consistency(units, limits=Limits(max_seconds=10.0), max_size=1)
    assert verdict.status == "Unknown"
    [prover] = provers
    assert prover.deadline == 10.0
    assert slices[:2] == [None, None]
    assert slices[2].reason == "time-limit"


@pytest.mark.parametrize(
    "run",
    [
        lambda units: check_consistency(units, Limits(max_seconds=0.0)),
        lambda units: prove_conjecture(units[:-1], units[-1].formula, Limits(max_seconds=0.0)),
    ],
    ids=["check_consistency", "prove_conjecture"],
)
def test_a_decision_with_no_time_left_raises_no_error(run, all_twelve):
    verdict = run(all_twelve)
    assert verdict.status in ("Unknown", "Unsatisfiable", "Theorem")
    assert verdict.stats.elapsed >= 0.0


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


def _recording_probes(monkeypatch) -> list[list[str]]:
    probes = []
    decide = analysis._decide

    def recording(units, limits, max_size):
        probes.append([u.label for u in units])
        return decide(units, limits, max_size)

    monkeypatch.setattr(analysis, "_decide", recording)
    return probes


def test_extract_mus_on_the_twelve_never_probes_the_axioms_its_refutations_do_not_cite(
    monkeypatch, all_twelve
):
    """The first refutation cites ten labels, so the ax2 and ax3 deletions are never probed.

    The report is the one the deletion pass makes without refinement.
    """
    probes = _recording_probes(monkeypatch)
    report = extract_mus(all_twelve, limits=Limits(max_seconds=60.0))
    assert len(probes) == 11
    assert all("ax2" not in labels and "ax3" not in labels for labels in probes[1:])
    assert format_mus_report(report) == (
        "core: ax4 ax5 ax7 ax9 ax10 ax12\n"
        "delete ax4: Satisfiable (domain size 2)\n"
        "delete ax5: Satisfiable (domain size 2)\n"
        "delete ax7: Satisfiable (domain size 2)\n"
        "delete ax9: Satisfiable (domain size 2)\n"
        "delete ax10: Satisfiable (domain size 1)\n"
        "delete ax12: Satisfiable (domain size 2)\n"
    )


_SKOLEM_AFTER_AN_UNCITED_ONE = (
    "fof(d, axiom, ?[X] : q(X)).\n"
    "fof(e, axiom, a = b).\n"
    "fof(s, axiom, ![X] : ?[Y] : r(X, Y)).\n"
    "fof(n, axiom, ![Y, Z] : ((r(a, Y) & r(b, Z)) => Y != Z)).\n"
)


def test_a_refinement_renames_the_skolem_symbols_of_the_axioms_it_keeps(monkeypatch):
    """Among all four, s's Skolem function is sk1; without d, which no step cites, it is sk0.

    The first refutation cites the congruence axiom eq_sk1_1.  The kept
    refutation must name sk0 and eq_sk0_1, or it would not check against
    the core's own clauses.
    """
    probes = _recording_probes(monkeypatch)
    units = units_of(_SKOLEM_AFTER_AN_UNCITED_ONE)
    report = extract_mus(units)
    assert probes == [["d", "e", "s", "n"], ["s", "n"], ["e", "n"], ["e", "s"]]
    assert report.core == ["e", "s", "n"]
    core = [u for u in units if u.label in report.core]
    assert check_derivation(report.refutation, analysis.saturation_inputs(core))
    proof = format_derivation(report.refutation)
    assert "[input eq_sk0_1]" in proof and "sk1" not in proof


def test_a_refinement_whose_refutation_fails_the_check_is_not_kept(monkeypatch):
    """Without the renaming the refutation names sk1, so d stays and is probed."""
    monkeypatch.setattr(analysis, "_function_names", lambda units, kept: {})
    probes = _recording_probes(monkeypatch)
    units = units_of(_SKOLEM_AFTER_AN_UNCITED_ONE)
    report = extract_mus(units)
    assert probes[:2] == [["d", "e", "s", "n"], ["e", "s", "n"]]
    assert report.core == ["e", "s", "n"]
    core = [u for u in units if u.label in report.core]
    assert check_derivation(report.refutation, analysis.saturation_inputs(core))


def test_extract_mus_with_no_time_runs_no_probe():
    units = units_of("fof(p1, axiom, p).\nfof(p2, axiom, ~p).")
    with pytest.raises(PreconditionViolated):
        extract_mus(units, Limits(max_seconds=0.0))


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
    assert len(probes) == 3  # q1 is never cited, so refinement drops it unprobed
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
    assert report.core == ["p1", "p2"]  # refinement drops q1, which the refutation does not cite
    assert report.deletions == {"p1": None, "p2": None}


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
    """The ax8 probe runs out of time, and a probe of the final core certifies ax8.

    Deleting ax8 from these eight leaves core9 plus ax11.  The engines
    read a clock that stands still, except during that probe, when each
    read moves it 1,000 s: every engine passes its deadline at its first
    check, and the probe ends Unknown.  The deletions of ax9 and ax11
    then stick, and the six minus ax8 has a model.
    """
    now = [0.0]
    tick = [0.0]

    def clock():
        now[0] += tick[0]
        return now[0]

    for module in (saturation, models, grounding):
        monkeypatch.setattr(module, "time", SimpleNamespace(monotonic=clock))
    statuses = []
    decide = analysis._decide

    def recording(units, limits, max_size):
        labels = {u.label for u in units}
        tick[0] = 1000.0 if labels == {"ax4", "ax5", "ax7", "ax9", "ax10", "ax11", "ax12"} else 0.0
        verdict = decide(units, limits, max_size)
        statuses.append(verdict.status)
        return verdict

    monkeypatch.setattr(analysis, "_decide", recording)
    labels = ["ax4", "ax5", "ax7", "ax8", "ax9", "ax10", "ax11", "ax12"]
    report = extract_mus([hypotheses[l] for l in labels])
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
