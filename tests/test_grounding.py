"""Herbrand-level grounding: refutations that the trusted checker accepts."""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc

import pytest

from folkit.analysis import saturation_inputs
from folkit.clausal import Clause, Literal, clausify
from folkit.grounding import Grounder
from folkit.saturation import (
    Derivation,
    Factoring,
    Limits,
    Refutation,
    ResourceOut,
    Resolution,
    Saturated,
    check_derivation,
    format_derivation,
)
from folkit.syntax import App, Substitution, Var
from folkit.tptp import parse_tptp

from oracles import FREE_PREDS, clauses_have_model, random_function_free_clauses

a, b = App("a", ()), App("b", ())
X, Y, Z = Var("X"), Var("Y"), Var("Z")


def run(grounder: Grounder):
    while True:
        result = grounder.step(100)
        if result is not None:
            return result


def refute(clauses, grounder=None):
    result = run(grounder or Grounder(clauses))
    assert isinstance(result, Refutation)
    assert result.derivation.is_refutation()
    assert check_derivation(result.derivation, clauses)
    return result.derivation


def test_grounding_alone_agrees_with_model_enumeration():
    """Refutation exactly on the unsatisfiable function-free clause sets.

    Level 0 is then the whole Herbrand universe, so a satisfiable level 0
    ends the search as Saturated, and every refutation must check.
    """
    rng = random.Random(1213)
    seen = {"Refutation": 0, "Saturated": 0}
    for _ in range(300):
        constants, clauses = random_function_free_clauses(rng)
        size = max(1, len(constants))
        expected = clauses_have_model(
            clauses, FREE_PREDS, {name: 0 for name in constants}, size
        )
        result = run(Grounder(clauses))
        assert isinstance(result, (Refutation, Saturated)), clauses
        assert isinstance(result, Saturated) == expected, clauses
        seen[type(result).__name__] += 1
        if isinstance(result, Refutation):
            assert check_derivation(result.derivation, clauses), clauses
    assert min(seen.values()) >= 60, seen


def test_a_set_without_constants_is_grounded_over_a_fresh_one():
    f = lambda t: App("f", (t,))
    clauses = [Clause([Literal(True, "p", (X,))]), Clause([Literal(False, "p", (f(Y),))])]
    derivation = refute(clauses)
    c = App("c", ())
    assert set(derivation.steps[-1].rule.mgu.bindings.values()) == {c, f(c)}


def test_deeper_levels_come_after_shallow_ones():
    """Level 0 is satisfiable; level 1 adds the instance with X = f(a)."""
    units = parse_tptp(
        "fof(base, axiom, p(a)).\n"
        "fof(up, axiom, ![X] : (p(X) => p(f(X)))).\n"
        "fof(goal, axiom, ~p(f(f(a)))).\n"
    ).units
    clauses = clausify(units)
    grounder = Grounder(clauses)
    result = run(grounder)
    assert isinstance(result, Refutation)
    assert grounder.level == 1
    assert check_derivation(result.derivation, clauses)


def test_the_same_clauses_give_the_same_proof_text():
    units = parse_tptp(
        "fof(a1, axiom, ![X] : (p(X) | q(f(X)))).\n"
        "fof(a2, axiom, ![X] : ~p(X) | r(X)).\n"
        "fof(a3, axiom, ![X] : ~r(X)).\n"
        "fof(a4, axiom, ![Y] : ~q(Y)).\n"
    ).units
    texts = {format_derivation(refute(clausify(units))) for _ in range(3)}
    assert len(texts) == 1


def test_first_order_pigeonhole_is_replayed_from_every_learned_clause():
    """PHP(6,5) over constants: the propositional problem of test_sat, 138 learned clauses."""
    def placed(positive, pigeon, hole):
        return Literal(positive, "in", (App(f"p{pigeon}", ()), App(f"h{hole}", ())))

    clauses = [Clause([placed(True, i, j) for j in range(5)]) for i in range(6)]
    for j in range(5):
        for i1, i2 in itertools.combinations(range(6), 2):
            clauses.append(Clause([placed(False, i1, j), placed(False, i2, j)]))
    grounder = Grounder(clauses)
    refute(clauses, grounder)
    assert grounder.level == 0
    assert len(grounder.solver.learned) == 138


def refuted_at_load(clauses) -> Derivation:
    """A refutation whose conflict add_clause found, before any search."""
    grounder = Grounder(clauses)
    derivation = refute(clauses, grounder)
    assert grounder.solver.conflict == [] and grounder.solver.conflicts == 0
    return derivation


def test_a_clash_at_load_time_is_refuted():
    refuted_at_load([Clause([Literal(True, "p", (a,))]), Clause([Literal(False, "p", (a,))])])


def test_an_instance_emptied_at_load_time_is_refuted():
    """p(a) and q(a) falsify both literals of the instance ~p(a) | ~q(a)."""
    derivation = refuted_at_load([
        Clause([Literal(True, "p", (a,))]),
        Clause([Literal(True, "q", (a,))]),
        Clause([Literal(False, "p", (X,)), Literal(False, "q", (X,))]),
    ])
    assert len([s for s in derivation.steps if isinstance(s.rule, Resolution)]) == 2


def test_grounding_obeys_the_time_limit():
    clauses = [Clause([Literal(True, "p", (X,))])]
    result = Grounder(clauses, Limits(max_seconds=0.0)).step()
    assert result == ResourceOut("time-limit")


def test_a_level_past_max_clauses_is_not_grounded():
    """Level 1 has the terms a, b, f(a) and f(b): 16 + 4 + 1 instances."""
    clauses = [
        Clause([Literal(True, "p", (X, Y))]),
        Clause([Literal(False, "p", (App("f", (App("f", (X,)),)), b))]),
        Clause([Literal(True, "q", (a,))]),
    ]
    grounder = Grounder(clauses, Limits(max_clauses=20))
    assert grounder.step() is None  # level 0: 4 + 2 + 1 instances, satisfiable
    assert grounder.step() == ResourceOut("clause-limit")
    assert grounder.level == 0


# -- the asylum sets ------------------------------------------------------------

def asylum_clauses(hypotheses, numbers):
    """What analysis grounds: the clauses and, of the equality axioms, reflexivity."""
    units = [hypotheses[f"ax{n}"] for n in numbers]
    return saturation_inputs(units)[: len(clausify(units)) + 1]


@pytest.mark.parametrize(
    "numbers, level, digest",
    [
        ((4, 5, 7, 9, 10, 12), 1, "f2daf4b65169"),
        ((4, 5, 7, 8, 10, 12), 2, "61360fe5552b"),
        (tuple(range(1, 13)), 1, "3b5c616b21d9"),
        ((4, 5, 6, 7, 9, 11, 12), 1, "e1304bfb2be1"),
    ],
    ids=["core9", "six", "twelve", "mus7"],
)
def test_asylum_proofs_are_pinned(hypotheses, numbers, level, digest):
    """Instances rebuilt from their ordinals give the proofs of stored instances."""
    clauses = asylum_clauses(hypotheses, numbers)
    grounder = Grounder(clauses)
    derivation = refute(clauses, grounder)
    assert grounder.level == level
    text = format_derivation(derivation)
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == digest


def test_the_six_level_2_peaks_below_1_5_mb(hypotheses):
    """Grounding, solving and replaying 6,557 instances; 3.39 MB when each was stored whole."""
    grounder = Grounder(asylum_clauses(hypotheses, (4, 5, 7, 8, 10, 12)))
    while grounder.level < 1 or grounder.solving:
        assert grounder.step(10_000) is None
    tracemalloc.start()
    try:
        result = grounder.step(10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(result, Refutation) and grounder.level == 2
    assert peak < 1.5e6


# -- the checker rejects tampered grounder proofs ----------------------------

def _merging_refutation():
    """p(X) | p(Y) has the instance p(a) | p(a), which must be factored."""
    clauses = [
        Clause([Literal(True, "p", (X,)), Literal(True, "p", (Y,))]),
        Clause([Literal(False, "p", (a,))]),
    ]
    return clauses, refute(clauses)


def test_a_merging_instance_is_factored_before_use():
    _, derivation = _merging_refutation()
    factorings = [s for s in derivation.steps if isinstance(s.rule, Factoring)]
    assert len(factorings) == 1
    assert factorings[0].clause == Clause([Literal(True, "p", (a,))])


def test_checker_rejects_a_changed_binding():
    units = parse_tptp(
        "fof(a1, axiom, q(a) & q(b)).\n"
        "fof(a2, axiom, ![X] : (q(X) => p(X))).\n"
        "fof(a3, axiom, ~p(a)).\n"
    ).units
    clauses = clausify(units)
    derivation = refute(clauses)
    tampered = 0
    for at, step in enumerate(derivation.steps):
        if not isinstance(step.rule, Resolution) or not step.rule.mgu.bindings:
            continue
        bindings = dict(step.rule.mgu.bindings)
        name = sorted(bindings)[0]
        bindings[name] = b if bindings[name] == a else a
        rule = dataclasses.replace(step.rule, mgu=Substitution(bindings))
        steps = list(derivation.steps)
        steps[at] = dataclasses.replace(step, rule=rule)
        assert not check_derivation(Derivation(steps), clauses), step
        tampered += 1
    assert tampered >= 1


def test_checker_rejects_a_dropped_factoring_step():
    """Resolving on the unfactored instance keeps the copy of p(a)."""
    clauses, derivation = _merging_refutation()
    (factoring,) = [s for s in derivation.steps if isinstance(s.rule, Factoring)]
    parent = factoring.rule.parent
    steps = []
    for step in derivation.steps:
        if step is factoring:
            continue
        rule = step.rule
        if isinstance(rule, Resolution) and factoring.id in rule.parents:
            side = rule.parents.index(factoring.id)
            parents = list(rule.parents)
            parents[side] = parent
            rule = Resolution(
                tuple(parents),
                rule.positions,
                Substitution({**rule.mgu.bindings, **factoring.rule.mgu.bindings}),
            )
        steps.append(dataclasses.replace(step, rule=rule))
    report = check_derivation(Derivation(steps), clauses)
    assert not report
    assert report.message == "recorded clause is not the derived resolvent"


@pytest.mark.parametrize("limit", [0, 5])
def test_grounder_result_is_final(limit):
    clauses = [Clause([Literal(True, "p", (a,))]), Clause([Literal(False, "p", (X,))])]
    grounder = Grounder(clauses, Limits(max_clauses=limit))
    first = run(grounder)
    assert grounder.step() is first
