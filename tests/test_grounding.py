"""Herbrand-level grounding: refutations that the trusted checker accepts."""

import dataclasses
import random

import pytest

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


def refute(clauses):
    result = run(Grounder(clauses))
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
