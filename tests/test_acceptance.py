"""End-to-end acceptance: one test per shipping criterion.

Run with -v to get one pass/fail line per criterion.  The heavy
criteria carry their wall-clock tolerances as assertions, so a pass
here means the advertised budgets hold on this machine.
"""

import itertools
import random

from folkit.syntax import (
    And,
    Atom,
    Forall,
    Implies,
    Not,
    Var,
    alpha_equal,
    signature_of,
)
from folkit.tptp import NamedFormula, parse_tptp
from folkit.clausal import Clause, Literal, clause_signature, clausify
from folkit.saturation import Limits, Refutation, Saturated, check_derivation, saturate
from folkit.sat import PropClauseSet, Sat, check_assignment, sat_solve
from folkit.models import evaluate, ground
from folkit.analysis import (
    check_consistency,
    conjecture_units,
    decide_problem,
    extract_mus,
    prove_conjecture,
    saturation_inputs,
    verify_verdict,
)
from folkit.asylum import LABELS, TARR, asylum_signature, sane, subset

from conftest import REDUCED_SET
from oracles import (
    formulas_have_model,
    clauses_have_model,
    random_closed_formula,
    random_prop_instance,
    tt_satisfiable,
)


def test_criterion_1_full_set_inconsistency(all_twelve):
    verdict = check_consistency(all_twelve, limits=Limits(max_seconds=10.0))
    assert verdict.status == "Unsatisfiable"
    assert verdict.stats.elapsed <= 10.0
    assert check_derivation(verdict.witness, saturation_inputs(all_twelve))


def test_criterion_2_reduced_set_inconsistency(reduced_six):
    verdict = check_consistency(reduced_six, limits=Limits(max_seconds=10.0))
    assert verdict.status == "Unsatisfiable"
    assert verdict.stats.elapsed <= 10.0
    assert check_derivation(verdict.witness, saturation_inputs(reduced_six))


def test_criterion_3_figure_1_fidelity(figure1_text, hypotheses):
    problem = parse_tptp(figure1_text)
    for label in REDUCED_SET:
        assert alpha_equal(
            problem.by_label(label).formula, hypotheses[label].formula
        )
    conjecture = problem.conjecture()
    assert conjecture is not None and conjecture.label == "conc"
    verdict = decide_problem(problem, limits=Limits(max_seconds=10.0))
    assert verdict.status == "Unsatisfiable"
    assert verify_verdict(verdict, problem.axioms())


def test_criterion_4_mus_certification(reduced_six, hypotheses):
    report = extract_mus(reduced_six, limits=Limits(max_seconds=30.0))
    assert report.core == REDUCED_SET
    sig = asylum_signature()
    preds, funcs = dict(sig.predicates), dict(sig.functions)
    for dropped in REDUCED_SET:
        model = report.deletions[dropped]
        assert model is not None, f"deletion of {dropped} was not certified"
        assert model.size <= 4
        rest = [hypotheses[l].formula for l in REDUCED_SET if l != dropped]
        assert all(evaluate(model, f) for f in rest)
        # independent oracle: exhaustive enumeration at sizes 1 and 2
        smallest = next(
            (n for n in (1, 2) if formulas_have_model(rest, preds, funcs, n)),
            None,
        )
        assert smallest is not None
        assert model.size == smallest


def test_criterion_5_exclusivity_over_sampled_subsets(hypotheses):
    """Documented sample: all singletons, all pairs, the twelve eleven-element
    subsets, the full set, both known six-element cores, and seeded random
    subsets of sizes 3..9 up to a total of 220; 15-second combined budget per
    subset."""
    sample: list[tuple[str, ...]] = [(l,) for l in LABELS]
    sample += [pair for pair in itertools.combinations(LABELS, 2)]
    sample += [
        tuple(l for l in LABELS if l != dropped) for dropped in LABELS
    ]
    sample.append(tuple(LABELS))
    sample.append(tuple(REDUCED_SET))
    sample.append(("ax4", "ax5", "ax7", "ax9", "ax10", "ax12"))
    rng = random.Random(2025)
    seen = {frozenset(s) for s in sample}
    while len(sample) < 220:
        size = rng.randint(3, 9)
        pick = tuple(sorted(rng.sample(list(LABELS), size)))
        if frozenset(pick) not in seen:
            seen.add(frozenset(pick))
            sample.append(pick)
    assert len(sample) >= 200

    outcomes: dict[frozenset, str] = {}
    tally = {"Satisfiable": 0, "Unsatisfiable": 0, "Unknown": 0}
    for labels in sample:
        units = subset(list(labels))
        verdict = check_consistency(units, limits=Limits(max_seconds=15.0))
        tally[verdict.status] += 1
        assert verify_verdict(verdict, units), labels
        outcomes[frozenset(labels)] = verdict.status

    for small, small_status in outcomes.items():
        if small_status != "Unsatisfiable":
            continue
        for big, big_status in outcomes.items():
            if small <= big:
                assert big_status != "Satisfiable", (sorted(small), sorted(big))
    assert tally["Unsatisfiable"] >= 8
    assert tally["Satisfiable"] >= 150
    assert tally["Unknown"] == 0


def test_criterion_6_propositional_completeness():
    rng = random.Random(313)
    for _ in range(500):
        num_vars, int_clauses = random_prop_instance(rng, 8, 20)
        expected = tt_satisfiable(num_vars, int_clauses)
        clauses = [
            Clause([Literal(lit > 0, f"v{abs(lit)}", ()) for lit in c])
            for c in int_clauses
        ]
        result = saturate(clauses)
        assert isinstance(result, (Refutation, Saturated))
        assert isinstance(result, Saturated) == expected, int_clauses

    rng = random.Random(707)
    for _ in range(500):
        num_vars, int_clauses = random_prop_instance(rng, 16, 20)
        expected = tt_satisfiable(num_vars, int_clauses)
        result = sat_solve(PropClauseSet(num_vars, int_clauses))
        assert isinstance(result, Sat) == expected, int_clauses
        if expected:
            assert check_assignment(
                PropClauseSet(num_vars, int_clauses), result.assignment
            )


def _interpretation_count(preds, funcs, n):
    total = 1
    for arity in funcs.values():
        total *= n ** (n ** arity)
    for arity in preds.values():
        total *= 2 ** (n ** arity)
    return total


def test_criterion_7_clausifier_equisatisfiability():
    """The oracle side is always exhaustive enumeration of the formula's
    interpretations.  The clause side enumerates too while the added Skolem
    tables keep that feasible, and otherwise grounds to SAT."""
    rng = random.Random(929)
    unsat_seen = enumerated = 0
    for i in range(200):
        formula = random_closed_formula(rng)
        roll = rng.random()
        if roll < 0.25:
            formula = And(formula, Not(formula))
        elif roll < 0.40:
            formula = And(formula, Not(random_closed_formula(rng)))
        clauses = clausify([NamedFormula("u", "axiom", formula)])
        base = signature_of([formula])
        sig = clause_signature(clauses, base=base)
        # unused symbols never affect model existence, so each side may
        # enumerate over its own vocabulary
        formula_preds = {"p": 1, "q": 1, **base.predicates}
        formula_funcs = {"f": 1, "a": 0, "b": 0, **base.functions}
        clause_preds = {**formula_preds, **sig.predicates}
        clause_funcs = {**formula_funcs, **sig.functions}
        for n in (1, 2, 3):
            before = formulas_have_model([formula], formula_preds, formula_funcs, n)
            if _interpretation_count(clause_preds, clause_funcs, n) <= 20_000:
                after = clauses_have_model(clauses, clause_preds, clause_funcs, n)
                enumerated += 1
            else:
                prop, _ = ground(clauses, n, signature=sig)
                after = isinstance(sat_solve(prop), Sat)
            assert before == after, (formula, n)
            unsat_seen += not before
    assert unsat_seen >= 60  # both directions genuinely exercised
    assert enumerated >= 200  # plenty of fully enumerated clause-side checks


def test_criterion_8_conjecture_mode(hypotheses):
    axioms = [
        hypotheses["ax8"],
        hypotheses["ax10"],
        hypotheses["ax12"],
        NamedFormula("sane_tarr", "axiom", sane(TARR)),
    ]
    X = Var("X")
    conjecture = Forall("X", Implies(Atom("doctor", (X,)), Atom("sane", (X,))))
    verdict = prove_conjecture(axioms, conjecture)
    assert verdict.status == "Theorem"
    assert verify_verdict(verdict, conjecture_units(axioms, conjecture))

    alone = prove_conjecture([], sane(TARR))
    assert alone.status == "CounterSatisfiable"
    assert alone.witness.size == 1
    assert not evaluate(alone.witness, sane(TARR))
