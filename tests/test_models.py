"""Finite models: grounding, decoding, evaluation, and the size-iterating search."""

import random
import time

import pytest

import folkit
from folkit.syntax import (
    App,
    Atom,
    Equal,
    Exists,
    Forall,
    Not,
    Signature,
    Var,
    signature_of,
)
from folkit.tptp import NamedFormula, parse_tptp
from folkit.clausal import Clause, Literal, clause_signature, clausify
from folkit.models import (
    Interpretation,
    Model,
    ModelSearch,
    NoModelUpTo,
    UnknownSymbolError,
    decode,
    evaluate,
    find_model,
    format_interpretation,
    ground,
)
from folkit.sat import Sat, Unsat, sat_solve

from oracles import Interp as OracleInterp, clauses_have_model

X, Y = Var("X"), Var("Y")


def to_oracle(interp: Interpretation) -> OracleInterp:
    funcs = {name: {(): value} for name, value in interp.constants.items()}
    funcs.update({name: dict(cells) for name, cells in interp.functions.items()})
    preds = {name: frozenset(holds) for name, holds in interp.predicates.items()}
    return OracleInterp(interp.size, funcs, preds)


def two_element_structure() -> Interpretation:
    return Interpretation(
        size=2,
        constants={"a": 0, "b": 1},
        functions={"f": {(0,): 1, (1,): 1}},
        predicates={"p": {(0,)}, "q": {(0, 1), (1, 0)}},
    )


# -- evaluation ---------------------------------------------------------------

def test_evaluate_atoms_and_functions():
    interp = two_element_structure()
    assert evaluate(interp, Atom("p", (App("a", ()),)))
    assert not evaluate(interp, Atom("p", (App("b", ()),)))
    assert not evaluate(interp, Atom("p", (App("f", (App("a", ()),)),)))


def test_evaluate_equality_is_domain_identity():
    interp = two_element_structure()
    assert evaluate(interp, Equal(App("f", (App("a", ()),)), App("b", ())))
    assert not evaluate(interp, Equal(App("a", ()), App("b", ())))


def test_evaluate_quantifiers():
    interp = two_element_structure()
    assert evaluate(interp, Exists("X", Atom("p", (X,))))
    assert not evaluate(interp, Forall("X", Atom("p", (X,))))
    assert evaluate(interp, Forall("X", Exists("Y", Atom("q", (X, Y)))))
    assert not evaluate(interp, Exists("X", Atom("q", (X, X))))


def test_evaluate_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        evaluate(two_element_structure(), Atom("r", ()))
    with pytest.raises(UnknownSymbolError):
        evaluate(two_element_structure(), Atom("p", (App("c", ()),)))


# -- grounding ----------------------------------------------------------------

def test_ground_universal_atom_forces_full_extension():
    clauses = [Clause([Literal(True, "p", (X,))])]
    problem, table = ground(clauses, 2)
    result = sat_solve(problem)
    assert isinstance(result, Sat)
    interp = decode(table, result.assignment)
    assert interp.predicates["p"] == {(0,), (1,)}


def test_ground_no_clauses_is_trivially_satisfiable():
    problem, table = ground([], 1)
    assert problem.clauses == []
    result = sat_solve(problem)
    assert isinstance(result, Sat)
    assert decode(table, result.assignment).size == 1


def test_ground_distinct_constants_need_two_elements():
    clauses = [
        Clause([Literal(True, "doctor", (App("sk0", ()),))]),
        Clause([Literal(False, "=", (App("sk0", ()), App("tarr", ())))]),
    ]
    assert isinstance(sat_solve(ground(clauses, 1)[0]), Unsat)
    result = sat_solve(ground(clauses, 2)[0])
    assert isinstance(result, Sat)


def test_ground_pins_first_constant_for_symmetry_breaking():
    sig = Signature(functions={"tarr": 0, "fether": 0})
    clauses = [Clause([Literal(False, "=", (App("tarr", ()), App("fether", ())))])]
    problem, table = ground(clauses, 2, signature=sig)
    result = sat_solve(problem)
    assert isinstance(result, Sat)
    interp = decode(table, result.assignment)
    assert interp.constants["tarr"] == 0
    assert interp.constants["fether"] == 1


def random_constant_clauses(rng: random.Random):
    """A few clauses over 3-5 constants, one or two unary predicates and =.

    Returns the clauses with a signature that lists every constant and
    predicate in a shuffled order, so the constants' order varies too.
    """
    constants = [f"c{i}" for i in range(rng.randint(3, 5))]
    preds = ["p", "q"][: rng.randint(1, 2)]
    variables = ["X", "Y"]

    def term():
        if rng.random() < 0.25:
            return Var(rng.choice(variables))
        return App(rng.choice(constants), ())

    def literal():
        positive = rng.random() < 0.5
        if rng.random() < 0.5:
            return Literal(positive, "=", (term(), term()))
        return Literal(positive, rng.choice(preds), (term(),))

    clauses = [
        Clause([literal() for _ in range(rng.randint(1, 3))])
        for _ in range(rng.randint(2, 6))
    ]
    rng.shuffle(constants)
    rng.shuffle(preds)
    sig = Signature(
        predicates={p: 1 for p in preds}, functions={c: 0 for c in constants}
    )
    return clauses, sig


def test_constant_symmetry_breaking_keeps_every_size_satisfiable_as_before():
    """Sizes 1-3: the grounding has a model exactly when the clauses have one.

    Relabelling the domain maps any model onto one where constant k takes a
    value at most k, and takes d > 0 only if an earlier constant takes d - 1.
    """
    rng = random.Random(61)
    outcomes = set()
    for _ in range(200):
        clauses, sig = random_constant_clauses(rng)
        # symbols the clauses leave out cannot change their satisfiability
        used = clause_signature(clauses)
        constants, preds = dict(used.functions), dict(used.predicates)
        for n in (1, 2, 3):
            problem, _ = ground(clauses, n, signature=sig)
            expected = clauses_have_model(clauses, preds, constants, n)
            assert isinstance(sat_solve(problem), Sat) == expected, (clauses, n)
            outcomes.add((n, expected))
    assert outcomes == {(n, sat) for n in (1, 2, 3) for sat in (True, False)}


def test_function_cell_tables_obey_the_deadline():
    """A 5-ary function at size 8 has 262,144 cells to build before any clause."""
    args = ", ".join(f"X{i}" for i in range(1, 6))
    clauses = clausify(parse_tptp(f"fof(a, axiom, ![{args}] : p(g({args}))).").units)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        ground(clauses, 8, deadline=time.monotonic())
    assert time.monotonic() - start < 0.5


def test_ground_rejects_empty_domain():
    with pytest.raises(ValueError):
        ground([], 0)


def test_ground_decode_round_trip_satisfies_the_clauses(hypotheses):
    rng = random.Random(7)
    picks = [["ax4"], ["ax4", "ax8"], ["ax3"], ["ax5", "ax10"], ["ax7", "ax12"]]
    for labels in picks:
        units = [hypotheses[l] for l in labels]
        clauses = clausify(units)
        sig = signature_of(u.formula for u in units)
        for n in (1, 2, rng.randint(1, 3)):
            problem, table = ground(clauses, n, signature=sig)
            result = sat_solve(problem)
            if not isinstance(result, Sat):
                continue
            oracle = to_oracle(decode(table, result.assignment))
            assert all(oracle.clause_holds(c) for c in clauses), (labels, n)


# -- the search ---------------------------------------------------------------

def test_find_model_reports_smallest_size():
    units = parse_tptp("fof(a, axiom, ![X] : p(X)).").units
    result = find_model(units, max_size=8)
    assert isinstance(result, Model)
    assert result.interpretation.size == 1


def test_find_model_requires_larger_domain():
    text = (
        "fof(a, axiom, ?[X] : ?[Y] : ~(X = Y)).\n"
        "fof(b, axiom, ?[X] : p(X)).\n"
        "fof(c, axiom, ?[X] : ~p(X)).\n"
    )
    result = find_model(parse_tptp(text).units, max_size=4)
    assert isinstance(result, Model)
    assert result.interpretation.size == 2


def test_find_model_gives_up_at_the_bound():
    units = parse_tptp(
        "fof(a, axiom, p(c)).\nfof(b, axiom, ![X] : ~p(X)).\n"
    ).units
    result = find_model(units, max_size=3)
    assert result == NoModelUpTo(3)


def test_find_model_result_satisfies_every_unit(hypotheses):
    units = [hypotheses[l] for l in ("ax4", "ax5", "ax8", "ax10", "ax12")]
    result = find_model(units, max_size=4)
    assert isinstance(result, Model)
    assert result.interpretation.size == 1
    assert all(evaluate(result.interpretation, u.formula) for u in units)


def test_refuted_subset_has_no_small_model(reduced_six):
    assert find_model(reduced_six, max_size=4) == NoModelUpTo(4)


def test_find_model_time_limit_is_the_shared_resource_out(reduced_six):
    result = find_model(reduced_six, limits=folkit.Limits(max_seconds=0.0))
    assert isinstance(result, folkit.ResourceOut)
    assert result.reason == "time-limit"
    assert folkit.models.ResourceOut is folkit.saturation.ResourceOut


def _deep_disequation(depth):
    """f(...f(a)...) != b: at size n, grounding it takes n**(depth + 1) assignments."""
    term = "f(" * depth + "a" + ")" * depth
    return parse_tptp(f"fof(a, axiom, {term} != b).").units


def test_grounding_stops_at_its_deadline():
    clauses = clausify(_deep_disequation(198))
    with pytest.raises(TimeoutError):
        ground(clauses, 2, deadline=time.monotonic() + 0.2)


def test_model_search_time_limit_bounds_grounding():
    start = time.monotonic()
    result = find_model(_deep_disequation(198), limits=folkit.Limits(max_seconds=1.0))
    assert time.monotonic() - start < 10.0
    assert result == folkit.ResourceOut("time-limit")


def test_model_search_step_stops_at_its_deadline(reduced_six):
    search = ModelSearch(reduced_six, max_size=8, limits=folkit.Limits(max_seconds=0.3))
    assert search.step(max_conflicts=1) is None
    time.sleep(max(0.0, search.deadline - time.monotonic()) + 0.05)
    assert search.step(max_conflicts=1) == folkit.ResourceOut("time-limit")


def test_model_search_grounds_nothing_past_its_deadline(reduced_six):
    search = ModelSearch(reduced_six, limits=folkit.Limits(max_seconds=0.0))
    assert search.step() == folkit.ResourceOut("time-limit")
    assert search.sizes_tried == []


def test_model_search_can_be_interleaved(reduced_six):
    search = ModelSearch(reduced_six, max_size=4)
    steps = 0
    result = None
    while result is None:
        result = search.step(max_conflicts=1)
        steps += 1
        assert steps < 100_000
    assert result == NoModelUpTo(4)


def test_model_search_is_deterministic(hypotheses):
    units = [hypotheses[l] for l in ("ax4", "ax5", "ax8", "ax10", "ax12")]
    first = find_model(units, max_size=4)
    second = find_model(units, max_size=4)
    assert isinstance(first, Model) and isinstance(second, Model)
    assert first.interpretation == second.interpretation


def test_find_model_ascends_when_a_clause_has_positive_equality(monkeypatch):
    """Only size 3 has a model, so sizes 4 and 8 would both say no model."""
    text = (
        "fof(ab, axiom, a != b).\n"
        "fof(ac, axiom, a != c).\n"
        "fof(bc, axiom, b != c).\n"
        "fof(three, axiom, ![X] : (X = a | X = b | X = c)).\n"
    )
    sizes = []
    real = folkit.models.ground

    def recording(clauses, n, *args, **kwargs):
        sizes.append(n)
        return real(clauses, n, *args, **kwargs)

    monkeypatch.setattr(folkit.models, "ground", recording)
    result = find_model(parse_tptp(text).units, max_size=8)
    assert isinstance(result, Model)
    assert result.interpretation.size == 3
    assert sizes == [1, 2, 3]


def random_units_without_positive_equality(rng: random.Random) -> list[NamedFormula]:
    """Quantified disjunctions over p/1, q/2, f/1 and a, b, c; = only in !=."""
    constants = ["a", "b", "c"]

    def term(variables):
        roll = rng.random()
        if roll < 0.15:
            return f"f({term(variables)})"
        if variables and roll < 0.6:
            return rng.choice(variables)
        return rng.choice(constants)

    def literal(variables):
        roll = rng.random()
        if roll < 0.3:
            return f"{term(variables)} != {term(variables)}"
        sign = "~" if rng.random() < 0.5 else ""
        if roll < 0.65:
            return f"{sign}p({term(variables)})"
        return f"{sign}q({term(variables)}, {term(variables)})"

    lines = []
    for i in range(rng.randint(2, 5)):
        variables = ["X", "Y"][: rng.randint(0, 2)]
        body = " | ".join(literal(variables) for _ in range(rng.randint(1, 3)))
        if variables:
            quantifier = "!" if rng.random() < 0.7 else "?"
            body = f"{quantifier}[{', '.join(variables)}] : ({body})"
        lines.append(f"fof(u{i}, axiom, {body}).")
    # distinct constants push the smallest model up to size 2 or 3
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    for i, (lhs, rhs) in enumerate(rng.sample(pairs, rng.randint(0, 3))):
        lines.append(f"fof(d{i}, axiom, {lhs} != {rhs}).")
    return parse_tptp("\n".join(lines)).units


def test_doubling_search_agrees_with_the_ascending_search():
    """Same result type, model size and model text as sizes 1..5 in order."""
    rng = random.Random(1309)
    outcomes = set()
    for _ in range(100):
        units = random_units_without_positive_equality(rng)
        assert not any(
            lit.positive and lit.pred == "=" for c in clausify(units) for lit in c.literals
        )
        search = ModelSearch(units, max_size=5)
        expected = None
        while expected is None:
            expected = search.step()
        result = find_model(units, max_size=5)
        assert type(result) is type(expected), units
        if isinstance(expected, Model):
            assert format_interpretation(result.interpretation) == format_interpretation(
                expected.interpretation
            ), units
            outcomes.add(expected.interpretation.size)
        else:
            assert result == expected == NoModelUpTo(5)
            outcomes.add(None)
    assert {1, 2, 3, None} <= outcomes


def test_interleaved_hunter_still_ascends(reduced_six):
    """check_consistency's model search tries every size until saturation refutes."""
    verdict = folkit.check_consistency(reduced_six, limits=folkit.Limits(max_seconds=10.0))
    assert verdict.status == "Unsatisfiable"
    assert verdict.stats.domain_sizes_tried == [1, 2, 3, 4]


# -- text output --------------------------------------------------------------

def test_format_interpretation_layout():
    interp = Interpretation(
        size=2,
        constants={"a": 1},
        functions={"f": {(0,): 0, (1,): 0}},
        predicates={"p": {(1,)}},
    )
    assert format_interpretation(interp) == (
        "domain size 2\n"
        "a = 1\n"
        "f(0) = 0\n"
        "f(1) = 0\n"
        "p(0) = false\n"
        "p(1) = true\n"
    )


def test_format_interpretation_uses_signature_for_empty_predicates():
    interp = Interpretation(size=1, predicates={"p": set()})
    bare = format_interpretation(interp)
    assert bare == "domain size 1\n"
    sig = Signature(predicates={"p": 1})
    assert format_interpretation(interp, sig) == "domain size 1\np(0) = false\n"
