"""Tests of the benchmark's independent checker.

    python3 -m pytest bench/test_checker.py
"""

import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest

import checker
from folkit.asylum import subset
from folkit.models import Model, NoModelUpTo, find_model
from folkit.tptp import NamedFormula, parse_fof_formula

SATISFIABLE = {
    "p(a) & ~p(b)": 2,
    "![X]: (p(X) | q(X))": 1,
    "(?[X]: p(X)) & (?[X]: ~p(X))": 2,
    "(![X]: f(f(X)) = X) & f(a) != a": 2,
    "(![X]: (p(X) => q(f(X)))) & p(a) & ~q(a)": 2,
    "![X]: ?[Y]: (r(X, Y) & X != Y)": 2,
}

UNSATISFIABLE = [
    "p(a) & ~p(a)",
    "(![X]: p(X)) & (?[X]: ~p(X))",
    "(![X, Y]: X = Y) & a != b",
    "~(?[X]: (p(X) => ![Y]: p(Y)))",
    "![X]: (r(X, X) <=> ~r(X, X))",
    "(![X]: f(X) != X) & (![X, Y, Z]: (X = Y | Y = Z | X = Z))"
    " & (![X]: f(f(X)) != X)",
]


def _units(text: str) -> list[NamedFormula]:
    return [NamedFormula("u", "axiom", parse_fof_formula(text))]


@pytest.mark.parametrize("text, size", sorted(SATISFIABLE.items()))
def test_satisfiable_formula_has_its_smallest_model(text, size):
    formula = parse_fof_formula(text)
    model = checker.smallest_model([formula])
    assert model is not None and model.size == size
    assert checker.holds(model, formula)
    found = find_model(_units(text), max_size=2)
    assert isinstance(found, Model) and found.interpretation.size == size
    assert checker.holds(found.interpretation, formula)


@pytest.mark.parametrize("text", UNSATISFIABLE)
def test_unsatisfiable_formula_has_no_small_model(text):
    assert checker.smallest_model([parse_fof_formula(text)]) is None
    assert isinstance(find_model(_units(text), max_size=2), NoModelUpTo)


def test_the_six_have_no_model_up_to_size_2():
    six = subset(["ax4", "ax5", "ax7", "ax8", "ax10", "ax12"])
    assert checker.smallest_model(u.formula for u in six) is None


def _pinned():
    """A structure and formulas that fix every one of its table entries."""
    formulas = [
        parse_fof_formula(t)
        for t in ("a != b", "p(a)", "~p(b)", "f(a) = b", "f(b) = a", "r(a, b)",
                  "~r(a, a) & ~r(b, a) & ~r(b, b)")
    ]
    structure = checker.Structure(
        2, {"a": 0, "b": 1}, {"f": {(0,): 1, (1,): 0}}, {"p": {(0,)}, "r": {(0, 1)}}
    )
    return structure, formulas


def test_flipping_any_table_entry_is_rejected():
    structure, formulas = _pinned()
    assert all(checker.holds(structure, f) for f in formulas)
    flips = 0
    for name in structure.constants:
        flipped = checker.Structure(
            2, {**structure.constants, name: 1 - structure.constants[name]},
            structure.functions, structure.predicates,
        )
        assert not all(checker.holds(flipped, f) for f in formulas), name
        flips += 1
    for args in product(range(2), repeat=1):
        table = dict(structure.functions["f"])
        table[args] = 1 - table[args]
        flipped = checker.Structure(2, structure.constants, {"f": table}, structure.predicates)
        assert not all(checker.holds(flipped, f) for f in formulas), args
        flips += 1
    for name, arity in (("p", 1), ("r", 2)):
        for args in product(range(2), repeat=arity):
            extension = set(structure.predicates[name]) ^ {args}
            flipped = checker.Structure(
                2, structure.constants, structure.functions,
                {**structure.predicates, name: extension},
            )
            assert not all(checker.holds(flipped, f) for f in formulas), (name, args)
            flips += 1
    assert flips == 2 + 2 + 2 + 4


def test_a_model_missing_a_symbol_is_not_a_model():
    structure, _ = _pinned()
    with pytest.raises(KeyError):
        checker.holds(structure, parse_fof_formula("q(a)"))
