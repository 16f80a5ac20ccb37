"""CDCL solver: decisions, budgets, assignments, DIMACS input and output."""

import hashlib
import itertools
import random

import pytest

from folkit.sat import (
    CdclSolver,
    PropClauseSet,
    PropFormatError,
    Sat,
    Unsat,
    check_assignment,
    format_dimacs,
    parse_dimacs,
    sat_solve,
)

import folkit.models
from folkit.models import NoModelUpTo, find_model

from oracles import random_prop_instance, tt_satisfiable


def pigeonhole(pigeons: int, holes: int) -> PropClauseSet:
    """p_{i,j} means pigeon i sits in hole j; one pigeon per hole."""
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1, i2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(i1, j), -var(i2, j)])
    return PropClauseSet(pigeons * holes, clauses)


def random_3sat(seed: int, num_vars: int, num_clauses: int) -> PropClauseSet:
    """Uniform random 3-SAT: three distinct variables per clause, random signs."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return PropClauseSet(num_vars, clauses)


def solved(problem: PropClauseSet) -> tuple[CdclSolver, bool]:
    solver = CdclSolver(problem.n)
    for clause in problem.clauses:
        solver.add_clause(clause)
    verdict = solver.solve()
    assert verdict is not None
    return solver, verdict


def test_empty_problem_is_satisfiable():
    result = sat_solve(PropClauseSet(0, []))
    assert isinstance(result, Sat)
    assert result.assignment == {}


def test_unit_contradiction():
    assert isinstance(sat_solve(PropClauseSet(1, [[1], [-1]])), Unsat)


def test_simple_model():
    problem = PropClauseSet(3, [[1, 2], [-1], [-2, 3]])
    result = sat_solve(problem)
    assert isinstance(result, Sat)
    assert result.assignment[1] is False
    assert result.assignment[2] is True
    assert result.assignment[3] is True


def test_empty_clause_is_unsatisfiable():
    assert isinstance(sat_solve(PropClauseSet(2, [[1], []])), Unsat)


def test_pigeonhole_three_into_two():
    assert isinstance(sat_solve(pigeonhole(3, 2)), Unsat)


def test_pigeonhole_three_into_three():
    result = sat_solve(pigeonhole(3, 3))
    assert isinstance(result, Sat)
    assert check_assignment(pigeonhole(3, 3), result.assignment)


def test_agrees_with_truth_tables_on_random_instances():
    rng = random.Random(97)
    for _ in range(300):
        num_vars, clauses = random_prop_instance(rng, 6, 14)
        expected = tt_satisfiable(num_vars, clauses)
        result = sat_solve(PropClauseSet(num_vars, clauses))
        if expected:
            assert isinstance(result, Sat)
            assert check_assignment(PropClauseSet(num_vars, clauses),
                                    result.assignment)
        else:
            assert isinstance(result, Unsat)


def test_repeated_runs_return_identical_assignments():
    rng = random.Random(3)
    for _ in range(20):
        num_vars, clauses = random_prop_instance(rng, 8, 20)
        first = sat_solve(PropClauseSet(num_vars, clauses))
        second = sat_solve(PropClauseSet(num_vars, clauses))
        assert type(first) is type(second)
        if isinstance(first, Sat):
            assert first.assignment == second.assignment


def test_clause_added_after_a_satisfiable_solve_is_checked_from_level_0():
    solver = CdclSolver(2)
    solver.add_clause([1, 2])
    assert solver.solve() is True
    assert solver.assignment()[1] is False  # x1 was decided false
    solver.add_clause([1])
    assert solver.solve() is True
    assert not solver.failed
    assert solver.assignment()[1] is True
    assert isinstance(sat_solve(PropClauseSet(2, [[1, 2], [1]])), Sat)


def test_solver_budget_pauses_and_resumes():
    problem = pigeonhole(5, 4)
    solver = CdclSolver(problem.n)
    for clause in problem.clauses:
        solver.add_clause(clause)
    rounds = 0
    verdict = None
    while verdict is None:
        verdict = solver.solve(max_conflicts=1)
        rounds += 1
        assert rounds < 10_000
    assert verdict is False
    assert rounds > 1  # the budget actually interrupted the search


def test_budget_resume_matches_one_shot_answer():
    rng = random.Random(55)
    for _ in range(40):
        num_vars, clauses = random_prop_instance(rng, 8, 24)
        oneshot = sat_solve(PropClauseSet(num_vars, clauses))
        solver = CdclSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        verdict = None
        while verdict is None:
            verdict = solver.solve(max_conflicts=2)
        assert verdict is isinstance(oneshot, Sat)
        if verdict:
            assert check_assignment(
                PropClauseSet(num_vars, clauses), solver.assignment()
            )


def test_check_assignment_rejects_falsified_clause():
    problem = PropClauseSet(2, [[1], [-2]])
    assert check_assignment(problem, {1: True, 2: False})
    assert not check_assignment(problem, {1: True, 2: True})
    assert not check_assignment(problem, {2: False})  # missing var 1


def test_clause_set_validation():
    with pytest.raises(PropFormatError):
        PropClauseSet(-1, [])
    with pytest.raises(PropFormatError):
        PropClauseSet(2, [[1, 0]])
    with pytest.raises(PropFormatError):
        PropClauseSet(2, [[3]])


def test_dimacs_round_trip():
    problem = PropClauseSet(3, [[1, -2], [2, 3], [-1]])
    again = parse_dimacs(format_dimacs(problem))
    assert again.n == problem.n
    assert again.clauses == problem.clauses


def test_dimacs_parses_comments_and_blank_lines():
    text = "c header comment\n\np cnf 2 2\nc inline\n1 -2 0\n2 0\n"
    problem = parse_dimacs(text)
    assert problem.n == 2
    assert problem.clauses == [[1, -2], [2]]


def test_dimacs_clause_may_span_lines():
    problem = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert problem.clauses == [[1, 2, 3]]


@pytest.mark.parametrize(
    "text, hint",
    [
        ("1 0\n", "header"),
        ("p cnf x 1\n1 0\n", "header"),
        ("p dnf 1 1\n1 0\n", "header"),
        ("p cnf 1 1\n1\n", "unterminated"),
        ("p cnf 1 2\n1 0\n", "declares"),
        ("p cnf 1 1\none 0\n", "token"),
        ("", "header"),
    ],
)
def test_dimacs_rejects_malformed_input(text, hint):
    with pytest.raises(PropFormatError, match=hint):
        parse_dimacs(text)


# -- pinned search --------------------------------------------------------------
#
# Branching, learning, restarts and the order in which watch lists are
# visited decide every conflict and the final assignment.  A change that
# only makes the solver faster keeps these figures exactly.


@pytest.mark.parametrize("pigeons, holes, conflicts", [(6, 5, 139), (7, 6, 766)])
def test_pigeonhole_conflicts_are_pinned(pigeons, holes, conflicts):
    solver, verdict = solved(pigeonhole(pigeons, holes))
    assert verdict is False
    assert solver.conflicts == conflicts


@pytest.mark.parametrize(
    "seed, conflicts, digest",
    [(2, 625, None), (3, 271, "1d0e020b33572eac"), (7, 361, "5e958b74363d6e42")],
)
def test_random_3sat_search_is_pinned(seed, conflicts, digest):
    """100 variables and 420 clauses: a ratio of 4.2, near the threshold."""
    problem = random_3sat(seed, 100, 420)
    solver, verdict = solved(problem)
    assert solver.conflicts == conflicts
    assert verdict is (digest is not None)
    if verdict:
        assignment = solver.assignment()
        assert check_assignment(problem, assignment)
        bits = "".join("1" if assignment[v] else "0" for v in range(1, problem.n + 1))
        assert hashlib.sha256(bits.encode()).hexdigest()[:16] == digest


MODEL_SETS = {
    "twelve": [f"ax{i}" for i in range(1, 13)],
    "six": ["ax4", "ax5", "ax7", "ax8", "ax10", "ax12"],
    "core9": ["ax4", "ax5", "ax7", "ax9", "ax10", "ax12"],
}


@pytest.mark.parametrize(
    "name, conflicts", [("twelve", 896), ("six", 1737), ("core9", 1245)]
)
def test_model_finder_conflicts_are_pinned(hypotheses, monkeypatch, name, conflicts):
    """Conflicts summed over sizes 1..8, none of which has a model."""
    solvers = []

    class CountingSolver(CdclSolver):
        def __init__(self, n):
            super().__init__(n)
            solvers.append(self)

    monkeypatch.setattr(folkit.models, "CdclSolver", CountingSolver)
    units = [hypotheses[label] for label in MODEL_SETS[name]]
    assert find_model(units, max_size=8) == NoModelUpTo(8)
    assert len(solvers) == 8
    assert sum(s.conflicts for s in solvers) == conflicts
