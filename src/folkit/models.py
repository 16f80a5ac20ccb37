"""Finite model finding: ground clause sets over {0..n-1} and SAT-solve.

Function symbols are encoded by their graphs: a propositional variable
per cell f(args)=value with exactly-one constraints, so nested terms
flatten linearly instead of exponentially.  Equality is identity on the
domain and is evaluated away while grounding.  evaluate() is the
independent Tarskian truth check used to verify every decoded model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Union

from .clausal import EQ, Clause, clause_signature, clausify, has_positive_equality
from .sat import CdclSolver, PropClauseSet
from .saturation import Limits, ResourceOut
from .syntax import App, Formula, Signature, Term, Var, signature_of
from .syntax import (
    And,
    Atom,
    Equal,
    Exists,
    Falsity,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Truth,
)
from .tptp import NamedFormula


DEFAULT_MAX_MODEL_SIZE = 8  # largest domain tried when the caller names none


class UnknownSymbolError(KeyError):
    """A formula mentions a symbol the interpretation does not cover."""


@dataclass
class Interpretation:
    """A finite structure over domain {0..size-1}."""

    size: int
    constants: dict[str, int] = field(default_factory=dict)
    functions: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    predicates: dict[str, set[tuple[int, ...]]] = field(default_factory=dict)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("domain size must be at least 1")


def _eval_term(interp: Interpretation, t: Term, env: dict[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnknownSymbolError(f"unbound variable {t.name}") from None
    assert isinstance(t, App)
    args = tuple(_eval_term(interp, a, env) for a in t.args)
    if not args:
        try:
            return interp.constants[t.op]
        except KeyError:
            raise UnknownSymbolError(f"unknown constant {t.op}") from None
    try:
        table = interp.functions[t.op]
        return table[args]
    except KeyError:
        raise UnknownSymbolError(f"unknown function cell {t.op}{args}") from None


def evaluate(interp: Interpretation, f: Formula) -> bool:
    """Tarskian truth of a closed formula; quantifiers range over the domain."""

    def rec(f: Formula, env: dict[str, int]) -> bool:
        if isinstance(f, Truth):
            return True
        if isinstance(f, Falsity):
            return False
        if isinstance(f, Atom):
            args = tuple(_eval_term(interp, a, env) for a in f.args)
            try:
                return args in interp.predicates[f.pred]
            except KeyError:
                raise UnknownSymbolError(f"unknown predicate {f.pred}") from None
        if isinstance(f, Equal):
            return _eval_term(interp, f.lhs, env) == _eval_term(interp, f.rhs, env)
        if isinstance(f, Not):
            return not rec(f.sub, env)
        if isinstance(f, And):
            return rec(f.lhs, env) and rec(f.rhs, env)
        if isinstance(f, Or):
            return rec(f.lhs, env) or rec(f.rhs, env)
        if isinstance(f, Implies):
            return (not rec(f.lhs, env)) or rec(f.rhs, env)
        if isinstance(f, Iff):
            return rec(f.lhs, env) == rec(f.rhs, env)
        if isinstance(f, (Forall, Exists)):
            shadowed = env.get(f.var)
            want = isinstance(f, Exists)
            result = not want
            for d in range(interp.size):
                env[f.var] = d
                if rec(f.body, env) == want:
                    result = want
                    break
            if shadowed is None:
                env.pop(f.var, None)
            else:
                env[f.var] = shadowed
            return result
        raise TypeError(f"not a formula: {f!r}")

    return rec(f, {})


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

@dataclass
class GroundTable:
    """Maps propositional variables back to function cells and atoms."""

    size: int
    functions: list[tuple[str, int]]
    predicates: list[tuple[str, int]]
    cell_vars: dict[tuple[str, tuple[int, ...], int], int]
    atom_vars: dict[tuple[str, tuple[int, ...]], int]


def _flatten_clause(
    clause: Clause,
) -> tuple[int, list[tuple[str, tuple[int, ...], int]], list[tuple[bool, str, tuple[int, ...]]]]:
    """Replace nested function terms by fresh clause-local variables.

    Returns (variable count, cell requirements, flat literals).  The
    variables are numbered 0, 1, ... by first occurrence, left to right,
    a term's arguments before the fresh variable that names the term.
    Each requirement (f, argument indices, value index) later grounds to
    a negated function-graph cell; a flat literal is (positive,
    predicate or "=", argument indices).
    """
    index: dict[str | App, int] = {}  # a variable by name, a function term by itself
    reqs: list[tuple[str, tuple[int, ...], int]] = []

    def walk(t: Term) -> int:
        if isinstance(t, Var):
            return index.setdefault(t.name, len(index))
        assert isinstance(t, App)
        known = index.get(t)
        if known is None:
            args = tuple(walk(a) for a in t.args)
            known = index[t] = len(index)
            reqs.append((t.op, args, known))
        return known

    flat = [(lit.positive, lit.pred, tuple(walk(a) for a in lit.args)) for lit in clause.literals]
    return len(index), reqs, flat


def ground(
    clauses: Iterable[Clause],
    n: int,
    signature: Signature | None = None,
    deadline: float | None = None,
) -> tuple[PropClauseSet, GroundTable]:
    """Propositional encoding satisfiable iff the clauses have a size-n model.

    Every function cell gets exactly-one constraints up front.  Symmetry
    is broken on the 0-ary functions c_0, c_1, ... in signature order
    (Skolem constants included): c_k <= k, and c_k = d with d > 0 only
    if some earlier constant takes d - 1.  This is sound because models
    are closed under domain relabelling, and numbering the elements in
    the order the constants first take them gives a model of this form.
    A clause with k variables, counting one per nested function term,
    takes n^k assignments.  An assignment that makes an equality literal
    true gives no clause; every other gives its raw instance, less the
    false equality literals, which may repeat a literal or be a
    tautology: CdclSolver.add_clause drops those.  Past deadline, a
    value of time.monotonic(), grounding raises TimeoutError; it reads
    the clock once per 1,024 function cells and once per 1,024
    assignments.
    """
    if n < 1:
        raise ValueError("domain size must be at least 1")
    clauses = list(clauses)
    used = clause_signature(clauses, base=signature)
    functions = list(used.functions.items())
    predicates = list(used.predicates.items())

    counter = 0
    cell_vars: dict[tuple[str, tuple[int, ...], int], int] = {}
    atom_vars: dict[tuple[str, tuple[int, ...]], int] = {}
    out: list[list[int]] = []

    for fname, arity in functions:
        for args in product(range(n), repeat=arity):
            row = []
            for d in range(n):
                counter += 1
                if (
                    counter & 1023 == 0
                    and deadline is not None
                    and time.monotonic() > deadline
                ):
                    raise TimeoutError(f"grounding at size {n} ran past its deadline")
                cell_vars[(fname, args, d)] = counter
                row.append(counter)
            out.append(row)  # at least one value
            for i in range(n):
                for j in range(i + 1, n):
                    out.append([-row[i], -row[j]])  # at most one value

    constants = [fname for fname, arity in functions if arity == 0]
    for k, fname in enumerate(constants):
        for d in range(k + 1, n):
            out.append([-cell_vars[(fname, (), d)]])  # c_k <= k
        for d in range(1, min(k, n - 1) + 1):
            # c_k = d only if an earlier constant takes d - 1
            out.append(
                [-cell_vars[(fname, (), d)]]
                + [cell_vars[(earlier, (), d - 1)] for earlier in constants[:k]]
            )

    def atom_var(pred: str, args: tuple[int, ...]) -> int:
        nonlocal counter
        var = atom_vars.get((pred, args))
        if var is None:
            counter += 1
            var = counter
            atom_vars[(pred, args)] = var
        return var

    assignments = 0
    for clause in clauses:
        width, reqs, flat = _flatten_clause(clause)
        for values in product(range(n), repeat=width):
            assignments += 1
            if (
                assignments & 1023 == 0
                and deadline is not None
                and time.monotonic() > deadline
            ):
                raise TimeoutError(f"grounding at size {n} ran past its deadline")
            lits = [
                -cell_vars[fname, tuple([values[a] for a in args]), values[res]]
                for fname, args, res in reqs
            ]
            for positive, pred, args in flat:
                if pred == EQ:
                    if (values[args[0]] == values[args[1]]) == positive:
                        break  # a true equality literal satisfies the instance
                    continue  # a false one is left out
                var = atom_var(pred, tuple([values[a] for a in args]))
                lits.append(var if positive else -var)
            else:
                out.append(lits)

    table = GroundTable(n, functions, predicates, cell_vars, atom_vars)
    return PropClauseSet(counter, out), table


def decode(table: GroundTable, assignment: Mapping[int, bool]) -> Interpretation:
    """Read an interpretation off a satisfying assignment."""
    interp = Interpretation(table.size)
    for fname, arity in table.functions:
        if arity == 0:
            for d in range(table.size):
                if assignment.get(table.cell_vars[(fname, (), d)], False):
                    interp.constants[fname] = d
                    break
        else:
            cells: dict[tuple[int, ...], int] = {}
            for args in product(range(table.size), repeat=arity):
                for d in range(table.size):
                    if assignment.get(table.cell_vars[(fname, args, d)], False):
                        cells[args] = d
                        break
            interp.functions[fname] = cells
    for pred, arity in table.predicates:
        holds = {
            args
            for args in product(range(table.size), repeat=arity)
            if assignment.get(table.atom_vars.get((pred, args), 0), False)
        }
        interp.predicates[pred] = holds
    return interp


# ---------------------------------------------------------------------------
# The size-iterating search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    interpretation: Interpretation


@dataclass(frozen=True)
class NoModelUpTo:
    size: int


ModelSearchResult = Union[Model, NoModelUpTo, ResourceOut]


class ModelSearch:
    """Resumable search for the smallest finite model of size at most max_size.

    step() runs a bounded number of solver conflicts and returns None
    while undecided, so callers can interleave model search with other
    work.  Verdicts are deterministic and come from the smallest size.
    A size is grounded when the step that solves it begins, and a step
    ends once a size has run into a solver conflict: a size decided
    while its clauses load, as size 1 mostly is, leaves the whole
    max_conflicts to the next one.
    When no clause has a positive equality literal, a model of size n
    gives one of size n+1: copy any element.  Each literal without
    equality keeps its truth value on the copy, and a negative equality
    literal can only turn true.  So no model at size s means none at any
    size up to s, and the search tries sizes 1, 2, 4, ... up to
    max_size.  Once a size has a model, the sizes between the last one
    without a model and it are tried in ascending order, and the first
    model found is returned, so the result is the one an ascending
    search gives, model included.  A clause set with a positive equality
    literal is searched at 1..max_size in order.
    The time limit counts from construction: once it has passed, step()
    grounds no further size and runs no further solver slice, and a
    grounding that runs past it is cut short; either way the search ends
    as ResourceOut("time-limit").  A size whose clauses would ground to
    more than limits.max_clauses instances is not grounded, nor counted
    in sizes_tried: the search ends as ResourceOut("clause-limit").
    """

    def __init__(
        self,
        units: Iterable[NamedFormula],
        max_size: int = DEFAULT_MAX_MODEL_SIZE,
        limits: Limits | None = None,
    ):
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        max_seconds = limits.max_seconds if limits is not None else None
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds
        self.max_clauses = limits.max_clauses if limits is not None else None
        self.units = list(units)
        self.max_size = max_size
        self.signature = signature_of(u.formula for u in self.units)
        self.clauses = clausify(self.units)
        # the variable count of each flattened clause: size n grounds
        # sum(n ** width) instances
        self.widths = [_flatten_clause(c)[0] for c in self.clauses]
        self.closed_upward = not has_positive_equality(self.clauses)
        self.floor = 0  # every size up to floor has no model
        self.above: Model | None = None  # the smallest model found above floor
        self.size = 0
        self.solver: CdclSolver | None = None
        self.table: GroundTable | None = None
        self.sizes_tried: list[int] = []
        self.done: ModelSearchResult | None = None

    def _ended(self) -> ModelSearchResult | None:
        """The search's result once no size is left to try."""
        if self.above is not None:
            if self.above.interpretation.size == self.floor + 1:
                return self.above
        elif self.floor >= self.max_size:
            return NoModelUpTo(self.max_size)
        return None

    def _next_size(self) -> int:
        if self.above is None and self.closed_upward:
            return min(max(1, 2 * self.floor), self.max_size)
        return self.floor + 1

    def _ground(self, size: int) -> ModelSearchResult | None:
        if self.max_clauses is not None and sum(size**w for w in self.widths) > self.max_clauses:
            return ResourceOut("clause-limit")
        self.size = size
        self.sizes_tried.append(size)
        try:
            problem, self.table = ground(
                self.clauses, size, self.signature, deadline=self.deadline
            )
        except TimeoutError:
            return ResourceOut("time-limit")
        solver = CdclSolver(problem.n)
        for clause in problem.clauses:
            solver.add_clause(clause)
        self.solver = solver
        return None

    def _out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def step(self, max_conflicts: int = 2000) -> ModelSearchResult | None:
        while self.done is None:
            if self.solver is None and not self._out_of_time():
                self.done = self._ground(self._next_size())
            if self.done is None and self._out_of_time():
                self.done = ResourceOut("time-limit")
            if self.done is not None:
                break
            verdict = self.solver.solve(max_conflicts=max_conflicts)
            if verdict is None:
                return None
            if verdict:
                interp = decode(self.table, self.solver.assignment())
                for unit in self.units:
                    if not evaluate(interp, unit.formula):
                        raise RuntimeError(
                            f"decoded size-{self.size} model fails unit {unit.label}"
                        )
                self.above = Model(interp)
            else:
                self.floor = self.size
            conflicts = self.solver.conflicts
            self.solver = None
            self.done = self._ended()
            if conflicts:
                break
        return self.done


def find_model(
    units: Iterable[NamedFormula],
    max_size: int = DEFAULT_MAX_MODEL_SIZE,
    limits: "Limits | None" = None,
) -> ModelSearchResult:
    """The smallest model of the units of size at most max_size, if any.

    Steps a ModelSearch, which doubles the size while models are closed
    upward, in slices of 4,000 conflicts.  Past the time limit, grounding
    or solving ends in ResourceOut("time-limit").
    """
    search = ModelSearch(units, max_size, limits)
    while True:
        result = search.step(max_conflicts=4000)
        if result is not None:
            return result


# ---------------------------------------------------------------------------
# Text output
# ---------------------------------------------------------------------------

def format_interpretation(
    interp: Interpretation, signature: Signature | None = None
) -> str:
    """The model block: domain size, then one line per table entry.

    Tables print in the interpretation's own (signature-first) order with
    argument tuples in lexicographic order.  Predicate arities come from
    the signature when given, otherwise from a satisfying tuple; an empty
    extension with no signature has unknown arity and prints nothing.
    """
    lines = [f"domain size {interp.size}"]
    for name, value in interp.constants.items():
        lines.append(f"{name} = {value}")
    for name, cells in interp.functions.items():
        for args in sorted(cells):
            shown = ",".join(str(a) for a in args)
            lines.append(f"{name}({shown}) = {cells[args]}")
    for name, holds in interp.predicates.items():
        if signature is not None and name in signature.predicates:
            arity = signature.predicates[name]
        elif holds:
            arity = len(next(iter(holds)))
        else:
            continue
        for args in product(range(interp.size), repeat=arity):
            shown = ",".join(str(a) for a in args)
            flag = "true" if args in holds else "false"
            lines.append(f"{name}({shown}) = {flag}")
    return "\n".join(lines) + "\n"
