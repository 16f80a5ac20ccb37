"""Independent oracles the tests check folkit against.

Everything here is written from scratch against the textbook
definitions, deliberately not reusing the package's own evaluation or
solving code, so agreement between the two is evidence of correctness
rather than circularity.  Brute force throughout: truth tables for
propositional questions, exhaustive interpretation enumeration for
finite model existence.
"""

from __future__ import annotations

import random
from itertools import product

from folkit.syntax import (
    And,
    App,
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
    Var,
)
from folkit.clausal import Clause, Literal


# ---------------------------------------------------------------------------
# Propositional truth tables
# ---------------------------------------------------------------------------

def tt_satisfiable(num_vars: int, clauses: list[list[int]]) -> bool:
    """Truth-table satisfiability for DIMACS-style integer clauses."""
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    for assignment in range(1 << num_vars):
        if all(pos & assignment or neg & ~assignment for pos, neg in masks):
            return True
    return False


def random_prop_instance(rng: random.Random, max_vars: int, max_clauses: int):
    """A random integer clause set, nonempty clauses, no tautology filter."""
    num_vars = rng.randint(1, max_vars)
    num_clauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return num_vars, clauses


# ---------------------------------------------------------------------------
# First-order evaluation over explicit finite tables
# ---------------------------------------------------------------------------

class Interp:
    """A finite interpretation: function and predicate tables over 0..n-1."""

    def __init__(self, size, funcs, preds):
        self.size = size
        self.funcs = funcs  # name -> dict[args tuple, element]
        self.preds = preds  # name -> frozenset of true args tuples

    def term(self, t, env):
        if isinstance(t, Var):
            return env[t.name]
        return self.funcs[t.op][tuple(self.term(a, env) for a in t.args)]

    def holds(self, f, env):
        if isinstance(f, Atom):
            return tuple(self.term(a, env) for a in f.args) in self.preds[f.pred]
        if isinstance(f, Equal):
            return self.term(f.lhs, env) == self.term(f.rhs, env)
        if isinstance(f, Not):
            return not self.holds(f.sub, env)
        if isinstance(f, And):
            return self.holds(f.lhs, env) and self.holds(f.rhs, env)
        if isinstance(f, Or):
            return self.holds(f.lhs, env) or self.holds(f.rhs, env)
        if isinstance(f, Implies):
            return not self.holds(f.lhs, env) or self.holds(f.rhs, env)
        if isinstance(f, Iff):
            return self.holds(f.lhs, env) == self.holds(f.rhs, env)
        if isinstance(f, Forall):
            return all(
                self.holds(f.body, {**env, f.var: d}) for d in range(self.size)
            )
        if isinstance(f, Exists):
            return any(
                self.holds(f.body, {**env, f.var: d}) for d in range(self.size)
            )
        if isinstance(f, Truth):
            return True
        if isinstance(f, Falsity):
            return False
        raise TypeError(f"unexpected formula node {type(f).__name__}")

    def literal(self, lit: Literal, env) -> bool:
        if lit.is_equality():
            value = self.term(lit.args[0], env) == self.term(lit.args[1], env)
        else:
            value = tuple(self.term(a, env) for a in lit.args) in self.preds[lit.pred]
        return value if lit.positive else not value

    def clause_holds(self, clause: Clause) -> bool:
        names = sorted({v for lit in clause.literals for v in _lit_vars(lit)})
        for values in product(range(self.size), repeat=len(names)):
            env = dict(zip(names, values))
            if not any(self.literal(lit, env) for lit in clause.literals):
                return False
        return True


def _lit_vars(lit: Literal):
    out = set()
    stack = list(lit.args)
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.name)
        else:
            stack.extend(t.args)
    return out


def enumerate_interps(preds: dict[str, int], funcs: dict[str, int], size: int):
    """Yield every interpretation of the given symbols over 0..size-1."""
    domain = range(size)
    fnames = list(funcs)
    pnames = list(preds)
    fspaces = []
    for name in fnames:
        cells = list(product(domain, repeat=funcs[name]))
        fspaces.append([dict(zip(cells, values))
                        for values in product(domain, repeat=len(cells))])
    pspaces = []
    for name in pnames:
        cells = list(product(domain, repeat=preds[name]))
        subsets = []
        for bits in range(1 << len(cells)):
            subsets.append(frozenset(c for i, c in enumerate(cells) if bits >> i & 1))
        pspaces.append(subsets)
    for ftables in product(*fspaces):
        for ptables in product(*pspaces):
            yield Interp(size, dict(zip(fnames, ftables)), dict(zip(pnames, ptables)))


def formulas_have_model(formulas, preds, funcs, size: int) -> bool:
    """Exhaustively search for a size-n model of all the formulas."""
    for interp in enumerate_interps(preds, funcs, size):
        if all(interp.holds(f, {}) for f in formulas):
            return True
    return False


def clauses_have_model(clauses, preds, funcs, size: int) -> bool:
    """Exhaustively search for a size-n model of all the clauses."""
    for interp in enumerate_interps(preds, funcs, size):
        if all(interp.clause_holds(c) for c in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# Random first-order formulas over a tiny fixed signature
# ---------------------------------------------------------------------------

SIG_PREDS = {"p": 1, "q": 1}
SIG_FUNCS = {"f": 1, "a": 0, "b": 0}


def random_term(rng: random.Random, variables: list[str]):
    roll = rng.random()
    if variables and roll < 0.4:
        return Var(rng.choice(variables))
    if roll < 0.7:
        return App(rng.choice(["a", "b"]), ())
    return App("f", (random_term(rng, variables),))


def random_formula(rng: random.Random, depth: int, variables: list[str], quant_budget: int):
    """A random formula; closed when called with no free variables allowed."""
    if depth == 0 or (not variables and quant_budget == 0 and rng.random() < 0.2):
        kind = rng.random()
        if kind < 0.8:
            pred = rng.choice(["p", "q"])
            return Atom(pred, (random_term(rng, variables),))
        return Equal(random_term(rng, variables), random_term(rng, variables))
    choices = ["atom", "not", "and", "or", "implies", "iff"]
    if quant_budget > 0:
        choices += ["forall", "exists", "forall", "exists"]
    kind = rng.choice(choices)
    if kind == "atom":
        return random_formula(rng, 0, variables, 0)
    if kind == "not":
        return Not(random_formula(rng, depth - 1, variables, quant_budget))
    if kind in ("and", "or", "implies", "iff"):
        node = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return node(
            random_formula(rng, depth - 1, variables, quant_budget),
            random_formula(rng, depth - 1, variables, quant_budget),
        )
    var = f"X{len(variables)}"
    node = Forall if kind == "forall" else Exists
    return node(
        var, random_formula(rng, depth - 1, variables + [var], quant_budget - 1)
    )


def random_closed_formula(rng: random.Random):
    """A closed random formula with at most two quantifiers."""
    return random_formula(rng, depth=3, variables=[], quant_budget=2)


# ---------------------------------------------------------------------------
# Random function-free clause sets
# ---------------------------------------------------------------------------

FREE_PREDS = {"p": 1, "q": 2, "r": 0}


def random_function_free_clauses(rng: random.Random):
    """Constants (none, a, b or both) and 2-12 clauses of 1-3 literals over them.

    Without function symbols the Herbrand universe is the constants (or
    one element when there are none), so a model of size max(1, number
    of constants) exists exactly when the clauses are satisfiable.
    """
    constants = sorted(rng.sample(["a", "b"], rng.randint(0, 2)))
    terms = [Var("X"), Var("Y")] + [App(name, ()) for name in constants]
    clauses = []
    for _ in range(rng.randint(2, 12)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(sorted(FREE_PREDS))
            args = tuple(rng.choice(terms) for _ in range(FREE_PREDS[pred]))
            lits.append(Literal(rng.random() < 0.6, pred, args))
        clauses.append(Clause(lits))
    return constants, clauses


# ---------------------------------------------------------------------------
# Pattern matching (for the most-general-unifier property)
# ---------------------------------------------------------------------------

def match_term(pattern, target, bindings) -> bool:
    """Extend bindings so that pattern instantiates to target, if possible."""
    if isinstance(pattern, Var):
        if pattern.name in bindings:
            return bindings[pattern.name] == target
        bindings[pattern.name] = target
        return True
    if isinstance(target, Var) or pattern.op != target.op:
        return False
    if len(pattern.args) != len(target.args):
        return False
    return all(
        match_term(pa, ta, bindings) for pa, ta in zip(pattern.args, target.args)
    )
