"""Herbrand-level grounding: refute a clause set with the CDCL solver.

This is Gilmore's method in the instantiation style of Korovin's
iProver ("iProver - an instantiation-based theorem prover for
first-order logic", IJCAR 2008).  Level k grounds every clause over the
terms of depth at most k (the constants, or one fresh constant when
there are none) and asks a fresh CdclSolver whether the ground
instances are propositionally unsatisfiable.  By Herbrand's theorem an
unsatisfiable clause set without equality is refuted at some level.
Terms and atoms are interned as integers, so an instance costs a few
dictionary lookups and no Clause or Literal is built until a proof is.
A loaded level keeps each instance only as the solver's copy of its
literals and the instance's ordinal in the enumeration; a proof
rebuilds the few instances it cites from their ordinals.

A refutation is replayed from the solver's own trace as in Zhang &
Malik ("Validating SAT Solvers Using an Independent Resolution-Based
Checker", DATE 2003): the solver logs, for each learned clause, the
conflict and the reasons its analysis resolved, and the level-0 reason
of every literal, so the proof resolves the ground instances along
those chains in learning order and then down to the empty clause,
without propagating again.  Each ground instance enters the Derivation
as a renamed Input step whose substitution rides on the Resolution
steps that use it, after one Factoring step when its literals merge,
so check_derivation checks it like any saturation proof.
"""

from __future__ import annotations

import time
from array import array
from itertools import product
from typing import Iterable, Union

from .clausal import Clause, Literal, VariableSupply, clause_signature
from .sat import CdclSolver
from .saturation import (
    Derivation,
    Factoring,
    Input,
    Limits,
    Refutation,
    Resolution,
    ResourceOut,
    Saturated,
    Step,
    extract_derivation,
)
from .syntax import App, Substitution, Term, Var

# Saturated: the set has no function symbols, so every level is level 0,
# and that level is satisfiable
GroundingResult = Union[Refutation, Saturated, ResourceOut]


def _variables_in_order(c: Clause) -> list[str]:
    """The clause's variable names, left to right by first occurrence."""
    names: dict[str, None] = {}
    for lit in c.literals:
        stack = list(reversed(lit.args))
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                names.setdefault(t.name, None)
            else:
                stack.extend(reversed(t.args))  # type: ignore[union-attr]
    return list(names)


class Grounder:
    """Resumable refutation search by Herbrand levels 0, 1, 2, ...

    step() grounds the next level when no solver is loaded, then runs a
    bounded number of solver conflicts, and returns None while
    undecided, as Prover.step and ModelSearch.step do.  A satisfiable
    level drops its solver; the next step grounds the level above.  The
    time limit counts from construction.  step() checks it before
    grounding or solving, and grounding reads the clock once per 1,024
    instances; either way the search ends as ResourceOut("time-limit").
    A level whose instances would number more than limits.max_clauses
    is not grounded: the search ends as ResourceOut("clause-limit").
    enumerated counts the instances of the levels grounded so far,
    tautologies included; analysis._decide paces the levels by it.

    The caller chooses the clauses.  A refutation is sound for any
    subset of valid axioms, so reflexivity may stand in for the equality
    axioms; without a positive equality literal that is also complete.
    """

    def __init__(self, clauses: Iterable[Clause], limits: Limits | None = None):
        limits = limits or Limits()
        self.max_clauses = limits.max_clauses
        max_seconds = limits.max_seconds
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds
        self.clauses = list(clauses)
        # a term id names (symbol, argument ids); an atom id names
        # (predicate, argument ids), and atom ids count from 1
        self.term_ids: dict[tuple[str, tuple[int, ...]], int] = {}
        self.term_keys: list[tuple[str, tuple[int, ...]]] = []
        self.atom_ids: dict[tuple[str, tuple[int, ...]], int] = {}
        self.atom_keys: list[tuple[str, tuple[int, ...]]] = []
        # negated[atom] is -atom, one int object for every literal that
        # names it: Python caches no negative int below -5
        self.negated: list[int] = [0]
        symbols = clause_signature(self.clauses).functions
        names = [name for name, arity in symbols.items() if arity == 0]
        if not names:
            fresh = "c"
            while fresh in symbols:
                fresh += "_"
            names = [fresh]
        self.constants = [self._intern(name, ()) for name in names]
        self.functions = [(name, arity) for name, arity in symbols.items() if arity > 0]
        self.variables = [_variables_in_order(c) for c in self.clauses]
        self.templates: list | None = None  # compiled by the first level grounded
        self.level = -1
        self.universe: list[int] = []  # terms of depth <= level
        self.enumerated = 0  # instances the levels grounded so far enumerated
        self.solver: CdclSolver | None = None
        # each clause the loaded solver kept, and the enumeration ordinal
        # of its instance in the loaded level, from which _instance
        # rebuilds the instance for a proof
        self.kept: list[list[int]] = []
        self.ordinals = array("q")
        self.result: GroundingResult | None = None

    # -- interning ----------------------------------------------------------

    def _intern(self, op: str, args: tuple[int, ...]) -> int:
        key = (op, args)
        tid = self.term_ids.get(key)
        if tid is None:
            tid = self.term_ids[key] = len(self.term_keys)
            self.term_keys.append(key)
        return tid

    def _template(self, t: Term, names: list[str]):
        """An int i >= 0 for variable names[i], ~id for a ground term, else (op, args)."""
        if isinstance(t, Var):
            return names.index(t.name)
        args = tuple(self._template(a, names) for a in t.args)  # type: ignore[union-attr]
        if all(type(a) is int and a < 0 for a in args):
            return ~self._intern(t.op, tuple(~a for a in args))  # type: ignore[union-attr]
        return (t.op, args)  # type: ignore[union-attr]

    def _term_id(self, template, values: tuple[int, ...]) -> int:
        if type(template) is int:
            return values[template] if template >= 0 else ~template
        op, args = template
        return self._intern(op, tuple([self._term_id(a, values) for a in args]))

    # -- levels -------------------------------------------------------------

    def _next_universe_size(self) -> int:
        if self.level < 0:
            return len(self.constants)
        n = len(self.universe)
        return len(self.constants) + sum(n**arity for _, arity in self.functions)

    def _instances(self, size: int) -> int:
        return sum(size ** len(names) for names in self.variables)

    @property
    def solving(self) -> bool:
        """True while a grounded level awaits the solver's answer."""
        return self.solver is not None

    def _ground_level(self) -> None:
        """Ground the next level into a fresh solver; TimeoutError past the deadline."""
        if self.templates is None:
            self.templates = [
                [
                    (lit.positive, lit.pred, tuple(self._template(a, names) for a in lit.args))
                    for lit in c.literals
                ]
                for c, names in zip(self.clauses, self.variables)
            ]
        universe = list(self.constants)
        if self.level >= 0:
            for name, arity in self.functions:
                for args in product(self.universe, repeat=arity):
                    universe.append(self._intern(name, args))
        atom_ids = self.atom_ids
        atom_keys = self.atom_keys
        negated = self.negated
        term_id = self._term_id
        deadline = self.deadline
        # the literals of each instance, at its enumeration ordinal
        ground: list[list[int] | None] = []
        count = 0
        for names, literals in zip(self.variables, self.templates):
            for values in product(universe, repeat=len(names)):
                count += 1
                if count & 1023 == 0 and deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(f"grounding level {self.level + 1} ran past its deadline")
                lits = []
                for positive, pred, args in literals:
                    key = (pred, tuple([
                        (values[a] if a >= 0 else ~a) if type(a) is int else term_id(a, values)
                        for a in args
                    ]))
                    atom = atom_ids.get(key)
                    if atom is None:
                        atom_keys.append(key)
                        atom = atom_ids[key] = len(atom_keys)
                        negated.append(-atom)
                    lits.append(atom if positive else negated[atom])
                ground.append(lits)
        solver = CdclSolver(len(atom_keys))
        kept: list[list[int]] = []
        ordinals = array("q")
        # add_clause drops tautologies and repeated literals, and keeps its own copy
        for ordinal, lits in enumerate(ground):
            ground[ordinal] = None
            clause = solver.add_clause(lits)
            if clause is not None:
                kept.append(clause)
                ordinals.append(ordinal)
        self.level += 1
        self.universe = universe
        self.enumerated += count
        self.kept = kept
        self.ordinals = ordinals
        self.solver = solver

    def _instance(self, ordinal: int) -> tuple[int, tuple[int, ...], list[int]]:
        """The clause index, term per variable and literals of the loaded level's instance.

        ordinal counts the instances in the order _ground_level
        enumerates them: clause by clause, and within a clause in the
        order of product over the universe, the last variable fastest.
        """
        size = len(self.universe)
        index = 0
        while ordinal >= size ** len(self.variables[index]):
            ordinal -= size ** len(self.variables[index])
            index += 1
        digits = []
        for _ in self.variables[index]:
            ordinal, digit = divmod(ordinal, size)
            digits.append(self.universe[digit])
        values = tuple(reversed(digits))
        lits = []
        assert self.templates is not None
        for positive, pred, args in self.templates[index]:
            atom = self.atom_ids[pred, tuple([self._term_id(a, values) for a in args])]
            lits.append(atom if positive else -atom)
        return index, values, list(dict.fromkeys(lits))

    def step(self, max_conflicts: int = 2000) -> GroundingResult | None:
        """Ground the next level if none is loaded, then solve up to max_conflicts."""
        if self.result is None:
            self.result = self._step(max_conflicts)
        return self.result

    def _step(self, max_conflicts: int) -> GroundingResult | None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            return ResourceOut("time-limit")
        if self.solver is None:
            size = self._instances(self._next_universe_size())
            if self.max_clauses is not None and size > self.max_clauses:
                return ResourceOut("clause-limit")
            try:
                self._ground_level()
            except TimeoutError:
                return ResourceOut("time-limit")
        assert self.solver is not None
        verdict = self.solver.solve(max_conflicts)
        if verdict is None:
            return None
        if not verdict:
            return Refutation(self._derivation())
        self.solver = None
        self.kept = []
        self.ordinals = array("q")
        if not self.functions:
            return Saturated()
        return None

    # -- the refutation -----------------------------------------------------

    def _term(self, tid: int, cache: dict[int, Term]) -> Term:
        term = cache.get(tid)
        if term is None:
            op, args = self.term_keys[tid]
            term = cache[tid] = App(op, tuple(self._term(a, cache) for a in args))
        return term

    def _derivation(self) -> Derivation:
        """The refutation the loaded level's solver found, replayed as checkable steps.

        Each learned clause is its chain's resolvent less some literals
        false at level 0: those that the solver dropped from an input
        clause or that its analysis skipped.  Resolving each with its
        level-0 reason, latest on the trail first, removes them, and
        the same from the final conflict leaves the empty clause.
        """
        solver = self.solver
        assert solver is not None
        reasons = solver.reason
        at = {-lit: index for index, lit in enumerate(solver.trail)}  # all at level 0
        terms: dict[int, Term] = {}
        literals: dict[int, Literal] = {}
        supply = VariableSupply()
        steps: dict[int, Step] = {}
        # id of a solver clause -> (step id, ground literals, bindings the step still needs)
        derived: dict[int, tuple[int, list[int], dict[str, Term]]] = {}
        # the ordinal of each kept clause the replay may cite: those in a
        # chain, the level-0 reasons and the final conflict
        cited = {id(c) for chain in solver.chains for c in chain}
        cited.update(id(reasons[abs(lit)]) for lit in solver.trail)
        cited.add(id(solver.conflict))
        ordinal_of = {
            id(kept): ordinal
            for kept, ordinal in zip(self.kept, self.ordinals)
            if id(kept) in cited
        }

        def literal(lit: int) -> Literal:
            got = literals.get(lit)
            if got is None:
                pred, args = self.atom_keys[abs(lit) - 1]
                got = literals[lit] = Literal(
                    lit > 0, pred, tuple(self._term(a, terms) for a in args)
                )
            return got

        def add(clause: Clause, rule) -> int:
            sid = len(steps) + 1
            steps[sid] = Step(sid, clause, rule)
            return sid

        def instance(ordinal: int) -> tuple[int, list[int], dict[str, Term]]:
            index, values, lits = self._instance(ordinal)
            c = self.clauses[index]
            label = ",".join(c.labels) if c.labels else "input"
            if c.ground:
                return add(c, Input(label)), lits, {}
            fresh = {name: Var(supply.fresh()) for name in self.variables[index]}
            renamed = c.substitute(fresh)
            bindings = {
                fresh[name].name: self._term(tid, terms)
                for name, tid in zip(self.variables[index], values)
            }
            sid = add(renamed, Input(label))
            if len(lits) == len(c.literals):
                return sid, lits, bindings
            # literals merge: one factoring step grounds the instance
            instances = [lit.substitute(bindings) for lit in renamed.literals]
            i, j = next(
                (i, j)
                for i in range(len(instances))
                for j in range(i + 1, len(instances))
                if instances[i] == instances[j]
            )
            sid = add(Clause(instances), Factoring(sid, (i, j), Substitution(bindings)))
            return sid, lits, {}

        def clause_of(kept: list[int]) -> tuple[int, list[int], dict[str, Term]]:
            got = derived.get(id(kept))
            if got is None:
                got = derived[id(kept)] = instance(ordinal_of[id(kept)])
            return got

        def resolve(first, second, pivot: int) -> tuple[int, list[int], dict[str, Term]]:
            sid1, lits1, bind1 = first
            sid2, lits2, bind2 = second
            i, j = lits1.index(-pivot), lits2.index(pivot)
            lits = list(dict.fromkeys(
                [l for l in lits1 if l != -pivot] + [l for l in lits2 if l != pivot]
            ))
            rule = Resolution((sid1, sid2), (i, j), Substitution({**bind1, **bind2}))
            return add(Clause([literal(l) for l in lits]), rule), lits, {}

        def settle(current, keep: list[int]) -> tuple[int, list[int], dict[str, Term]]:
            """Resolve away current's literals outside keep, all false at level 0."""
            while True:
                extra = [lit for lit in current[1] if lit not in keep]
                if not extra:
                    return current
                lit = max(extra, key=at.__getitem__)
                current = resolve(current, clause_of(reasons[abs(lit)]), -lit)

        for learned, chain in zip(solver.learned, solver.chains):
            current = clause_of(chain[0])
            for reason in chain[1:]:
                other = clause_of(reason)
                pivot = next(lit for lit in other[1] if -lit in current[1])
                current = resolve(current, other, pivot)
            derived[id(learned)] = settle(current, learned)
        assert solver.conflict is not None
        return extract_derivation(steps, settle(clause_of(solver.conflict), [])[0])
