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

A refutation is rebuilt from the solver's learned clauses as in Zhang &
Malik ("Validating SAT Solvers Using an Independent Resolution-Based
Checker", DATE 2003): each learned clause follows by unit propagation
from the clauses before it, so unit propagation backward from the final
conflict finds the learned clauses the proof uses and the resolution
chain of each.  Each ground instance enters the Derivation as a renamed
Input step whose substitution rides on the Resolution steps that use
it, after one Factoring step when its literals merge, so
check_derivation checks it like any saturation proof.
"""

from __future__ import annotations

import time
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
        self.templates = [
            [
                (lit.positive, lit.pred, tuple(self._template(a, names) for a in lit.args))
                for lit in c.literals
            ]
            for c, names in zip(self.clauses, self.variables)
        ]
        self.level = -1
        self.universe: list[int] = []  # terms of depth <= level
        self.enumerated = 0  # instances the levels grounded so far enumerated
        self.solver: CdclSolver | None = None
        self.ground: list[list[int]] = []  # the loaded level's instances
        self.origins: list[tuple[int, tuple[int, ...]]] = []  # (clause, term per variable)
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

    def cost(self) -> int:
        """Instances that the levels up to and including the next one enumerate."""
        return self.enumerated + self._instances(self._next_universe_size())

    @property
    def solving(self) -> bool:
        """True while a grounded level awaits the solver's answer."""
        return self.solver is not None

    def _ground_level(self) -> None:
        """Ground the next level into a fresh solver; TimeoutError past the deadline."""
        universe = list(self.constants)
        if self.level >= 0:
            for name, arity in self.functions:
                for args in product(self.universe, repeat=arity):
                    universe.append(self._intern(name, args))
        atom_ids = self.atom_ids
        atom_keys = self.atom_keys
        term_id = self._term_id
        deadline = self.deadline
        ground: list[list[int]] = []
        origins: list[tuple[int, tuple[int, ...]]] = []
        count = 0
        for index, (names, templates) in enumerate(zip(self.variables, self.templates)):
            for values in product(universe, repeat=len(names)):
                count += 1
                if count & 1023 == 0 and deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(f"grounding level {self.level + 1} ran past its deadline")
                lits = []
                for positive, pred, args in templates:
                    key = (pred, tuple([
                        (values[a] if a >= 0 else ~a) if type(a) is int else term_id(a, values)
                        for a in args
                    ]))
                    atom = atom_ids.get(key)
                    if atom is None:
                        atom_keys.append(key)
                        atom = atom_ids[key] = len(atom_keys)
                    lits.append(atom if positive else -atom)
                distinct = set(lits)
                if any(-lit in distinct for lit in lits):
                    continue  # a tautology
                if len(distinct) < len(lits):
                    lits = list(dict.fromkeys(lits))
                ground.append(lits)
                origins.append((index, values))
        solver = CdclSolver(len(atom_keys))
        for lits in ground:
            solver.add_clause(lits)
        self.level += 1
        self.universe = universe
        self.enumerated += count
        self.ground = ground
        self.origins = origins
        self.solver = solver

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
        self.ground, self.origins = [], []
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
        """The refutation the loaded level's solver found, as checkable steps."""
        assert self.solver is not None
        db = self.ground + self.solver.learned
        chains = _rup_chains(db, len(self.ground), len(self.atom_keys))
        terms: dict[int, Term] = {}
        literals: dict[int, Literal] = {}
        supply = VariableSupply()
        steps: dict[int, Step] = {}
        # clause id -> (step id, ground literals, bindings the step still needs)
        derived: dict[int, tuple[int, list[int], dict[str, Term]]] = {}

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

        def instance(cid: int) -> tuple[int, list[int], dict[str, Term]]:
            index, values = self.origins[cid]
            c = self.clauses[index]
            label = ",".join(c.labels) if c.labels else "input"
            lits = self.ground[cid]
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

        def clause_of(cid: int) -> tuple[int, list[int], dict[str, Term]]:
            got = derived.get(cid)
            if got is None:
                got = derived[cid] = instance(cid)
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

        for target in reversed(chains):  # learned clauses in order, the empty one last
            conflict, chain = chains[target]
            current = clause_of(conflict)
            for lit, reason in chain:
                if -lit not in current[1]:
                    continue  # a stronger clause than learned already left it out
                other = clause_of(reason)
                current = resolve(current, other, lit) if lit in other[1] else other
            if not current[1]:
                return extract_derivation(steps, current[0])
            derived[target] = current  # type: ignore[index]
        raise RuntimeError("the rebuilt refutation does not reach the empty clause")


def _rup_chains(
    db: list[list[int]], first_learned: int, n: int
) -> dict[int | None, tuple[int, list[tuple[int, int]]]]:
    """Resolution chains for the empty clause (key None) and the learned clauses it needs.

    db holds the input clauses, then the learned ones from first_learned
    on, each implied by unit propagation from the clauses before it.
    For a target clause C, propagation from the negation of C over those
    clauses reaches a conflicting clause; resolving it with the reasons
    of the propagated literals, latest first, leaves a subset of C.  The
    chain is that conflict and those (literal, reason) pairs.  Targets
    are checked backward from the empty clause over all of db, and a
    learned clause only when a later chain uses it.
    """
    clauses = [list(c) for c in db]  # own copies: watching reorders literals
    watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
    units: list[int] = []
    empty: list[int] = []
    for cid, c in enumerate(clauses):
        if len(c) >= 2:
            watches[c[0]].append(cid)
            watches[c[1]].append(cid)
        elif c:
            units.append(cid)
        else:
            empty.append(cid)
    vals = [0] * (2 * n + 1)
    reason = [-1] * (n + 1)  # -1 marks an assumption

    def propagate(target: list[int], limit: int, trail: list[int]) -> int | None:
        """The id of a clause below limit that propagation falsifies, or None."""

        def assign(lit: int, why: int) -> None:
            vals[lit] = 1
            vals[-lit] = -1
            reason[abs(lit)] = why
            trail.append(lit)

        for cid in empty:
            if cid < limit:
                return cid
        for lit in target:
            if vals[-lit] == 0:
                assign(-lit, -1)
        for cid in units:
            if cid >= limit:
                break
            lit = clauses[cid][0]
            if vals[lit] == -1:
                return cid
            if vals[lit] == 0:
                assign(lit, cid)
        qhead = 0
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            watching = watches[falsified]
            kept = 0
            at = 0
            size = len(watching)
            while at < size:
                cid = watching[at]
                at += 1
                c = clauses[cid]
                if cid >= limit:
                    watching[kept] = cid
                    kept += 1
                    continue
                if c[0] == falsified:
                    c[0], c[1] = c[1], falsified
                other = c[0]
                if vals[other] == 1:
                    watching[kept] = cid
                    kept += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if vals[lit] != -1:
                        c[1], c[k] = lit, falsified
                        watches[lit].append(cid)
                        break
                else:
                    watching[kept] = cid
                    kept += 1
                    if vals[other] == -1:
                        del watching[kept:at]
                        return cid
                    assign(other, cid)
            del watching[kept:]
        return None

    chains: dict[int | None, tuple[int, list[tuple[int, int]]]] = {}
    needed: set[int] = set()
    targets: list[int | None] = [None] + list(range(len(db) - 1, first_learned - 1, -1))
    for target in targets:
        if target is not None and target not in needed:
            continue
        trail: list[int] = []
        limit = len(db) if target is None else target
        conflict = propagate([] if target is None else clauses[target], limit, trail)
        try:
            if conflict is None:
                raise RuntimeError("a learned clause does not follow by unit propagation")
            marked = {abs(lit) for lit in clauses[conflict]}
            chain: list[tuple[int, int]] = []
            for lit in reversed(trail):
                var = abs(lit)
                if var not in marked or reason[var] < 0:
                    continue
                chain.append((lit, reason[var]))
                marked.update(abs(q) for q in clauses[reason[var]])
        finally:
            for lit in trail:
                vals[lit] = vals[-lit] = 0
        needed.add(conflict)
        needed.update(r for _, r in chain)
        chains[target] = (conflict, chain)
    return chains
