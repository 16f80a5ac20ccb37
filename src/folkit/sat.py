"""Self-contained CDCL satisfiability solver for propositional clause sets.

Clauses are lists of nonzero signed variable indices.  The solver uses
two-watched-literal propagation, first-UIP clause learning, and a fixed
geometric restart schedule; all heuristics are deterministic so repeated
runs produce identical assignments.  The assignment and the watch lists
are indexed by literal, negative literals from the end of the list, so
reading a literal's value is a single list lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence, Union


class PropFormatError(ValueError):
    """Raised for malformed clause sets or DIMACS text."""


class PropClauseSet:
    """A propositional CNF problem over variables 1..n."""

    __slots__ = ("n", "clauses")

    def __init__(self, n: int, clauses: Iterable[Sequence[int]]):
        if n < 0:
            raise PropFormatError("variable count must be nonnegative")
        self.n = n
        self.clauses = [list(c) for c in clauses]
        for clause in self.clauses:
            for lit in clause:
                if lit == 0:
                    raise PropFormatError("literal 0 is not allowed")
                if abs(lit) > n:
                    raise PropFormatError(
                        f"literal {lit} exceeds variable count {n}"
                    )

    def __repr__(self):
        return f"PropClauseSet(n={self.n}, clauses={len(self.clauses)})"


@dataclass(frozen=True)
class Sat:
    assignment: dict[int, bool]


@dataclass(frozen=True)
class Unsat:
    pass


SatResult = Union[Sat, Unsat]


class CdclSolver:
    """Conflict-driven clause learning over variables 1..n.

    solve() accepts an optional conflict budget and returns None when the
    budget runs out, leaving the solver state intact so the search can be
    resumed later.  Branching picks the unassigned variable of highest
    activity (ties to the lowest index) and tries polarity false first.
    Restarts follow a geometric schedule: 100 conflicts, growing by 1.5.
    The branching order is a lazy heap of (-activity, variable) entries.
    queued[v] says the heap holds an entry with v's current activity.
    Only assigned variables are bumped, which clears the flag, and
    _backtrack pushes each variable it frees whose flag is clear, so
    every unassigned variable has a current entry.  Entries of assigned
    variables or older activities are dropped when they surface.

    Values and watch lists are indexed by literal: a list of length 2n+1
    holds the entry of literal l at index l, so a negative literal reads
    from the end of the list.  vals[l] is 1 when l is true, -1 when it is
    false and 0 when unset.

    learned lists every learned clause, units included, in the order
    learned, and chains[i] is the resolution _analyze did for
    learned[i]: the conflict clause, then the reason of each trail
    literal resolved on, latest first.  Each reason clashes with the
    resolvent so far on that literal alone, so the chain resolves to
    learned[i] plus literals false at level 0.  Every literal assigned
    at level 0 has a reason clause, and a unit clause, input or
    learned, is its own literal's reason.  conflict is the clause found
    false at level 0 once the clause set is refuted.  From these a
    refutation can be replayed without propagating again
    (grounding.Grounder does).  Watching reorders a clause's literals
    in place.
    """

    _RESTART_BASE = 100
    _RESTART_FACTOR = 1.5
    _ACTIVITY_DECAY = 0.95

    def __init__(self, n: int):
        self.n = n
        self.clauses: list[list[int]] = []
        self.learned: list[list[int]] = []
        self.chains: list[list[list[int]]] = []
        # watches[l] holds the clauses watching l, visited when l turns false
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.vals: list[int] = [0] * (2 * n + 1)
        self.level: list[int] = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.seen: list[bool] = [False] * (n + 1)  # scratch for _analyze
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: list[float] = [0.0] * (n + 1)
        self.order: list[tuple[float, int]] = [(-0.0, v) for v in range(1, n + 1)]
        self.queued: list[bool] = [True] * (n + 1)
        self.var_inc = 1.0
        self.qhead = 0
        self.conflicts = 0
        self.restart_limit = float(self._RESTART_BASE)
        self.conflicts_at_restart = 0
        self.conflict: list[int] | None = None  # false at level 0: refuted

    # -- assignment plumbing ------------------------------------------------

    def value(self, lit: int) -> int:
        return self.vals[lit]

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        var = abs(lit)
        self.vals[lit] = 1
        self.vals[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def add_clause(self, lits: Sequence[int]) -> list[int] | None:
        """Add an input clause, first backtracking to decision level 0.

        It keeps each literal's first occurrence, in order, less those
        false at level 0, and returns the list it keeps, the object that
        chains, reasons and conflict refer to.  Tautologies and satisfied
        clauses are dropped and give None, as does every clause once the
        set is refuted.  A kept clause left empty is the conflict.  A
        literal 0, or one whose variable is beyond n, raises
        PropFormatError, as PropClauseSet does.
        """
        if self.conflict is not None:
            return None
        self._backtrack(0)
        vals = self.vals
        n = self.n
        seen: set[int] = set()
        clause = []
        for lit in lits:
            if lit in seen:
                continue
            if lit == 0 or abs(lit) > n:
                raise PropFormatError(f"literal {lit} names no variable in 1..{n}")
            if -lit in seen or vals[lit] == 1:
                return None  # tautology, or already satisfied
            seen.add(lit)
            if vals[lit] == 0:
                clause.append(lit)
        if not clause:
            self.conflict = clause
        elif len(clause) == 1:
            self._enqueue(clause[0], clause)
            self.conflict = self._propagate()
        else:
            self._attach(clause)
        return clause

    def _attach(self, clause: list[int]) -> None:
        self.clauses.append(clause)
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- search -------------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        vals = self.vals
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        current = len(self.trail_lim)
        while self.qhead < len(trail):
            falsified = -trail[self.qhead]
            self.qhead += 1
            watching = watches[falsified]
            if not watching:
                continue
            # compact the clauses that keep this watch to the list's front
            kept = 0
            for idx, clause in enumerate(watching):
                # keep the falsified watch in clause[1]
                other = clause[0]
                if other == falsified:
                    other = clause[1]
                    clause[0] = other
                    clause[1] = falsified
                if vals[other] == 1:
                    watching[kept] = clause
                    kept += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if vals[lit] != -1:
                        clause[1] = lit
                        clause[k] = falsified
                        watches[lit].append(clause)
                        break
                else:
                    watching[kept] = clause
                    kept += 1
                    if vals[other] == -1:
                        del watching[kept : idx + 1]
                        return clause
                    vals[other] = 1
                    vals[-other] = -1
                    var = other if other > 0 else -other
                    level[var] = current
                    reason[var] = clause
                    trail.append(other)
            del watching[kept:]
        return None

    def _bump(self, var: int) -> None:
        activity = self.activity
        activity[var] += self.var_inc
        self.queued[var] = False
        if activity[var] > 1e100:
            for v in range(1, self.n + 1):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
            vals = self.vals
            self.queued = [False] + [vals[v] == 0 for v in range(1, self.n + 1)]
            self.order = [(-activity[v], v) for v in range(1, self.n + 1) if vals[v] == 0]
            heapify(self.order)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to; logs the clause and its chain."""
        learned = [0]
        chain = [confl]
        seen = self.seen
        marked: list[int] = []
        level = self.level
        trail = self.trail
        counter = 0
        lit = 0
        index = len(trail)
        cur_level = len(self.trail_lim)
        reason: list[int] | None = confl
        while True:
            assert reason is not None
            for q in reason:
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0 and q != lit:
                    seen[var] = True
                    marked.append(var)
                    self._bump(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                index -= 1
                lit = -trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[abs(lit)]
            chain.append(reason)
        for var in marked:
            seen[var] = False
        learned[0] = lit
        if len(learned) == 1:
            back_level = 0
        else:
            best = max(range(1, len(learned)), key=lambda i: level[abs(learned[i])])
            learned[1], learned[best] = learned[best], learned[1]
            back_level = level[abs(learned[1])]
        self.var_inc /= self._ACTIVITY_DECAY
        self.learned.append(learned)
        self.chains.append(chain)
        return learned, back_level

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        vals = self.vals
        reason = self.reason
        activity = self.activity
        order = self.order
        queued = self.queued
        for lit in reversed(self.trail[bound:]):
            var = lit if lit > 0 else -lit
            vals[lit] = 0
            vals[-lit] = 0
            reason[var] = None
            if not queued[var]:
                queued[var] = True
                heappush(order, (-activity[var], var))
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> int:
        """The unassigned variable of highest activity, lowest index on ties; 0 if none."""
        order = self.order
        vals = self.vals
        activity = self.activity
        while order:
            key, var = heappop(order)
            if -key == activity[var]:
                self.queued[var] = False
                if vals[var] == 0:
                    return var
        return 0

    def solve(self, max_conflicts: int | None = None) -> bool | None:
        """True = satisfiable, False = unsatisfiable, None = budget out."""
        if self.conflict is not None:
            return False
        spent = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                spent += 1
                if not self.trail_lim:
                    self.conflict = confl
                    return False
                learned, back_level = self._analyze(confl)
                self._backtrack(back_level)
                if len(learned) > 1:
                    self._attach(learned)
                self._enqueue(learned[0], learned)
                if self.conflicts - self.conflicts_at_restart >= self.restart_limit:
                    self.conflicts_at_restart = self.conflicts
                    self.restart_limit *= self._RESTART_FACTOR
                    self._backtrack(0)
                if max_conflicts is not None and spent >= max_conflicts:
                    self._backtrack(0)
                    return None
                continue
            var = self._decide()
            if var == 0:
                return True
            self.trail_lim.append(len(self.trail))
            self._enqueue(-var, None)  # polarity false first

    def assignment(self) -> dict[int, bool]:
        return {v: self.vals[v] == 1 for v in range(1, self.n + 1)}


def sat_solve(problem: PropClauseSet) -> SatResult:
    """Complete satisfiability decision for a propositional clause set."""
    solver = CdclSolver(problem.n)
    for clause in problem.clauses:
        solver.add_clause(clause)
    verdict = solver.solve()
    assert verdict is not None
    if not verdict:
        return Unsat()
    return Sat(solver.assignment())


def check_assignment(problem: PropClauseSet, assignment: dict[int, bool]) -> bool:
    """Independent evaluator: does the assignment satisfy every clause?"""
    for clause in problem.clauses:
        if not any(
            assignment.get(abs(lit), False) == (lit > 0) for lit in clause
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------

def parse_dimacs(text: str) -> PropClauseSet:
    """Read DIMACS CNF: a `p cnf vars clauses` header, 0-terminated clauses."""
    n = None
    declared = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise PropFormatError(f"bad DIMACS header: {line!r}")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise PropFormatError(f"bad DIMACS header: {line!r}") from None
            continue
        if n is None:
            raise PropFormatError("clause before DIMACS header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise PropFormatError(f"bad DIMACS token: {token!r}") from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        raise PropFormatError("unterminated clause at end of DIMACS input")
    if n is None:
        raise PropFormatError("missing DIMACS header")
    if declared is not None and declared != len(clauses):
        raise PropFormatError(
            f"header declares {declared} clauses, found {len(clauses)}"
        )
    return PropClauseSet(n, clauses)


def format_dimacs(problem: PropClauseSet) -> str:
    lines = [f"p cnf {problem.n} {len(problem.clauses)}"]
    for clause in problem.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
