"""Given-clause refutation prover: ordered resolution with selection.

The calculus is the one of Bachmair & Ganzinger ("Resolution Theorem
Proving", Handbook of Automated Reasoning, 2001).  A clause with
negative literals selects the one whose predicate ranks highest in the
precedence, and resolves only on it; an all-positive clause resolves,
and factors, only on literals that are maximal under a Knuth-Bendix
ordering (kbo_greater) whose precedence comes from the input clauses
(symbol_precedence).  This calculus is refutationally complete: a
saturated clause set without the empty clause is satisfiable.

Prover runs an Otter-style loop, resumable in slices, selecting clauses
by weight with every fifth selection by age; saturate() runs it to the
end.  Each generated clause is simplified before it is kept, by
redundancy eliminations the calculus tolerates:

- tautology deletion;
- forward unit deletion: a literal L goes when a kept unit clause {M}
  of the opposite sign matches onto it, since resolving with {M} then
  removes L and instantiates nothing else;
- forward subsumption.

Refutations come with a Derivation whose steps are independently
re-checkable by check_derivation(), which checks that each step is a
sound resolution or factoring step and does not care which calculus
chose it.  A unit deletion is recorded as a resolution step of the
clause against the unit.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Union

from .clausal import (
    Clause,
    Literal,
    VariableSupply,
    clause_str,
    rename_clause,
)
from .syntax import App, Substitution, Term, Var, apply_to_term, term_variables

# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mgu:
    substitution: Substitution


@dataclass(frozen=True)
class Clash:
    pass


@dataclass(frozen=True)
class OccursCheckFailure:
    pass


UnificationResult = Union[Mgu, Clash, OccursCheckFailure]


def _walk(t: Term, s: dict[str, Term]) -> Term:
    while isinstance(t, Var):
        bound = s.get(t.name)
        if bound is None:
            return t
        t = bound
    return t


def _occurs(name: str, t: Term, s: dict[str, Term]) -> bool:
    stack = [t]
    while stack:
        cur = _walk(stack.pop(), s)
        if isinstance(cur, Var):
            if cur.name == name:
                return True
        else:
            stack.extend(cur.args)  # type: ignore[union-attr]
    return False


def _unify_into(a: Term, b: Term, s: dict[str, Term]) -> str | None:
    """Extend s to unify a and b; returns None, 'clash' or 'occurs'."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = _walk(x, s)
        y = _walk(y, s)
        if isinstance(x, Var):
            if isinstance(y, Var) and y.name == x.name:
                continue
            if _occurs(x.name, y, s):
                return "occurs"
            s[x.name] = y
            continue
        if isinstance(y, Var):
            if _occurs(y.name, x, s):
                return "occurs"
            s[y.name] = x
            continue
        assert isinstance(x, App) and isinstance(y, App)
        if x.op != y.op or len(x.args) != len(y.args):
            return "clash"
        stack.extend(zip(x.args, y.args))
    return None


def _resolve_term(t: Term, s: dict[str, Term]) -> Term:
    t = _walk(t, s)
    if isinstance(t, Var):
        return t
    assert isinstance(t, App)
    if not t.args:
        return t
    return App(t.op, tuple(_resolve_term(a, s) for a in t.args))


def _solved_form(s: dict[str, Term]) -> dict[str, Term]:
    return {v: _resolve_term(t, s) for v, t in s.items()}


def unify(a: Term, b: Term) -> UnificationResult:
    """Most general unifier of two terms, with occurs check."""
    s: dict[str, Term] = {}
    outcome = _unify_into(a, b, s)
    if outcome == "clash":
        return Clash()
    if outcome == "occurs":
        return OccursCheckFailure()
    return Mgu(Substitution(_solved_form(s)))


def _unify_args(xs: tuple[Term, ...], ys: tuple[Term, ...]) -> dict[str, Term] | None:
    """Unify argument tuples pairwise; returns the solved mgu or None."""
    if len(xs) != len(ys):
        return None
    s: dict[str, Term] = {}
    for x, y in zip(xs, ys):
        if _unify_into(x, y, s) is not None:
            return None
    return _solved_form(s)


# ---------------------------------------------------------------------------
# Matching (one-way) and subsumption
# ---------------------------------------------------------------------------

def _match_args(
    pargs: tuple[Term, ...],
    targs: tuple[Term, ...],
    bindings: dict[str, Term],
    trail: list[str],
) -> bool:
    # failed matches may leave bindings behind; the caller unwinds trail
    stack = list(zip(pargs, targs))
    while stack:
        p, t = stack.pop()
        if type(p) is Var:
            bound = bindings.get(p.name)
            if bound is None:
                bindings[p.name] = t
                trail.append(p.name)
                continue
            if bound != t:
                return False
            continue
        if type(t) is not App or p.op != t.op or len(p.args) != len(t.args):
            return False
        stack.extend(zip(p.args, t.args))
    return True


def _args_mgu(l1: Literal, l2: Literal) -> dict[str, Term] | None:
    """Solved mgu of the two literals' argument tuples, or None.

    When one side is ground, one-way matching of the other side onto it
    finds the same unifier as _unify_args: no occurs check can fail and
    every binding is already a ground term.
    """
    if not l2.has_var:
        if not l1.has_var:
            return {} if l1.args == l2.args else None
        pattern, target = l1.args, l2.args
    elif not l1.has_var:
        pattern, target = l2.args, l1.args
    else:
        return _unify_args(l1.args, l2.args)
    bindings: dict[str, Term] = {}
    if len(pattern) == len(target) and _match_args(pattern, target, bindings, []):
        return bindings
    return None


def _grouped(lits: tuple[Literal, ...]) -> dict[tuple[bool, str], list[tuple[int, Literal]]]:
    """Positions and literals keyed by (sign, predicate), in clause order."""
    groups: dict[tuple[bool, str], list[tuple[int, Literal]]] = {}
    for j, lit in enumerate(lits):
        groups.setdefault((lit.positive, lit.pred), []).append((j, lit))
    return groups


def _embed(
    c_lits: tuple[Literal, ...],
    d_groups: dict[tuple[bool, str], list[tuple[int, Literal]]],
    used: int,
    bindings: dict[str, Term],
    trail: list[str],
    deadline: float | None = None,
) -> bool:
    """Backtracking injective matcher mapping c_lits into unused literals of d.

    d_groups is _grouped(d.literals), so a caller matching many clauses
    into one d builds it once.  The backtracking can take time
    exponential in len(c_lits), so given a deadline, a value of
    time.monotonic(), it reads the clock once per 4,096 match attempts
    and raises TimeoutError once the deadline has passed.
    """
    n = len(c_lits)
    attempts = 0

    def extend(i: int, used: int) -> bool:
        nonlocal attempts
        if i == n:
            return True
        lit = c_lits[i]
        for j, cand in d_groups.get((lit.positive, lit.pred), ()):
            if used & (1 << j):
                continue
            attempts += 1
            if attempts & 4095 == 0 and deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("a subsumption query ran past its deadline")
            mark = len(trail)
            if _match_args(lit.args, cand.args, bindings, trail):
                if extend(i + 1, used | (1 << j)):
                    return True
            for k in range(len(trail) - 1, mark - 1, -1):
                del bindings[trail[k]]
            del trail[mark:]
        return False

    return extend(0, used)


def subsumes(c: Clause, d: Clause) -> bool:
    """True iff some instance of c is a sub-multiset of d.

    The length guard keeps subsumption compatible with completeness of
    resolution + factoring.
    """
    if len(c.literals) > len(d.literals):
        return False
    if c.ground:
        return c.lit_set <= d.lit_set
    return _embed(c.literals, _grouped(d.literals), 0, {}, [])


# ---------------------------------------------------------------------------
# Inference rules
# ---------------------------------------------------------------------------

def resolve(c1: Clause, c2: Clause) -> list[tuple[Clause, tuple[int, int], Substitution]]:
    """All binary resolvents of c1, c2 (which must be renamed apart).

    Each result is (resolvent, (i, j), mgu) where i indexes the literal
    resolved upon in c1 and j the one in c2.
    """
    out = []
    for i, l1 in enumerate(c1.literals):
        for j, l2 in enumerate(c2.literals):
            if l1.positive == l2.positive or l1.pred != l2.pred:
                continue
            mgu = _args_mgu(l1, l2)
            if mgu is None:
                continue
            out.append((_resolvent(c1, i, c2, j, mgu, {}), (i, j), Substitution(mgu)))
    return out


def _instance(lit: Literal, mgu: dict[str, Term], table: dict[tuple, Literal]) -> Literal:
    """lit under mgu, made once per (sign, predicate, args) in table."""
    if not lit.has_var:
        return lit
    args = tuple([apply_to_term(mgu, a) for a in lit.args])
    key = (lit.positive, lit.pred, args)
    out = table.get(key)
    if out is None:
        out = table[key] = Literal(lit.positive, lit.pred, args)
    return out


def _resolvent(
    c1: Clause, i: int, c2: Clause, j: int, mgu: dict[str, Term], table: dict[tuple, Literal]
) -> Clause:
    """c1 without literal i and c2 without literal j, both under mgu.

    Instantiated literals are interned in table, so that a literal built
    again is the same object and set lookups compare it by identity.
    """
    lits = [l for k, l in enumerate(c1.literals) if k != i]
    lits += [l for k, l in enumerate(c2.literals) if k != j]
    if mgu:
        lits = [_instance(l, mgu, table) for l in lits]
    labels = c1.labels + tuple(x for x in c2.labels if x not in c1.labels)
    return Clause(lits, labels)


def factor(
    c: Clause, positions: Iterable[int] | None = None
) -> list[tuple[Clause, tuple[int, int], Substitution]]:
    """Factors of c: unify two same-sign literals and merge.

    Only pairs among the given literal positions take part; by default
    every pair of the clause does.
    """
    out = []
    idx = tuple(range(len(c.literals)) if positions is None else positions)
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            l1, l2 = c.literals[i], c.literals[j]
            if l1.positive != l2.positive or l1.pred != l2.pred:
                continue
            mgu = _args_mgu(l1, l2)
            if mgu is None:
                continue
            out.append((c.substitute(mgu), (i, j), Substitution(mgu)))
    return out


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Input:
    label: str


@dataclass(frozen=True)
class Resolution:
    parents: tuple[int, int]
    positions: tuple[int, int]
    mgu: Substitution


@dataclass(frozen=True)
class Factoring:
    parent: int
    positions: tuple[int, int]
    mgu: Substitution


Rule = Union[Input, Resolution, Factoring]


@dataclass(frozen=True)
class Step:
    id: int
    clause: Clause
    rule: Rule


@dataclass
class Derivation:
    steps: list[Step] = field(default_factory=list)

    def is_refutation(self) -> bool:
        return bool(self.steps) and self.steps[-1].clause.is_empty()


def extract_derivation(steps: dict[int, Step], root: int) -> Derivation:
    """The steps root depends on, in id order, renumbered from 1."""
    needed: set[int] = set()
    stack = [root]
    while stack:
        cur = stack.pop()
        if cur in needed:
            continue
        needed.add(cur)
        rule = steps[cur].rule
        if isinstance(rule, Resolution):
            stack.extend(rule.parents)
        elif isinstance(rule, Factoring):
            stack.append(rule.parent)
    order = sorted(needed)
    renumber = {old: new for new, old in enumerate(order, start=1)}
    out: list[Step] = []
    for old in order:
        step = steps[old]
        rule = step.rule
        if isinstance(rule, Resolution):
            rule = Resolution(
                (renumber[rule.parents[0]], renumber[rule.parents[1]]),
                rule.positions,
                rule.mgu,
            )
        elif isinstance(rule, Factoring):
            rule = Factoring(renumber[rule.parent], rule.positions, rule.mgu)
        out.append(Step(renumber[old], step.clause, rule))
    return Derivation(out)


@dataclass
class Refutation:
    derivation: Derivation
    generated: int = 0


@dataclass
class Saturated:
    generated: int = 0


@dataclass
class ResourceOut:
    reason: str  # 'clause-limit' | 'time-limit'
    generated: int = 0


SaturationResult = Union[Refutation, Saturated, ResourceOut]


@dataclass
class Limits:
    """Resource bounds; None lifts a bound.  0 seconds runs out at once.

    max_clauses bounds the clauses saturation generates, and the ground
    instances that each Herbrand level of the grounder and each domain
    size of the model finder would enumerate; a level or size over it is
    not grounded.
    """

    max_clauses: int | None = 10**6
    max_seconds: float | None = 60.0

    def __post_init__(self):
        # NaN fails every comparison, so it would never run out
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError("max_seconds must be a number of seconds, at least 0")
        if self.max_clauses is not None and self.max_clauses < 0:
            raise ValueError("max_clauses must be at least 0")


def _variant_map(a: Clause, b: Clause) -> bool:
    """True iff b is a (literal-order-preserving) variable renaming of a."""
    if len(a.literals) != len(b.literals):
        return False
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}

    def terms(x: Term, y: Term) -> bool:
        stack = [(x, y)]
        while stack:
            s, t = stack.pop()
            if isinstance(s, Var):
                if not isinstance(t, Var):
                    return False
                if fwd.setdefault(s.name, t.name) != t.name:
                    return False
                if bwd.setdefault(t.name, s.name) != s.name:
                    return False
                continue
            if isinstance(t, Var):
                return False
            assert isinstance(s, App) and isinstance(t, App)
            if s.op != t.op or len(s.args) != len(t.args):
                return False
            stack.extend(zip(s.args, t.args))
        return True

    for la, lb in zip(a.literals, b.literals):
        if la.positive != lb.positive or la.pred != lb.pred:
            return False
        if len(la.args) != len(lb.args):
            return False
        if not all(terms(x, y) for x, y in zip(la.args, lb.args)):
            return False
    return True


def _prime_copy(c: Clause) -> Clause:
    # deterministic renaming for resolving a clause against itself
    mapping = {v: Var(v + "_p") for v in c.variables()}
    return c.substitute(mapping)


# ---------------------------------------------------------------------------
# Knuth-Bendix ordering on atoms
# ---------------------------------------------------------------------------

def symbol_precedence(clauses: Iterable[Clause]) -> dict[str, int]:
    """Rank every predicate and function symbol; higher ranks are greater.

    Rarer symbols rank higher ("invfreq"): the ordering then prefers to
    resolve on the literals that mention them, which are the fewest.
    Equally frequent symbols rank by first occurrence, earlier higher, so
    the precedence depends only on the clause list and never on hashing.
    """
    counts: dict[str, int] = {}
    for c in clauses:
        for lit in c.literals:
            counts[lit.pred] = counts.get(lit.pred, 0) + 1
            stack = list(lit.args)
            while stack:
                t = stack.pop()
                if type(t) is App:
                    counts[t.op] = counts.get(t.op, 0) + 1
                    stack.extend(t.args)
    first = {sym: i for i, sym in enumerate(counts)}
    order = sorted(counts, key=lambda sym: (-counts[sym], -first[sym]))
    return {sym: rank for rank, sym in enumerate(order)}


def _weigh(args: tuple[Term, ...], occurrences: dict[str, int]) -> int:
    """Symbol count of the terms; tallies variable occurrences on the side."""
    weight = 0
    stack = list(args)
    while stack:
        t = stack.pop()
        weight += 1
        if type(t) is Var:
            occurrences[t.name] = occurrences.get(t.name, 0) + 1
        else:
            stack.extend(t.args)  # type: ignore[union-attr]
    return weight


def kbo_greater(
    s_op: str,
    s_args: tuple[Term, ...],
    t_op: str,
    t_args: tuple[Term, ...],
    precedence: dict[str, int],
) -> bool:
    """Knuth-Bendix comparison of s_op(s_args) > t_op(t_args).

    Every symbol and variable weighs 1, so no unary symbol has weight 0
    and the ordering is the plain KBO: s > t iff s holds each variable
    at least as often as t and s is heavier, or equally heavy with a
    greater head symbol, or the same head and lexicographically greater
    arguments.  Atoms are compared as terms headed by their predicate.
    The ordering is stable under substitution and total on ground atoms
    when the precedence ranks every symbol they contain.
    """
    s_vars: dict[str, int] = {}
    t_vars: dict[str, int] = {}
    s_weight = _weigh(s_args, s_vars)
    t_weight = _weigh(t_args, t_vars)
    for name, n in t_vars.items():
        if s_vars.get(name, 0) < n:
            return False
    if s_weight != t_weight:
        return s_weight > t_weight
    if s_op != t_op:
        return precedence[s_op] > precedence[t_op]
    for a, b in zip(s_args, t_args):
        if a == b:
            continue
        if type(a) is Var:
            return False
        if type(b) is Var:
            return b.name in term_variables(a)
        return kbo_greater(a.op, a.args, b.op, b.args, precedence)  # type: ignore[union-attr]
    return False


def _eligible_indices(c: Clause, precedence: dict[str, int]) -> tuple[int, ...]:
    """Literal positions the search may resolve and factor on.

    This is ordered resolution with selection (Bachmair & Ganzinger,
    "Resolution Theorem Proving", 2001).  A clause with negative
    literals selects one of them, and resolves only on it: the one whose
    predicate ranks highest in the precedence (under invfreq, the rarest
    predicate, which has the fewest partners), ties going to the heavier
    literal and then to the leftmost.  A clause without negative
    literals selects nothing; it resolves and factors only on literals
    that no other literal of the clause exceeds in the Knuth-Bendix
    ordering (kbo_greater).  Every resolution thus pairs a selected
    negative literal with a maximal literal of an all-positive clause,
    and only all-positive clauses factor.

    The calculus asks for maximality after the unifier is applied.
    Because the ordering is stable under substitution, a literal that is
    smaller than another one before unification stays smaller after it,
    so this test before unification admits every inference the calculus
    needs (and a few more).  Any choice of one negative literal keeps
    the calculus refutationally complete, and so do the simplifications
    the loop performs: tautology deletion, forward unit deletion and
    forward subsumption.
    """
    literals = c.literals
    selected = -1
    best = (-1, -1)
    for i, lit in enumerate(literals):
        if not lit.positive:
            key = (precedence[lit.pred], lit._weight)
            if key > best:
                selected, best = i, key
    if selected >= 0:
        return (selected,)
    return tuple(
        i
        for i, lit in enumerate(literals)
        if not any(
            j != i
            and kbo_greater(other.pred, other.args, lit.pred, lit.args, precedence)
            for j, other in enumerate(literals)
        )
    )


# ---------------------------------------------------------------------------
# The given-clause loop
# ---------------------------------------------------------------------------

class _ClauseQueue:
    """Unprocessed clauses, retrievable by lowest weight or lowest id."""

    def __init__(self):
        self.by_weight: list[tuple[int, int]] = []
        self.by_age: list[int] = []
        self.alive: set[int] = set()

    def push(self, cid: int, weight: int) -> None:
        heapq.heappush(self.by_weight, (weight, cid))
        heapq.heappush(self.by_age, cid)
        self.alive.add(cid)

    def __bool__(self) -> bool:
        return bool(self.alive)

    def pop_lightest(self) -> int:
        while True:
            _, cid = heapq.heappop(self.by_weight)
            if cid in self.alive:
                self.alive.discard(cid)
                return cid

    def pop_oldest(self) -> int:
        while True:
            cid = heapq.heappop(self.by_age)
            if cid in self.alive:
                self.alive.discard(cid)
                return cid


class _SubsumptionIndex:
    """Forward-subsumption retrieval over the kept clause set.

    Ground clauses are bucketed under their first-seen least literal, so
    a query only probes buckets keyed by its own literals.  Non-ground
    clauses are bucketed by a (sign, predicate) bitmask and prefiltered
    by packed occurrence counts before the full matcher runs.

    The count prefilter packs, for every feature key, a 4-bit counter
    (clamped at 7) into one big integer.  A candidate c can only subsume
    d if every per-key count of c is covered by the count in d, which a
    single subtraction checks: each nibble of (d | high_bits) - c keeps
    its high bit exactly when the count in c fits into the count in d,
    and clamping only ever lets extra candidates through to the matcher.
    Two feature families are packed separately: literal (sign, predicate)
    pairs, and rigid argument heads (sign, predicate, position, function).
    A query past deadline, a value of time.monotonic(), raises
    TimeoutError from the matcher.
    """

    def __init__(self, deadline: float | None = None):
        self.deadline = deadline
        self.ground_exact: set = set()
        self.ground_buckets: dict = {}
        self.lit_rank: dict = {}
        self.mask_buckets: dict[int, list] = {}
        self.slot: dict = {}
        self.high_all = 0

    def _rank(self, lit) -> int:
        rank = self.lit_rank.get(lit)
        if rank is None:
            rank = len(self.lit_rank)
            self.lit_rank[lit] = rank
        return rank

    def _pack(self, c: Clause) -> tuple[int, int, int]:
        """Bitmask plus packed counts and their high-bit mask."""
        slot = self.slot
        counts: dict = {}
        for lit in c.literals:
            key = (lit.positive, lit.pred)
            counts[key] = counts.get(key, 0) + 1
            for pos, arg in enumerate(lit.args):
                if type(arg) is App:
                    rkey = (lit.positive, lit.pred, pos, arg.op)
                    counts[rkey] = counts.get(rkey, 0) + 1
        mask = 0
        packed = 0
        high = 0
        for key, n in counts.items():
            idx = slot.get(key)
            if idx is None:
                idx = len(slot)
                slot[key] = idx
                self.high_all |= 8 << (4 * idx)
            shift = 4 * idx
            if len(key) == 2:
                mask |= 1 << idx
            packed |= (n if n < 8 else 7) << shift
            high |= 8 << shift
        return mask, packed, high

    def add(self, c: Clause) -> None:
        if not c.literals:
            return
        if c.ground:
            self.ground_exact.add(c.lit_set)
            key = min(c.literals, key=self._rank)
            self.ground_buckets.setdefault(key, []).append(c)
            return
        mask, packed, high = self._pack(c)
        ground_part = frozenset(l for l in c.literals if not l.has_var)
        var_part = tuple(
            sorted(
                (l for l in c.literals if l.has_var),
                key=lambda l: -l._weight,
            )
        )
        entry = (c.weight(), packed, high, ground_part, var_part)
        lens, entries = self.mask_buckets.setdefault(mask, ([], []))
        clen = len(c.literals)
        at = bisect_right(lens, clen)
        lens.insert(at, clen)
        entries.insert(at, entry)

    def subsumed(self, d: Clause) -> bool:
        dlen = len(d.literals)
        dset = d.lit_set
        if d.ground and dset in self.ground_exact:
            return True
        get_ground = self.ground_buckets.get
        for lit in d.literals:
            for c in get_ground(lit, ()):
                if len(c.literals) <= dlen and c.lit_set <= dset:
                    return True
        dmask, dpacked, _ = self._pack(d)
        dweight = d.weight()
        dlifted = dpacked | self.high_all
        d_lits = d.literals
        d_groups = None
        for mask, (lens, entries) in self.mask_buckets.items():
            if mask & ~dmask:
                continue
            for at in range(bisect_right(lens, dlen)):
                cweight, packed, high, ground_part, var_part = entries[at]
                if cweight > dweight:
                    continue
                if (dlifted - packed) & high != high:
                    continue
                used = 0
                if ground_part:
                    if not ground_part <= dset:
                        continue
                    # ground literals can only sit on their own copies, so
                    # claim those positions before matching the rest
                    for j, dl in enumerate(d_lits):
                        if dl in ground_part:
                            used |= 1 << j
                if d_groups is None:
                    d_groups = _grouped(d_lits)
                if _embed(var_part, d_groups, used, {}, [], self.deadline):
                    return True
        return False


class Prover:
    """Resumable given-clause search for a refutation of a clause set.

    step() processes a bounded number of given clauses and returns None
    while undecided, so callers can interleave saturation with other
    work, as with models.ModelSearch.step.  Once a step returns a
    result, every later step returns that same result.  Inputs are
    renamed apart on intake.  The time limit counts from construction.
    The search reads the clock at each selection and once per 256
    generated clauses, and a forward-subsumption query once per 4,096
    match attempts; past the limit, it ends as ResourceOut("time-limit").
    """

    def __init__(self, clauses: Iterable[Clause], limits: Limits | None = None):
        self.limits = limits or Limits()
        max_seconds = self.limits.max_seconds
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds
        self.supply = VariableSupply()
        self.steps: dict[int, Step] = {}
        self.clauses: dict[int, Clause] = {}
        self.queue = _ClauseQueue()
        self.next_id = 1
        self.generated = 0
        self.selections = 0
        inputs = list(clauses)
        self.precedence = symbol_precedence(inputs)
        self.subsumption = _SubsumptionIndex(self.deadline)
        # (sign, pred) -> [(clause id, literal index)] over processed clauses
        self.occurrences: dict[tuple[bool, str], list[tuple[int, int]]] = {}
        # literals built by resolvents, by (sign, predicate, args)
        self.literal_table: dict[tuple, Literal] = {}
        # kept unit clauses: ground ones by the literal they refute, the
        # others by the (sign, predicate) of the literals they can refute
        self.ground_units: dict[Literal, int] = {}
        self.nonground_units: dict[tuple[bool, str], list[tuple[int, Literal]]] = {}
        self.result: SaturationResult | None = self._intake(inputs)

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def is_redundant(self, c: Clause) -> bool:
        # forward subsumption only, so every stored clause is still live
        if c.is_tautology():
            return True
        try:
            return self.subsumption.subsumed(c)
        except TimeoutError:
            return False  # keeping a clause is always sound, and _search stops on the clock

    def keep(self, c: Clause, rule: Rule) -> Step:
        cid = self.next_id
        self.next_id += 1
        stored = rename_clause(c, self.supply)
        step = Step(cid, stored, rule)
        self.steps[cid] = step
        self.clauses[cid] = stored
        self.queue.push(cid, stored.weight())
        self.subsumption.add(stored)
        if len(stored.literals) == 1:
            unit = stored.literals[0]
            if unit.has_var:
                key = (not unit.positive, unit.pred)
                self.nonground_units.setdefault(key, []).append((cid, unit))
            else:
                self.ground_units.setdefault(unit.negate(), cid)
        return step

    def _refuting_unit(self, lit: Literal) -> int | None:
        """Id of a kept unit {M} whose negation matches onto lit, if any."""
        uid = self.ground_units.get(lit)
        if uid is not None:
            return uid
        for uid, unit in self.nonground_units.get((lit.positive, lit.pred), ()):
            if _match_args(unit.args, lit.args, {}, []):
                return uid
        return None

    def _unit_deletions(self, c: Clause) -> tuple[Clause, list[tuple[int, int]]]:
        """c without the literals that kept units refute, and the cuts made.

        Each cut is (position in c, id of the unit).  Deleting L from c
        by the unit {M} is the resolvent of c and {M} on L, since M
        matches onto the complement of L without instantiating c.  The
        result serves the subsumption test; _record_deletions builds the
        clause that is kept, with its steps.
        """
        cuts: list[tuple[int, int]] = []
        for k, lit in enumerate(c.literals):
            uid = self._refuting_unit(lit)
            if uid is not None:
                cuts.append((k, uid))
        if not cuts:
            return c, cuts
        cut = {k for k, _ in cuts}
        return Clause([lit for k, lit in enumerate(c.literals) if k not in cut]), cuts

    def _record_deletions(
        self, c: Clause, rule: Rule, cuts: list[tuple[int, int]]
    ) -> tuple[Clause, Rule]:
        """Store c and each unit deletion as steps; returns the last clause.

        c is renamed apart first: a non-ground unit may share variable
        names with a clause derived from it, and the recorded matcher
        would then instantiate c as well.
        """
        current = rename_clause(c, self.supply)
        for done, (k, uid) in enumerate(cuts):
            sid = self.next_id
            self.next_id += 1
            self.steps[sid] = Step(sid, current, rule)
            at = k - done
            unit = self.clauses[uid]
            bindings: dict[str, Term] = {}
            _match_args(unit.literals[0].args, current.literals[at].args, bindings, [])
            current = _resolvent(current, at, unit, 0, {}, self.literal_table)
            rule = Resolution((sid, uid), (at, 0), Substitution(bindings))
        return current, rule

    def extract(self, root: int) -> Derivation:
        return extract_derivation(self.steps, root)

    def _intake(self, inputs: list[Clause]) -> SaturationResult | None:
        """Load the input clauses; reports a refutation if one is empty."""
        for c in inputs:
            label = ",".join(c.labels) if c.labels else "input"
            if c.is_empty():
                step = self.keep(c, Input(label))
                return Refutation(self.extract(step.id), self.generated)
            if not self.is_redundant(c):
                self.keep(c, Input(label))
        return None

    def step(self, max_selections: int | None = None) -> SaturationResult | None:
        """Process up to max_selections given clauses; None means call again.

        Without a bound the search runs to a result and never returns None.
        """
        if self.result is None:
            self.result = self._search(max_selections)
        return self.result

    def _search(self, max_selections: int | None) -> SaturationResult | None:
        max_clauses = self.limits.max_clauses
        done = 0
        while self.queue:
            if self.out_of_time():
                return ResourceOut("time-limit", self.generated)
            if max_selections is not None and done >= max_selections:
                return None
            done += 1
            self.selections += 1
            if self.selections % 5 == 0:
                given_id = self.queue.pop_oldest()
            else:
                given_id = self.queue.pop_lightest()
            given = self.clauses[given_id]

            # rule payload: (is_factoring, parents, positions, mgu mapping)
            # the occurrence index holds only eligible positions of processed
            # clauses, so each resolution pairs a selected negative literal
            # with a maximal literal of an all-positive clause; no clause is
            # both, so the given clause needs no inference with its own copy
            eligible = _eligible_indices(given, self.precedence)
            results: list[tuple[Clause, tuple]] = []
            for i in eligible:
                lit = given.literals[i]
                for pid, j in self.occurrences.get((not lit.positive, lit.pred), ()):
                    partner = self.clauses[pid]
                    mgu = _args_mgu(lit, partner.literals[j])
                    if mgu is None:
                        continue
                    results.append(
                        (
                            _resolvent(given, i, partner, j, mgu, self.literal_table),
                            (False, (given_id, pid), (i, j), mgu),
                        )
                    )
            if given.literals[eligible[0]].positive:  # nothing selected
                for factored, (i, j), mgu in factor(given, eligible):
                    results.append((factored, (True, given_id, (i, j), mgu)))

            for i in eligible:
                lit = given.literals[i]
                self.occurrences.setdefault((lit.positive, lit.pred), []).append(
                    (given_id, i)
                )

            for clause, payload in results:
                self.generated += 1
                if max_clauses is not None and self.generated > max_clauses:
                    return ResourceOut("clause-limit", self.generated)
                if self.generated % 256 == 0 and self.out_of_time():
                    return ResourceOut("time-limit", self.generated)
                if clause.is_tautology():
                    continue
                simplified, cuts = self._unit_deletions(clause)
                try:
                    if simplified.literals and self.subsumption.subsumed(simplified):
                        continue
                except TimeoutError:
                    return ResourceOut("time-limit", self.generated)
                is_factoring, parents, positions, mgu = payload
                if is_factoring:
                    rule: Rule = Factoring(parents, positions, Substitution(mgu))
                else:
                    rule = Resolution(parents, positions, Substitution(mgu))
                if cuts:
                    simplified, rule = self._record_deletions(clause, rule, cuts)
                step = self.keep(simplified, rule)
                if simplified.is_empty():
                    return Refutation(self.extract(step.id), self.generated)
        return Saturated(self.generated)


def saturate(clauses: Iterable[Clause], limits: Limits | None = None) -> SaturationResult:
    """Saturate a clause set; inputs are renamed apart on intake."""
    return Prover(clauses, limits).step()  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Derivation checking
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    ok: bool
    failed_step: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_derivation(d: Derivation, inputs: Iterable[Clause]) -> CheckResult:
    """Re-derive every step; True only if all of them check out."""
    inputs = list(inputs)
    by_id: dict[int, Step] = {}
    for step in d.steps:
        rule = step.rule
        if step.id in by_id:
            return CheckResult(False, step.id, f"duplicate step id {step.id}")
        if isinstance(rule, Input):
            if not any(_variant_map(c, step.clause) for c in inputs):
                return CheckResult(
                    False, step.id, "input clause not among the given inputs"
                )
        elif isinstance(rule, Resolution):
            pid1, pid2 = rule.parents
            if pid1 not in by_id or pid2 not in by_id:
                return CheckResult(False, step.id, "parent id out of range")
            c1 = by_id[pid1].clause
            c2 = by_id[pid2].clause
            if pid1 == pid2:
                c2 = _prime_copy(c2)
            i, j = rule.positions
            if i >= len(c1.literals) or j >= len(c2.literals):
                return CheckResult(False, step.id, "literal position out of range")
            l1, l2 = c1.literals[i], c2.literals[j]
            if l1.positive == l2.positive or l1.pred != l2.pred:
                return CheckResult(
                    False, step.id, "resolved literals are not complementary"
                )
            mapping = dict(rule.mgu.bindings)
            if l1.substitute(mapping) != l2.substitute(mapping).negate():
                return CheckResult(
                    False, step.id, "recorded substitution does not unify the pair"
                )
            lits = [
                l.substitute(mapping) for k, l in enumerate(c1.literals) if k != i
            ]
            lits += [
                l.substitute(mapping) for k, l in enumerate(c2.literals) if k != j
            ]
            rebuilt = Clause(lits)
            if not _variant_map(rebuilt, step.clause):
                return CheckResult(
                    False, step.id, "recorded clause is not the derived resolvent"
                )
        elif isinstance(rule, Factoring):
            if rule.parent not in by_id:
                return CheckResult(False, step.id, "parent id out of range")
            c = by_id[rule.parent].clause
            i, j = rule.positions
            if i >= len(c.literals) or j >= len(c.literals) or i == j:
                return CheckResult(False, step.id, "literal positions out of range")
            l1, l2 = c.literals[i], c.literals[j]
            if l1.positive != l2.positive or l1.pred != l2.pred:
                return CheckResult(
                    False, step.id, "factored literals have different sign or symbol"
                )
            mapping = dict(rule.mgu.bindings)
            if l1.substitute(mapping) != l2.substitute(mapping):
                return CheckResult(
                    False, step.id, "recorded substitution does not unify the pair"
                )
            rebuilt = Clause(l.substitute(mapping) for l in c.literals)
            if not _variant_map(rebuilt, step.clause):
                return CheckResult(
                    False, step.id, "recorded clause is not the derived factor"
                )
        else:
            return CheckResult(False, step.id, f"unknown rule {rule!r}")
        by_id[step.id] = step
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Proof text
# ---------------------------------------------------------------------------

def _rule_str(rule: Rule) -> str:
    if isinstance(rule, Input):
        return f"input {rule.label}"
    if isinstance(rule, Resolution):
        return f"resolution {rule.parents[0]} {rule.parents[1]}"
    return f"factoring {rule.parent}"


def format_derivation(d: Derivation) -> str:
    """One line per step; a refutation ends with the `0. $false` line."""
    lines = []
    for step in d.steps:
        shown = 0 if step.clause.is_empty() else step.id
        lines.append(f"{shown}. {clause_str(step.clause)} [{_rule_str(step.rule)}]")
    return "\n".join(lines) + ("\n" if lines else "")
