"""Clausal form: literals, clauses, and the CNF transformation.

clausify() turns closed formulas into an equisatisfiable clause set in
four walks: negation normal form, which also evaluates $true/$false
away; Skolemization, which also gives every universal binder its own
name; stripping the universals; and distribution.  Equality is handled
by axiomatization (equality_axioms), not by paramodulation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .syntax import (
    And,
    App,
    Atom,
    Equal,
    Exists,
    FALSE,
    Falsity,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    TRUE,
    Term,
    Truth,
    Var,
    apply_to_term,
    signature_of,
    term_str,
    term_variables,
)

EQ = "="  # reserved predicate name for equality literals


def _args_have_var(args: tuple[Term, ...]) -> bool:
    stack = list(args)
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            return True
        stack.extend(t.args)  # type: ignore[union-attr]
    return False


class Literal:
    """A possibly negated atom; pred == "=" marks equality literals."""

    __slots__ = ("positive", "pred", "args", "has_var", "_weight", "_hash")

    def __init__(self, positive: bool, pred: str, args: Sequence[Term] = ()):
        object.__setattr__(self, "positive", bool(positive))
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "has_var", _args_have_var(self.args))
        object.__setattr__(
            self, "_weight", 1 + sum(a.size if type(a) is App else 1 for a in self.args)
        )
        object.__setattr__(
            self, "_hash", hash((self.positive, self.pred, self.args))
        )

    def __setattr__(self, key, value):
        raise AttributeError("Literal is immutable")

    def __eq__(self, other):
        return (
            type(other) is Literal
            and self._hash == other._hash
            and self.positive == other.positive
            and self.pred == other.pred
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.pred, self.args)

    def is_equality(self) -> bool:
        return self.pred == EQ

    @property
    def atom(self) -> Formula:
        if self.pred == EQ:
            return Equal(self.args[0], self.args[1])
        return Atom(self.pred, self.args)

    def substitute(self, mapping: Mapping[str, Term]) -> "Literal":
        if not self.has_var or not mapping:
            return self
        return Literal(
            self.positive, self.pred, tuple(apply_to_term(mapping, a) for a in self.args)
        )

    def weight(self) -> int:
        return self._weight

    def variables(self) -> set[str]:
        return set().union(*map(term_variables, self.args))

    def __repr__(self):
        return f"Literal({literal_str(self)!r})"


def literal_str(lit: Literal) -> str:
    if lit.pred == EQ:
        op = "=" if lit.positive else "!="
        return f"{term_str(lit.args[0])} {op} {term_str(lit.args[1])}"
    body = lit.pred if not lit.args else f"{lit.pred}({','.join(term_str(a) for a in lit.args)})"
    return body if lit.positive else "~" + body


class Clause:
    """A disjunction of literals, implicitly universally quantified.

    Duplicate literals are removed on construction (first occurrence
    kept).  The empty clause denotes contradiction.  Equality ignores
    provenance labels.
    """

    __slots__ = ("literals", "labels", "lit_set", "ground", "_weight")

    def __init__(self, literals: Iterable[Literal], labels: Sequence[str] = ()):
        lits = tuple(literals)
        lit_set = frozenset(lits)
        if len(lit_set) < len(lits):
            seen: set[Literal] = set()
            kept: list[Literal] = []
            for lit in lits:
                if lit not in seen:
                    seen.add(lit)
                    kept.append(lit)
            lits = tuple(kept)
        ground = True
        weight = 0
        for lit in lits:
            weight += lit._weight
            if lit.has_var:
                ground = False
        object.__setattr__(self, "literals", lits)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "lit_set", lit_set)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "_weight", weight)

    def __setattr__(self, key, value):
        raise AttributeError("Clause is immutable")

    def __eq__(self, other):
        return type(other) is Clause and self.literals == other.literals

    def __hash__(self):
        return hash(self.literals)

    def __len__(self):
        return len(self.literals)

    def is_empty(self) -> bool:
        return not self.literals

    def is_tautology(self) -> bool:
        signs: dict[tuple, bool] = {}
        for lit in self.literals:
            if lit.positive and lit.pred == EQ and lit.args[0] == lit.args[1]:
                return True
            if signs.setdefault((lit.pred, lit.args), lit.positive) != lit.positive:
                return True
        return False

    def variables(self) -> set[str]:
        out: set[str] = set()
        for lit in self.literals:
            out |= lit.variables()
        return out

    def weight(self) -> int:
        return self._weight

    def substitute(self, mapping: Mapping[str, Term]) -> "Clause":
        if self.ground:
            return self
        return Clause((l.substitute(mapping) for l in self.literals), self.labels)

    def __repr__(self):
        return f"Clause({clause_str(self)!r})"


def clause_str(c: Clause) -> str:
    if not c.literals:
        return "$false"
    return " | ".join(literal_str(l) for l in c.literals)


def dump_clauses(clauses: Iterable[Clause]) -> str:
    """One clause per line: `label: lit | lit | ...`."""
    lines = []
    for c in clauses:
        label = ",".join(c.labels) if c.labels else "-"
        lines.append(f"{label}: {clause_str(c)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Renaming clauses apart
# ---------------------------------------------------------------------------

class VariableSupply:
    """Dispenses globally fresh variable names X0, X1, ..."""

    def __init__(self, start: int = 0):
        self.counter = start

    def fresh(self) -> str:
        name = f"X{self.counter}"
        self.counter += 1
        return name


def rename_clause(c: Clause, supply: VariableSupply) -> Clause:
    if c.ground:
        return c
    mapping: dict[str, Term] = {}
    for lit in c.literals:
        for t in lit.args:
            stack = [t]
            while stack:
                cur = stack.pop()
                if isinstance(cur, Var):
                    if cur.name not in mapping:
                        mapping[cur.name] = Var(supply.fresh())
                else:
                    stack.extend(reversed(cur.args))  # type: ignore[union-attr]
    return c.substitute(mapping)


def rename_clauses_apart(clauses: Iterable[Clause]) -> list[Clause]:
    """Rename so that no two clauses in the result share a variable."""
    supply = VariableSupply()
    return [rename_clause(c, supply) for c in clauses]


# ---------------------------------------------------------------------------
# NNF
# ---------------------------------------------------------------------------

def _join(ctor, lhs: Formula, rhs: Formula) -> Formula:
    """ctor(lhs, rhs) for ctor And or Or, with $true and $false evaluated away."""
    absorbing, neutral = (Falsity, Truth) if ctor is And else (Truth, Falsity)
    if isinstance(rhs, absorbing) or isinstance(lhs, neutral):
        return rhs
    if isinstance(lhs, absorbing) or isinstance(rhs, neutral):
        return lhs
    return ctor(lhs, rhs)


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, (Atom, Equal)):
        return f if positive else Not(f)
    if isinstance(f, Truth):
        return TRUE if positive else FALSE
    if isinstance(f, Falsity):
        return FALSE if positive else TRUE
    if isinstance(f, Not):
        return _nnf(f.sub, not positive)
    if isinstance(f, And):
        ctor = And if positive else Or
        return _join(ctor, _nnf(f.lhs, positive), _nnf(f.rhs, positive))
    if isinstance(f, Or):
        ctor = Or if positive else And
        return _join(ctor, _nnf(f.lhs, positive), _nnf(f.rhs, positive))
    if isinstance(f, Implies):
        if positive:
            return _join(Or, _nnf(f.lhs, False), _nnf(f.rhs, True))
        return _join(And, _nnf(f.lhs, True), _nnf(f.rhs, False))
    if isinstance(f, Iff):
        if positive:
            return _join(
                And,
                _join(Or, _nnf(f.lhs, False), _nnf(f.rhs, True)),
                _join(Or, _nnf(f.rhs, False), _nnf(f.lhs, True)),
            )
        return _join(
            Or,
            _join(And, _nnf(f.lhs, True), _nnf(f.rhs, False)),
            _join(And, _nnf(f.lhs, False), _nnf(f.rhs, True)),
        )
    body = _nnf(f.body, positive)
    if isinstance(body, (Truth, Falsity)):
        return body
    if isinstance(f, Forall):
        return (Forall if positive else Exists)(f.var, body)
    assert isinstance(f, Exists)
    return (Exists if positive else Forall)(f.var, body)


def nnf(f: Formula) -> Formula:
    """Negation normal form; Iff expands by polarity.

    $true and $false are evaluated away, so the result is either a
    constant or a formula without one.
    """
    return _nnf(f, True)


# ---------------------------------------------------------------------------
# Skolemization
# ---------------------------------------------------------------------------

class SkolemSupply:
    """Dispenses Skolem function names sk0, sk1, ... fresh for a signature.

    Names are registered in the signature as they are handed out, so a
    supply shared across several formulas never reuses a name.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.counter = 0

    def fresh(self, arity: int) -> str:
        while True:
            name = f"sk{self.counter}"
            self.counter += 1
            if name not in self.sig:
                self.sig.add_function(name, arity)
                return name


def _fresh_variable(base: str, used: set[str]) -> Var:
    """base, or else base_1, base_2, ...: the first name not in used."""
    name, i = base, 0
    while name in used:
        i += 1
        name = f"{base}_{i}"
    used.add(name)
    return Var(name)


def _skolemize(f: Formula, universals: tuple[Var, ...], env: dict[str, Term],
               supply: SkolemSupply, used: set[str]) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(apply_to_term(env, a) for a in f.args))
    if isinstance(f, Equal):
        return Equal(apply_to_term(env, f.lhs), apply_to_term(env, f.rhs))
    if isinstance(f, Not):
        return Not(_skolemize(f.sub, universals, env, supply, used))
    if isinstance(f, (And, Or)):
        return type(f)(
            _skolemize(f.lhs, universals, env, supply, used),
            _skolemize(f.rhs, universals, env, supply, used),
        )
    if isinstance(f, Forall):
        var = _fresh_variable(f.var, used)
        inner = {**env, f.var: var}
        return Forall(var.name, _skolemize(f.body, universals + (var,), inner, supply, used))
    if isinstance(f, Exists):
        name = supply.fresh(len(universals))
        inner = {**env, f.var: App(name, universals)}
        return _skolemize(f.body, universals, inner, supply, used)
    return f  # Truth / Falsity


def skolemize(f: Formula, sig: Signature | None = None) -> Formula:
    """Replace each ∃y under universals x1..xn by a fresh sk_i(x1..xn).

    f must be closed and in NNF; its binders need not be distinct.  Each
    universal binder is renamed to the first of X, X_1, X_2, ... (for a
    binder X) that no earlier universal binder of f took, so every
    universal of the result binds its own name.  Fresh symbols never
    collide with symbols of sig (default: the symbols of f itself); sig
    is extended with the new functions.
    """
    if sig is None:
        sig = signature_of([f])
    return _skolemize(f, (), {}, SkolemSupply(sig), set())


# ---------------------------------------------------------------------------
# CNF distribution and the full pipeline
# ---------------------------------------------------------------------------

def _matrix_literal(f: Formula) -> Literal:
    if isinstance(f, Atom):
        return Literal(True, f.pred, f.args)
    if isinstance(f, Equal):
        return Literal(True, EQ, (f.lhs, f.rhs))
    if isinstance(f, Not):
        return _matrix_literal(f.sub).negate()
    raise ValueError(f"not a literal: {f!r}")


def _distribute(f: Formula) -> list[list[Literal]]:
    if isinstance(f, Truth):
        return []
    if isinstance(f, Falsity):
        return [[]]
    if isinstance(f, And):
        return _distribute(f.lhs) + _distribute(f.rhs)
    if isinstance(f, Or):
        left = _distribute(f.lhs)
        right = _distribute(f.rhs)
        return [a + b for a in left for b in right]
    return [[_matrix_literal(f)]]


def _strip_universals(f: Formula) -> Formula:
    while isinstance(f, Forall):
        f = f.body
    if isinstance(f, (And, Or)):
        return type(f)(_strip_universals(f.lhs), _strip_universals(f.rhs))
    return f


def clausify_formula(f: Formula, label: str, sig: Signature,
                     supply: SkolemSupply | None = None) -> list[Clause]:
    """CNF of one closed formula; clauses carry the given label."""
    if supply is None:
        supply = SkolemSupply(sig)
    g = _skolemize(nnf(f), (), {}, supply, set())
    g = _strip_universals(g)
    out: list[Clause] = []
    seen: set[Clause] = set()
    for lits in _distribute(g):
        c = Clause(lits, (label,))
        if c.is_tautology() or c in seen:
            continue
        seen.add(c)
        out.append(c)
    return out


def clausify(units) -> list[Clause]:
    """Clausify a list of NamedFormula; output clauses renamed apart.

    Roles are ignored: formulas are converted as stated.  Negating a
    conjecture is the caller's responsibility.  Skolem names are fresh
    across the whole unit list.
    """
    units = list(units)
    sig = signature_of(u.formula for u in units)
    supply = SkolemSupply(sig)
    out: list[Clause] = []
    for u in units:
        out.extend(clausify_formula(u.formula, u.label, sig, supply))
    return rename_clauses_apart(out)


# ---------------------------------------------------------------------------
# Equality axioms
# ---------------------------------------------------------------------------

def _eq(a: Term, b: Term) -> Literal:
    return Literal(True, EQ, (a, b))


def _neq(a: Term, b: Term) -> Literal:
    return Literal(False, EQ, (a, b))


def equality_axioms(sig: Signature) -> list[Clause]:
    """Reflexivity, symmetry, transitivity, and per-position congruence."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    out = [
        Clause([_eq(x, x)], ("eq_refl",)),
        Clause([_neq(x, y), _eq(y, x)], ("eq_sym",)),
        Clause([_neq(x, y), _neq(y, z), _eq(x, z)], ("eq_trans",)),
    ]
    for name, arity in sig.functions.items():
        for i in range(arity):
            xs = tuple(Var(f"A{j}") for j in range(arity))
            ys = tuple(Var("B") if j == i else xs[j] for j in range(arity))
            out.append(
                Clause(
                    [_neq(xs[i], ys[i]), _eq(App(name, xs), App(name, ys))],
                    (f"eq_{name}_{i + 1}",),
                )
            )
    for name, arity in sig.predicates.items():
        for i in range(arity):
            xs = tuple(Var(f"A{j}") for j in range(arity))
            ys = tuple(Var("B") if j == i else xs[j] for j in range(arity))
            out.append(
                Clause(
                    [_neq(xs[i], ys[i]), Literal(False, name, xs), Literal(True, name, ys)],
                    (f"eq_{name}_{i + 1}",),
                )
            )
    return rename_clauses_apart(out)


def uses_equality(clauses: Iterable[Clause]) -> bool:
    return any(l.is_equality() for c in clauses for l in c.literals)


def clause_signature(clauses: Iterable[Clause], base: Signature | None = None) -> Signature:
    """Collect every symbol occurring in the clauses, in first-use order.

    Starting from base (if given) picks up declared-but-unused symbols;
    the scan then adds anything the clauses mention on top, such as
    Skolem symbols that clausification introduced.
    """
    sig = base.copy() if base is not None else Signature()
    for c in clauses:
        for lit in c.literals:
            if not lit.is_equality():
                sig.add_predicate(lit.pred, len(lit.args))
            stack = list(reversed(lit.args))
            while stack:
                t = stack.pop()
                if isinstance(t, App):
                    sig.add_function(t.op, len(t.args))
                    stack.extend(reversed(t.args))
    return sig
