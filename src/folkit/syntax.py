"""Abstract syntax for first-order logic with equality.

Terms, formulas, signatures, substitutions, and the printer of terms
and formulas in TPTP syntax.  Everything here is immutable after
construction and safe to share between threads; the prover relies on
that to reuse subtrees freely.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Union


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base class for terms. Concrete terms are Var and App."""

    __slots__ = ()


class Var(Term):
    """A variable, identified by its (interned) name."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be nonempty")
        object.__setattr__(self, "name", sys.intern(name))
        object.__setattr__(self, "_hash", hash(("var", self.name)))

    def __setattr__(self, key, value):
        raise AttributeError("Var is immutable")

    def __eq__(self, other):
        return self is other or (type(other) is Var and self.name == other.name)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Var({self.name!r})"


class App(Term):
    """A function application; constants are 0-ary applications."""

    __slots__ = ("op", "args", "size", "_hash")

    def __init__(self, op: str, args: tuple[Term, ...] = ()):
        if not op:
            raise ValueError("function symbol must be nonempty")
        object.__setattr__(self, "op", sys.intern(op))
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(
            self,
            "size",
            1 + sum(a.size if type(a) is App else 1 for a in self.args),
        )
        object.__setattr__(self, "_hash", hash(("app", self.op, self.args)))

    def __setattr__(self, key, value):
        raise AttributeError("App is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is App
            and self._hash == other._hash
            and self.op == other.op
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.args:
            return f"App({self.op!r})"
        return f"App({self.op!r}, {self.args!r})"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Equal:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Iff:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Truth:
    pass


@dataclass(frozen=True)
class Falsity:
    pass


TRUE = Truth()
FALSE = Falsity()

Formula = Union[
    Atom, Equal, Not, And, Or, Implies, Iff, Forall, Exists, Truth, Falsity
]

BINARY = (And, Or, Implies, Iff)
QUANTIFIERS = (Forall, Exists)


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------

class SignatureError(Exception):
    """Arity clash or predicate/function namespace collision."""


class Signature:
    """Predicate and function symbols with arities.

    The two namespaces are disjoint; equality is built in and never
    listed.  Dicts preserve declaration order, which downstream code
    relies on (e.g. model output ordering and symmetry breaking).
    """

    def __init__(
        self,
        predicates: Mapping[str, int] | None = None,
        functions: Mapping[str, int] | None = None,
    ):
        self.predicates: dict[str, int] = {}
        self.functions: dict[str, int] = {}
        for name, arity in (predicates or {}).items():
            self.add_predicate(name, arity)
        for name, arity in (functions or {}).items():
            self.add_function(name, arity)

    def add_predicate(self, name: str, arity: int) -> None:
        if name in self.functions:
            raise SignatureError(f"{name!r} already declared as a function")
        old = self.predicates.get(name)
        if old is not None and old != arity:
            raise SignatureError(
                f"predicate {name!r} used with arity {arity}, expected {old}"
            )
        self.predicates[name] = arity

    def add_function(self, name: str, arity: int) -> None:
        if name in self.predicates:
            raise SignatureError(f"{name!r} already declared as a predicate")
        old = self.functions.get(name)
        if old is not None and old != arity:
            raise SignatureError(
                f"function {name!r} used with arity {arity}, expected {old}"
            )
        self.functions[name] = arity

    def constants(self) -> list[str]:
        return [name for name, arity in self.functions.items() if arity == 0]

    def copy(self) -> "Signature":
        sig = Signature()
        sig.predicates.update(self.predicates)
        sig.functions.update(self.functions)
        return sig

    def __contains__(self, name: str) -> bool:
        return name in self.predicates or name in self.functions

    def __eq__(self, other):
        return (
            isinstance(other, Signature)
            and self.predicates == other.predicates
            and self.functions == other.functions
        )

    def __repr__(self):
        return f"Signature(predicates={self.predicates}, functions={self.functions})"


def signature_of(formulas, base: Signature | None = None) -> Signature:
    """Collect the signature used by the given formulas.

    Raises SignatureError if a symbol is used at inconsistent arities or
    in both namespaces.
    """
    sig = base.copy() if base is not None else Signature()

    def walk_term(t: Term):
        if isinstance(t, App):
            sig.add_function(t.op, len(t.args))
            for a in t.args:
                walk_term(a)

    def walk(f: Formula):
        if isinstance(f, Atom):
            sig.add_predicate(f.pred, len(f.args))
            for a in f.args:
                walk_term(a)
        elif isinstance(f, Equal):
            walk_term(f.lhs)
            walk_term(f.rhs)
        elif isinstance(f, Not):
            walk(f.sub)
        elif isinstance(f, BINARY):
            walk(f.lhs)
            walk(f.rhs)
        elif isinstance(f, QUANTIFIERS):
            walk(f.body)

    for f in formulas:
        walk(f)
    return sig


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

def term_variables(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.name)
        else:
            stack.extend(cur.args)  # type: ignore[union-attr]
    return out


def free_variables(f: Formula) -> set[str]:
    """Variables of f occurring outside any binder."""
    if isinstance(f, Atom):
        out: set[str] = set()
        for a in f.args:
            out |= term_variables(a)
        return out
    if isinstance(f, Equal):
        return term_variables(f.lhs) | term_variables(f.rhs)
    if isinstance(f, Not):
        return free_variables(f.sub)
    if isinstance(f, BINARY):
        return free_variables(f.lhs) | free_variables(f.rhs)
    if isinstance(f, QUANTIFIERS):
        return free_variables(f.body) - {f.var}
    return set()


def is_closed(f: Formula) -> bool:
    return not free_variables(f)


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

class Substitution(Mapping):
    """A finite map variable-name -> Term, applied simultaneously.

    Well-formed substitutions are idempotent: no bound variable occurs
    in any term of the range.  unify() always returns idempotent
    substitutions; hand-built ones are the caller's responsibility.
    """

    __slots__ = ("bindings",)

    def __init__(self, bindings: Mapping[str, Term] | None = None):
        self.bindings: dict[str, Term] = dict(bindings or {})

    def __getitem__(self, name: str) -> Term:
        return self.bindings[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)

    def __repr__(self):
        inner = ", ".join(f"{v} -> {term_str(t)}" for v, t in self.bindings.items())
        return "{" + inner + "}"

    def is_idempotent(self) -> bool:
        range_vars: set[str] = set()
        for t in self.bindings.values():
            range_vars |= term_variables(t)
        return not (range_vars & self.bindings.keys())


def apply_to_term(s: Mapping[str, Term], t: Term) -> Term:
    """Simultaneous replacement: each variable is replaced exactly once."""
    if isinstance(t, Var):
        return s.get(t.name, t)
    assert isinstance(t, App)
    if not t.args:
        return t
    new_args = tuple(apply_to_term(s, a) for a in t.args)
    if new_args == t.args:
        return t
    return App(t.op, new_args)


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_equal(a: Formula, b: Formula) -> bool:
    """True iff a and b differ only in the names of bound variables."""

    def eq_term(s: Term, t: Term, env_a: dict[str, int], env_b: dict[str, int]) -> bool:
        if isinstance(s, Var):
            if not isinstance(t, Var):
                return False
            ia, ib = env_a.get(s.name), env_b.get(t.name)
            if ia is None and ib is None:
                return s.name == t.name  # both free
            return ia == ib and ia is not None
        if not isinstance(t, App) or not isinstance(s, App):
            return False
        return (
            s.op == t.op
            and len(s.args) == len(t.args)
            and all(eq_term(x, y, env_a, env_b) for x, y in zip(s.args, t.args))
        )

    def eq(f: Formula, g: Formula, env_a: dict[str, int], env_b: dict[str, int], depth: int) -> bool:
        if type(f) is not type(g):
            return False
        if isinstance(f, Atom):
            return (
                f.pred == g.pred
                and len(f.args) == len(g.args)
                and all(eq_term(x, y, env_a, env_b) for x, y in zip(f.args, g.args))
            )
        if isinstance(f, Equal):
            return eq_term(f.lhs, g.lhs, env_a, env_b) and eq_term(
                f.rhs, g.rhs, env_a, env_b
            )
        if isinstance(f, Not):
            return eq(f.sub, g.sub, env_a, env_b, depth)
        if isinstance(f, BINARY):
            return eq(f.lhs, g.lhs, env_a, env_b, depth) and eq(
                f.rhs, g.rhs, env_a, env_b, depth
            )
        if isinstance(f, QUANTIFIERS):
            ea = dict(env_a)
            eb = dict(env_b)
            ea[f.var] = depth
            eb[g.var] = depth
            return eq(f.body, g.body, ea, eb, depth + 1)
        return True  # Truth / Falsity

    return eq(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# Printing: terms and formulas in TPTP fof syntax (tptp.print_tptp wraps units)
# ---------------------------------------------------------------------------

def term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    assert isinstance(t, App)
    if not t.args:
        return t.op
    return f"{t.op}({','.join(term_str(a) for a in t.args)})"


def _chain(f: Formula, op) -> list[Formula]:
    # flatten the left spine only, so reparsing rebuilds the same tree
    parts: list[Formula] = []
    while isinstance(f, op):
        parts.append(f.rhs)
        f = f.lhs
    parts.append(f)
    parts.reverse()
    return parts


def _unitary_out(f: Formula, tail: bool) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({','.join(term_str(a) for a in f.args)})"
    if isinstance(f, Equal):
        return f"{term_str(f.lhs)} = {term_str(f.rhs)}"
    if isinstance(f, Truth):
        return "$true"
    if isinstance(f, Falsity):
        return "$false"
    if isinstance(f, Not):
        if isinstance(f.sub, Equal):
            return f"{term_str(f.sub.lhs)} != {term_str(f.sub.rhs)}"
        if isinstance(f.sub, (Atom, Equal, Not, Truth, Falsity, Forall, Exists)):
            return "~" + _unitary_out(f.sub, tail)
        return f"~({_formula_out(f.sub, True)})"
    if isinstance(f, (Forall, Exists)):
        mark = "!" if isinstance(f, Forall) else "?"
        body = _formula_out(f.body, True)
        text = f"{mark}[{f.var}] : {body}"
        return text if tail else f"({text})"
    return f"({_formula_out(f, True)})"


def _orand_out(f: Formula, tail: bool) -> str:
    if isinstance(f, (And, Or)):
        op = And if isinstance(f, And) else Or
        sep = " & " if isinstance(f, And) else " | "
        parts = _chain(f, op)
        last = len(parts) - 1
        return sep.join(
            _unitary_out(p, tail and i == last) for i, p in enumerate(parts)
        )
    return _unitary_out(f, tail)


def _impl_out(f: Formula, tail: bool) -> str:
    if isinstance(f, Implies):
        return f"{_orand_out(f.lhs, False)} => {_orand_out(f.rhs, tail)}"
    return _orand_out(f, tail)


def _formula_out(f: Formula, tail: bool) -> str:
    if isinstance(f, Iff):
        return f"{_impl_out(f.lhs, False)} <=> {_impl_out(f.rhs, tail)}"
    return _impl_out(f, tail)


def formula_str(f: Formula) -> str:
    """Render a formula in fof syntax with minimal parentheses.

    parse_fof_formula reads the text back to the same tree: `&` and `|`
    chains print along their left spine, and a quantifier is
    parenthesised unless nothing follows it.
    """
    return _formula_out(f, True)
