"""TPTP FOF reader and writer.

Supports the first-order fragment: `fof(label, role, formula).` units
with roles axiom and conjecture, `%` line comments, quantifiers with
maximal right scope, and connectives `~  =  !=  &  |  =>  <=>` from
tightest to loosest.  `&` and `|` do not mix without parentheses;
`=>` and `<=>` are non-associative, so chains are syntax errors.
`$true`/`$false` (and bare `true`/`false`) are the logical constants;
output always uses the `$` forms.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .syntax import (
    BINARY,
    QUANTIFIERS,
    And,
    App,
    Atom,
    Equal,
    Exists,
    FALSE,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    SignatureError,
    TRUE,
    Term,
    Var,
    formula_str,
    free_variables,
    signature_of,
)

ROLES = ("axiom", "conjecture")

# deepest formula and term nesting accepted; the recursive passes after
# parsing (clausification, evaluation) then stay within Python's stack
MAX_NESTING = 200


class ParseError(Exception):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, column {col}: {message}")


class DuplicateLabelError(Exception):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"duplicate formula label {label!r}")


class FreeVariableError(Exception):
    def __init__(self, label: str, variables: set[str]):
        self.label = label
        self.variables = variables
        names = ", ".join(sorted(variables))
        super().__init__(f"formula {label!r} has free variables: {names}")


class ArityError(Exception):
    """A symbol is used at inconsistent arities or in both namespaces."""


@dataclass(frozen=True)
class NamedFormula:
    label: str
    role: str
    formula: Formula

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass
class Problem:
    """An ordered list of named formulas with at most one conjecture."""

    units: list[NamedFormula] = field(default_factory=list)

    def __post_init__(self):
        seen: set[str] = set()
        conjectures = 0
        for nf in self.units:
            if nf.label in seen:
                raise DuplicateLabelError(nf.label)
            seen.add(nf.label)
            if nf.role == "conjecture":
                conjectures += 1
        if conjectures > 1:
            raise ValueError("a problem may contain at most one conjecture")

    def axioms(self) -> list[NamedFormula]:
        return [nf for nf in self.units if nf.role == "axiom"]

    def conjecture(self) -> NamedFormula | None:
        for nf in self.units:
            if nf.role == "conjecture":
                return nf
        return None

    def by_label(self, label: str) -> NamedFormula:
        for nf in self.units:
            if nf.label == label:
                return nf
        raise KeyError(label)

    def signature(self) -> Signature:
        try:
            return signature_of(nf.formula for nf in self.units)
        except SignatureError as exc:
            raise ArityError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_PUNCT = ("(", ")", "[", "]", ",", ".", ":")
_OPS = ("<=>", "=>", "!=", "~", "&", "|", "=", "!", "?")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'lower', 'upper', 'dollar', 'punct', 'op', 'eof'
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "upper" if word[0].isupper() or word[0] == "_" else "lower"
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if c == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("dollar", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        matched = None
        for op in _OPS:
            if text.startswith(op, i):
                matched = op
                break
        if matched is not None:
            tokens.append(_Token("op", matched, line, start_col))
            i += len(matched)
            col += len(matched)
            continue
        if c in _PUNCT:
            tokens.append(_Token("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _nesting(f: Formula) -> int:
    """Levels below the top of f, counting formula and term nodes alike."""
    deepest = 0
    stack: list[tuple[object, int]] = [(f, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(node, Not):
            below: tuple = (node.sub,)
        elif isinstance(node, (*BINARY, Equal)):
            below = (node.lhs, node.rhs)
        elif isinstance(node, QUANTIFIERS):
            below = (node.body,)
        else:  # atoms and terms; only applications have arguments
            below = getattr(node, "args", ())
        stack.extend((b, level + 1) for b in below)
    return deepest


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open `~`, quantifiers, parentheses and argument lists

    @contextmanager
    def nested(self, tok: _Token, levels: int = 1):
        """Parse levels deeper below tok; past MAX_NESTING that is an error."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col
            )
        yield
        self.depth -= levels

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        found = repr(tok.value) if tok.kind != "eof" else "end of input"
        return ParseError(
            f"expected {expected}, found {found}", tok.line, tok.col, expected
        )

    def expect(self, value: str, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok.value != value or tok.kind == "eof":
            raise self.error(expected or repr(value))
        return self.next()

    # -- units --------------------------------------------------------------

    def parse_problem(self) -> Problem:
        units: list[NamedFormula] = []
        labels: set[str] = set()
        saw_conjecture = False
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.value != "fof":
                raise self.error("'fof'")
            self.next()
            self.expect("(")
            label_tok = self.peek()
            if label_tok.kind != "lower":
                raise self.error("formula label (lowercase word)", label_tok)
            label = self.next().value
            self.expect(",")
            role_tok = self.peek()
            if role_tok.kind != "lower" or role_tok.value not in ROLES:
                raise self.error("role 'axiom' or 'conjecture'", role_tok)
            role = self.next().value
            self.expect(",")
            formula = self.parse_whole_formula()
            self.expect(")")
            self.expect(".")
            if label in labels:
                raise DuplicateLabelError(label)
            labels.add(label)
            if role == "conjecture":
                if saw_conjecture:
                    raise ParseError(
                        "a problem may contain at most one conjecture",
                        role_tok.line,
                        role_tok.col,
                    )
                saw_conjecture = True
            fv = free_variables(formula)
            if fv:
                raise FreeVariableError(label, fv)
            units.append(NamedFormula(label, role, formula))
        problem = Problem(units)
        problem.signature()  # reject inconsistent arities up front
        return problem

    # -- formulas -----------------------------------------------------------

    def parse_whole_formula(self) -> Formula:
        """A formula whose tree, connective chains included, is within bounds."""
        tok = self.peek()
        formula = self.parse_formula()
        with self.nested(tok, _nesting(formula)):
            return formula

    def parse_formula(self) -> Formula:
        """unitary (op unitary)*: `&`/`|` chains group first, then `=>`, then `<=>`.

        One loop for all three levels keeps a parenthesis or quantifier
        at two Python frames.  Each operator is checked as it is read, so
        a misplaced one is reported before anything to its right.
        """
        iff_lhs = implies_lhs = chain_op = None
        formula = self.parse_unitary()
        while True:
            tok = self.peek()
            if tok.value in ("&", "|"):
                if chain_op not in (None, tok.value):
                    raise ParseError(
                        "'&' and '|' do not mix; use parentheses", tok.line, tok.col
                    )
                chain_op = tok.value
                self.next()
                operand = self.parse_unitary()
                formula = And(formula, operand) if chain_op == "&" else Or(formula, operand)
            elif tok.value == "=>":
                if implies_lhs is not None:
                    raise ParseError(
                        "'=>' is non-associative; use parentheses", tok.line, tok.col
                    )
                implies_lhs, chain_op = formula, None
                self.next()
                formula = self.parse_unitary()
            elif tok.value == "<=>":
                if iff_lhs is not None:
                    raise ParseError(
                        "'<=>' is non-associative; use parentheses", tok.line, tok.col
                    )
                iff_lhs = formula if implies_lhs is None else Implies(implies_lhs, formula)
                implies_lhs = chain_op = None
                self.next()
                formula = self.parse_unitary()
            else:
                break
        if implies_lhs is not None:
            formula = Implies(implies_lhs, formula)
        return formula if iff_lhs is None else Iff(iff_lhs, formula)

    def parse_unitary(self) -> Formula:
        tok = self.peek()
        if tok.value in ("!", "?"):
            self.next()
            self.expect("[")
            names: list[str] = []
            while True:
                var_tok = self.peek()
                if var_tok.kind != "upper":
                    raise self.error("variable (uppercase word)", var_tok)
                names.append(self.next().value)
                if self.peek().value == ",":
                    self.next()
                    continue
                break
            self.expect("]")
            self.expect(":")
            with self.nested(tok):
                body = self.parse_formula()  # quantifiers reach maximally right
            ctor = Forall if tok.value == "!" else Exists
            for name in reversed(names):
                body = ctor(name, body)
            return body
        if tok.value == "~":
            self.next()
            with self.nested(tok):
                return Not(self.parse_unitary())
        if tok.value == "(":
            self.next()
            with self.nested(tok):
                inner = self.parse_formula()
            self.expect(")")
            # '(f(X)) = c' is not supported: parenthesized terms stay formulas
            tok = self.peek()
            if tok.value in ("=", "!="):
                raise ParseError(
                    "equality operands must be unparenthesized terms", tok.line, tok.col
                )
            return inner
        if tok.kind == "dollar":
            if tok.value == "$true":
                self.next()
                return TRUE
            if tok.value == "$false":
                self.next()
                return FALSE
            raise self.error("'$true' or '$false'", tok)
        if tok.kind in ("lower", "upper"):
            if tok.kind == "lower" and tok.value in ("true", "false"):
                nxt = self.tokens[self.pos + 1]
                if nxt.value in ("(", "=", "!="):
                    raise ParseError(
                        f"{tok.value!r} is reserved and cannot take arguments "
                        "or appear in a term",
                        tok.line,
                        tok.col,
                    )
                self.next()
                return TRUE if tok.value == "true" else FALSE
            term = self.parse_term()
            return self.finish_atomic(term, tok)
        raise self.error("a formula")

    def finish_atomic(self, term: Term, start: _Token) -> Formula:
        tok = self.peek()
        if tok.value in ("=", "!="):
            self.next()
            rhs = self.parse_term()
            eq = Equal(term, rhs)
            return eq if tok.value == "=" else Not(eq)
        if isinstance(term, Var):
            raise ParseError(
                f"variable {term.name!r} cannot be used as a formula",
                start.line,
                start.col,
            )
        assert isinstance(term, App)
        return Atom(term.op, term.args)

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "upper":
            self.next()
            return Var(tok.value)
        if tok.kind != "lower":
            raise self.error("a term", tok)
        if tok.value in ("true", "false"):
            raise ParseError(
                f"{tok.value!r} is reserved and cannot appear in a term",
                tok.line,
                tok.col,
            )
        self.next()
        args: list[Term] = []
        if self.peek().value == "(":
            self.next()
            with self.nested(tok):
                while True:
                    args.append(self.parse_term())
                    if self.peek().value == ",":
                        self.next()
                        continue
                    break
            self.expect(")")
        return App(tok.value, tuple(args))


def parse_tptp(text: str) -> Problem:
    """Parse a sequence of fof units into a Problem."""
    return _Parser(text).parse_problem()


def parse_fof_formula(text: str) -> Formula:
    """Parse a bare formula (no fof wrapper); must consume all input."""
    parser = _Parser(text)
    formula = parser.parse_whole_formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error("end of input", tok)
    return formula


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def print_tptp(problem: Problem) -> str:
    """Render a problem, one fof unit per line."""
    lines = [
        f"fof({nf.label}, {nf.role}, {formula_str(nf.formula)})."
        for nf in problem.units
    ]
    return "\n".join(lines) + ("\n" if lines else "")
