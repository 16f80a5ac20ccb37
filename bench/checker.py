"""Independent checks of folkit's witnesses, written from the textbook definitions.

Tarski's truth definition over a finite domain {0..n-1}, and an exhaustive
enumerator of every structure of domain size 1 and 2.  Nothing here imports
folkit: formulas, terms and interpretations are read through their
attributes (``Atom.pred``/``args``, ``Forall.var``/``body``, ``App.op``,
``Interpretation.size``/``constants``/``functions``/``predicates``), so a
fault in folkit's own evaluator or model finder cannot hide in the check.
"""

from __future__ import annotations

from itertools import product


class Structure:
    """A finite structure with the same four fields as folkit's Interpretation."""

    def __init__(self, size, constants, functions, predicates):
        self.size = size
        self.constants = constants
        self.functions = functions
        self.predicates = predicates


def _value(structure, term, env: dict) -> int:
    kind = type(term).__name__
    if kind == "Var":
        return env[term.name]
    if kind != "App":
        raise TypeError(f"not a term: {term!r}")
    if not term.args:
        return structure.constants[term.op]
    args = tuple(_value(structure, a, env) for a in term.args)
    return structure.functions[term.op][args]


def _holds(structure, f, env: dict) -> bool:
    kind = type(f).__name__
    if kind == "Truth":
        return True
    if kind == "Falsity":
        return False
    if kind == "Atom":
        args = tuple(_value(structure, a, env) for a in f.args)
        return args in structure.predicates[f.pred]
    if kind == "Equal":
        return _value(structure, f.lhs, env) == _value(structure, f.rhs, env)
    if kind == "Not":
        return not _holds(structure, f.sub, env)
    if kind == "And":
        return _holds(structure, f.lhs, env) and _holds(structure, f.rhs, env)
    if kind == "Or":
        return _holds(structure, f.lhs, env) or _holds(structure, f.rhs, env)
    if kind == "Implies":
        return not _holds(structure, f.lhs, env) or _holds(structure, f.rhs, env)
    if kind == "Iff":
        return _holds(structure, f.lhs, env) == _holds(structure, f.rhs, env)
    if kind in ("Forall", "Exists"):
        # a fresh environment per element, so shadowing needs no undo
        results = (
            _holds(structure, f.body, {**env, f.var: d}) for d in range(structure.size)
        )
        return all(results) if kind == "Forall" else any(results)
    raise TypeError(f"not a formula: {f!r}")


def holds(structure, formula) -> bool:
    """Truth of a closed formula in the structure.

    A symbol the structure does not interpret raises KeyError: a model
    that leaves part of its own input uninterpreted is not a model.
    """
    return _holds(structure, formula, {})


def symbols(formulas) -> tuple[dict[str, int], dict[str, int]]:
    """Predicate and function symbols with their arities, in first-use order."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}

    def term(t) -> None:
        if type(t).__name__ == "App":
            funcs.setdefault(t.op, len(t.args))
            for a in t.args:
                term(a)

    def formula(f) -> None:
        kind = type(f).__name__
        if kind == "Atom":
            preds.setdefault(f.pred, len(f.args))
            for a in f.args:
                term(a)
        elif kind == "Equal":
            term(f.lhs)
            term(f.rhs)
        elif kind == "Not":
            formula(f.sub)
        elif kind in ("And", "Or", "Implies", "Iff"):
            formula(f.lhs)
            formula(f.rhs)
        elif kind in ("Forall", "Exists"):
            formula(f.body)

    for f in formulas:
        formula(f)
    return preds, funcs


def structures(preds: dict[str, int], funcs: dict[str, int], n: int):
    """Every structure of domain size n for the given symbols."""
    domain = range(n)
    cells = [(name, args) for name, arity in funcs.items()
             for args in product(domain, repeat=arity)]
    atoms = [(name, args) for name, arity in preds.items()
             for args in product(domain, repeat=arity)]
    for values in product(domain, repeat=len(cells)):
        constants: dict[str, int] = {}
        functions: dict[str, dict] = {name: {} for name, arity in funcs.items() if arity}
        for (name, args), v in zip(cells, values):
            if args:
                functions[name][args] = v
            else:
                constants[name] = v
        for truth in product((False, True), repeat=len(atoms)):
            predicates: dict[str, set] = {name: set() for name in preds}
            for (name, args), t in zip(atoms, truth):
                if t:
                    predicates[name].add(args)
            yield Structure(n, constants, functions, predicates)


def smallest_model(formulas, max_size: int = 2):
    """The first structure of size 1..max_size satisfying every formula, or None."""
    formulas = list(formulas)
    preds, funcs = symbols(formulas)
    for n in range(1, max_size + 1):
        for s in structures(preds, funcs, n):
            if all(holds(s, f) for f in formulas):
                return s
    return None
