"""Clausification: NNF, Skolemization, CNF, equality axioms, labels."""

import random

import pytest

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
    signature_of,
)
from folkit.tptp import NamedFormula, parse_tptp
from folkit.clausal import (
    Clause,
    Literal,
    clause_signature,
    clause_str,
    clausify,
    dump_clauses,
    equality_axioms,
    nnf,
    skolemize,
    uses_equality,
)

from oracles import (
    SIG_FUNCS,
    SIG_PREDS,
    clauses_have_model,
    formulas_have_model,
    random_closed_formula,
)

X = Var("X")
P = Atom("p", ())
Q = Atom("q", ())


def unit(formula, label="u"):
    return NamedFormula(label, "axiom", formula)


def no_iff_implies_and_atomic_negations(f) -> bool:
    if isinstance(f, (Implies, Iff)):
        return False
    if isinstance(f, Not):
        return isinstance(f.sub, (Atom, Equal))
    if isinstance(f, (And, Or)):
        return no_iff_implies_and_atomic_negations(f.lhs) and (
            no_iff_implies_and_atomic_negations(f.rhs)
        )
    if isinstance(f, (Forall, Exists)):
        return no_iff_implies_and_atomic_negations(f.body)
    return True


def test_nnf_de_morgan():
    assert nnf(Not(And(P, Q))) == Or(Not(P), Not(Q))


def test_nnf_pushes_through_quantifier():
    f = nnf(Not(Forall("X", Atom("p", (X,)))))
    assert isinstance(f, Exists)
    assert f.body == Not(Atom("p", (X,)))


def test_nnf_expands_iff_positively():
    f = nnf(Iff(P, Q))
    assert f == And(Or(Not(P), Q), Or(Not(Q), P))


def test_nnf_output_shape_on_random_formulas():
    rng = random.Random(5)
    for _ in range(200):
        f = nnf(random_closed_formula(rng))
        assert no_iff_implies_and_atomic_negations(f)


def test_skolemize_existential_constant():
    f = skolemize(Exists("X", Atom("p", (X,))))
    assert isinstance(f, Atom)
    (term,) = f.args
    assert isinstance(term, App) and term.args == ()


def test_skolemize_under_universal_gets_argument():
    f = skolemize(Forall("X", Exists("Y", Atom("q2", (X, Var("Y"))))))
    body = f.body
    witness = body.args[1]
    assert isinstance(witness, App)
    assert witness.args == (X,)


def test_skolemize_without_existentials_keeps_structure():
    f = Forall("X", Or(Atom("p", (X,)), Not(Atom("q", (X,)))))
    assert skolemize(nnf(f)) == f


def test_skolem_names_are_fresh_across_user_symbols():
    f = parse_tptp("fof(a, axiom, ?[X] : p(X) & sk0(X) = X).").units
    clauses = clausify(f)
    names = {t.op for c in clauses for l in c.literals for t in l.args
             if isinstance(t, App)}
    assert len(names) == 2  # the user's sk0 and one fresh witness


def test_clausify_iff_example():
    tarr, fether = App("tarr", ()), App("fether", ())
    f = Iff(Atom("sane", (fether,)), Atom("sane", (tarr,)))
    clauses = clausify([unit(f, "ax12")])
    rendered = {clause_str(c) for c in clauses}
    assert rendered == {"~sane(fether) | sane(tarr)", "~sane(tarr) | sane(fether)"}


def test_clausify_truth_yields_nothing():
    assert clausify([unit(Truth())]) == []


def test_clausify_falsity_yields_empty_clause():
    clauses = clausify([unit(Falsity())])
    assert len(clauses) == 1 and clauses[0].is_empty()


def test_clausify_witness_example(hypotheses):
    clauses = clausify([hypotheses["ax3"]])
    rendered = [clause_str(c) for c in clauses]
    assert len(rendered) == 3
    witness = clauses[0].literals[0].args[0]
    assert isinstance(witness, App) and witness.args == ()
    name = witness.op
    assert rendered == [
        f"doctor({name})",
        f"{name} != tarr",
        f"{name} != fether",
    ]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("(![X] : p(X)) | (![X] : q(X))", "u: p(X0) | q(X1)\n"),
        ("![X] : (p(X) & ![X] : q(X))", "u: p(X0)\nu: q(X1)\n"),
        (
            "![X] : ?[Y] : (r(X,Y) | ?[Y] : ~r(Y,X))",
            "u: r(X0,sk0(X0)) | ~r(sk1(X0),X0)\n",
        ),
        ("($true => p(a)) & (q(a) <=> $false)", "u: p(a)\nu: ~q(a)\n"),
        ("~(p(a) | $true) | (![X] : (q(X) & $true))", "u: q(X0)\n"),
        (
            "(![X] : p(X)) <=> (?[X] : q(X))",
            "u: ~p(sk0) | q(sk1)\nu: ~q(X0) | p(X1)\n",
        ),
    ],
)
def test_clausify_reused_binders_and_constants(text, expected):
    units = parse_tptp(f"fof(u, axiom, {text}).").units
    assert dump_clauses(clausify(units)) == expected


def test_clause_labels_track_sources(reduced_six):
    clauses = clausify(reduced_six)
    assert all(len(c.labels) == 1 for c in clauses)
    assert {c.labels[0] for c in clauses} == {
        "ax4", "ax5", "ax7", "ax8", "ax10", "ax12",
    }


def test_clauses_drop_duplicate_literals_and_tautologies():
    c = Clause([Literal(True, "p", ()), Literal(True, "p", ())])
    assert len(c.literals) == 1
    taut = clausify([unit(Or(P, Not(P)))])
    assert taut == []


def test_clause_keeps_first_occurrences_in_order():
    p, q, r = (Literal(True, name, (X,)) for name in "pqr")
    c = Clause([q, p, Literal(True, "q", (X,)), r, p, Literal(False, "q", (X,))])
    assert c.literals == (q, p, r, Literal(False, "q", (X,)))
    assert c.lit_set == set(c.literals)


def test_tautologies_are_complementary_pairs_or_reflexive_equations():
    a, b = App("a", ()), App("b", ())
    p_a, not_p_a = Literal(True, "p", (a,)), Literal(False, "p", (a,))
    q = Literal(True, "q", (X,))
    assert Clause([p_a, q, not_p_a]).is_tautology()
    assert Clause([not_p_a, p_a]).is_tautology()
    assert Clause([q, Literal(True, "=", (X, X))]).is_tautology()
    assert not Clause([Literal(True, "=", (X, Var("Y")))]).is_tautology()
    assert not Clause([Literal(False, "=", (X, X))]).is_tautology()
    assert not Clause([p_a, Literal(False, "p", (b,))]).is_tautology()
    assert not Clause([p_a, Literal(False, "p", (X,))]).is_tautology()


def test_literals_and_clauses_reject_assignment():
    lit = Literal(True, "p", (X,))
    c = Clause([lit])
    for obj, attr in [(lit, "positive"), (lit, "args"), (c, "literals"), (c, "lit_set")]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)


def test_equality_axioms_constants_only():
    sig = signature_of([Equal(App("a", ()), App("b", ()))])
    axioms = equality_axioms(sig)
    labels = [c.labels[0] for c in axioms]
    assert labels == ["eq_refl", "eq_sym", "eq_trans"]


def test_equality_axioms_congruence():
    sig = signature_of(
        [Forall("X", Iff(Atom("doctor", (X,)), Equal(App("bf", (X,)), X)))]
    )
    axioms = equality_axioms(sig)
    rendered = {clause_str(c) for c in axioms}
    assert any("bf(" in text and "!=" in text for text in rendered)
    assert any("~doctor(" in text and "doctor(" in text for text in rendered)


def test_clause_signature_includes_skolem_symbols(hypotheses):
    clauses = clausify([hypotheses["ax3"]])
    base = signature_of([hypotheses["ax3"].formula])
    sig = clause_signature(clauses, base=base)
    assert set(base.functions) < set(sig.functions)


def test_uses_equality(hypotheses):
    assert uses_equality(clausify([hypotheses["ax3"]]))
    assert not uses_equality(clausify([hypotheses["ax4"]]))


def test_clausify_preserves_size_n_model_existence():
    rng = random.Random(817)
    checked = 0
    for _ in range(40):
        formula = random_closed_formula(rng)
        clauses = clausify([unit(formula)])
        base = signature_of([formula])
        sig = clause_signature(clauses, base=base)
        formula_preds = {**SIG_PREDS, **base.predicates}
        formula_funcs = {**SIG_FUNCS, **base.functions}
        clause_preds = {**formula_preds, **sig.predicates}
        clause_funcs = {**formula_funcs, **sig.functions}
        for size in (1, 2):
            before = formulas_have_model([formula], formula_preds, formula_funcs, size)
            after = clauses_have_model(clauses, clause_preds, clause_funcs, size)
            assert before == after, (formula, size)
            checked += 1
    assert checked == 80
