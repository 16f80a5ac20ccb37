"""Resolution engine: unification, inference rules, saturation, proof checking."""

import dataclasses
import itertools
import random
from types import SimpleNamespace

import pytest

from folkit import saturation
from folkit.syntax import App, Substitution, Var
from folkit.analysis import saturation_inputs
from folkit.clausal import Clause, Literal, clause_str, clausify
from folkit.saturation import (
    Clash,
    Derivation,
    Limits,
    Mgu,
    OccursCheckFailure,
    Prover,
    Refutation,
    Resolution,
    ResourceOut,
    Saturated,
    _args_mgu,
    _eligible_indices,
    _resolvent,
    check_derivation,
    factor,
    format_derivation,
    kbo_greater,
    resolve,
    saturate,
    subsumes,
    symbol_precedence,
    unify,
)

from oracles import (
    FREE_PREDS,
    clauses_have_model,
    match_term,
    random_function_free_clauses,
    tt_satisfiable,
)

X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = App("a", ()), App("b", ())


def f(*args):
    return App("f", args)


def g(*args):
    return App("g", args)


def apply(sub, term):
    if isinstance(term, Var):
        return sub.bindings.get(term.name, term)
    return App(term.op, tuple(apply(sub, t) for t in term.args))


# -- unification ------------------------------------------------------------

def test_unify_variable_against_constant():
    result = unify(f(X), f(a))
    assert isinstance(result, Mgu)
    assert dict(result.substitution.bindings) == {"X": a}


def test_unify_binds_both_sides():
    result = unify(f(X, b), f(a, Y))
    assert isinstance(result, Mgu)
    assert apply(result.substitution, f(X, b)) == f(a, b)
    assert apply(result.substitution, f(a, Y)) == f(a, b)


def test_unify_chains_variables():
    result = unify(f(X, X), f(Y, a))
    assert isinstance(result, Mgu)
    assert apply(result.substitution, f(X, X)) == f(a, a)
    assert result.substitution.is_idempotent()


def test_unify_clash_on_symbols():
    assert isinstance(unify(a, b), Clash)
    assert isinstance(unify(f(X), g(X)), Clash)


def test_unify_occurs_check():
    assert isinstance(unify(X, f(X)), OccursCheckFailure)
    assert isinstance(unify(f(X, a), f(g(X), Y)), OccursCheckFailure)


def _abstract(rng, term, prefix, counter):
    """Replace random subterms of a ground term with fresh variables."""
    if rng.random() < 0.3:
        name = f"{prefix}{next(counter)}"
        return Var(name), {name: term}
    if isinstance(term, Var) or not term.args:
        return term, {}
    args, binding = [], {}
    for t in term.args:
        new, got = _abstract(rng, t, prefix, counter)
        args.append(new)
        binding.update(got)
    return App(term.op, tuple(args)), binding


def _ground_term(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([a, b])
    return App(rng.choice(["f", "g"]), (_ground_term(rng, depth - 1),
                                        _ground_term(rng, depth - 1)))


def test_unify_is_most_general_on_random_pairs():
    rng = random.Random(23)
    successes = 0
    for _ in range(200):
        ground = _ground_term(rng, 3)
        left, tau1 = _abstract(rng, ground, "L", itertools.count())
        right, tau2 = _abstract(rng, ground, "R", itertools.count())
        result = unify(left, right)
        # tau1 | tau2 is a unifier, so unification must succeed ...
        assert isinstance(result, Mgu), (left, right)
        sigma = result.substitution
        unified = apply(sigma, left)
        assert unified == apply(sigma, right)
        # ... and the known unifier must be an instance of the mgu.
        assert match_term(unified, ground, {})
        successes += 1
    assert successes == 200


def _random_literal_pair(rng):
    """Complementary literals p(s1,s2) and ~p(t1,t2), non-ground one first.

    Exactly one is ground.  Terms are over constants a and b, unary f and
    binary g (_random_term).  Half the time the non-ground side abstracts
    the ground one, so that matches are about as common as clashes.
    """
    ground = Literal(True, "p", (_random_term(rng, 3, ()), _random_term(rng, 3, ())))
    if rng.random() < 0.5:
        counter = itertools.count()
        args = tuple(_abstract(rng, t, "V", counter)[0] for t in ground.args)
    else:
        args = (_random_term(rng, 3, ("X", "Y")), _random_term(rng, 3, ("X", "Y")))
    lifted = Literal(False, "p", args)
    if not lifted.has_var:
        lifted = Literal(False, "p", (X, args[1]))
    if rng.random() < 0.5:
        return lifted, ground
    return lifted.negate(), ground.negate()


def test_matching_path_gives_the_unifier_of_unify():
    rng = random.Random(5)
    seen = {"match": 0, "clash": 0}
    for n in range(500):
        lifted, ground = _random_literal_pair(rng)
        l1, l2 = (lifted, ground) if n % 2 else (ground, lifted)
        expected = unify(App("t", l1.args), App("t", l2.args))
        got = _args_mgu(l1, l2)
        if isinstance(expected, Clash):
            assert got is None, (l1, l2)
            seen["clash"] += 1
        else:
            assert isinstance(expected, Mgu), (l1, l2)
            assert got == dict(expected.substitution.bindings), (l1, l2)
            seen["match"] += 1
    assert min(seen.values()) >= 100, seen


def test_resolvents_are_equal_with_and_without_a_shared_literal_table():
    rng = random.Random(8)
    table = {}
    built = 0
    for n in range(500):
        lifted, ground = _random_literal_pair(rng)
        # the clauses share no variable: X, Y and V0... on one side, Z on the other
        side = Literal(rng.random() < 0.5, "q", (_random_term(rng, 2, ("X", "Y")),))
        c_lifted = Clause([side, lifted])
        side = Literal(rng.random() < 0.5, "q", (_random_term(rng, 2, ("Z",)),))
        c_ground = Clause([ground, side])
        c1, c2 = (c_lifted, c_ground) if n % 2 else (c_ground, c_lifted)
        for resolvent, (i, j), mgu in resolve(c1, c2):
            bindings = dict(mgu.bindings)
            shared = _resolvent(c1, i, c2, j, bindings, table)
            assert shared == resolvent
            assert shared.lit_set == resolvent.lit_set
            by_hand = [l.substitute(bindings) for k, l in enumerate(c1.literals) if k != i]
            by_hand += [l.substitute(bindings) for k, l in enumerate(c2.literals) if k != j]
            assert shared == Clause(by_hand)
            again = _resolvent(c1, i, c2, j, bindings, table)
            assert all(x is y for x, y in zip(again.literals, shared.literals))
            built += 1
    assert built >= 200, built


# -- resolution and factoring -------------------------------------------------

def test_resolve_basic():
    c1 = Clause([Literal(True, "p", (X,)), Literal(True, "q", (X,))])
    c2 = Clause([Literal(False, "p", (a,))])
    results = resolve(c1, c2)
    assert len(results) == 1
    resolvent, positions, mgu = results[0]
    assert clause_str(resolvent) == "q(a)"
    assert positions == (0, 0)
    assert dict(mgu.bindings) == {"X": a}


def test_resolve_requires_complementary_pair():
    c1 = Clause([Literal(True, "p", (X,))])
    assert resolve(c1, Clause([Literal(True, "p", (a,))])) == []
    assert resolve(c1, Clause([Literal(False, "q", (a,))])) == []


def test_resolve_returns_every_choice():
    c1 = Clause([Literal(True, "p", (X,)), Literal(True, "p", (a,))])
    c2 = Clause([Literal(False, "p", (b,)), Literal(False, "p", (Y,))])
    pairs = {positions for _, positions, _ in resolve(c1, c2)}
    assert pairs == {(0, 0), (0, 1), (1, 1)}  # p(a) vs ~p(b) clashes


def test_resolve_merges_labels():
    c1 = Clause([Literal(True, "p", ())], labels=("ax1",))
    c2 = Clause([Literal(False, "p", ())], labels=("ax2",))
    (resolvent, _, _), = resolve(c1, c2)
    assert resolvent.labels == ("ax1", "ax2")


def test_factor_unifies_same_sign_literals():
    c = Clause([Literal(True, "p", (X,)), Literal(True, "p", (a,))])
    results = factor(c)
    assert len(results) == 1
    factored, positions, mgu = results[0]
    assert clause_str(factored) == "p(a)"
    assert positions == (0, 1)
    assert dict(mgu.bindings) == {"X": a}


def test_factor_skips_opposite_signs():
    c = Clause([Literal(True, "p", (X,)), Literal(False, "p", (a,))])
    assert factor(c) == []


def test_factor_restricted_to_positions():
    c = Clause([Literal(True, "p", (X,)), Literal(True, "p", (a,)),
                Literal(True, "p", (Y,))])
    assert [pos for _, pos, _ in factor(c)] == [(0, 1), (0, 2), (1, 2)]
    assert [pos for _, pos, _ in factor(c, (0, 2))] == [(0, 2)]


def _ground_clauses(rng, num_vars, count):
    clauses = []
    while len(clauses) < count:
        width = rng.randint(1, 3)
        lits = {(rng.random() < 0.5, rng.randrange(num_vars)) for _ in range(width)}
        clauses.append(sorted(lits))
    return clauses


def _dimacs(lits):
    return [idx + 1 if sign else -(idx + 1) for sign, idx in lits]


def test_resolvents_preserve_models_of_their_parents():
    """Soundness spot check: adding resolvents never changes satisfiability."""
    rng = random.Random(41)
    for _ in range(50):
        props = _ground_clauses(rng, 4, 5)
        as_clauses = [
            Clause([Literal(sign, f"v{idx}", ()) for sign, idx in lits])
            for lits in props
        ]
        derived = []
        for c1, c2 in itertools.combinations(as_clauses, 2):
            for resolvent, _, _ in resolve(c1, c2):
                derived.append(
                    [(l.positive, int(l.pred[1:])) for l in resolvent.literals]
                )
        before = tt_satisfiable(4, [_dimacs(c) for c in props])
        after = tt_satisfiable(4, [_dimacs(c) for c in props + derived])
        assert before == after


# -- subsumption --------------------------------------------------------------

def test_subsumes_instance_and_subset():
    general = Clause([Literal(True, "p", (X,))])
    assert subsumes(general, Clause([Literal(True, "p", (a,)),
                                     Literal(True, "q", ())]))
    assert not subsumes(general, Clause([Literal(False, "p", (a,))]))


def test_subsumes_needs_consistent_match():
    c = Clause([Literal(True, "p", (X, X))])
    assert not subsumes(c, Clause([Literal(True, "p", (a, b))]))
    assert subsumes(c, Clause([Literal(True, "p", (b, b))]))


# -- saturation ---------------------------------------------------------------

def test_saturate_single_unit_terminates():
    result = saturate([Clause([Literal(True, "p", (X,))])])
    assert isinstance(result, Saturated)


def test_saturate_finds_contradiction():
    clauses = [
        Clause([Literal(True, "p", (a,))], labels=("fact",)),
        Clause([Literal(False, "p", (X,))], labels=("denial",)),
    ]
    result = saturate(clauses)
    assert isinstance(result, Refutation)
    assert result.derivation.is_refutation()
    assert check_derivation(result.derivation, clauses)


def test_saturate_empty_input_is_satisfiable():
    assert isinstance(saturate([]), Saturated)


def test_saturate_propagates_input_empty_clause():
    result = saturate([Clause([])])
    assert isinstance(result, Refutation)
    assert len(result.derivation.steps) == 1


def test_saturate_respects_clause_limit(reduced_six):
    clauses = clausify(reduced_six)
    result = saturate(clauses, Limits(max_clauses=100, max_seconds=None))
    assert isinstance(result, ResourceOut)
    assert result.reason == "clause-limit"


def test_saturate_respects_time_limit(reduced_six):
    clauses = clausify(reduced_six)
    result = saturate(clauses, Limits(max_clauses=None, max_seconds=0.0))
    assert isinstance(result, ResourceOut)
    assert result.reason == "time-limit"


def test_a_subsumption_query_stops_at_the_deadline(monkeypatch):
    """The time limit passes inside one forward-subsumption query, which ends the search.

    The third given clause resolves ~r(a) away, leaving the ~p edges of
    a complete bipartite graph on 3 + 3 nodes, both ways.  An odd cycle
    of ~p literals maps into no bipartite graph, so the query fails only
    after the matcher has tried every walk.  The clock reads one
    millisecond per match attempt, so a 5 s limit passes 5,000 attempts
    into the query; the matcher reads the clock once per 4,096 attempts.
    """
    attempts = [0]
    match = saturation._match_args

    def counting(*args):
        attempts[0] += 1
        return match(*args)

    monkeypatch.setattr(saturation, "_match_args", counting)
    monkeypatch.setattr(saturation, "time", SimpleNamespace(monotonic=lambda: attempts[0] / 1000))
    left = [App(f"a{i}", ()) for i in range(3)]
    right = [App(f"b{i}", ()) for i in range(3)]
    edges = [Literal(False, "p", pair) for x in left for y in right for pair in ((x, y), (y, x))]
    nodes = [Var(f"X{i}") for i in range(7)]
    cycle = [Literal(False, "p", (nodes[i], nodes[(i + 1) % 7])) for i in range(7)]
    clauses = [
        Clause([Literal(False, "r", (a,))] + edges),
        Clause(cycle),
        Clause([Literal(True, "r", (a,))]),
    ]
    prover = Prover(clauses, Limits(max_clauses=None, max_seconds=5.0))
    assert prover.step() == ResourceOut("time-limit", 1)
    assert prover.selections == 3
    assert attempts[0] <= 5_000 + 4_096


@pytest.mark.parametrize(
    "fields", [{"max_seconds": float("nan")}, {"max_seconds": -1.0}, {"max_clauses": -1}]
)
def test_limits_reject_nan_and_negative_bounds(fields):
    with pytest.raises(ValueError):
        Limits(**fields)


def test_limits_accept_zero_and_unbounded():
    assert Limits(max_clauses=0, max_seconds=0.0).max_seconds == 0.0
    assert Limits(max_clauses=None, max_seconds=None).max_clauses is None


@pytest.mark.parametrize("slice_size", [1, 50])
def test_prover_steps_in_slices_match_saturate(reduced_six, slice_size):
    clauses = clausify(reduced_six)
    whole = saturate(clauses)
    prover = Prover(clauses)
    result = prover.step(slice_size)
    while result is None:
        result = prover.step(slice_size)
    assert isinstance(result, Refutation)
    assert result.generated == whole.generated
    assert format_derivation(result.derivation) == format_derivation(whole.derivation)
    assert prover.step(slice_size) is result  # a finished search stays finished


@pytest.mark.parametrize(
    "labels, generated, steps",
    [
        (["ax4", "ax5", "ax7", "ax8", "ax10", "ax12"], 2_819, 86),
        ([f"ax{k}" for k in range(1, 13)], 1_898, 75),
    ],
    ids=["six", "twelve"],
)
def test_search_is_pinned(hypotheses, labels, generated, steps):
    """A change that makes clauses cheaper must not change the search."""
    result = saturate(saturation_inputs([hypotheses[l] for l in labels]))
    assert isinstance(result, Refutation)
    assert result.generated == generated
    assert len(result.derivation.steps) == steps


def test_saturate_is_deterministic(hypotheses):
    clauses = clausify([hypotheses["ax4"], hypotheses["ax8"], hypotheses["ax12"]])
    first = saturate(list(clauses))
    second = saturate(list(clauses))
    assert type(first) is type(second)
    assert first.generated == second.generated


# -- proof checking -----------------------------------------------------------

def refutation_steps(reduced_six_clauses):
    result = saturate(reduced_six_clauses)
    assert isinstance(result, Refutation)
    return result


def test_check_derivation_accepts_real_proofs():
    clauses = [
        Clause([Literal(True, "p", (X,)), Literal(True, "p", (Y,))]),
        Clause([Literal(False, "p", (a,))]),
        Clause([Literal(False, "p", (b,))]),
    ]
    result = saturate(clauses)
    assert isinstance(result, Refutation)
    assert check_derivation(result.derivation, clauses)


def test_check_derivation_rejects_empty_proof_of_nonempty_goal():
    assert check_derivation(Derivation([]), [])  # vacuously fine
    assert not Derivation([]).is_refutation()


def test_check_derivation_rejects_foreign_input():
    clauses = [Clause([Literal(True, "p", (a,))])]
    result = saturate(clauses + [Clause([Literal(False, "p", (X,))])])
    assert isinstance(result, Refutation)
    verdict = check_derivation(result.derivation, clauses)
    assert not verdict
    assert "input" in verdict.message


def test_check_derivation_detects_tampered_clause():
    clauses = [
        Clause([Literal(True, "p", (a,)), Literal(True, "q", ())]),
        Clause([Literal(False, "p", (X,))]),
        Clause([Literal(False, "q", ())]),
    ]
    result = saturate(clauses)
    assert isinstance(result, Refutation)
    steps = result.derivation.steps
    victim = next(
        i for i, s in enumerate(steps)
        if not isinstance(s.rule, type(steps[0].rule)) or len(s.clause.literals) == 1
    )
    target = steps[victim]
    doctored = dataclasses.replace(
        target, clause=Clause(list(target.clause.literals) + [Literal(True, "r", ())])
    )
    bad = Derivation(steps[:victim] + [doctored] + steps[victim + 1:])
    verdict = check_derivation(bad, clauses)
    assert not verdict
    assert verdict.failed_step is not None


def test_check_derivation_detects_wrong_substitution():
    clauses = [
        Clause([Literal(True, "p", (X,))]),
        Clause([Literal(False, "p", (a,))]),
    ]
    result = saturate(clauses)
    assert isinstance(result, Refutation)
    steps = list(result.derivation.steps)
    last = steps[-1]
    broken_rule = dataclasses.replace(last.rule, mgu=type(last.rule.mgu)({}))
    steps[-1] = dataclasses.replace(last, rule=broken_rule)
    verdict = check_derivation(Derivation(steps), clauses)
    assert not verdict
    assert verdict.failed_step == last.id


def test_format_derivation_layout():
    clauses = [
        Clause([Literal(True, "p", (a,))], labels=("fact",)),
        Clause([Literal(False, "p", (X,))], labels=("denial",)),
    ]
    result = saturate(clauses)
    text = format_derivation(result.derivation)
    lines = text.splitlines()
    assert lines[0].endswith("[input fact]")
    assert lines[1].endswith("[input denial]")
    assert lines[-1].startswith("0. $false [resolution ")
    assert text.endswith("\n")


# -- the Knuth-Bendix ordering ------------------------------------------------

_PRECEDENCE = {"a": 0, "b": 1, "f": 2, "g": 3, "p": 4, "q": 5}


def _random_term(rng, depth, variables):
    roll = rng.random()
    if variables and roll < 0.35:
        return Var(rng.choice(variables))
    if depth == 0 or roll < 0.6:
        return rng.choice([a, b])
    if rng.random() < 0.5:
        return f(_random_term(rng, depth - 1, variables))
    return g(_random_term(rng, depth - 1, variables),
             _random_term(rng, depth - 1, variables))


def _random_atom(rng, variables):
    if rng.random() < 0.5:
        return Literal(True, "p", (_random_term(rng, 2, variables),))
    return Literal(True, "q", (_random_term(rng, 2, variables),
                               _random_term(rng, 2, variables)))


def _greater(s, t):
    return kbo_greater(s.pred, s.args, t.pred, t.args, _PRECEDENCE)


def test_kbo_is_irreflexive():
    rng = random.Random(5)
    for _ in range(300):
        s = _random_atom(rng, ["X", "Y"])
        assert not _greater(s, s), s


def test_kbo_is_total_on_ground_atoms():
    rng = random.Random(6)
    for _ in range(500):
        s, t = _random_atom(rng, []), _random_atom(rng, [])
        if s == t:
            continue
        assert _greater(s, t) != _greater(t, s), (s, t)


def test_kbo_is_stable_under_substitution():
    rng = random.Random(7)
    ordered = 0
    for _ in range(1500):
        s, t = _random_atom(rng, ["X", "Y"]), _random_atom(rng, ["X", "Y"])
        if not _greater(s, t):
            continue
        ordered += 1
        assert not _greater(t, s), (s, t)
        for _ in range(3):
            sigma = {v: _random_term(rng, 2, ["Y", "Z"]) for v in ("X", "Y")}
            assert _greater(s.substitute(sigma), t.substitute(sigma)), (s, t, sigma)
    assert ordered >= 300


def test_kbo_needs_variable_containment():
    # equal weight and head, but X does not occur in g(Y, Y): incomparable,
    # since X -> g(Y, Y) makes both sides equal
    s = Literal(True, "q", (g(Y, Y), X))
    t = Literal(True, "q", (X, g(Y, Y)))
    assert not _greater(s, t) and not _greater(t, s)
    assert _greater(Literal(True, "p", (f(X),)), Literal(True, "p", (X,)))
    assert not _greater(Literal(True, "p", (f(X),)), Literal(True, "p", (Y,)))


def test_symbol_precedence_ranks_rare_symbols_high():
    clauses = [
        Clause([Literal(True, "p", (a,)), Literal(True, "q", (a, b))]),
        Clause([Literal(False, "p", (X,)), Literal(True, "r", ())]),
    ]
    rank = symbol_precedence(clauses)
    # p and a occur twice, q, b and r once; ties rank earlier symbols higher
    assert sorted(rank, key=rank.get) == ["a", "p", "r", "b", "q"]
    assert symbol_precedence(list(clauses)) == rank


def test_eligible_literals_are_selected_or_maximal():
    mixed = Clause([Literal(True, "q", (a, b)), Literal(False, "p", (X,)),
                    Literal(False, "p", (a,))])
    assert _eligible_indices(mixed, _PRECEDENCE) == (1,)
    positive = Clause([Literal(True, "p", (X,)), Literal(True, "q", (X, a)),
                       Literal(True, "p", (f(X),))])
    # q(X, a) exceeds p(X) by weight and p(f(X)) by precedence
    assert _eligible_indices(positive, _PRECEDENCE) == (1,)
    incomparable = Clause([Literal(True, "p", (X,)), Literal(True, "p", (Y,))])
    assert _eligible_indices(incomparable, _PRECEDENCE) == (0, 1)


def test_selection_takes_the_highest_ranked_negative_predicate():
    # q ranks above p, whatever the order, weight or sign of the others
    assert _eligible_indices(
        Clause([Literal(False, "p", (f(f(X)),)), Literal(False, "q", (X, a)),
                Literal(True, "q", (a, b))]),
        _PRECEDENCE,
    ) == (1,)
    # among literals of one predicate, the heavier one
    assert _eligible_indices(
        Clause([Literal(False, "p", (X,)), Literal(False, "p", (f(X),))]),
        _PRECEDENCE,
    ) == (1,)
    # and among equally heavy ones, the leftmost
    assert _eligible_indices(
        Clause([Literal(False, "p", (a,)), Literal(False, "p", (X,))]),
        _PRECEDENCE,
    ) == (0,)


# -- forward unit deletion ------------------------------------------------------

def _deletion_prover():
    """A prover holding ~q(X), ~r(Y) and q(Z) | q(f(Z)) | r(Z), unsaturated.

    Resolving q(Z) against ~q(X) gives q(f(X)) | r(X): a clause derived
    from the unit ~q(X) that shares its variable, and whose literals the
    two units refute in turn.
    """
    inputs = [
        Clause([Literal(False, "q", (X,))], ("unit_q",)),
        Clause([Literal(False, "r", (Y,))], ("unit_r",)),
        Clause([Literal(True, "q", (Z,)), Literal(True, "q", (f(Z),)),
                Literal(True, "r", (Z,))], ("big",)),
    ]
    prover = Prover(inputs)
    unit_q, big = prover.clauses[1], prover.clauses[3]
    mgu = _args_mgu(big.literals[0], unit_q.literals[0])
    derived = _resolvent(big, 0, unit_q, 0, mgu, {})
    assert derived.variables() == unit_q.variables()
    return inputs, prover, derived, Resolution((3, 1), (0, 0), Substitution(mgu))


def test_unit_deletion_steps_pass_the_checker():
    inputs, prover, derived, rule = _deletion_prover()
    simplified, cuts = prover._unit_deletions(derived)
    assert simplified.is_empty()
    assert cuts == [(0, 1), (1, 2)]
    last, last_rule = prover._record_deletions(derived, rule, cuts)
    step = prover.keep(last, last_rule)
    derivation = prover.extract(step.id)
    assert derivation.is_refutation()
    assert check_derivation(derivation, inputs)
    deletions = [s for s in derivation.steps if s.id > 3]
    # the derived clause, then one step per deleted literal; the second
    # deletion sits at position 0 once the first literal is gone
    assert [len(s.clause.literals) for s in deletions] == [2, 1, 0]
    assert [s.rule.positions for s in deletions[1:]] == [(0, 0), (0, 0)]


def test_unit_deletion_keeps_the_rest_of_a_clause():
    _, prover, _, _ = _deletion_prover()
    c = Clause([Literal(True, "p", (X,)), Literal(True, "q", (g(X, a),))])
    simplified, cuts = prover._unit_deletions(c)
    assert clause_str(simplified) == "p(X)"
    assert cuts == [(1, 1)]
    untouched = Clause([Literal(False, "q", (X,)), Literal(True, "s", ())])
    assert prover._unit_deletions(untouched) == (untouched, [])


@pytest.mark.parametrize(
    "tamper",
    [
        lambda rule: dataclasses.replace(rule, positions=(1, 0)),
        lambda rule: dataclasses.replace(rule, mgu=Substitution({})),
    ],
    ids=["position", "mgu"],
)
def test_checker_rejects_a_tampered_unit_deletion(tamper):
    inputs, prover, derived, rule = _deletion_prover()
    _, cuts = prover._unit_deletions(derived)
    last, last_rule = prover._record_deletions(derived, rule, cuts)
    steps = prover.extract(prover.keep(last, last_rule).id).steps
    # steps 1-3 are the inputs, 4 the derived clause, 5 its first deletion
    victim = steps[4]
    assert victim.id == 5 and victim.rule.parents == (4, 1)
    steps[4] = dataclasses.replace(victim, rule=tamper(victim.rule))
    verdict = check_derivation(Derivation(steps), inputs)
    assert not verdict
    assert verdict.failed_step == victim.id


def test_search_deletes_a_literal_that_resolution_would_not_touch():
    """q(a) is not maximal in q(a) | t(f(f(a))), so only a unit deletes it."""
    inputs = [
        Clause([Literal(True, "p", (a,))]),
        Clause([Literal(False, "q", (X,))]),
        Clause([Literal(False, "p", (Y,)), Literal(True, "q", (Y,)),
                Literal(True, "t", (f(f(Y)),))]),
        Clause([Literal(False, "t", (Z,))]),
    ]
    result = saturate(inputs)
    assert isinstance(result, Refutation)
    assert check_derivation(result.derivation, inputs)
    clauses = {s.id: clause_str(s.clause) for s in result.derivation.steps}
    cuts = [
        (clauses[s.rule.parents[0]], clauses[s.rule.parents[1]], clauses[s.id])
        for s in result.derivation.steps
        if isinstance(s.rule, Resolution)
    ]
    assert ("q(a) | t(f(f(a)))", "~q(X0)", "t(f(f(a)))") in cuts, cuts


# -- completeness of the ordering restriction ---------------------------------

def test_ordered_saturation_agrees_with_model_enumeration():
    """Refutation exactly on the unsatisfiable function-free clause sets.

    Without function symbols the Herbrand universe is the set of
    constants (or one element when there are none), so a model of size
    max(1, constants) exists exactly when the set is satisfiable, and
    exhaustive enumeration decides it.  Saturated answers thereby test
    the completeness of the ordering restriction, Refutation answers its
    soundness.
    """
    rng = random.Random(1009)
    seen = {"Refutation": 0, "Saturated": 0}
    restricted = 0
    for _ in range(300):
        constants, clauses = random_function_free_clauses(rng)
        size = max(1, len(constants))
        expected = clauses_have_model(
            clauses, FREE_PREDS, {name: 0 for name in constants}, size
        )
        result = saturate(clauses, Limits(max_clauses=20_000, max_seconds=30.0))
        assert isinstance(result, (Refutation, Saturated)), clauses
        assert isinstance(result, Saturated) == expected, clauses
        seen[type(result).__name__] += 1
        if isinstance(result, Refutation):
            assert check_derivation(result.derivation, clauses)
        precedence = symbol_precedence(clauses)
        restricted += any(
            c.literals and all(l.positive for l in c.literals)
            and len(_eligible_indices(c, precedence)) < len(c.literals)
            for c in clauses
        )
    assert min(seen.values()) >= 60, seen
    assert restricted >= 60
