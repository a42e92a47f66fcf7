"""Capped arithmetic models, purification and the bounded-witness theory."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from theorybench.syntax import (And, App, Atom, Bot, Const, Eq, Exists, Forall,
                                FormulaError, Iff, Implies, Not, Or, TN_SIG, Top,
                                Var, parse, pretty)
from theorybench.tn import (PureSigma, TNModel, bracket, bracket_axiom,
                            build_capped_model, eval_standard, model_check,
                            purify, tn_axiom_formula, tn_theory,
                            verify_tn_axioms, witness_model)


def tn(text):
    return parse(text, TN_SIG)


class TestCappedModel:
    def test_operations_truncate(self):
        m = build_capped_model(4)
        assert m.succ[4] == 4
        assert m.add[3][3] == 4
        assert m.mul[2][3] == 4

    def test_all_axioms_hold_up_to_cap_8(self):
        for cap in range(9):
            report = verify_tn_axioms(build_capped_model(cap))
            assert all(ok for _, ok, _ in report), cap

    def test_corrupted_successor_caught_with_counterexample(self):
        m = build_capped_model(5)
        bad = TNModel(m.cap, (1, 2, 3, 0, 5, 5), m.add, m.mul)
        report = {name: (ok, cx) for name, ok, cx in verify_tn_axioms(bad)}
        ok, cx = report["TN5"]
        assert not ok and cx is not None

    def test_corrupted_addition_blames_tn8(self):
        m = build_capped_model(3)
        add = tuple(tuple(0 for _ in row) for row in m.add)
        bad = TNModel(m.cap, m.succ, add, m.mul)
        failed = [name for name, ok, _ in verify_tn_axioms(bad) if not ok]
        assert "TN8" in failed

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            build_capped_model(-1)

    def test_corrupted_copy_leaves_memoised_model_untouched(self):
        m = build_capped_model(5)
        bad = replace(m, succ=(1, 2, 3, 0, 5, 5))
        assert not all(ok for _, ok, _ in verify_tn_axioms(bad))
        again = build_capped_model(5)
        assert again is m and again.succ == (1, 2, 3, 4, 5, 5)
        assert all(ok for _, ok, _ in verify_tn_axioms(again))


class TestModelCheck:
    def test_term_evaluation(self):
        m = build_capped_model(6)
        assert model_check(tn("S(S(0)) + S(0) = S(S(S(0)))"), m)

    def test_quantifiers_range_over_domain(self):
        m = build_capped_model(3)
        assert model_check(tn("forall x. x < S(x) | x = S(x)"), m)
        assert model_check(tn("exists x. x = S(x)"), m)  # the cap point

    def test_uncovered_variable_raises(self):
        with pytest.raises(FormulaError):
            model_check(tn("x = 0"), build_capped_model(2))

    def test_uncovered_variable_raises_only_when_reached(self):
        m = build_capped_model(2)
        f = tn("x = 0 | y = 0")
        assert model_check(f, m, {"x": 0})
        with pytest.raises(FormulaError, match="'y' not covered"):
            model_check(f, m, {"x": 1})
        g = tn("forall z. (z < S(z) | w = z)")  # w is reached only at the cap
        with pytest.raises(FormulaError, match="'w' not covered"):
            model_check(g, m)

    def test_unsupported_atom_raises_only_when_reached(self):
        m = build_capped_model(2)
        odd = Atom("E", (Var("x"), Var("x")))
        assert model_check(Or(Top(), odd), m, {"x": 0})
        with pytest.raises(FormulaError, match="cannot evaluate in a capped model"):
            model_check(And(Top(), odd), m, {"x": 0})
        with pytest.raises(FormulaError, match="cannot evaluate term"):
            model_check(Eq(Const("1"), Var("x")), m, {"x": 0})

    def test_defining_term_respects_shadowing(self):
        # the inner w rebinds the w of S(w), and the outer v is not the v
        # of S(v): neither equation defines the quantified variable
        m = build_capped_model(3)
        assert model_check(tn("forall w. exists v. exists w. (v = S(w) & w = S(S(0)))"), m)
        assert model_check(tn("forall v. exists v. v = S(v)"), m)
        assert model_check(tn("exists v. v = S(w)"), m, {"w": 1})

    def test_theory_axiom_stream_is_finite_formulas(self):
        theory = tn_theory()
        assert pretty(theory.axiom(0)).startswith("forall x.")
        assert pretty(tn_axiom_formula(6)) == "forall x. x + 0 = x"


class TestPurify:
    def test_numeral_flattened_to_successor_chain(self):
        p = purify(tn("exists y. y + y = S(S(S(S(0))))"))
        text = pretty(p.matrix)
        assert "S(S" not in text  # no nested applications survive
        assert "y + y" in text

    def test_prefix_terms_shared(self):
        # the numeral 2 appears twice but its chain is materialised once
        p = purify(tn("exists y. (y = S(S(0)) | y + y = S(S(0)))"))
        assert pretty(p.matrix).count("= 0") == 1

    def test_sentence_required(self):
        with pytest.raises(FormulaError):
            purify(tn("y + y = x"))

    def test_unbounded_universal_rejected(self):
        with pytest.raises(FormulaError):
            purify(tn("exists x. forall y. y < x"))

    def test_pure_output_validates(self):
        p = purify(tn("exists x. exists y. x * y = y"))
        assert isinstance(p, PureSigma)  # the constructor re-checks purity

    @pytest.mark.parametrize("text,truth", [
        ("exists y. y + y = S(S(S(S(0))))", True),
        ("exists y. y * y = S(S(S(0)))", False),
        ("exists y. S(S(y)) = S(S(S(0)))", True),
        ("exists x. (x = S(S(0)) & ~(exists u. (u < x & u * u = x)))", True),
        ("exists x. (x = S(0) & (forall u. (u < x -> ~(u + u = u))))", False),
        ("exists x. exists y. (x * x = y & y < x)", False),
    ])
    def test_purification_preserves_standard_truth(self, text, truth):
        sigma = tn(text)
        p = purify(sigma)
        assert eval_standard(sigma, 60) is truth
        assert eval_standard(p.to_formula(), 60) is truth


class TestBracket:
    def test_witness_model_for_two_plus_two(self):
        p = purify(tn("exists y. y + y = S(S(S(S(0))))"))
        m = witness_model(p, 10)
        assert m is not None and m.cap == 5

    def test_no_model_for_root_of_three(self):
        p = purify(tn("exists y. y * y = S(S(S(0)))"))
        assert witness_model(p, 10) is None

    def test_bracket_axiom_dominates_witnesses(self):
        p = purify(tn("exists y. y + y = S(S(0))"))
        axiom = bracket_axiom(p)
        text = pretty(axiom)
        for v in p.exist_vars:
            assert f"{v} < " in text

    def test_bracket_theory_is_finite(self):
        theory = bracket(purify(tn("exists y. y = 0")))
        assert theory.axiom(10) is not None
        with pytest.raises(IndexError):
            theory.axiom(11)

    def test_witness_model_satisfies_all_axioms(self):
        p = purify(tn("exists y. y + y = S(S(S(S(0))))"))
        m = witness_model(p, 10)
        theory = bracket(p)
        for i in range(11):
            assert model_check(theory.axiom(i), m), i


# the strict bound is what blocks cap-saturated spurious witnesses

def test_truncation_witness_blocked_by_strict_bound():
    # in the cap-3 model, 2+2 "equals" 3, which would fake a witness for
    # y+y=3; the bracket axiom demands a point strictly above it
    p = purify(tn("exists y. y + y = S(S(S(0)))"))
    assert witness_model(p, 8) is None
    m = build_capped_model(3)
    assert model_check(p.to_formula(), m)  # the fake witness does exist


@given(st.integers(0, 6), st.integers(0, 6))
def test_capped_addition_is_min_truncation(a, b):
    m = build_capped_model(6)
    assert m.add[a][b] == min(a + b, 6)
    assert m.mul[a][b] == min(a * b, 6)


# differential check of the compiled evaluator against a plain exhaustive
# interpreter over min-truncated arithmetic, with no defining-term shortcut

NAMES = ("x", "y", "u", "v")


def reference_check(f, cap, env):
    def term(t, env):
        match t:
            case Var(name):
                return env[name]
            case Const("0"):
                return 0
            case App("S", (a,)):
                return min(term(a, env) + 1, cap)
            case App("+", (a, b)):
                return min(term(a, env) + term(b, env), cap)
            case App("*", (a, b)):
                return min(term(a, env) * term(b, env), cap)
        raise AssertionError(t)

    def ev(g, env):
        match g:
            case Top():
                return True
            case Bot():
                return False
            case Eq(a, b):
                return term(a, env) == term(b, env)
            case Atom("<", (a, b)):
                return term(a, env) < term(b, env)
            case Not(body):
                return not ev(body, env)
            case And(a, b):
                return ev(a, env) and ev(b, env)
            case Or(a, b):
                return ev(a, env) or ev(b, env)
            case Implies(a, b):
                return not ev(a, env) or ev(b, env)
            case Iff(a, b):
                return ev(a, env) == ev(b, env)
            case Exists(var, body):
                return any(ev(body, {**env, var: d}) for d in range(cap + 1))
            case Forall(var, body):
                return all(ev(body, {**env, var: d}) for d in range(cap + 1))
        raise AssertionError(g)

    return ev(f, env)


@st.composite
def tn_terms(draw, scope, depth=2):
    kinds = ["var", "var", "zero"] + (["S", "+", "*"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return Var(draw(st.sampled_from(sorted(scope))))
    if kind == "zero":
        return Const("0")
    if kind == "S":
        return App("S", (draw(tn_terms(scope, depth - 1)),))
    return App(kind, (draw(tn_terms(scope, depth - 1)), draw(tn_terms(scope, depth - 1))))


@st.composite
def tn_formulas(draw, scope, depth=3, binders=3):
    """Formulas whose variables are all bound or in ``scope``, with at
    most ``binders`` nested quantifiers; quantifiers reuse a small pool of
    names, so they shadow each other and the assignment."""
    kinds = ["eq", "lt", "top"]
    if depth:
        kinds += ["not", "and", "or", "implies", "iff"]
        if binders:
            kinds += ["exists", "forall", "defined"]
    kind = draw(st.sampled_from(kinds))
    if kind == "eq":
        return Eq(draw(tn_terms(scope)), draw(tn_terms(scope)))
    if kind == "lt":
        return Atom("<", (draw(tn_terms(scope)), draw(tn_terms(scope))))
    if kind == "top":
        return draw(st.sampled_from([Top(), Bot()]))
    if kind == "not":
        return Not(draw(tn_formulas(scope, depth - 1, binders)))
    if kind in ("and", "or", "implies", "iff"):
        cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return cls(draw(tn_formulas(scope, depth - 1, binders)),
                   draw(tn_formulas(scope, depth - 1, binders)))
    if kind == "defined":
        return draw(tn_defined(scope, depth - 1, binders))
    var = draw(st.sampled_from(NAMES))
    body = draw(tn_formulas(scope | {var}, depth - 1, binders - 1))
    return (Exists if kind == "exists" else Forall)(var, body)


@st.composite
def tn_defined(draw, scope, depth=2, binders=3):
    """``exists v. [exists w.] (t = v & rest)`` in either order, where t
    and rest tend to mention w (or v) while the scope may bind the same
    name outside: the equation defines v only when t avoids both."""
    var = draw(st.sampled_from(NAMES))
    inner = draw(st.sampled_from(NAMES)) if binders > 1 and draw(st.booleans()) else None
    inner_scope = scope | {var} | ({inner} if inner else set())
    bound = Var(inner or var)
    t = draw(st.one_of(st.just(App("S", (bound,))), st.just(App("+", (bound, bound))),
                       tn_terms(inner_scope)))
    eq = draw(st.sampled_from([Eq(t, Var(var)), Eq(Var(var), t)]))
    rest = draw(st.one_of(st.builds(Eq, st.just(bound), tn_terms(scope)),
                          tn_formulas(inner_scope, depth, binders - 1 - (inner is not None))))
    body = And(eq, rest) if draw(st.booleans()) else And(rest, eq)
    if inner is not None:
        body = Exists(inner, body)
    return Exists(var, body)


SCOPE = frozenset(("x", "y"))


@settings(max_examples=300)
@given(st.data(), st.integers(0, 6))
def test_model_check_matches_exhaustive_reference(data, cap):
    f = data.draw(st.one_of(tn_formulas(SCOPE), tn_defined(SCOPE)))
    env = {name: data.draw(st.integers(0, cap)) for name in sorted(SCOPE)}
    assert model_check(f, build_capped_model(cap), env) == reference_check(f, cap, env)
