"""Parser, printer, traversal, substitution and prenex tests for the
formula core."""

import pytest
from hypothesis import given, strategies as st

from theorybench.syntax import (And, App, ArityMismatch, Atom, Bot, Const, Eq,
                                Exists, Forall, FormulaError, Iff, Implies,
                                J_SIG, Not, Or, ParseError, Signature, Sugar,
                                TN_SIG, Top, UndeclaredSymbol, Var,
                                _eliminate_iff, _expand_a, _expand_b,
                                children, expand_sugar, fold, free_variables,
                                parse, parse_signature, prenex, pretty,
                                rename_symbols, rewrite, subformulas,
                                substitute, term_vars)


def roundtrip(text, sig=J_SIG):
    f = parse(text, sig)
    assert parse(pretty(f), sig) == f
    return f


class TestParsing:
    def test_atom(self):
        assert parse("E(x, y)") == Atom("E", (Var("x"), Var("y")))

    def test_equality(self):
        assert parse("x = y") == Eq(Var("x"), Var("y"))

    def test_precedence_and_binds_tighter_than_or(self):
        f = parse("E(x, x) & E(y, y) | E(z, z)")
        assert isinstance(f, Or)
        assert isinstance(f.left, And)

    def test_implies_right_associative(self):
        f = parse("E(x, x) -> E(y, y) -> E(z, z)")
        assert isinstance(f, Implies)
        assert isinstance(f.right, Implies)

    def test_quantifier_body_extends_right(self):
        f = parse("exists x. E(x, x) & E(x, y)")
        assert isinstance(f, Exists)
        assert isinstance(f.body, And)

    def test_sugar_atoms(self):
        assert parse("A[3]") == Sugar("A", 3, ())
        assert parse("B[2](x)") == Sugar("B", 2, (Var("x"),))

    def test_arithmetic_terms(self):
        f = parse("x + y * z < S(0)", TN_SIG)
        assert isinstance(f, Atom) and f.rel == "<"
        # * binds tighter than +
        assert f.args[0].fn == "+"
        assert f.args[0].args[1].fn == "*"

    def test_undeclared_relation_rejected(self):
        with pytest.raises(UndeclaredSymbol):
            parse("R(x, y)")

    def test_arity_checked(self):
        with pytest.raises(ArityMismatch):
            parse("E(x)")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("E(x, y) &")
        assert exc.value.pos >= 8

    def test_signature_text(self):
        sig = parse_signature("rel R/2; fun f/1; const c;")
        assert sig.rel_arity("R") == 2
        assert sig.fun_arity("f") == 1
        assert sig.is_constant("c")


class TestPretty:
    @pytest.mark.parametrize("text", [
        "E(x, y)",
        "~E(x, y)",
        "A[0] & ~A[1] | A[2]",
        "(A[0] | A[1]) & A[2]",
        "forall x. exists y. E(x, y) -> x = y",
        "A[0] <-> A[1] -> A[2]",
        "B[3](x) & ~B[4](x)",
    ])
    def test_roundtrip(self, text):
        roundtrip(text)

    @pytest.mark.parametrize("text", [
        "x + y * z = 0",
        "S(S(0)) < x + (y + z)",
        "x * (y + z) = x * y + x * z",
    ])
    def test_roundtrip_arithmetic(self, text):
        roundtrip(text, TN_SIG)

    def test_minimal_parens(self):
        assert pretty(parse("A[0] & A[1] | A[2]")) == "A[0] & A[1] | A[2]"
        assert pretty(parse("(A[0] | A[1]) & A[2]")) == "(A[0] | A[1]) & A[2]"


class TestFreeVariablesAndSubstitution:
    def test_free_variables(self):
        f = parse("exists x. E(x, y) & E(z, x)")
        assert free_variables(f) == {"y", "z"}

    def test_substitute_avoids_capture(self):
        f = parse("exists x. E(x, y)")
        g = substitute(f, {"y": Var("x")})
        assert isinstance(g, Exists)
        # the bound variable must have been renamed away from x
        assert g.var != "x"
        assert free_variables(g) == {"x"}

    def test_substitute_simultaneous(self):
        f = parse("E(x, y)")
        g = substitute(f, {"x": Var("y"), "y": Var("x")})
        assert g == Atom("E", (Var("y"), Var("x")))


class TestSugarExpansion:
    def test_a0_is_singleton_class_existence(self):
        f = expand_sugar(parse("A[0]"))
        assert free_variables(f) == frozenset()
        assert "Sugar" not in repr(f)

    def test_b_expansion_keeps_free_variable(self):
        f = expand_sugar(parse("B[1](x)"))
        assert free_variables(f) == {"x"}

    def test_plain_formula_unchanged(self):
        f = parse("forall x. E(x, x)")
        assert expand_sugar(f) == f


class TestPrenex:
    def test_already_prenex(self):
        pf = prenex(parse("exists x. forall y. E(x, y)"))
        assert [q for q, _ in pf.prefix] == ["exists", "forall"]

    def test_pulls_through_negation(self):
        pf = prenex(parse("~(exists x. E(x, x))"))
        assert [q for q, _ in pf.prefix] == ["forall"]

    def test_matrix_quantifier_free(self):
        pf = prenex(parse("(exists x. E(x, x)) & (forall y. E(y, y))"))
        assert len(pf.prefix) == 2
        assert "Exists" not in repr(pf.matrix) and "Forall" not in repr(pf.matrix)

    def test_iff_eliminated(self):
        pf = prenex(parse("(exists x. E(x, x)) <-> (forall y. E(y, y))"))
        assert "Iff" not in repr(pf.matrix)

    def test_rejects_unexpanded_sugar(self):
        with pytest.raises(FormulaError):
            prenex(parse("exists x. B[1](x)"))


# hypothesis: random formula round-trips

_variables = st.sampled_from(["x", "y", "z"])


def _formulas():
    atoms = st.one_of(
        st.builds(lambda a, b: Atom("E", (Var(a), Var(b))), _variables, _variables),
        st.builds(lambda a, b: Eq(Var(a), Var(b)), _variables, _variables),
        st.builds(lambda n: Sugar("A", n, ()), st.integers(0, 5)),
        st.builds(lambda n, v: Sugar("B", n, (Var(v),)), st.integers(0, 2), _variables),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
            st.builds(lambda v, b: Exists(v, b), _variables, sub),
            st.builds(lambda v, b: Forall(v, b), _variables, sub),
        ),
        max_leaves=12,
    )


@given(_formulas())
def test_pretty_parse_roundtrip(f):
    assert parse(pretty(f)) == f


@given(_formulas())
def test_prenex_preserves_free_variables(f):
    f = expand_sugar(f)
    pf = prenex(f)
    bound = {v for _, v in pf.prefix}
    assert free_variables(f) == free_variables(pf.matrix) - bound


# the traversal core against the hand recursions it replaced, kept here as
# references


def _ref_free_variables(f):
    match f:
        case Top() | Bot():
            return frozenset()
        case Atom(_, args) | Sugar(_, _, args):
            return frozenset().union(*(term_vars(a) for a in args)) if args else frozenset()
        case Eq(a, b):
            return term_vars(a) | term_vars(b)
        case Not(body):
            return _ref_free_variables(body)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return _ref_free_variables(a) | _ref_free_variables(b)
        case Exists(var, body) | Forall(var, body):
            return _ref_free_variables(body) - {var}
    raise TypeError(f"not a formula: {f!r}")


def _ref_expand_sugar(f):
    match f:
        case Sugar("A", n, ()):
            return _expand_a(n)
        case Sugar("B", n, (x,)):
            return _expand_b(n, x)
        case Sugar(name, _, _):
            raise FormulaError(f"cannot expand tagged sugar atom {name!r}")
        case Top() | Bot() | Atom(_, _) | Eq(_, _):
            return f
        case Not(body):
            return Not(_ref_expand_sugar(body))
        case And(a, b):
            return And(_ref_expand_sugar(a), _ref_expand_sugar(b))
        case Or(a, b):
            return Or(_ref_expand_sugar(a), _ref_expand_sugar(b))
        case Implies(a, b):
            return Implies(_ref_expand_sugar(a), _ref_expand_sugar(b))
        case Iff(a, b):
            return Iff(_ref_expand_sugar(a), _ref_expand_sugar(b))
        case Exists(var, body):
            return Exists(var, _ref_expand_sugar(body))
        case Forall(var, body):
            return Forall(var, _ref_expand_sugar(body))
    raise TypeError(f"not a formula: {f!r}")


def _ref_eliminate_iff(f):
    match f:
        case Iff(a, b):
            a2, b2 = _ref_eliminate_iff(a), _ref_eliminate_iff(b)
            return And(Implies(a2, b2), Implies(b2, a2))
        case Not(body):
            return Not(_ref_eliminate_iff(body))
        case And(a, b):
            return And(_ref_eliminate_iff(a), _ref_eliminate_iff(b))
        case Or(a, b):
            return Or(_ref_eliminate_iff(a), _ref_eliminate_iff(b))
        case Implies(a, b):
            return Implies(_ref_eliminate_iff(a), _ref_eliminate_iff(b))
        case Exists(var, body):
            return Exists(var, _ref_eliminate_iff(body))
        case Forall(var, body):
            return Forall(var, _ref_eliminate_iff(body))
        case _:
            return f


def _ref_rename_symbols(f, rel_map, fun_map=None, const_map=None, sugar_map=None):
    fun_map = fun_map or {}
    const_map = const_map or {}
    sugar_map = sugar_map or {}

    def rt(t):
        match t:
            case Var(_):
                return t
            case Const(name):
                return Const(const_map.get(name, name))
            case App(fn, args):
                return App(fun_map.get(fn, fn), tuple(rt(a) for a in args))
        raise TypeError(f"not a term: {t!r}")

    def rf(g):
        match g:
            case Top() | Bot():
                return g
            case Atom(rel, args):
                return Atom(rel_map.get(rel, rel), tuple(rt(a) for a in args))
            case Sugar(name, index, args):
                return Sugar(sugar_map.get(name, name), index, tuple(rt(a) for a in args))
            case Eq(a, b):
                return Eq(rt(a), rt(b))
            case Not(body):
                return Not(rf(body))
            case And(a, b):
                return And(rf(a), rf(b))
            case Or(a, b):
                return Or(rf(a), rf(b))
            case Implies(a, b):
                return Implies(rf(a), rf(b))
            case Iff(a, b):
                return Iff(rf(a), rf(b))
            case Exists(var, body):
                return Exists(var, rf(body))
            case Forall(var, body):
                return Forall(var, rf(body))
        raise TypeError(f"not a formula: {g!r}")

    return rf(f)


def _ref_preorder(f):
    out = [f]
    for k in children(f):
        out.extend(_ref_preorder(k))
    return out


@given(_formulas())
def test_free_variables_matches_recursion(f):
    assert free_variables(f) == _ref_free_variables(f)


@given(_formulas())
def test_expand_sugar_matches_recursion(f):
    assert expand_sugar(f) == _ref_expand_sugar(f)


@given(_formulas())
def test_eliminate_iff_matches_recursion(f):
    assert _eliminate_iff(f) == _ref_eliminate_iff(f)


@given(_formulas())
def test_rename_symbols_matches_recursion(f):
    maps = ({"E": "E_left"}, {"S": "T"}, {"0": "c"}, {"A": "A_left", "B": "B_left"})
    assert rename_symbols(f, *maps) == _ref_rename_symbols(f, *maps)


@given(_formulas())
def test_identity_rewrite_and_preorder(f):
    assert rewrite(f, lambda g: g) == f
    assert list(subformulas(f)) == _ref_preorder(f)
    assert fold(f, lambda g, kids: 1 + sum(kids)) == len(_ref_preorder(f))


def test_rename_symbols_in_terms():
    f = parse("forall x. S(x) + 0 < x", TN_SIG)
    g = rename_symbols(f, {"<": "lt"}, {"S": "succ", "+": "plus"}, {"0": "zero"})
    assert g == _ref_rename_symbols(f, {"<": "lt"}, {"S": "succ", "+": "plus"}, {"0": "zero"})
    assert g.body == Atom("lt", (App("plus", (App("succ", (Var("x"),)), Const("zero"))),
                                 Var("x")))
