"""Configuration calculus, quantifier elimination and the semantic oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theorybench.boolcomb import BOTTOM, TOP, GeneratorCombination
from theorybench.janiczak import (Configuration, _first_occurrence_order,
                                  build_spectrum_structure, config_to_formula,
                                  consistent_with_J, decide_J,
                                  enumerate_configs, eval_in_structure,
                                  project_config, qe_open, qe_sentence,
                                  qf_to_configs)
from theorybench.syntax import (And, Atom, Bot, Const, Eq, Exists, Forall,
                                Formula, FormulaError, Iff, Implies, Not, Or,
                                Sugar, Top, Var, disj, expand_sugar,
                                free_variables, parse, prenex, pretty)


def qe(text):
    return qe_sentence(parse(text))


# The configuration pipeline as it was before the bit-parallel kernel, one
# Configuration object at a time, kept as the reference the kernel must match.
# The filter and the elimination draw their configurations from
# ``enumerate_configs``, which is checked against the enumeration loop.


def _partitions(items):
    """All set partitions, blocks ordered by first occurrence."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        yield ((first,),) + sub
        for k in range(len(sub)):
            yield sub[:k] + ((first,) + sub[k],) + sub[k + 1:]


def _coarsenings(partition):
    """All partitions coarser than ``partition`` (merging whole blocks)."""
    idx = tuple(range(len(partition)))
    for grouping in _partitions(idx):
        blocks = []
        for group in grouping:
            merged = tuple(sorted(itertools.chain.from_iterable(partition[g] for g in group)))
            blocks.append(merged)
        yield tuple(sorted(blocks, key=lambda b: b[0]))


def ref_enumerate_configs(n, vars):
    idx = tuple(range(len(vars)))
    out = []
    for eq_blocks in _partitions(idx):
        eq_blocks = tuple(sorted((tuple(sorted(b)) for b in eq_blocks), key=lambda b: b[0]))
        for e_blocks in _coarsenings(eq_blocks):
            splits = [sum(1 for b in eq_blocks if set(b) <= set(eb)) for eb in e_blocks]
            for size_mask in range(1 << (n - 1)):
                sizes = frozenset(i + 1 for i in range(n - 1) if size_mask >> i & 1)
                choices = sorted(sizes) + [n]
                for assignment in itertools.product(choices, repeat=len(e_blocks)):
                    if any(assignment[k] < splits[k] for k in range(len(e_blocks))):
                        continue
                    small = [v for v in assignment if v < n]
                    if len(small) != len(set(small)):
                        continue
                    size_of = [0] * len(vars)
                    for k, eb in enumerate(e_blocks):
                        for i in eb:
                            size_of[i] = assignment[k]
                    out.append(Configuration(n, vars, eq_blocks, e_blocks,
                                             sizes, tuple(size_of)))
    out.sort(key=Configuration.sort_key)
    return tuple(out)


def _atom_value(c, f):
    match f:
        case Top():
            return True
        case Bot():
            return False
        case Eq(Var(a), Var(b)):
            return a == b or c.same_eq(a, b)
        case Atom("E", (Var(a), Var(b))):
            return a == b or c.same_e(a, b)
    raise FormulaError(f"cannot evaluate atom under a configuration: {f!r}")


def _eval_qf(c, f):
    match f:
        case Not(body):
            return not _eval_qf(c, body)
        case And(a, b):
            return _eval_qf(c, a) and _eval_qf(c, b)
        case Or(a, b):
            return _eval_qf(c, a) or _eval_qf(c, b)
        case Implies(a, b):
            return not _eval_qf(c, a) or _eval_qf(c, b)
        case Iff(a, b):
            return _eval_qf(c, a) == _eval_qf(c, b)
        case _:
            return _atom_value(c, f)


def ref_qf_to_configs(matrix, n, vars):
    return frozenset(c for c in enumerate_configs(n, vars) if _eval_qf(c, matrix))


def _eliminate_prefix(configs, prefix, n, outer_vars):
    var_order = list(outer_vars) + [v for _, v in prefix]
    for depth in range(len(prefix), 0, -1):
        kind, _ = prefix[depth - 1]
        current = tuple(var_order[:len(outer_vars) + depth])
        target = tuple(var_order[:len(outer_vars) + depth - 1])
        if kind == "exists":
            configs = frozenset(project_config(c, target) for c in configs)
        else:
            universe = set(enumerate_configs(n, current))
            complement = frozenset(universe - configs)
            projected = frozenset(project_config(c, target) for c in complement)
            configs = frozenset(set(enumerate_configs(n, target)) - projected)
    return configs


def ref_qe_open(f):
    f = expand_sugar(f)
    fv_order = tuple(_first_occurrence_order(f))
    pf = prenex(f)
    n = max(1, len(pf.prefix) + len(fv_order))
    vars_all = fv_order + tuple(v for _, v in pf.prefix)
    configs = ref_qf_to_configs(pf.matrix, n, vars_all)
    return n, _eliminate_prefix(configs, pf.prefix, n, fv_order)


def configs_to_extended_formula(configs, n: int, vars: tuple[str, ...]) -> Formula:
    """Quantifier-free form in the signature extended by the generator and
    size-bound sugar atoms, as a disjunction of configuration formulas."""
    ordered = sorted(configs, key=Configuration.sort_key)
    return disj([config_to_formula(c) for c in ordered])


def _base(f):
    """The configuration base ``qe_open`` works in."""
    f = expand_sugar(f)
    return max(1, len(prenex(f).prefix) + len(free_variables(f)))


_names = st.sampled_from(["x", "y", "z"])


def _small_formulas():
    atoms = st.one_of(
        st.builds(lambda a, b: Atom("E", (Var(a), Var(b))), _names, _names),
        st.builds(lambda a, b: Eq(Var(a), Var(b)), _names, _names),
        st.just(Top()),
        st.just(Bot()),
        st.builds(lambda n: Sugar("A", n, ()), st.integers(0, 2)),
        st.builds(lambda n, v: Sugar("B", n, (Var(v),)), st.integers(0, 2), _names),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
            st.builds(Exists, _names, sub),
            st.builds(Forall, _names, sub),
        ),
        max_leaves=5,
    ).filter(lambda f: len(free_variables(f)) <= 2 and _base(f) <= 4)


@settings(max_examples=50, deadline=None)
@given(_small_formulas())
def test_qe_open_matches_reference_pipeline(f):
    assert qe_open(f) == ref_qe_open(f)


def _matrices():
    atoms = st.one_of(
        st.builds(lambda a, b: Atom("E", (Var(a), Var(b))), _names, _names),
        st.builds(lambda a, b: Eq(Var(a), Var(b)), _names, _names),
        st.just(Top()),
        st.just(Bot()),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=8,
    )


@settings(max_examples=50, deadline=None)
@given(_matrices(), st.integers(1, 3))
def test_qf_to_configs_matches_reference_filter(matrix, n):
    names = ("x", "y", "z")
    assert qf_to_configs(matrix, n, names) == ref_qf_to_configs(matrix, n, names)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(n + 1)] + [(5, 4)])
def test_enumerate_configs_matches_reference_loop(n, k):
    names = ("x", "y", "z", "w", "v")[:k]
    assert enumerate_configs(n, names) == ref_enumerate_configs(n, names)


@pytest.mark.parametrize("atom", [
    Atom("R", (Var("x"), Var("y"))),
    Atom("E", (Var("x"), Var("y"), Var("x"))),
    Eq(Const("0"), Var("x")),
    Sugar("B", 1, (Var("x"),)),
])
def test_unsupported_atom_keeps_its_message(atom):
    message = f"cannot evaluate atom under a configuration: {atom!r}"
    c = ref_enumerate_configs(2, ("x", "y"))[0]
    with pytest.raises(FormulaError) as old:
        _eval_qf(c, atom)
    assert str(old.value) == message
    # every atom is evaluated, also where the reference short-circuits
    for matrix in (atom, Or(Top(), atom)):
        with pytest.raises(FormulaError) as new:
            qf_to_configs(matrix, 2, ("x", "y"))
        assert str(new.value) == message


class TestEnumerateConfigs:
    def test_n1_single_var(self):
        assert len(enumerate_configs(1, ("x",))) == 1

    def test_n2_single_var(self):
        assert len(enumerate_configs(2, ("x",))) == 3

    def test_empty_vars(self):
        assert len(enumerate_configs(1, ())) == 1

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            enumerate_configs(0, ("x",))

    def test_no_duplicates_and_deterministic(self):
        a = enumerate_configs(3, ("x", "y"))
        b = enumerate_configs(3, ("x", "y"))
        assert a == b
        assert len(set(a)) == len(a)

    def test_eq_refines_e(self):
        for c in enumerate_configs(3, ("x", "y")):
            for a, b in itertools.combinations(c.vars, 2):
                if c.same_eq(a, b):
                    assert c.same_e(a, b)

    def test_e_classes_share_size(self):
        for c in enumerate_configs(3, ("x", "y")):
            for a, b in itertools.combinations(c.vars, 2):
                if c.same_e(a, b):
                    assert c.var_size(a) == c.var_size(b)


class TestQfToConfigs:
    def test_top_gives_all(self):
        all_configs = enumerate_configs(2, ("x",))
        got = qf_to_configs(parse("x = x"), 2, ("x",))
        assert got == frozenset(all_configs)

    def test_reflexive_atom_gives_all(self):
        got = qf_to_configs(parse("E(x, x)"), 2, ("x",))
        assert got == frozenset(enumerate_configs(2, ("x",)))

    def test_equality_selects_identified_configs(self):
        got = qf_to_configs(parse("x = y"), 2, ("x", "y"))
        assert got
        for c in got:
            assert c.same_eq("x", "y")
        rest = frozenset(enumerate_configs(2, ("x", "y"))) - got
        for c in rest:
            assert not c.same_eq("x", "y")


class TestProjectConfig:
    def test_projection_to_empty(self):
        (c,) = enumerate_configs(1, ("x",))
        assert project_config(c, ()).vars == ()

    def test_projection_surjective(self):
        wide = enumerate_configs(3, ("x", "y"))
        narrow = {project_config(c, ("x",)) for c in wide}
        # every single-variable configuration arises as a restriction
        assert narrow == set(enumerate_configs(3, ("x",)))

    def test_arity_bound_enforced(self):
        c = enumerate_configs(2, ("x", "y"))[0]
        with pytest.raises(ValueError):
            project_config(c, ("x", "y"))


class TestQeSentence:
    def test_a0_eliminates_to_itself(self):
        assert qe_sentence(expand_sugar(parse("A[0]"))) == \
            GeneratorCombination.generator(0)

    def test_exists_reflexive(self):
        assert qe("exists x. E(x, x)").is_top

    def test_two_classes_exist(self):
        assert qe("exists x. exists y. ~E(x, y)").is_top

    def test_all_related_refuted(self):
        assert qe("forall x. forall y. E(x, y)").is_bottom

    def test_sugar_handled_directly(self):
        assert qe("A[2]") == GeneratorCombination.generator(2)

    def test_free_variables_rejected(self):
        with pytest.raises(Exception):
            qe_sentence(parse("E(x, y)"))

    def test_conjunction_homomorphism(self):
        f, g = "A[0] | A[1]", "~A[1] | A[2]"
        assert qe(f"({f}) & ({g})") == qe(f) & qe(g)

    def test_negation_homomorphism(self):
        assert qe("~(A[0] & A[2])") == ~qe("A[0] & A[2]")


class TestDecideJ:
    def test_tautology(self):
        assert decide_J(parse("A[0] | ~A[0]"))

    def test_lone_generator_not_provable(self):
        assert not decide_J(parse("A[1]"))

    def test_negated_conjunction_not_provable(self):
        assert not decide_J(parse("~(A[0] & A[1] & A[2])"))

    def test_negated_generator_not_provable(self):
        assert not decide_J(parse("~A[3]"))


class TestConsistency:
    def test_minterm_consistent(self):
        m = GeneratorCombination.minterm({0: True, 1: False, 2: True})
        assert consistent_with_J(m)

    def test_contradiction_inconsistent(self):
        g = GeneratorCombination.generator(0)
        assert not consistent_with_J(g & ~g)

    def test_top_consistent(self):
        assert consistent_with_J(TOP)

    def test_all_sign_patterns_over_four_generators(self):
        for bits in range(16):
            m = GeneratorCombination.minterm(
                {i: bool(bits >> i & 1) for i in range(4)})
            assert consistent_with_J(m)


class TestQeOpen:
    def test_atom_keeps_related_configs(self):
        n, configs = qe_open(parse("E(x, y)"))
        assert n == 2
        assert all(c.same_e("x", "y") for c in configs)

    def test_exists_with_reflexive_witness(self):
        n, configs = qe_open(parse("exists y. E(x, y)"))
        assert configs == frozenset(enumerate_configs(n, ("x",)))

    def test_class_size_two(self):
        n, configs = qe_open(parse("exists y. (E(x, y) & ~(x = y))"))
        # every surviving configuration says x's class has >= 2 elements
        structure = build_spectrum_structure({1}, n)
        formula = configs_to_extended_formula(configs, n, ("x",))
        for point in structure.domain:
            expected = structure.class_size(point) >= 2
            assert eval_in_structure(formula, structure, {"x": point}) == expected


class TestSpectrumStructure:
    def test_sizes_example(self):
        s = build_spectrum_structure({1, 2}, 4)
        sizes = sorted({s.class_size(p) for p in s.domain})
        assert sizes == [1, 2, 5, 6, 7, 8]

    def test_generator_evaluation(self):
        s = build_spectrum_structure({1, 2}, 4)
        assert eval_in_structure(parse("A[0]"), s)
        assert not eval_in_structure(parse("A[2]"), s)

    def test_expanded_sugar_matches_spectrum(self):
        s = build_spectrum_structure({2}, 4)
        for size in (1, 2, 3):
            f = expand_sugar(parse(f"A[{size - 1}]"))
            assert eval_in_structure(f, s) == (size == 2)

    def test_exists_reflexive_true(self):
        s = build_spectrum_structure(set(), 2)
        assert eval_in_structure(parse("exists x. E(x, x)"), s)

    def test_uncovered_variable_raises(self):
        s = build_spectrum_structure(set(), 2)
        with pytest.raises(Exception):
            eval_in_structure(parse("E(x, x)"), s)


class TestFactsOneAndTwo:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_tuple_satisfies_exactly_one_config(self, n):
        # exhaustiveness needs n >= number of variables (as in the QE
        # pipeline, where n counts quantifiers plus free variables)
        for nvars in (1, 2):
            if nvars > n:
                continue
            names = ("x", "y")[:nvars]
            configs = enumerate_configs(n, names)
            formulas = [config_to_formula(c) for c in configs]
            for mask in range(1 << (n - 1)):
                spectrum = {i + 1 for i in range(n - 1) if mask >> i & 1}
                structure = build_spectrum_structure(spectrum, max(n, 2))
                for tup in itertools.product(structure.domain, repeat=nvars):
                    env = dict(zip(names, tup))
                    hits = sum(eval_in_structure(f, structure, env)
                               for f in formulas)
                    assert hits == 1, (n, spectrum, tup)


class TestAtomDetermination:
    def test_configs_force_atom_values(self):
        # fact 4: a configuration formula semantically decides each atom
        names = ("x", "y")
        for c in enumerate_configs(2, names):
            formula = config_to_formula(c)
            for spectrum in ({1}, set()):
                structure = build_spectrum_structure(spectrum, 3)
                for tup in itertools.product(structure.domain, repeat=2):
                    env = dict(zip(names, tup))
                    if not eval_in_structure(formula, structure, env):
                        continue
                    assert (tup[0] == tup[1]) == c.same_eq("x", "y")
                    assert structure.related(*tup) == c.same_e("x", "y")
