"""Sign patterns, translations, and the F recursion."""

from pathlib import Path

import pytest

from theorybench.boolcomb import TOP, GeneratorCombination
from theorybench.diagonal import (DiagonalError, Exhausted, Translation,
                                  apply_translation, build_X, cn_formula,
                                  enumerate_Cn, enumerate_translations, f,
                                  find_p, stream_from_sentences)
from theorybench.janiczak import decide_J, qe_sentence
from theorybench.syntax import (Atom, Eq, FormulaError, J_SIG, Var, parse,
                                pretty)

FIXTURES = Path(__file__).parent / "fixtures"


def load_stream():
    sentences = []
    for raw in (FIXTURES / "diag.sents").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            sentences.append(parse(line))
    return stream_from_sentences(sentences)


@pytest.fixture(scope="module")
def translations():
    return enumerate_translations(J_SIG, 5)


class TestEnumerateCn:
    def test_n0_is_top(self):
        assert enumerate_Cn(0) == [TOP]

    def test_bit_convention(self):
        c = enumerate_Cn(2)[1]  # j=1: bit 0 set, bit 1 clear
        expected = GeneratorCombination.generator(0) & \
            ~GeneratorCombination.generator(1)
        assert c == expected
        assert pretty(cn_formula(2, 1)) == "A[0] & ~A[1]"

    def test_pairwise_inconsistent_jointly_exhaustive(self):
        patterns = enumerate_Cn(3)
        assert len(patterns) == 8
        union = patterns[0]
        for a_idx in range(8):
            for b_idx in range(a_idx + 1, 8):
                assert (patterns[a_idx] & patterns[b_idx]).is_bottom
            union = union | patterns[a_idx]
        assert union.is_top

    def test_formula_matches_combination(self):
        for j in range(8):
            assert qe_sentence(cn_formula(3, j)) == enumerate_Cn(3)[j]


class TestTranslation:
    def test_trivial_embedding(self):
        tau = Translation(J_SIG, Eq(Var("x"), Var("x")),
                          (("E", ("x", "y"), Atom("E", (Var("x"), Var("y")))),))
        out = apply_translation(tau, parse("forall x. forall y. E(x, y)"))
        assert pretty(out) == "forall x. x = x -> (forall y. y = y -> E(x, y))"

    def test_argument_order_respected(self):
        tau = Translation(J_SIG, Eq(Var("x"), Var("x")),
                          (("E", ("x", "y"), Atom("E", (Var("y"), Var("x")))),))
        out = apply_translation(tau, parse("E(u, v)"))
        assert out == Atom("E", (Var("v"), Var("u")))

    def test_equality_clause(self):
        tau = Translation(J_SIG, Eq(Var("x"), Var("x")),
                          (("E", ("x", "y"), Atom("E", (Var("x"), Var("y")))),),
                          equality=Atom("E", (Var("x"), Var("y"))))
        out = apply_translation(tau, parse("exists x. exists y. ~(x = y)"))
        assert "E(x, y)" in pretty(out)

    def test_domain_restricted_to_x(self):
        with pytest.raises(FormulaError):
            Translation(J_SIG, Eq(Var("x"), Var("y")), ())

    def test_clause_arity_checked(self):
        with pytest.raises(FormulaError):
            Translation(J_SIG, Eq(Var("x"), Var("x")),
                        (("E", ("x",), Atom("E", (Var("x"), Var("x")))),))


class TestEnumerateTranslations:
    def test_contains_trivial_embedding(self, translations):
        wanted = Translation(J_SIG, Eq(Var("x"), Var("x")),
                             (("E", ("x", "y"), Atom("E", (Var("x"), Var("y")))),))
        assert wanted in translations

    def test_duplicate_free(self, translations):
        assert len(set(translations)) == len(translations)

    def test_deterministic(self, translations):
        assert translations == enumerate_translations(J_SIG, 5)

    def test_count_golden(self, translations):
        # frozen after first computation: 6 domains x 24 clause formulas
        assert len(translations) == 144


class TestFindP:
    def test_unprovable_with_fresh_generator(self, translations):
        # a stream whose first sentence mentions a generator the pattern
        # does not fix: p is that generator's index plus one
        stream = stream_from_sentences([parse("A[2]"), parse("exists x. ~(x = x)")])
        tau = translations[1]
        assert find_p(1, 1, tau, stream, 10) == 3

    def test_refutable_sentence_has_empty_support(self, translations):
        stream = stream_from_sentences([parse("exists x. ~(x = x)")])
        assert find_p(2, 3, translations[1], stream, 10) == 0

    def test_provable_prefix_skipped(self, translations):
        stream = stream_from_sentences([
            parse("A[0] | ~A[0]"),          # provable from anything
            parse("exists x. ~(x = x)"),    # first failure
        ])
        assert find_p(1, 0, translations[1], stream, 10) == 0

    def test_exhaustion_is_reported(self, translations):
        stream = stream_from_sentences([parse("A[0] | ~A[0]")])
        with pytest.raises(Exhausted) as exc:
            find_p(1, 0, translations[1], stream, budget=7)
        assert exc.value.budget == 7 and exc.value.j == 0

    @pytest.mark.parametrize("j", [-1, 2])
    def test_pattern_index_out_of_range(self, translations, j):
        stream = stream_from_sentences([parse("A[0]")])
        with pytest.raises(ValueError, match=f"pattern index {j} out of range for n=1"):
            find_p(1, j, translations[1], stream, 10)


class TestFAndBuildX:
    def test_f_at_least_n(self, translations):
        stream = load_stream()
        assert f(4, translations[0], stream, 200) >= 4

    def test_build_X_fixture(self, translations):
        values = build_X(3, translations, load_stream(), 200)
        assert values[0] == 0
        assert values == sorted(set(values))  # strictly increasing range

    def test_missing_translation_reported(self):
        with pytest.raises(DiagonalError):
            build_X(2, [], load_stream(), 50)

    def test_find_p_reverified_against_decider(self, translations):
        # independent re-check of the find_p contract on the fixture:
        # every earlier stream element is provable from the pattern
        from theorybench.syntax import Implies
        stream = load_stream()
        tau = translations[2]
        n, j = 2, 1
        budget = 50
        for k in range(budget):
            translated = apply_translation(tau, stream(k))
            provable = decide_J(Implies(cn_formula(n, j), translated))
            if not provable:
                g = qe_sentence(translated)
                assert find_p(n, j, tau, stream, budget) == \
                    max((s + 1 for s in g.support), default=0)
                break
            assert k < budget - 1, "fixture stream must fail somewhere"
