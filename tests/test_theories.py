"""Theory objects, the switch-predicate infimum, and the machine-driven
generator theories with their oracle-relative decision procedure."""

import itertools
from pathlib import Path

import pytest

from theorybench.boolcomb import GeneratorCombination
from theorybench.machines import (DIVERGER, OracleContractError, Unknown, Yes,
                                  load_program, load_table, parse_program)
from theorybench.syntax import (contains_sugar, expand_sugar, free_variables,
                                parse, pretty, rename_symbols)
from theorybench.theories import (J, build_sch, build_so, consistency_probe,
                                  decide_ovee, decide_sch, finite_set_oracle,
                                  j_axiom, ovee)

FIXTURES = Path(__file__).parent / "fixtures"
HALT = parse_program("HALT")


class TestJAxioms:
    def test_first_three_are_equivalence_axioms(self):
        texts = [pretty(j_axiom(i)) for i in range(3)]
        assert texts[0] == "forall x. E(x, x)"
        assert "E(y, x)" in texts[1]
        assert "E(x, z)" in texts[2]

    def test_schemas_alternate(self):
        # even offsets: uniqueness of an exact-size class; odd: enough classes
        assert "B[" in pretty(j_axiom(3))
        assert pretty(j_axiom(4)).startswith("exists")

    def test_axioms_are_sentences(self):
        for i in range(12):
            assert free_variables(j_axiom(i)) == frozenset()


class TestOvee:
    def test_interleaving(self):
        w = ovee(J, J)
        assert pretty(w.axiom(0)) == "P -> (forall x. E_left(x, x))"
        assert pretty(w.axiom(1)) == "~P -> (forall x. E_right(x, x))"

    def test_signature_disjoint_union(self):
        w = ovee(J, J)
        assert {name for name, _ in w.signature.relations} == \
            {"E_left", "E_right", "P"}

    def test_fairness_position(self):
        from theorybench.syntax import rename_symbols
        w = ovee(J, J)
        for i in range(6):
            tagged = rename_symbols(j_axiom(i), {"E": "E_left"},
                                    sugar_map={"A": "A_left", "B": "B_left"})
            assert pretty(w.axiom(2 * i)) == f"P -> ({pretty(tagged)})"

    def test_excluded_middle_on_switch(self):
        w = ovee(J, J)
        assert decide_ovee(parse("P | ~P", w.signature))

    def test_inner_tautology(self):
        w = ovee(J, J)
        assert decide_ovee(parse("P -> (A_left[0] | ~A_left[0])", w.signature))

    def test_bare_left_sentence_not_provable(self):
        w = ovee(J, J)
        assert not decide_ovee(parse("A_left[0]", w.signature))
        assert not decide_ovee(parse("P -> A_left[0]", w.signature))

    def test_both_branches_with_provable_parts(self):
        w = ovee(J, J)
        chi = "(P -> (A_left[1] | ~A_left[1])) & (~P -> (A_right[2] | ~A_right[2]))"
        assert decide_ovee(parse(chi, w.signature))

    def test_mixed_leaf_rejected(self):
        w = ovee(J, J)
        with pytest.raises(Exception):
            decide_ovee(parse("exists x. E_left(x, x) & E_right(x, x)",
                              w.signature))


class TestBuildSch:
    def test_diverger_gives_plain_J(self):
        theory = build_sch(DIVERGER, [DIVERGER])
        for i in range(8):
            assert pretty(theory.axiom(i)) == pretty(j_axiom(i))

    def test_consistency_probe_clean(self):
        even = load_program(FIXTURES / "even.cm")
        table = load_table(FIXTURES / "table_full")
        theory = build_sch(even, table)
        assert consistency_probe(theory, 40) is None

    def test_emitted_axioms_match_direct_membership(self):
        even = load_program(FIXTURES / "even.cm")
        table = load_table(FIXTURES / "table_full")
        theory = build_sch(even, table)
        emitted = {pretty(theory.axiom(i)) for i in range(60)}
        positives = {int(s.split("[")[1].rstrip("]"))
                     for s in emitted if s.startswith("A[")}
        # spot-check a few indices against the membership procedure
        for n in sorted(positives)[:3]:
            assert isinstance(theory.positive(n, 1000), Yes)


class TestBuildSo:
    def test_double_diverger_is_J(self):
        theory = build_so(DIVERGER, DIVERGER)
        assert pretty(theory.axiom(5)) == pretty(j_axiom(5))

    def test_same_halting_set_inconsistent(self):
        theory = build_so(HALT, HALT)
        assert consistency_probe(theory, 10) == 0

    def test_dovetail_emits_both_signs(self):
        theory = build_so(HALT, DIVERGER)
        emitted = [pretty(theory.axiom(i)) for i in range(12)]
        assert "A[0]" in emitted
        assert not any(s.startswith("~A[") for s in emitted)

    def test_deep_base_axiom_prints_and_parses_back(self):
        # thousands of left-nested conjuncts: printing must not recurse
        # once per conjunct
        theory = build_so(load_program(FIXTURES / "even.cm"),
                          load_program(FIXTURES / "const401.cm"))
        text = pretty(theory.axiom(400))
        assert text.startswith("exists x1. exists x2.") and text.count(" & ") > 1000
        assert pretty(parse(text)) == text

    def test_deep_chain_passes(self):
        # the same chain: every pass keeps its own stack
        axiom = build_so(load_program(FIXTURES / "even.cm"),
                         load_program(FIXTURES / "const401.cm")).axiom(400)
        assert free_variables(axiom) == frozenset()
        assert contains_sugar(axiom)
        renamed = rename_symbols(axiom, {"E": "E_left"}, sugar_map={"B": "B_left"})
        assert pretty(renamed) == pretty(axiom).replace("E(", "E_left(").replace("B[", "B_left[")
        # expanding axiom(400) itself builds millions of subformulas, so
        # expand the smallest base axiom whose chain is as deep as the
        # default recursion limit
        expanded = expand_sugar(j_axiom(96))
        assert not contains_sugar(expanded) and free_variables(expanded) == frozenset()


class TestDecideSch:
    B, C = {0, 2}, {1}

    def decide(self, text, budget=10):
        return decide_sch(parse(text), finite_set_oracle(self.B),
                          finite_set_oracle(self.C), budget)

    def test_positive_axiom_provable(self):
        assert self.decide("A[0]") == "provable"

    def test_negative_axiom_provable(self):
        assert self.decide("~A[1]") == "provable"

    def test_untouched_index_undecided(self):
        assert self.decide("A[3]") == "not-provable"
        assert self.decide("~A[3]") == "not-provable"

    def test_tautology_needs_no_oracle(self):
        verdict = decide_sch(parse("A[5] | ~A[5]"),
                             lambda n, b: Unknown(b), lambda n, b: Unknown(b), 1)
        assert verdict == "provable"

    def test_unknown_oracle_propagates(self):
        verdict = decide_sch(parse("A[5]"),
                             lambda n, b: Unknown(b), lambda n, b: Unknown(b), 1)
        assert verdict == "unknown"

    def test_overlapping_oracles_rejected(self):
        with pytest.raises(OracleContractError):
            decide_sch(parse("A[0]"), finite_set_oracle({0}),
                       finite_set_oracle({0}), 5)

    def test_agrees_with_bruteforce(self):
        # semantic check: provable iff true under every assignment of the
        # support generators consistent with (B, C)
        sentences = [
            "A[0] & ~A[1]", "A[0] -> A[2]", "A[2] | A[3]", "~A[3] -> A[0]",
            "A[1]", "~(A[0] & A[1])", "A[0] <-> A[2]", "A[3] -> A[3]",
        ]
        from theorybench.janiczak import qe_sentence
        for text in sentences:
            g = qe_sentence(parse(text))
            verdicts = []
            for assignment in itertools.product([False, True], repeat=len(g.support)):
                val = dict(zip(g.support, assignment))
                if any(val.get(i) is False for i in self.B if i in val):
                    continue
                if any(val.get(i) is True for i in self.C if i in val):
                    continue
                verdicts.append(g.evaluate(lambda i: val[i]))
            expected = "provable" if all(verdicts) else "not-provable"
            assert self.decide(text) == expected, text


class TestBudgetMonotonicity:
    def test_decided_verdicts_stable(self):
        even = load_program(FIXTURES / "even.cm")
        table = load_table(FIXTURES / "table_full")
        theory = build_sch(even, table)
        query = parse("A[0] | ~A[0]")
        history = [decide_sch(query, theory.positive, theory.negative, b)
                   for b in (10, 100, 1000)]
        assert all(v == "provable" for v in history)
