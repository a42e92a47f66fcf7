"""Tests of the benchmark's references and generators.

    python3 -m pytest bench/test_refs.py

Each reference is checked on hand-worked cases and shown to reject a
corrupted program output.  None of this imports the program.
"""
import itertools
import json
import random
from pathlib import Path

import gen
import refs
import run
import workloads
from formulas import BINARY, parse, render

HERE = Path(__file__).resolve().parent


def quantifiers(f) -> int:
    """Number of quantifier nodes, sugar atoms counted as atoms."""
    tag = f[0]
    if tag in ("ex", "all"):
        return 1 + quantifiers(f[2])
    if tag == "not":
        return quantifiers(f[1])
    if tag in BINARY:
        return quantifiers(f[1]) + quantifiers(f[2])
    return 0


def expanded_quantifiers(f) -> int:
    """Quantifiers once the sugar is written out: A[k] has k+2, B[k] k+1."""
    tag = f[0]
    if tag == "A":
        return f[1] + 2
    if tag == "B":
        return f[1] + 1
    if tag in ("ex", "all"):
        return 1 + expanded_quantifiers(f[2])
    if tag == "not":
        return expanded_quantifiers(f[1])
    if tag in BINARY:
        return expanded_quantifiers(f[1]) + expanded_quantifiers(f[2])
    return 0


def top_leaves(f) -> list:
    """The maximal subformulas below the top Boolean structure: the parts
    the program eliminates one by one."""
    tag = f[0]
    if tag == "not":
        return top_leaves(f[1])
    if tag in BINARY:
        return top_leaves(f[1]) + top_leaves(f[2])
    return [f]


def machines():
    return gen.machines()


# -- sentence structures -------------------------------------------------


def test_render_parse_round_trip():
    rng = random.Random(7)
    for index in range(3):
        for op in gen.decide_round(rng.randrange(100), index):
            assert parse(op["text"]) == op["sentence"]
    for truth, text, sentence in workloads.load_corpus():
        assert parse(render(sentence)) == sentence


def test_generator_caps():
    for index in range(20):
        for op in gen.decide_round(3, index):
            bases = [expanded_quantifiers(leaf) for leaf in top_leaves(op["sentence"])
                     if leaf[0] != "A"]
            assert max(bases) == 4 and bases.count(4) == 1
        for s in gen.diagonal_round(3, index)["stream"]:
            for leaf in top_leaves(s):
                assert quantifiers(leaf) <= 3 and expanded_quantifiers(leaf) <= 4
                assert all(g <= 2 for g in refs.generators(leaf))


# -- equivalence structures ----------------------------------------------


def brute_holds(f, sizes, env=None):
    """Plain exhaustive search over every element."""
    domain = [(c, i) for c, size in enumerate(sizes) for i in range(size)]
    env = dict(env or {})
    tag = f[0]
    if tag in ("ex", "all"):
        values = (brute_holds(f[2], sizes, {**env, f[1]: d}) for d in domain)
        return any(values) if tag == "ex" else all(values)
    if tag in ("not", "and", "or", "imp", "iff"):
        parts = [brute_holds(p, sizes, env) for p in f[1:]]
        return {"not": lambda: not parts[0], "and": lambda: all(parts), "or": lambda: any(parts),
                "imp": lambda: not parts[0] or parts[1], "iff": lambda: parts[0] == parts[1]}[tag]()
    return refs.holds_eq(f, sizes, env)


def test_holds_eq_hand_worked():
    b1 = parse("exists x. B[1](x)")
    assert not refs.holds_eq(b1, (1,)) and refs.holds_eq(b1, (1, 2))
    partner = parse("forall x. exists y. (E(x, y) & ~(x = y))")
    assert not refs.holds_eq(partner, (1, 3)) and refs.holds_eq(partner, (2, 3, 3))
    assert refs.holds_eq(parse("A[0] & ~A[1]"), (1, 3))
    three = parse("exists x. exists y. exists z. (~(x = y) & ~(x = z) & ~(y = z) & E(x, y) & E(y, z))")
    assert not refs.holds_eq(three, (2, 2, 2)) and refs.holds_eq(three, (1, 3))


def test_orbit_search_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        q = rng.choice((1, 2, 3))
        f = gen.j_leaf(rng, q, [("B", rng.randrange(3))], 3)
        sizes = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 4)))
        assert refs.holds_eq(f, sizes) == brute_holds(f, sizes)


def test_check_decide_rejects_corruption():
    f = parse("(exists x. B[1](x)) & A[2]")   # valid part times a generator

    def truth(true_set):
        return 2 in true_set
    assert refs.check_decide(f, (2,), truth, False) is None
    assert refs.check_decide(f, (2,), lambda t: True, True) is not None   # claims TOP
    assert refs.check_decide(f, (2,), truth, True) is not None           # wrong verdict
    g = parse("exists x. forall y. (E(x, y) -> x = y)")                   # "a singleton class"
    assert refs.check_decide(g, (0,), lambda t: 0 in t, False) is None
    assert refs.check_decide(g, (), lambda t: False, False) is not None   # drops A[0]


def test_check_eval_rejects_corruption():
    f = parse("exists x. (B[1](x) & ~B[2](x))")                           # a class of size 2
    assert refs.check_eval(f, [2], 3, True) is None
    assert refs.check_eval(f, [1], 3, False) is None
    assert refs.check_eval(f, [1], 3, True) is not None


def test_translated_stage_value():
    identity = (parse("x = x"), parse("E(x, y)"))
    assert refs.TranslatedTable(parse("A[0]"), *identity).support_bound() == 1
    stream = [parse("A[0] | ~A[0]"), parse("A[1]"), parse("exists x. ~(x = x)")]
    # both sign patterns of A0 pass the tautology and stop at A[1]: p = 2
    assert refs.stage_value(1, *identity, stream, 10) == 2
    assert refs.check_stage([0, 2], 1, 2) is None
    assert refs.check_stage([0, 1], 1, 2) is not None
    assert refs.check_stage([0, 2, 2], 2) is not None                      # no increase
    # every class becomes a singleton under equality as E: A[0] holds
    singletons = (parse("x = x"), parse("x = y"))
    assert refs.TranslatedTable(parse("A[0]"), *singletons).implied_by(0, 0)


# -- counter machines ----------------------------------------------------


def test_unpair_and_halting():
    assert [refs.unpair(z) for z in range(5)] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    assert all(refs.unpair(refs.pair(x, y)) == (x, y) for x, y in itertools.product(range(30), repeat=2))
    m = machines()
    assert m.halts("a", 4, 100) == 8 and m.halts("a", 3, 100) is None
    assert m.halts(3, 17, 10_000) == 401 and m.halts(0, 5, 10_000) is None
    assert m.halts(7, 5, 10_000) is None                                  # padded diverger


def test_check_window_rejects_corruption():
    m = machines()
    tie = refs.pair(2, 2)          # machine 2 halts at step 5, the base machine on 2 at 5
    race = m.race(tie, 10_000)
    assert race["B"] == ("no",) and race["Bbot"] == ("yes", 5)
    good = [(race["B"], race["C"], race["Bbot"])]
    assert refs.check_window(m, [tie], good, 10_000) is None
    assert refs.check_window(m, [tie], [(("yes", 5), race["C"], race["Bbot"])], 10_000) is not None


def test_check_reduce_rejects_corruption():
    m = machines()
    assert refs.check_reduce(m, [10, 11], ["in_A", "not_in_A"], 3, 10_000) is None
    assert refs.check_reduce(m, [10, 11], ["in_A", "in_A"], 3, 10_000) is not None


def test_check_sch_rejects_corruption():
    m = machines()
    # x = 0: the base machine halts on 0 at step 2, table machine 0 never
    assert refs.sch_verdict(m, parse("A[0]"), 50) == "provable"
    assert refs.check_sch(m, parse("A[0] | A[5]"), 50, "provable") is None
    assert refs.check_sch(m, parse("A[0]"), 50, "not-provable") is not None


def test_axiom_stream_and_check():
    kinds = refs.axiom_kinds(lambda n, s: n == 0, lambda n, s: n == 1 and s >= 3, 8)
    assert kinds[:6] == [("J", 0), ("pos", 0), ("J", 1), ("J", 2), ("neg", 1), ("J", 3)]
    assert refs.check_axiom(("pos", 3), "A[3]") is None
    assert refs.check_axiom(("pos", 3), "~A[3]") is not None
    assert refs.check_axiom(("J", 0), "forall x. E(x, x)") is None
    assert refs.check_axiom(("J", 0), "forall x. ~E(x, x)") is not None


# -- arithmetic ----------------------------------------------------------


def test_arithmetic_hand_worked():
    doubles = parse("exists y. y + y = S(S(S(S(0))))")
    assert refs.arith_holds(doubles) and not refs.arith_holds(parse("exists y. y + y = S(S(S(0)))"))
    assert refs.arith_holds(doubles, cap=5, outer_below=5)
    assert not refs.arith_holds(doubles, cap=1, outer_below=1)
    assert refs.term_value(parse("S(S(0)) * S(S(S(0))) = 0")[1], {}, cap=4) == 4


def test_check_witness_rejects_corruption():
    doubles = parse("exists y. y + y = S(S(S(S(0))))")
    assert refs.check_witness(doubles, True, 5, family_cap=5) is None
    assert refs.check_witness(doubles, True, None, family_cap=5) is not None
    assert refs.check_witness(doubles, True, 4, family_cap=5) is not None
    odd = parse("exists y. y + y = S(S(S(0)))")
    assert refs.check_witness(odd, False, None) is None
    assert refs.check_witness(odd, False, 7) is not None


def test_check_verify_rejects_corruption():
    names = [name for name, _ in refs.TN_AXIOMS]
    assert refs.check_verify(4, [(n, True) for n in names]) is None
    assert refs.check_verify(4, [(n, n != "TN3") for n in names]) is not None


# -- the contract file -----------------------------------------------------


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
