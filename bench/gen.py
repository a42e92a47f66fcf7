"""Seeded op lists for the four workloads.

A run attempts whole rounds.  Every round of a workload has the same
make-up (the same number of ops of each kind and shape); the seed and the
round index pick the contents, so rounds differ in what they ask but not
in how much they ask.  Nothing here imports the program.

Print the inputs of a workload with

    python3 bench/gen.py <workload> <seed> [rounds]
"""
from __future__ import annotations

import random
import sys

from formulas import numeral, render, var

WORKLOADS = ("decide", "races", "models", "diagonal")


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Sentences of the equivalence theory

VARS = ("x", "y", "z", "v")


def _atom(rng, names):
    a, b = rng.choice(names), rng.choice(names)
    if rng.random() < 0.6:
        return ("E", var(a), var(b))
    if a == b:
        b = rng.choice(names)
    return ("=", var(a), var(b))


def _matrix(rng, atoms):
    """A random Boolean combination of the given atoms, each used once."""
    parts = [("not", a) if rng.random() < 0.35 else a for a in atoms]
    rng.shuffle(parts)
    while len(parts) > 1:
        a, b = parts.pop(), parts.pop()
        op = rng.choice(("and", "and", "or", "imp"))
        parts.append((op, a, b) if rng.random() < 0.8 else ("not", (op, a, b)))
    return parts[0]


def j_leaf(rng, quantified: int, sugar: list, atoms: int):
    """A closed leaf: ``quantified`` quantifiers over a matrix of ``atoms``
    E/= atoms plus the given sugar atoms (("B", k) gets a bound variable as
    its argument; ("A", k) stays closed)."""
    names = list(VARS[:quantified])
    parts = [_atom(rng, names) for _ in range(atoms)]
    for kind, k in sugar:
        parts.append(("B", k, var(rng.choice(names))) if kind == "B" else ("A", k))
    body = _matrix(rng, parts)
    for name in reversed(names):
        body = (rng.choice(("ex", "all")), name, body)
    return body


def _literal(rng, top):
    g = ("A", rng.randrange(top))
    return ("not", g) if rng.random() < 0.5 else g


# Leaf shapes of the decide workload: (quantifiers, sugar atoms, E/= atoms).
# Each writes out to exactly four quantifiers, the configuration base 4.
DECIDE_SHAPES = (
    (4, [], 3), (4, [], 4), (3, [("B", 0)], 3),
    (2, [("B", 1)], 2), (2, [("B", 1)], 3), (2, [("B", 1)], 3),
    (1, [("B", 2)], 1), (1, [("B", 2)], 2),
    (2, [("A", 0)], 3), (2, [("B", 0), ("B", 0)], 3),
)


def decide_round(seed: int, index: int) -> list[dict]:
    """Ten sentences, one per shape: a base-4 leaf, half of them also with
    a small (base <= 3) leaf, inside a Boolean combination with A[0..3]."""
    rng = round_rng("decide", seed, index)
    ops = []
    for q, sugar, atoms in DECIDE_SHAPES:
        leaf = j_leaf(rng, q, sugar, atoms)
        if rng.random() < 0.5:
            small = j_leaf(rng, rng.choice((1, 2)), [], 2)
            leaf = (rng.choice(("and", "or", "imp")), leaf, small)
        wrap = rng.randrange(4)
        if wrap == 1:
            leaf = ("not", leaf)
        elif wrap == 2:
            leaf = (rng.choice(("and", "or", "imp", "iff")), leaf, _literal(rng, 4))
        elif wrap == 3:
            leaf = ("or", ("and", _literal(rng, 4), leaf), _literal(rng, 4))
        ops.append({"kind": "decide", "sentence": leaf, "text": render(leaf)})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Races

RACE_BOUND = 10_000
REDUCE_D_INDEX = 3
SCH_BUDGETS = (300, 3000)


def _generator_query(rng, gens):
    """A disjunction of two to four conjunctions of signed generators."""
    terms = []
    for _ in range(rng.randint(2, 4)):
        lits = [("A", g) if rng.random() < 0.5 else ("not", ("A", g))
                for g in rng.sample(gens, rng.randint(1, 3))]
        t = lits[0]
        for lit in lits[1:]:
            t = ("and", t, lit)
        terms.append(t)
    f = terms[0]
    for t in terms[1:]:
        f = ("or", f, t)
    return f


def settled_generators(machines, budget, limit=120) -> list[int]:
    """Generators below ``limit`` whose B and C races both end within the
    budget, by the reference interpreter."""
    return [g for g in range(limit)
            if all(machines.race(g, budget)[s] != ("unknown",) for s in ("B", "C"))]


def races_round(seed: int, index: int, settled: list[int]) -> list[dict]:
    """Three windows of 120 consecutive x, two blocks of 40 consecutive w
    for the reduction, two blocks of twelve oracle-relative decisions, two
    axioms of the witness-race theory and two of two-machine theories.

    ``settled`` lists the generators whose two races end within the
    smallest decision budget; a query draws eight of them and, one time in
    four, one generator whose race stays open, so most verdicts are
    definite and some are unknown."""
    rng = round_rng("races", seed, index)
    unsettled = [g for g in range(max(settled)) if g not in settled]
    ops = []
    for low, high in ((0, 1700), (1700, 3400), (3400, 5000)):
        x0 = rng.randrange(low, high)
        ops.append({"kind": "window", "xs": list(range(x0, x0 + 120)), "bound": RACE_BOUND})
    for low, high in ((0, 80), (80, 160)):
        w0 = rng.randrange(low, high)
        ops.append({"kind": "reduce", "ws": list(range(w0, w0 + 40)),
                    "d_index": REDUCE_D_INDEX, "bound": RACE_BOUND})
    for budget in SCH_BUDGETS:
        queries = []
        for _ in range(12):
            gens = rng.sample(settled, 8)
            if rng.random() < 0.25:
                gens[0] = rng.choice(unsettled)
            queries.append(_generator_query(rng, gens))
        ops.append({"kind": "sch", "queries": queries, "texts": [render(q) for q in queries],
                    "budget": budget})
    for low, high in ((60, 75), (75, 90)):
        ops.append({"kind": "sch_axiom", "k": rng.randrange(low, high)})
    ops.append({"kind": "so_axiom", "b": 3, "k": rng.randrange(35, 55)})
    ops.append({"kind": "so_axiom", "b": 1, "k": rng.randrange(80, 120)})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Capped models

TN_VARS = ("y", "n", "t", "k")
SEARCH_CAP = 16


# (left-hand side over the variable y, standard truth of "exists y. lhs = k")
FAMILIES = (
    (lambda y: ("+", y, y), lambda k: k % 2 == 0),
    (lambda y: ("*", y, y), lambda k: round(k ** 0.5) ** 2 == k),
    (lambda y: ("S", ("+", y, y)), lambda k: k % 2 == 1),
)


def _family(rng, lhs, k):
    """``exists y. lhs(y) = k`` with a seeded variable and order of sides.
    When true, the least bracket cap is k + 1: the numeral chain 0..k must
    fit below the bracket's x, and every other value is at most k."""
    name = rng.choice(TN_VARS)
    sides = (lhs(var(name)), numeral(k))
    if rng.random() < 0.5:
        sides = sides[::-1]
    return ("ex", name, ("=",) + sides)


def models_round(seed: int, index: int, corpus: list) -> list[dict]:
    """The whole corpus; every family sentence of ``FAMILIES`` for k = 0..7;
    eight axiom checks of capped models (caps 2 to 7); and eight seeded
    two-quantifier sentences, each evaluated in every spectrum structure of
    rank n = 3, which bounds the exhaustive search at 18^2 assignments per
    structure.

    The witness searches, which take most of the time, are the same 54 in
    every round (the seed only renames variables and swaps sides).  The 16
    seeded ops all cost less than the cheapest 22 searches, so the median
    and the 90th percentile always fall on the same searches, whatever the
    seed and however many rounds a run completes; their number puts the
    median among five searches of about the same cost."""
    rng = round_rng("models", seed, index)
    ops = []
    for lhs, holds in FAMILIES:
        for k in range(8):
            sentence = _family(rng, lhs, k)
            ops.append({"kind": "witness", "sentence": sentence, "text": render(sentence),
                        "truth": holds(k), "family_cap": k + 1 if holds(k) else None})
    for truth, text, sentence in corpus:
        ops.append({"kind": "witness", "sentence": sentence, "text": text,
                    "truth": truth, "family_cap": None})
    for low, high in ((2, 3), (2, 3), (4, 5), (4, 5), (6, 6), (6, 6), (7, 7), (7, 7)):
        ops.append({"kind": "verify", "cap": rng.randint(low, high)})
    n = 3
    for _ in range(8):
        sugar = [("B", rng.randrange(n))] if rng.random() < 0.7 else []
        if rng.random() < 0.5:
            sugar.append(("A", rng.randrange(n)))
        sentence = j_leaf(rng, 2, sugar, 3)
        ops.append({"kind": "eval", "sentence": sentence, "text": render(sentence), "n": n,
                    "spectra": [[s for s in range(1, n) if bits >> (s - 1) & 1]
                                for bits in range(1 << (n - 1))]})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Diagonal

DIAG_STAGES = 4
DIAG_BUDGET = 200
TRANSLATION_COUNT = 144


def _stream_sentence(rng):
    """Generator index <= 1 and at most three quantifiers once sugar is
    written out."""
    kind = rng.randrange(4)
    if kind == 0:
        g = ("A", rng.randrange(2))
        return ("or", g, ("not", g)) if rng.random() < 0.5 else g
    if kind == 1:
        a, b = _literal(rng, 2), _literal(rng, 2)
        return (rng.choice(("or", "imp", "and")), a, b)
    if kind == 2:
        return j_leaf(rng, rng.choice((1, 2, 3)), [], 2)
    leaf = j_leaf(rng, 1, [("B", 1)], 1)
    return (rng.choice(("or", "and", "imp")), leaf, _literal(rng, 2))


def _refutable(rng):
    if rng.random() < 0.5:
        name = rng.choice(VARS)
        return ("ex", name, ("not", ("=", var(name), var(name))))
    s = _stream_sentence(rng)
    return ("and", s, ("not", s))


def diagonal_round(seed: int, index: int) -> dict:
    """One run of F: a stream of five sentences and a refutable one, and a
    seeded sample of the translations, one per stage.

    The first sentence combines A[2] with a second sentence; the others
    stay below A[2].  A translated A[2] writes out to four quantifiers and
    costs about a hundred times a translated A[1], so this fixes how many
    expensive eliminations each stage meets: one."""
    rng = round_rng("diagonal", seed, index)
    a2 = ("A", 2) if rng.random() < 0.5 else ("not", ("A", 2))
    first = (rng.choice(("or", "and", "imp", "iff")), a2, _stream_sentence(rng))
    if rng.random() < 0.5:
        first = (first[0], first[2], first[1])
    stream = [first] + [_stream_sentence(rng) for _ in range(4)] + [_refutable(rng)]
    return {"kind": "diagonal", "stream": stream, "texts": [render(s) for s in stream],
            "translations": rng.sample(range(TRANSLATION_COUNT), DIAG_STAGES),
            "stages": DIAG_STAGES, "budget": DIAG_BUDGET}


def machines():
    from inputs import DATA
    from refs import Machines
    return Machines((DATA / "even.cm").read_text(),
                    [p.read_text() for p in sorted((DATA / "table").glob("*.cm"))])


def main(argv):
    workload, seed = argv[0], int(argv[1])
    rounds = int(argv[2]) if len(argv) > 2 else 1
    for index in range(rounds):
        print(f"# {workload} seed {seed} round {index}")
        if workload == "decide":
            ops = decide_round(seed, index)
        elif workload == "races":
            ops = races_round(seed, index, settled_generators(machines(), min(SCH_BUDGETS)))
        elif workload == "models":
            from workloads import load_corpus
            ops = models_round(seed, index, load_corpus())
        elif workload == "diagonal":
            ops = [diagonal_round(seed, index)]
        else:
            raise SystemExit(f"unknown workload {workload!r}; one of {WORKLOADS}")
        for op in ops:
            print({k: v for k, v in op.items() if k not in ("sentence", "queries", "stream")})


if __name__ == "__main__":
    main(sys.argv[1:])
