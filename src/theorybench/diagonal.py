"""The diagonal construction over the generator calculus.

Given an effective enumeration of translations and a sentence stream, the
recursion F picks, at each stage, a generator index so large that no
sign pattern over the earlier indices settles the whole translated
stream.  Its range is a recursive set of generator indices on which every
sign pattern stays "undetermined" against each translation — the engine
room of the non-interpretability argument.

Translations here are one-dimensional, parameter-free and single-piece:
a domain formula, one clause formula per source relation, and either
identity equality or an equality clause.  Clause formulas in the
automatic enumeration are quantifier-free.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .boolcomb import GeneratorCombination
from .janiczak import qe_sentence
from .syntax import (And, Atom, Eq, Exists, Forall, Formula, FormulaError,
                     Implies, Not, Or, Signature, Sugar, Term, Top, Var, conj,
                     expand_sugar, free_variables, pretty, rewrite, substitute)


class DiagonalError(Exception):
    pass


class Exhausted(Exception):
    """A bounded search ran out of budget; carries where it happened."""

    def __init__(self, budget: int, j: int | None = None, stage: int | None = None):
        self.budget = budget
        self.j = j
        self.stage = stage
        where = "".join(
            f", {k}={v}" for k, v in (("pattern", j), ("stage", stage)) if v is not None)
        super().__init__(f"search exhausted at budget {budget}{where}")


# ---------------------------------------------------------------------------
# Sign-pattern conjunctions


def enumerate_Cn(n: int) -> list[GeneratorCombination]:
    """The 2^n conjunctions of signed generators over indices < n; the sign
    of generator i in entry j is bit i of j, and the n=0 entry is top."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [GeneratorCombination.minterm(_cn_signs(n, j)) for j in range(1 << n)]


def _cn_signs(n: int, j: int) -> dict[int, bool]:
    """Sign of each generator i < n in pattern j: bit i of j."""
    if not 0 <= j < 1 << n:
        raise ValueError(f"pattern index {j} out of range for n={n}")
    return {i: bool(j >> i & 1) for i in range(n)}


def cn_formula(n: int, j: int) -> Formula:
    """The sign pattern as a sentence over the generator sugar."""
    signs = _cn_signs(n, j)
    if n == 0:
        return Top()
    return conj([Sugar("A", i) if positive else Not(Sugar("A", i))
                 for i, positive in signs.items()])


# ---------------------------------------------------------------------------
# Translations


@dataclass(frozen=True)
class Translation:
    """One-dimensional parameter-free interpretation of a relational source
    language in the language of the equivalence theory.

    ``relation_clauses`` maps each source relation to (parameter names,
    defining formula); ``equality`` is None for identity or a formula in
    the parameters x, y.  All clause formulas live over the target
    signature (one binary relation E).
    """

    source: Signature
    domain: Formula  # free variables within {x}
    relation_clauses: tuple[tuple[str, tuple[str, ...], Formula], ...]
    equality: Formula | None = None

    def __post_init__(self):
        if not free_variables(self.domain) <= {"x"}:
            raise FormulaError("domain formula may only mention x")
        declared = dict(self.source.relations)
        for name, params, clause in self.relation_clauses:
            if name not in declared:
                raise FormulaError(f"clause for undeclared relation {name!r}")
            if len(params) != declared[name]:
                raise FormulaError(f"clause arity mismatch for {name!r}")
            if not free_variables(clause) <= set(params):
                raise FormulaError(f"clause for {name!r} mentions foreign variables")
        if self.equality is not None and not free_variables(self.equality) <= {"x", "y"}:
            raise FormulaError("equality clause may only mention x and y")

    def clause(self, relation: str) -> tuple[tuple[str, ...], Formula]:
        for name, params, body in self.relation_clauses:
            if name == relation:
                return params, body
        raise FormulaError(f"no clause for relation {relation!r}")

    def describe(self) -> str:
        parts = [f"domain: {pretty(self.domain)}"]
        for name, params, body in self.relation_clauses:
            parts.append(f"{name}({', '.join(params)}) := {pretty(body)}")
        parts.append("equality: identity" if self.equality is None
                     else f"equality: {pretty(self.equality)}")
        return "; ".join(parts)


def _plug(clause: Formula, params: tuple[str, ...], args: tuple[Term, ...]) -> Formula:
    return substitute(clause, dict(zip(params, args)))


def apply_translation(tau: Translation, phi: Formula) -> Formula:
    """Relativise every quantifier of a source sentence to the domain and
    replace every atom by its clause; generator sugar is expanded first."""

    def go(g: Formula) -> Formula:
        match g:
            case Atom(rel, args):
                params, body = tau.clause(rel)
                return _plug(body, params, args)
            case Eq(a, b) if tau.equality is not None:
                return _plug(tau.equality, ("x", "y"), (a, b))
            case Exists(v, body):
                return Exists(v, And(substitute(tau.domain, {"x": Var(v)}), body))
            case Forall(v, body):
                return Forall(v, Implies(substitute(tau.domain, {"x": Var(v)}), body))
        return g

    return rewrite(expand_sugar(phi), go)


def _clause_formulas(variables: tuple[str, ...], size_bound: int) -> list[Formula]:
    """Quantifier-free target-language formulas over the given variables
    with AST size within the bound, deterministically ordered."""
    by_size: dict[int, list[Formula]] = {}
    atoms: list[Formula] = []
    for a, b in itertools.product(variables, repeat=2):
        atoms.append(Eq(Var(a), Var(b)))
        atoms.append(Atom("E", (Var(a), Var(b))))
    if 3 <= size_bound:
        by_size[3] = atoms
    for size in range(4, size_bound + 1):
        layer: list[Formula] = [Not(g) for g in by_size.get(size - 1, ())]
        for left_size in range(3, size - 3):
            for a in by_size.get(left_size, ()):
                for b in by_size.get(size - 1 - left_size, ()):
                    layer.append(And(a, b))
                    layer.append(Or(a, b))
        by_size[size] = layer
    out: list[Formula] = []
    seen = set()
    for size in sorted(by_size):
        for g in sorted(by_size[size], key=pretty):
            if g not in seen:
                seen.add(g)
                out.append(g)
    return out


def _params_for(arity: int) -> tuple[str, ...]:
    if arity == 1:
        return ("x",)
    if arity == 2:
        return ("x", "y")
    return tuple(f"x{k}" for k in range(1, arity + 1))


def enumerate_translations(source: Signature, size_bound: int) -> list[Translation]:
    """All identity-equality translations whose domain and relation clauses
    are quantifier-free with AST size within the bound; duplicate-free and
    deterministic (the first entry for a single binary relation is the
    trivial embedding with domain x = x)."""
    domains = _clause_formulas(("x",), size_bound)
    per_relation = [
        [(name, _params_for(arity), clause)
         for clause in _clause_formulas(_params_for(arity), size_bound)]
        for name, arity in source.relations
    ]
    out = []
    for domain in domains:
        for clauses in itertools.product(*per_relation):
            out.append(Translation(source, domain, tuple(clauses)))
    return out


# ---------------------------------------------------------------------------
# The p / f / F recursion


@functools.lru_cache(maxsize=256)
def _translated_combination(tau: Translation, sentence: Formula) -> GeneratorCombination:
    # the elimination does not depend on the sign pattern, so the 2^n
    # pattern scans in f can share one computation per stream element
    return qe_sentence(apply_translation(tau, sentence))


def find_p(n: int, j: int, tau: Translation, stream, budget: int) -> int:
    """Scan the translated stream for the first sentence the sign pattern
    fails to settle positively; return the supremum of s+1 over the
    generators in that sentence's canonical combination (0 when empty).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pattern = GeneratorCombination.minterm(_cn_signs(n, j))
    for k in range(budget):
        g = _translated_combination(tau, stream(k))
        if not pattern.implies(g).is_top:
            return max((s + 1 for s in g.support), default=0)
    raise Exhausted(budget, j=j)


def f(n: int, tau: Translation, stream, budget: int) -> int:
    """Maximum of the p-values over all 2^n sign patterns, and n itself."""
    return max([find_p(n, j, tau, stream, budget) for j in range(1 << n)] + [n])


@dataclass
class DiagonalRun:
    """The F recursion with its audit trail: per-stage translation
    descriptions and f arguments, for reproducible reporting."""

    translations: list[Translation]
    stream: object  # index -> source sentence
    budget: int
    values: list[int] = field(default_factory=lambda: [0])

    def F(self, k: int) -> int:
        while len(self.values) <= k:
            stage = len(self.values) - 1
            if stage >= len(self.translations):
                raise DiagonalError(
                    f"stage {stage} needs a translation but only "
                    f"{len(self.translations)} were supplied")
            try:
                nxt = f(self.values[-1] + 1, self.translations[stage],
                        self.stream, self.budget)
            except Exhausted as exc:
                raise Exhausted(exc.budget, j=exc.j, stage=stage) from None
            if nxt <= self.values[-1]:
                raise DiagonalError(
                    f"F failed to increase at stage {stage}: {nxt} <= {self.values[-1]}")
            self.values.append(nxt)
        return self.values[k]


def build_X(kmax: int, translations: list[Translation], stream, budget: int) -> list[int]:
    """The range of F through stage kmax, sorted (F is checked to be
    strictly increasing, so this is just its value list)."""
    run = DiagonalRun(translations, stream, budget)
    run.F(kmax)
    return sorted(run.values)


def stream_from_sentences(sentences: list[Formula]):
    """Sentence stream backed by a finite list, cycling its last element so
    the stream is total (the fixtures end in a refutable sentence, which
    makes the repetition harmless for the searches)."""
    if not sentences:
        raise DiagonalError("a sentence stream needs at least one sentence")

    def stream(k: int) -> Formula:
        return sentences[min(k, len(sentences) - 1)]

    return stream
