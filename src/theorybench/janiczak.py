"""Configuration calculus and quantifier elimination for the theory of one
equivalence relation with at most one class of each finite size and
unboundedly many large classes.

The central object is the base-n configuration of a variable tuple: an
identity partition refined inside an E-partition, the set of exactly
realised small class sizes, and a per-variable class-size assignment.
Every quantifier-free formula is a disjunction of configuration formulas,
quantifiers are eliminated by projecting configurations, and closed
formulas land in the free Boolean algebra on the generator sentences
``A[n]`` ("there is a class of size exactly n+1").

A finite equivalence structure with a prescribed small-size spectrum
serves as a semantic oracle for cross-validation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .boolcomb import BOTTOM, TOP, GeneratorCombination
from .syntax import (
    And, Atom, Bot, Eq, Exists, Forall, FormulaError, Formula, Iff, Implies,
    Not, Or, Sugar, Top, Var, _has_quantifier, conj, expand_sugar, fold,
    free_variables, prenex, subformulas,
)


# ---------------------------------------------------------------------------
# Configurations


@dataclass(frozen=True)
class Configuration:
    """Complete base-n description of a variable tuple.

    ``eq_blocks`` is the identity partition, ``e_blocks`` the coarser
    E-partition (tuples of variable-index tuples, canonically ordered by
    first occurrence).  ``sizes`` is the set of exactly realised class
    sizes in {1,..,n-1}; ``size_of`` assigns each variable its class size
    from ``sizes`` united with {n}, where n stands for "at least n".
    """

    n: int
    vars: tuple[str, ...]
    eq_blocks: tuple[tuple[int, ...], ...]
    e_blocks: tuple[tuple[int, ...], ...]
    sizes: frozenset[int]
    size_of: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("configuration base must be >= 1")
        if any(i < 1 or i >= self.n for i in self.sizes):
            raise ValueError("realised sizes must lie in {1,..,n-1}")
        for e_block in self.e_blocks:
            vals = {self.size_of[i] for i in e_block}
            if len(vals) > 1:
                raise ValueError("E-equivalent variables must share a size")
            val = vals.pop()
            if val not in self.sizes and val != self.n:
                raise ValueError("size value outside realised sizes and n")
            members = set(e_block)
            splits = sum(1 for b in self.eq_blocks if members.issuperset(b))
            if splits > val:
                raise ValueError("E-class split into more identity classes than its size")
        carriers: dict[int, set[tuple[int, ...]]] = {}
        for b in self.e_blocks:
            carriers.setdefault(self.size_of[b[0]], set()).add(tuple(b))
        for i in self.sizes:
            if len(carriers.get(i, ())) > 1:
                raise ValueError(f"size {i} carried by more than one E-class")

    def sort_key(self):
        return (_rgs(self.eq_blocks, len(self.vars)), _rgs(self.e_blocks, len(self.vars)),
                sum(1 << (i - 1) for i in self.sizes), self.size_of)

    def var_size(self, name: str) -> int:
        return self.size_of[self.vars.index(name)]

    def same_eq(self, a: str, b: str) -> bool:
        return _same_block(self.eq_blocks, self.vars.index(a), self.vars.index(b))

    def same_e(self, a: str, b: str) -> bool:
        return _same_block(self.e_blocks, self.vars.index(a), self.vars.index(b))


def _same_block(blocks, i, j) -> bool:
    return any(i in b and j in b for b in blocks)


def _rgs(blocks, nvars) -> tuple[int, ...]:
    label = {}
    for k, block in enumerate(blocks):
        for i in block:
            label[i] = k
    # relabel in order of first occurrence so the string is canonical
    seen: dict[int, int] = {}
    out = []
    for i in range(nvars):
        b = label[i]
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


def _rgs_all(k: int) -> list[tuple[int, ...]]:
    """Every set partition of k positions as a restricted growth string:
    position i carries its block's label, blocks labelled 0, 1, ... in
    order of first occurrence."""
    out: list[tuple[int, ...]] = [()]
    for _ in range(k):
        out = [s + (b,) for s in out for b in range(max(s, default=-1) + 2)]
    return out


def _blocks(rgs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    blocks: list[list[int]] = [[] for _ in range(max(rgs, default=-1) + 1)]
    for i, b in enumerate(rgs):
        blocks[b].append(i)
    return tuple(map(tuple, blocks))


@lru_cache(maxsize=32)
def _config_keys(n: int, k: int) -> tuple[tuple, ...]:
    """The ``sort_key`` of every base-n configuration of k positions, sorted:
    (identity RGS, E-RGS, realised-size mask, size map)."""
    if n < 1:
        raise ValueError("configuration base must be >= 1")
    keys = []
    for eq in _rgs_all(k):
        # the E-partition merges whole identity blocks; labelling the blocks
        # in first-occurrence order keeps the merged labels canonical too
        for grouping in _rgs_all(max(eq, default=-1) + 1):
            e = tuple(grouping[b] for b in eq)
            splits = [grouping.count(c) for c in range(max(grouping, default=-1) + 1)]
            for mask in range(1 << (n - 1)):
                choices = [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
                for assignment in itertools.product(choices, repeat=len(splits)):
                    if any(a < s for a, s in zip(assignment, splits)):
                        continue
                    small = [a for a in assignment if a < n]
                    if len(small) != len(set(small)):
                        continue  # one exact size carried by two E-classes
                    keys.append((eq, e, mask, tuple(assignment[c] for c in e)))
    keys.sort()
    return tuple(keys)


@lru_cache(maxsize=64)
def enumerate_configs(n: int, vars: tuple[str, ...]) -> tuple[Configuration, ...]:
    """All base-n configurations of ``vars``, deterministically ordered."""
    if n < 1:
        raise ValueError("configuration base must be >= 1")
    if len(set(vars)) != len(vars):
        raise ValueError("variables must be pairwise distinct")
    return tuple(
        Configuration(n, vars, _blocks(eq), _blocks(e),
                      frozenset(i + 1 for i in range(n - 1) if mask >> i & 1), size_of)
        for eq, e, mask, size_of in _config_keys(n, len(vars)))


# ---------------------------------------------------------------------------
# The bit-parallel kernel
#
# A set of base-n configurations of k positions is an int whose bit i stands
# for the i-th key of ``_config_keys(n, k)``, which is also the i-th entry of
# ``enumerate_configs(n, vars)`` for any k variables.


class _Table(NamedTuple):
    full: int
    eq: dict[tuple[int, int], int]  # (i, j), i < j: the set where vi = vj
    e: dict[tuple[int, int], int]  # (i, j), i < j: the set where E(vi, vj)
    drop_last: tuple[int, ...]  # index of each key without its last position


def _bitset(flags) -> int:
    """The int whose bit i is ``flags[i]`` (each 0 or 1)."""
    return int(bytes(48 + f for f in reversed(flags)) or b"0", 2)


_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _members(bits: int, size: int) -> bytes:
    """Byte i is bit i of ``bits``, for i < size."""
    return format(bits, f"0{size}b")[::-1].encode().translate(_BYTE_OF_DIGIT)


@lru_cache(maxsize=32)
def _table(n: int, k: int) -> _Table:
    keys = _config_keys(n, k)
    pairs = list(itertools.combinations(range(k), 2))
    drop_last: tuple[int, ...] = ()
    if k:
        index = {key: i for i, key in enumerate(_config_keys(n, k - 1))}
        drop_last = tuple(index[eq[:-1], e[:-1], mask, size_of[:-1]]
                          for eq, e, mask, size_of in keys)
    return _Table((1 << len(keys)) - 1,
                  {(i, j): _bitset([key[0][i] == key[0][j] for key in keys]) for i, j in pairs},
                  {(i, j): _bitset([key[1][i] == key[1][j] for key in keys]) for i, j in pairs},
                  drop_last)


def _exists_last(bits: int, table: _Table, target: _Table) -> int:
    """Existential projection of the last position: the image of ``bits``
    under ``drop_last``, a set in ``target`` (the table one position down)."""
    hit = bytearray(target.full.bit_length())
    for t in set(itertools.compress(table.drop_last, _members(bits, len(table.drop_last)))):
        hit[t] = 1
    return _bitset(hit)


def _filter(matrix: Formula, n: int, vars: tuple[str, ...]) -> int:
    """The configurations of ``vars`` under which the quantifier-free
    ``matrix`` holds: every atom is a precomputed set, and the connectives
    are bitwise operations."""
    if _has_quantifier(matrix):
        raise FormulaError("matrix must be quantifier-free")
    if not free_variables(matrix) <= set(vars):
        raise FormulaError("matrix has free variables outside the given tuple")
    if len(set(vars)) != len(vars):
        raise ValueError("variables must be pairwise distinct")
    table = _table(n, len(vars))
    full = table.full
    pos = {v: i for i, v in enumerate(vars)}

    def atom(a: str, b: str, sets: dict[tuple[int, int], int]) -> int:
        i, j = sorted((pos[a], pos[b]))
        return full if i == j else sets[i, j]

    def combine(g: Formula, kids: tuple[int, ...]) -> int:
        match g:
            case Not():
                return full ^ kids[0]
            case And():
                return kids[0] & kids[1]
            case Or():
                return kids[0] | kids[1]
            case Implies():
                return (full ^ kids[0]) | kids[1]
            case Iff():
                return full ^ kids[0] ^ kids[1]
            case Top():
                return full
            case Bot():
                return 0
            case Eq(Var(a), Var(b)):
                return atom(a, b, table.eq)
            case Atom("E", (Var(a), Var(b))):
                return atom(a, b, table.e)
        raise FormulaError(f"cannot evaluate atom under a configuration: {g!r}")

    return fold(matrix, combine)


def _configs(bits: int, n: int, vars: tuple[str, ...]) -> frozenset[Configuration]:
    configs = enumerate_configs(n, vars)
    return frozenset(itertools.compress(configs, _members(bits, len(configs))))


# ---------------------------------------------------------------------------
# Configuration formulas and atom evaluation


def config_to_formula(c: Configuration) -> Formula:
    """The defining formula of a configuration, with sugar atoms for the
    exact-size and size-bound conditions."""
    parts: list[Formula] = []
    for i in range(len(c.vars)):
        for j in range(i + 1, len(c.vars)):
            eq = Eq(Var(c.vars[i]), Var(c.vars[j]))
            parts.append(eq if _same_block(c.eq_blocks, i, j) else Not(eq))
            e = Atom("E", (Var(c.vars[i]), Var(c.vars[j])))
            parts.append(e if _same_block(c.e_blocks, i, j) else Not(e))
    for i in range(1, c.n):
        a = Sugar("A", i - 1)
        parts.append(a if i in c.sizes else Not(a))
    for k, name in enumerate(c.vars):
        s = c.size_of[k]
        x = Var(name)
        if s < c.n:
            exact = And(Sugar("B", s - 1, (x,)), Not(Sugar("B", s, (x,)))) if s > 1 \
                else Not(Sugar("B", 1, (x,)))
            parts.append(exact)
        else:
            if c.n > 1:
                parts.append(Sugar("B", c.n - 1, (x,)))
    return conj(parts)


def qf_to_configs(matrix: Formula, n: int, vars: tuple[str, ...]) -> frozenset[Configuration]:
    """The unique configuration set whose disjunction is equivalent to the
    quantifier-free ``matrix``: each configuration decides every atom, so a
    configuration is kept iff the matrix holds under its atom valuation."""
    return _configs(_filter(matrix, n, vars), n, vars)


def project_config(c: Configuration, keep: tuple[str, ...]) -> Configuration:
    """Existential projection: restrict both partitions and the size map to
    ``keep``; realised sizes are unchanged.  Requires ``len(keep) <= n-1``."""
    if len(keep) > c.n - 1:
        raise ValueError("projection target exceeds the n-1 variable bound")
    if not set(keep) <= set(c.vars):
        raise ValueError("projection target must be a subset of the variables")
    keep_idx = [c.vars.index(v) for v in keep]
    remap = {old: new for new, old in enumerate(keep_idx)}

    def restrict(blocks):
        out = []
        for b in blocks:
            nb = tuple(sorted(remap[i] for i in b if i in remap))
            if nb:
                out.append(nb)
        return tuple(sorted(out, key=lambda b: b[0]))

    return Configuration(c.n, tuple(keep), restrict(c.eq_blocks), restrict(c.e_blocks),
                         c.sizes, tuple(c.size_of[i] for i in keep_idx))


# ---------------------------------------------------------------------------
# Quantifier elimination


def _empty_config_to_minterm(c: Configuration) -> GeneratorCombination:
    signs = {i - 1: (i in c.sizes) for i in range(1, c.n)}
    if not signs:
        return TOP
    return GeneratorCombination.minterm(signs)


def _qe_closed_pipeline(f: Formula) -> GeneratorCombination:
    """A closed leaf of the Boolean structure: a generator sugar atom is its
    generator; anything else runs through the configuration pipeline (inner
    sugar is expanded first)."""
    match f:
        case Sugar("A", n, ()):
            return GeneratorCombination.generator(n)
    _, configs = qe_open(f)
    result = BOTTOM
    for c in configs:
        result = result | _empty_config_to_minterm(c)
    return result


def qe_sentence(f: Formula) -> GeneratorCombination:
    """Canonical boolean combination of the generators equivalent to the
    closed formula ``f``.

    Boolean structure is eliminated homomorphically (quantifier elimination
    is a Boolean-algebra isomorphism on sentences), generator sugar atoms
    map straight to generators, and genuinely quantified closed leaves run
    through the configuration pipeline.  This keeps sign patterns over many
    generators tractable: the pipeline cost depends only on each leaf's own
    quantifier count.
    """
    if free_variables(f):
        raise FormulaError("qe_sentence requires a sentence (no free variables)")
    return boolean_fold(f, _qe_closed_pipeline)


def boolean_fold(f: Formula, leaf: Callable[[Formula], GeneratorCombination]) -> GeneratorCombination:
    """The Boolean homomorphism from sentences to generator combinations
    that sends ``true``/``false`` to top/bottom, each connective to its
    Boolean operation, and every other subformula (an atom or a quantified
    formula) to ``leaf`` of it."""
    match f:
        case Top():
            return TOP
        case Bot():
            return BOTTOM
        case Not(body):
            return ~boolean_fold(body, leaf)
        case And(a, b):
            return boolean_fold(a, leaf) & boolean_fold(b, leaf)
        case Or(a, b):
            return boolean_fold(a, leaf) | boolean_fold(b, leaf)
        case Implies(a, b):
            return boolean_fold(a, leaf).implies(boolean_fold(b, leaf))
        case Iff(a, b):
            return boolean_fold(a, leaf).iff(boolean_fold(b, leaf))
    return leaf(f)


def decide_J(f: Formula) -> bool:
    """Provability over the base theory: a sentence is a theorem iff its
    canonical combination is top (the generators are mutually independent)."""
    return qe_sentence(f).is_top


def consistent_with_J(g: GeneratorCombination) -> bool:
    """Free-algebra satisfiability: anything but bottom is consistent."""
    return not g.is_bottom


def qe_open(f: Formula) -> tuple[int, frozenset[Configuration]]:
    """Quantifier elimination for a formula with free variables: returns
    ``(n, configs)`` with the formula equivalent to the disjunction of the
    configurations over its free variables.  The prefix is folded from the
    inside out; a universal goes through complement, projection and
    complement."""
    f = expand_sugar(f)
    fv_order = tuple(_first_occurrence_order(f))
    pf = prenex(f)
    n = max(1, len(pf.prefix) + len(fv_order))
    vars_all = fv_order + tuple(v for _, v in pf.prefix)
    bits = _filter(pf.matrix, n, vars_all)
    for k, (kind, _) in zip(range(len(vars_all), 0, -1), reversed(pf.prefix)):
        table, target = _table(n, k), _table(n, k - 1)
        if kind == "exists":
            bits = _exists_last(bits, table, target)
        else:
            bits = target.full ^ _exists_last(table.full ^ bits, table, target)
    return n, _configs(bits, n, fv_order)


def _first_occurrence_order(f: Formula) -> list[str]:
    fv = free_variables(f)
    order: list[str] = []

    def _walk_term(t):
        match t:
            case Var(name):
                if name in fv and name not in order:
                    order.append(name)
            case _:
                for sub in getattr(t, "args", ()):
                    _walk_term(sub)

    for g in subformulas(f):
        match g:
            case Atom(_, args) | Sugar(_, _, args):
                for t in args:
                    _walk_term(t)
            case Eq(a, b):
                _walk_term(a)
                _walk_term(b)
    return order


# ---------------------------------------------------------------------------
# Finite-structure semantic oracle


@dataclass(frozen=True)
class SpectrumStructure:
    """Finite equivalence structure whose exact class-size spectrum below the
    probe rank is prescribed; elements are (class index, member index)."""

    class_sizes: tuple[int, ...]

    @property
    def domain(self) -> tuple[tuple[int, int], ...]:
        return tuple((c, i) for c, size in enumerate(self.class_sizes) for i in range(size))

    def related(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return a[0] == b[0]

    def class_size(self, a: tuple[int, int]) -> int:
        return self.class_sizes[a[0]]

    def has_size(self, size: int) -> bool:
        return size in self.class_sizes


def build_spectrum_structure(sizes, n: int) -> SpectrumStructure:
    """One class of each size in ``sizes`` (all < n), plus n large classes of
    pairwise distinct sizes n+1..2n, so at-most-one-class-per-size holds
    exactly and the large-class axiom holds up to level n."""
    sizes = sorted(set(sizes))
    if any(s < 1 or s >= n for s in sizes):
        raise ValueError("spectrum sizes must lie in {1,..,n-1}")
    return SpectrumStructure(tuple(sizes) + tuple(range(n + 1, 2 * n + 1)))


def eval_in_structure(f: Formula, structure: SpectrumStructure,
                      assignment: dict[str, tuple[int, int]] | None = None) -> bool:
    """Tarskian satisfaction with exhaustive quantifier search; sugar atoms
    are evaluated by direct class-size counting, which keeps the oracle
    independent of the sugar expansion."""
    env = dict(assignment or {})

    def ev(g: Formula, env) -> bool:
        match g:
            case Top():
                return True
            case Bot():
                return False
            case Atom("E", (Var(a), Var(b))):
                return structure.related(_lookup(env, a), _lookup(env, b))
            case Eq(Var(a), Var(b)):
                return _lookup(env, a) == _lookup(env, b)
            case Sugar("A", n, ()):
                return structure.has_size(n + 1)
            case Sugar("B", n, (Var(a),)):
                return structure.class_size(_lookup(env, a)) > n
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
                return any(ev(body, {**env, var: d}) for d in structure.domain)
            case Forall(var, body):
                return all(ev(body, {**env, var: d}) for d in structure.domain)
        raise FormulaError(f"cannot evaluate in structure: {g!r}")

    return ev(f, env)


def _lookup(env, name):
    try:
        return env[name]
    except KeyError:
        raise FormulaError(f"variable {name!r} not covered by the assignment") from None
