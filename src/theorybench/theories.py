"""Theory objects and the effective constructions that produce them.

A theory is a signature plus a fair axiom stream (a total function from
indices to sentences in which every axiom eventually appears).
Builders: the switch-predicate infimum of two theories, and the
machine-driven extensions of the equivalence theory by positive/negative
generator axioms (the witness-race builder ``build_sch`` and the
two-halting-sets builder ``build_so``), with their oracle-relative
decision procedures.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .boolcomb import BOTTOM, TOP, GeneratorCombination
from .janiczak import boolean_fold, qe_sentence
from .machines import (BoundedAnswer, MachineProgram, No, OracleContractError,
                       PaddedTable, Yes, member_B, member_C, run)
from .syntax import (J_SIG, And, Atom, Exists, Forall, Formula, FormulaError,
                     Implies, Not, Signature, Sugar, Var, conj, free_variables,
                     rename_symbols, subformulas)

MembershipProc = Callable[[int, int], BoundedAnswer]


@dataclass(frozen=True)
class Theory:
    """Signature plus fair axiom enumerator; ``axiom`` must be total."""

    name: str
    signature: Signature
    axiom: Callable[[int], Formula]


# ---------------------------------------------------------------------------
# The base equivalence theory


def _exact_size(s: int, x: Var) -> Formula:
    if s == 1:
        return Not(Sugar("B", 1, (x,)))
    return And(Sugar("B", s - 1, (x,)), Not(Sugar("B", s, (x,))))


def _j1(which: int) -> Formula:
    x, y, z = Var("x"), Var("y"), Var("z")
    if which == 0:
        return Forall("x", Atom("E", (x, x)))
    if which == 1:
        return Forall("x", Forall("y", Implies(Atom("E", (x, y)), Atom("E", (y, x)))))
    return Forall("x", Forall("y", Forall("z", Implies(
        And(Atom("E", (x, y)), Atom("E", (y, z))), Atom("E", (x, z))))))


def _j2(n: int) -> Formula:
    x, y = Var("x"), Var("y")
    return Forall("x", Forall("y", Implies(
        And(_exact_size(n, x), _exact_size(n, y)), Atom("E", (x, y)))))


def _j3(n: int) -> Formula:
    names = [f"x{i}" for i in range(1, n + 1)]
    parts: list[Formula] = []
    for i in range(n):
        for j in range(i + 1, n):
            parts.append(Not(Atom("E", (Var(names[i]), Var(names[j])))))
    for name in names:
        parts.append(Sugar("B", n - 1, (Var(name),)))
    body = conj(parts)
    for name in reversed(names):
        body = Exists(name, body)
    return body


def j_axiom(index: int) -> Formula:
    """J1 as three sentences, then the two schemas alternating by level."""
    if index < 3:
        return _j1(index)
    level, which = divmod(index - 3, 2)
    return _j2(level + 1) if which == 0 else _j3(level + 1)


J = Theory("J", J_SIG, j_axiom)


# ---------------------------------------------------------------------------
# Switch-predicate infimum


def _tag_maps(sig: Signature, tag: str):
    rel = {name: f"{name}_{tag}" for name, _ in sig.relations}
    fun = {name: f"{name}_{tag}" for name, _ in sig.functions}
    const = {name: f"{name}_{tag}" for name in sig.constants}
    sugar = {"A": f"A_{tag}", "B": f"B_{tag}"}
    return rel, fun, const, sugar


def _tagged_signature(sig: Signature, tag: str) -> Signature:
    return Signature(
        tuple((f"{n}_{tag}", a) for n, a in sig.relations),
        tuple((f"{n}_{tag}", a) for n, a in sig.functions),
        tuple(f"{n}_{tag}" for n in sig.constants),
    )


def ovee(left: Theory, right: Theory) -> Theory:
    """Infimum of two theories: disjoint tagged signatures plus a fresh
    nullary switch predicate P; the axiom stream interleaves P -> (left
    axiom) at even positions with ~P -> (right axiom) at odd positions."""
    lsig = _tagged_signature(left.signature, "left")
    rsig = _tagged_signature(right.signature, "right")
    sig = Signature(lsig.relations + rsig.relations + (("P", 0),),
                    lsig.functions + rsig.functions,
                    lsig.constants + rsig.constants)
    lmaps = _tag_maps(left.signature, "left")
    rmaps = _tag_maps(right.signature, "right")

    def axiom(index: int) -> Formula:
        i, side = divmod(index, 2)
        if side == 0:
            body = rename_symbols(left.axiom(i), *lmaps)
            return Implies(Atom("P"), body)
        body = rename_symbols(right.axiom(i), *rmaps)
        return Implies(Not(Atom("P")), body)

    return Theory(f"{left.name} ovee {right.name}", sig, axiom)


def _formula_side(f: Formula) -> set[str]:
    """Tags ('left'/'right'/'P') of the symbols occurring in a formula."""
    tags: set[str] = set()
    for g in subformulas(f):
        match g:
            case Atom("P", ()):
                tags.add("P")
            case Atom(rel, args):
                tags.add(rel.rsplit("_", 1)[-1])
            case Sugar(name, _, _):
                tags.add(name.rsplit("_", 1)[-1])
    return tags


def _untag(f: Formula, tag: str) -> Formula:
    return rename_symbols(f, {f"E_{tag}": "E"}, sugar_map={f"A_{tag}": "A", f"B_{tag}": "B"})


def _side_combination(f: Formula, tag: str) -> GeneratorCombination:
    """Canonical combination of a one-side sentence, relocated to disjoint
    generator indices (left -> even, right -> odd)."""
    g = qe_sentence(_untag(f, tag))
    offset = 0 if tag == "left" else 1
    support = tuple(2 * i + offset for i in g.support)
    return GeneratorCombination(support, g.rows)


def decide_ovee(chi: Formula) -> bool:
    """Decision for the honest fragment of an infimum of two copies of the
    equivalence theory: boolean combinations of P and single-side sentences.

    The sentence is provable iff it reduces to top in both the P-true and
    the P-false branch, with each side's sentences resolved through its own
    quantifier-elimination decider over disjoint generator sets.
    """
    if free_variables(chi):
        raise FormulaError("decide_ovee requires a sentence")

    def leaf(f: Formula, p_value: bool) -> GeneratorCombination:
        match f:
            case Atom("P", ()):
                return TOP if p_value else BOTTOM
        tags = _formula_side(f)
        if tags == {"left"} or tags == {"right"}:
            return _side_combination(f, tags.pop())
        raise FormulaError(
            f"outside the decidable fragment: mixed or untagged leaf {f!r}")

    return all(boolean_fold(chi, lambda f: leaf(f, p_value)).is_top for p_value in (True, False))


# ---------------------------------------------------------------------------
# Machine-driven generator theories


@dataclass
class JXTheory:
    """Theory axiomatised over the base equivalence theory by generator
    sentences driven by two bounded-membership procedures."""

    name: str
    positive: MembershipProc
    negative: MembershipProc
    signature: Signature = J_SIG
    # a generator axiom, or the index of a base axiom built when asked for
    _emitted: list[Formula | int] = field(default_factory=list)
    _seen: set[tuple[str, int]] = field(default_factory=set)
    _stage: int = 0

    def axiom(self, index: int) -> Formula:
        while len(self._emitted) <= index:
            self._advance()
        entry = self._emitted[index]
        return j_axiom(entry) if isinstance(entry, int) else entry

    def _advance(self):
        """One dovetail stage: the next base axiom, then every generator
        index below the stage re-probed at the stage bound."""
        self._stage += 1
        s = self._stage
        self._emitted.append(s - 1)
        for n in range(s):
            if ("pos", n) not in self._seen and isinstance(self.positive(n, s), Yes):
                self._seen.add(("pos", n))
                self._emitted.append(Sugar("A", n))
            if ("neg", n) not in self._seen and isinstance(self.negative(n, s), Yes):
                self._seen.add(("neg", n))
                self._emitted.append(Not(Sugar("A", n)))


def build_sch(a: MachineProgram, table: Sequence[MachineProgram]) -> JXTheory:
    """The witness-race theory of a machine: positive generator axioms from
    the strict race set, negative ones from its companion.  The finite
    table is padded with divergers so every projection index resolves."""
    padded = PaddedTable(table)
    return JXTheory(
        name="sch",
        positive=lambda n, bound: member_B(a, n, padded, bound),
        negative=lambda n, bound: member_C(a, n, padded, bound),
    )


def build_so(a: MachineProgram, b: MachineProgram) -> JXTheory:
    """Positive generator axioms from the halting set of ``a``, negative
    ones from the halting set of ``b``; inconsistent when the sets meet."""
    return JXTheory(
        name="so",
        positive=lambda n, bound: run(a, n, bound),
        negative=lambda n, bound: run(b, n, bound),
    )


def consistency_probe(theory: JXTheory, budget: int):
    """First generator index asserted both positively and negatively within
    the budget, or None if the streams stay disjoint so far."""
    for n in range(budget):
        if isinstance(theory.positive(n, budget), Yes) and \
                isinstance(theory.negative(n, budget), Yes):
            return n
    return None


def decide_sch(phi: Formula, pos_oracle: MembershipProc, neg_oracle: MembershipProc,
               budget: int) -> str:
    """Oracle-relative decision: reduce the sentence to its canonical
    combination, query both oracles on its support, conjoin the resolved
    generator facts, and check the resulting implication by truth table.

    Returns 'provable', 'not-provable' or 'unknown'; a support index
    claimed by both oracles is a contract violation.
    """
    target = qe_sentence(phi)
    facts = TOP
    for i in target.support:
        b = pos_oracle(i, budget)
        c = neg_oracle(i, budget)
        if isinstance(b, Yes) and isinstance(c, Yes):
            raise OracleContractError(f"index {i} claimed by both oracle sets")
        if isinstance(b, Yes):
            facts = facts & GeneratorCombination.generator(i)
        elif isinstance(c, Yes):
            facts = facts & ~GeneratorCombination.generator(i)
        elif isinstance(b, No) and isinstance(c, No):
            pass  # settled: constrained by neither stream
        else:
            return "unknown"
    return "provable" if facts.implies(target).is_top else "not-provable"


def finite_set_oracle(members: set[int]) -> MembershipProc:
    """Total membership procedure for a finite decidable set."""
    def proc(n: int, bound: int) -> BoundedAnswer:
        return Yes(0) if n in members else No()
    return proc
