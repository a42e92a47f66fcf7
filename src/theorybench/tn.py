"""Weak arithmetic with capped finite models.

The theory has ten axioms over 0, successor, plus, times and strict order.
Its finite models are initial segments {0..N} where the successor fixes
the maximal element and plus/times truncate at the cap.  A true purely
existential sentence yields, through the bracket construction (the theory
plus a bounded-witness axiom), a finitely axiomatised theory with a
finite model; the strict bound variable keeps cap-saturated spurious
witnesses out.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Container, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache

from .syntax import (And, App, Atom, Bot, Const, Eq, Exists, Forall, Formula,
                     FormulaError, Iff, Implies, Not, Or, Term, Top, TN_SIG,
                     Var, children, conj, free_variables, parse, subformulas,
                     term_vars)
from .theories import Theory


# ---------------------------------------------------------------------------
# Capped models


@dataclass(frozen=True)
class TNModel:
    """Domain {0..cap} with min-truncated successor, plus and times.

    Operation tables are stored explicitly so tests can corrupt a copy and
    watch the axiom checker pinpoint the failure.
    """

    cap: int
    succ: tuple[int, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]

    @property
    def domain(self) -> range:
        return range(self.cap + 1)


@lru_cache(maxsize=32)
def build_capped_model(cap: int) -> TNModel:
    """The capped structure, built once per cap; the axioms are verified
    exhaustively for small caps so the min-truncation is checked, not
    assumed."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    dom = range(cap + 1)
    model = TNModel(
        cap,
        tuple(min(a + 1, cap) for a in dom),
        tuple(tuple(min(a + b, cap) for b in dom) for a in dom),
        tuple(tuple(min(a * b, cap) for b in dom) for a in dom),
    )
    if cap <= 8:
        report = verify_tn_axioms(model)
        bad = [name for name, ok, _ in report if not ok]
        if bad:
            raise AssertionError(f"capped model violates {bad}")
    return model


# A compiled formula: truth in a capped model under values for the names
# of the scope it was compiled in, in order.
_Check = Callable[[TNModel, Sequence[int]], bool]


def model_check(f: Formula, model: TNModel, assignment: dict[str, int] | None = None) -> bool:
    """Tarskian evaluation, exhaustive over the finite domain."""
    assignment = assignment or {}
    return _compile(f, tuple(assignment))(model, tuple(assignment.values()))


def _compile(f: Formula, scope: Sequence[str] = ()) -> _Check:
    """Compile ``f`` once into nested closures over a capped model and a
    flat environment, to be run in many models and under many assignments
    to the distinct names of ``scope``.

    Every quantifier gets its own environment slot, so each variable is
    resolved to the slot of its nearest binder here, once; so is each
    quantified variable that a defining term determines (see
    ``_defining_term``), from the names statically in scope.  Errors are
    not resolved here: a variable outside the scope, an unsupported atom
    or an unsupported term compiles to a node that raises ``FormulaError``
    when evaluation reaches it, so a formula that short-circuits past it
    still has a value.
    """
    size = len(scope)

    def term(t: Term, slots: dict[str, int]):
        match t:
            case Var(name):
                if name not in slots:
                    def uncovered(m, env):
                        raise FormulaError(f"variable {name!r} not covered by the assignment")
                    return uncovered
                i = slots[name]
                return lambda m, env: env[i]
            case Const("0"):
                return lambda m, env: 0
            case App("S", (a,)):
                ta = term(a, slots)
                return lambda m, env: m.succ[ta(m, env)]
            case App("+", (a, b)):
                ta, tb = term(a, slots), term(b, slots)
                return lambda m, env: m.add[ta(m, env)][tb(m, env)]
            case App("*", (a, b)):
                ta, tb = term(a, slots), term(b, slots)
                return lambda m, env: m.mul[ta(m, env)][tb(m, env)]

        def unsupported(m, env):
            raise FormulaError(f"cannot evaluate term {t!r}")
        return unsupported

    def formula(g: Formula, slots: dict[str, int]):
        nonlocal size
        match g:
            case Top():
                return lambda m, env: True
            case Bot():
                return lambda m, env: False
            case Eq(a, b):
                ta, tb = term(a, slots), term(b, slots)
                return lambda m, env: ta(m, env) == tb(m, env)
            case Atom("<", (a, b)):
                ta, tb = term(a, slots), term(b, slots)
                return lambda m, env: ta(m, env) < tb(m, env)
            case Not(body):
                c = formula(body, slots)
                return lambda m, env: not c(m, env)
            case And(a, b):
                ca, cb = formula(a, slots), formula(b, slots)
                return lambda m, env: ca(m, env) and cb(m, env)
            case Or(a, b):
                ca, cb = formula(a, slots), formula(b, slots)
                return lambda m, env: ca(m, env) or cb(m, env)
            case Implies(a, b):
                ca, cb = formula(a, slots), formula(b, slots)
                return lambda m, env: not ca(m, env) or cb(m, env)
            case Iff(a, b):
                ca, cb = formula(a, slots), formula(b, slots)
                return lambda m, env: ca(m, env) == cb(m, env)
            case Exists(var, body) | Forall(var, body):
                slot = size
                size += 1
                c = formula(body, {**slots, var: slot})
                if isinstance(g, Forall):
                    def forall(m, env):
                        for d in range(m.cap + 1):
                            env[slot] = d
                            if not c(m, env):
                                return False
                        return True
                    return forall
                defining = _defining_term(var, body, slots)
                if defining is not None:
                    td = term(defining, slots)

                    def exists_defined(m, env):
                        env[slot] = td(m, env)
                        return c(m, env)
                    return exists_defined

                def exists(m, env):
                    for d in range(m.cap + 1):
                        env[slot] = d
                        if c(m, env):
                            return True
                    return False
                return exists

        def unsupported(m, env):
            raise FormulaError(f"cannot evaluate in a capped model: {g!r}")
        return unsupported

    check = formula(f, {name: i for i, name in enumerate(scope)})
    padding = (0,) * (size - len(scope))

    def run(model: TNModel, values: Sequence[int] = ()) -> bool:
        return check(model, [*values, *padding])
    return run


def _defining_term(var: str, body: Formula, scope: Container[str],
                   rebound: frozenset[str] = frozenset()) -> Term | None:
    """A term equated to ``var`` by a positive conjunct whose variables are
    all in ``scope`` and not rebound on the way down to it: such a variable
    is determined, not searched.  (Sound because the operations of a capped
    model are total functions.)"""
    match body:
        case And(a, b):
            return _defining_term(var, a, scope, rebound) or _defining_term(var, b, scope, rebound)
        case Exists(inner_var, inner) if inner_var != var:
            return _defining_term(var, inner, scope, rebound | {inner_var})
        case Eq(t, Var(v)) | Eq(Var(v), t) if v == var and not isinstance(t, Var):
            names = term_vars(t)
            if var not in names and not names & rebound and all(name in scope for name in names):
                return t
    return None


# ---------------------------------------------------------------------------
# The axioms

TN_AXIOMS: tuple[tuple[str, str], ...] = (
    ("TN1", "~(x < 0)"),
    ("TN2", "x < y & y < z -> x < z"),
    ("TN3", "x < y | x = y | y < x"),
    ("TN4", "x = 0 | (exists y. x = S(y))"),
    ("TN5", "~(S(x) < x)"),
    ("TN6", "x < y -> x < S(x) & ~(y < S(x))"),
    ("TN7", "x + 0 = x"),
    ("TN8", "x + S(y) = S(x + y)"),
    ("TN9", "x * 0 = 0"),
    ("TN10", "x * S(y) = x * y + x"),
)


@cache
def _parsed_tn_axioms() -> tuple[tuple[str, Formula, tuple[str, ...], _Check], ...]:
    """(name, open body, sorted free variables, body compiled over them) of
    each axiom, parsed and compiled once."""
    out = []
    for name, text in TN_AXIOMS:
        body = parse(text, TN_SIG)
        fv = tuple(sorted(free_variables(body)))
        out.append((name, body, fv, _compile(body, fv)))
    return tuple(out)


def tn_axiom_formula(index: int) -> Formula:
    _, body, fv, _ = _parsed_tn_axioms()[index]
    for v in reversed(fv):
        body = Forall(v, body)
    return body


def verify_tn_axioms(model: TNModel) -> list[tuple[str, bool, tuple[int, ...] | None]]:
    """Per-axiom exhaustive check; each entry is (name, passed,
    counterexample assignment over the axiom's variables or None)."""
    report = []
    for name, _, fv, check in _parsed_tn_axioms():
        failure = None
        for values in itertools.product(model.domain, repeat=len(fv)):
            if not check(model, values):
                failure = values
                break
        report.append((name, failure is None, failure))
    return report


def tn_theory() -> Theory:
    return Theory("TN", TN_SIG, tn_axiom_formula)


# ---------------------------------------------------------------------------
# Pure existential sentences


@dataclass(frozen=True)
class PureSigma:
    """Existential prefix over a pure bounded matrix: atoms are only
    variable comparisons, x = 0, S x = y, x + y = z and x * y = z, and
    every bounding term of a bounded quantifier is a variable."""

    exist_vars: tuple[str, ...]
    matrix: Formula

    def __post_init__(self):
        if len(set(self.exist_vars)) != len(self.exist_vars):
            raise FormulaError("existential variables must be pairwise distinct")
        _check_pure(self.matrix)

    def to_formula(self) -> Formula:
        f = self.matrix
        for v in reversed(self.exist_vars):
            f = Exists(v, f)
        return f


def _is_pure_atom(f: Formula) -> bool:
    match f:
        case Eq(Var(_), Var(_)) | Eq(Var(_), Const("0")) | Eq(Const("0"), Var(_)) | \
                Eq(Const("0"), Const("0")):
            return True
        case Atom("<", (Var(_), Var(_))):
            return True
        case Eq(App("S", (Var(_),)), Var(_)):
            return True
        case Eq(App("+", (Var(_), Var(_))), Var(_)) | Eq(App("*", (Var(_), Var(_))), Var(_)):
            return True
        case Top() | Bot():
            return True
    return False


def _check_pure(f: Formula):
    # the guard of a bounded quantifier is itself a pure atom
    for g in subformulas(f):
        match g:
            case Exists(u, And(Atom("<", (Var(u2), Var(_))), _)) if u == u2:
                pass
            case Forall(u, Implies(Atom("<", (Var(u2), Var(_))), _)) if u == u2:
                pass
            case Exists(_, _) | Forall(_, _):
                raise FormulaError(f"unbounded or ill-bounded quantifier in pure matrix: {g!r}")
            case _ if not children(g) and not _is_pure_atom(g):
                raise FormulaError(f"impure atom: {g!r}")


def _shallow_app(t: Term) -> bool:
    match t:
        case App("S", (Var(_),)) | App("+", (Var(_), Var(_))) | App("*", (Var(_), Var(_))):
            return True
    return False


class _Purifier:
    """Flatten compound terms into defining chains of pure atoms.

    Terms built from prefix-level variables are materialised once at the
    prefix (numerals become successor chains from a single zero root);
    terms under bounded quantifiers get local bounded witnesses below a
    fresh global bound added to the prefix.  The matrix is first put in
    negation normal form so the local-witness encoding is monotone and
    stays faithful for small global bounds.
    """

    def __init__(self, avoid: set[str]):
        self.used = set(avoid)
        self.prefix_vars: list[str] = []
        self.prefix_defs: list[Formula] = []
        self.cache: dict[Term, str] = {}
        self.big = None  # the shared local-witness bound, created on demand

    def fresh(self, base: str) -> str:
        i = 0
        while f"{base}{i}" in self.used:
            i += 1
        name = f"{base}{i}"
        self.used.add(name)
        return name

    def big_bound(self) -> str:
        if self.big is None:
            self.big = self.fresh("m")
            self.prefix_vars.append(self.big)
        return self.big

    def flatten_prefix(self, t: Term) -> str:
        """Name for a term over prefix-level variables, defs lifted and shared."""
        match t:
            case Var(name):
                return name
            case _ if t in self.cache:
                return self.cache[t]
            case Const("0"):
                v = self.fresh("z")
                self._define(t, v, Eq(Var(v), Const("0")))
                return v
            case App("S", (a,)):
                va = self.flatten_prefix(a)
                v = self.fresh("u")
                self._define(t, v, Eq(App("S", (Var(va),)), Var(v)))
                return v
            case App(op, (a, b)) if op in ("+", "*"):
                va, vb = self.flatten_prefix(a), self.flatten_prefix(b)
                v = self.fresh("w")
                self._define(t, v, Eq(App(op, (Var(va), Var(vb))), Var(v)))
                return v
        raise FormulaError(f"cannot flatten term {t!r}")

    def _define(self, t: Term, v: str, defn: Formula):
        self.cache[t] = v
        self.prefix_vars.append(v)
        self.prefix_defs.append(defn)

    def flatten_local(self, t: Term, bound_vars: set[str], defs: list[Formula],
                      local_vars: list[str]) -> str:
        """Name for a term that may mention bounded variables; its defining
        atoms go into ``defs`` with witnesses below the shared bound."""
        if not term_vars(t) & bound_vars:
            return self.flatten_prefix(t)
        match t:
            case Var(name):
                return name
            case App("S", (a,)):
                va = self.flatten_local(a, bound_vars, defs, local_vars)
                v = self.fresh("u")
                local_vars.append(v)
                defs.append(Eq(App("S", (Var(va),)), Var(v)))
                return v
            case App(op, (a, b)) if op in ("+", "*"):
                va = self.flatten_local(a, bound_vars, defs, local_vars)
                vb = self.flatten_local(b, bound_vars, defs, local_vars)
                v = self.fresh("w")
                local_vars.append(v)
                defs.append(Eq(App(op, (Var(va), Var(vb))), Var(v)))
                return v
        raise FormulaError(f"cannot flatten term {t!r}")

    def atom(self, f: Formula, negated: bool, bound_vars: set[str]) -> Formula:
        defs: list[Formula] = []
        local: list[str] = []
        match f:
            case Eq(a, b):
                core: Formula = self._eq(a, b, bound_vars, defs, local)
            case Atom("<", (a, b)):
                core = Atom("<", (self._as_var(a, bound_vars, defs, local),
                                  self._as_var(b, bound_vars, defs, local)))
            case Top() | Bot():
                core = f
            case _:
                raise FormulaError(f"unsupported atom {f!r}")
        if negated:
            core = Not(core)
        out = conj(defs + [core]) if defs else core
        for v in reversed(local):
            out = Exists(v, And(Atom("<", (Var(v), Var(self.big_bound()))), out))
        return out

    def _eq(self, a: Term, b: Term, bound_vars, defs, local) -> Formula:
        # the pure inventory wants an op application (if any) on the left
        # and a variable-or-zero on the right; shallow applications of S,
        # + and * to variables pass through unflattened
        if _shallow_app(b) and not _shallow_app(a):
            a, b = b, a
        if _shallow_app(a):
            left = a
        elif isinstance(a, (Var,)) or a == Const("0"):
            left = a
        else:
            left = Var(self.flatten_local(a, bound_vars, defs, local))
        if isinstance(b, Var) or b == Const("0"):
            right = b
        else:
            right = Var(self.flatten_local(b, bound_vars, defs, local))
        if b == Const("0") and _shallow_app(a):
            # Eq(op(..), 0) is not in the inventory; route 0 through a name
            right = self._as_var(b, bound_vars, defs, local)
        return Eq(left, right)

    def _as_var(self, t: Term, bound_vars, defs, local) -> Var:
        if isinstance(t, Var):
            return t
        return Var(self.flatten_local(t, bound_vars, defs, local))


def _nnf(f: Formula, neg: bool) -> Formula:
    match f:
        case Not(body):
            return _nnf(body, not neg)
        case And(a, b):
            op = Or if neg else And
            return op(_nnf(a, neg), _nnf(b, neg))
        case Or(a, b):
            op = And if neg else Or
            return op(_nnf(a, neg), _nnf(b, neg))
        case Implies(a, b):
            if neg:
                return And(_nnf(a, False), _nnf(b, True))
            return Or(_nnf(a, True), _nnf(b, False))
        case Iff(a, b):
            return _nnf(And(Implies(a, b), Implies(b, a)), neg)
        case Exists(v, And(Atom("<", (Var(v2), bt)), inner)) if v2 == v:
            guard = Atom("<", (Var(v), bt))
            if neg:
                return Forall(v, Implies(guard, _nnf(inner, True)))
            return Exists(v, And(guard, _nnf(inner, False)))
        case Forall(v, Implies(Atom("<", (Var(v2), bt)), inner)) if v2 == v:
            guard = Atom("<", (Var(v), bt))
            if neg:
                return Exists(v, And(guard, _nnf(inner, True)))
            return Forall(v, Implies(guard, _nnf(inner, False)))
        case Exists(v, body):
            cls = Forall if neg else Exists
            return cls(v, _nnf(body, neg))
        case Forall(v, body):
            cls = Exists if neg else Forall
            return cls(v, _nnf(body, neg))
        case Top():
            return Bot() if neg else f
        case Bot():
            return Top() if neg else f
        case _:
            return Not(f) if neg else f


def _strip_exists(f: Formula) -> tuple[list[str], Formula]:
    prefix = []
    while isinstance(f, Exists):
        prefix.append(f.var)
        f = f.body
    return prefix, f


def _check_sigma1(f: Formula):
    """Reject unbounded universal quantifiers below the existential prefix."""
    for g in subformulas(f):
        match g:
            case Forall(u, Implies(Atom("<", (Var(u2), _)), _)) if u2 == u:
                pass
            case Forall():
                raise FormulaError("unbounded universal quantifier: input is not purely existential")


def purify(sigma: Formula) -> PureSigma:
    """Rewrite an existential arithmetic sentence into pure form.

    Every compound term gets a fresh defining variable; the result is
    equivalent to the input over the standard model (validated by
    evaluation at desk scale, not proved over the theory).
    """
    if free_variables(sigma):
        raise FormulaError("purify expects a sentence")
    _check_sigma1(sigma)
    outer, body = _strip_exists(sigma)
    body = _nnf(body, False)
    purifier = _Purifier(avoid=set(outer))

    def go(g: Formula, bound_vars: set[str]) -> Formula:
        match g:
            case And(a, b):
                return And(go(a, bound_vars), go(b, bound_vars))
            case Or(a, b):
                return Or(go(a, bound_vars), go(b, bound_vars))
            case Not(body2):
                return purifier.atom(body2, True, bound_vars)
            case Exists(u, And(Atom("<", (Var(u2), bound_t)), inner)) if u2 == u:
                bname = _bound_var(bound_t, purifier, bound_vars)
                return Exists(u, And(Atom("<", (Var(u), Var(bname))),
                                     go(inner, bound_vars | {u})))
            case Forall(u, Implies(Atom("<", (Var(u2), bound_t)), inner)) if u2 == u:
                bname = _bound_var(bound_t, purifier, bound_vars)
                return Forall(u, Implies(Atom("<", (Var(u), Var(bname))),
                                         go(inner, bound_vars | {u})))
            case Exists(_, _) | Forall(_, _):
                raise FormulaError(f"quantifier not in bounded form: {g!r}")
            case _:
                return purifier.atom(g, False, bound_vars)

    matrix = go(body, set())
    exist_vars = tuple(outer) + tuple(purifier.prefix_vars)
    full = conj(purifier.prefix_defs + [matrix]) if purifier.prefix_defs else matrix
    return PureSigma(exist_vars, full)


def _bound_var(t: Term, purifier: _Purifier, bound_vars: set[str]) -> str:
    if isinstance(t, Var):
        return t.name
    if term_vars(t) & bound_vars:
        raise FormulaError("bounding terms over bounded variables are not supported")
    return purifier.flatten_prefix(t)


# ---------------------------------------------------------------------------
# Standard-model evaluation (for validating purification)


def eval_standard(f: Formula, witness_bound: int, env: dict[str, int] | None = None) -> bool:
    """Truth over the naturals with existential searches cut off at
    ``witness_bound``; sound for the corpus sentences whose witnesses are
    known to lie below the cutoff."""
    env = dict(env or {})

    def term(t: Term, env) -> int:
        match t:
            case Var(name):
                return env[name]
            case Const("0"):
                return 0
            case App("S", (a,)):
                return term(a, env) + 1
            case App("+", (a, b)):
                return term(a, env) + term(b, env)
            case App("*", (a, b)):
                return term(a, env) * term(b, env)
        raise FormulaError(f"cannot evaluate term {t!r}")

    def ev(g: Formula, env) -> bool:
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
            case Exists(u, And(Atom("<", (Var(u2), bt)), inner)) if u2 == u:
                limit = min(term(bt, env), witness_bound + 1)
                return any(ev(inner, {**env, u: d}) for d in range(limit))
            case Forall(u, Implies(Atom("<", (Var(u2), bt)), inner)) if u2 == u:
                limit = min(term(bt, env), witness_bound + 1)
                return all(ev(inner, {**env, u: d}) for d in range(limit))
            case Exists(u, body):
                defining = _defining_term(u, body, env)
                if defining is not None:
                    return ev(body, {**env, u: term(defining, env)})
                return any(ev(body, {**env, u: d}) for d in range(witness_bound + 1))
            case Forall(_, _):
                raise FormulaError("unbounded universal quantifier in existential evaluation")
        raise FormulaError(f"cannot evaluate: {g!r}")

    return ev(f, env)


# ---------------------------------------------------------------------------
# The bracket construction


def bracket_axiom(sigma: PureSigma) -> Formula:
    """The bounded-witness sentence: some x strictly dominating every
    existential witness of the pure matrix (componentwise)."""
    used = set(sigma.exist_vars) | free_variables(sigma.matrix)
    x = "x"
    i = 0
    while x in used:
        i += 1
        x = f"x_{i}"
    body = conj([Atom("<", (Var(v), Var(x))) for v in sigma.exist_vars] + [sigma.matrix])
    for v in reversed(sigma.exist_vars):
        body = Exists(v, body)
    return Exists(x, body)


def bracket(sigma: PureSigma) -> Theory:
    """The theory of the ten axioms plus the bounded-witness axiom."""
    axiom_count = len(TN_AXIOMS)
    witness = bracket_axiom(sigma)

    def axiom(index: int) -> Formula:
        if index < axiom_count:
            return tn_axiom_formula(index)
        if index == axiom_count:
            return witness
        raise IndexError("the bracket theory is finitely axiomatised")

    return Theory("bracket", TN_SIG, axiom)


def witness_model(sigma: PureSigma, search_cap: int) -> TNModel | None:
    """Smallest capped model satisfying the bracket axiom, or None."""
    check = _compile(bracket_axiom(sigma))
    for cap in range(search_cap + 1):
        model = build_capped_model(cap)
        if check(model):
            return model
    return None
