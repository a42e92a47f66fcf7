"""First-order syntax over finite one-sorted signatures.

Abstract syntax, a concrete grammar with parser and printer, sugar atoms
``A[n]`` / ``B[n](x)``, one traversal core, prenexing, free variables and
substitution.  All values are immutable; every operation is a pure function.

Grammar (precedence, tightest first): ``~``, ``&``, ``|``, ``->`` (right
associative), ``<->``; a quantifier body extends maximally to the right.
Variables match ``[a-z][a-zA-Z0-9_]*``.  Equality is always available and
``<`` / ``+`` / ``*`` are parsed infix when declared in the signature.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union


class FormulaError(Exception):
    """Base class for syntax-level failures."""


class ParseError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UndeclaredSymbol(FormulaError):
    pass


class ArityMismatch(FormulaError):
    pass


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Signature:
    """Finite one-sorted signature; equality is implicit and never listed."""

    relations: tuple[tuple[str, int], ...] = ()
    functions: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.relations] + [n for n, _ in self.functions] + list(self.constants)
        if len(names) != len(set(names)):
            raise FormulaError(f"duplicate symbol names in signature: {names}")
        for name, arity in self.relations:
            if arity < 0:
                raise FormulaError(f"negative arity for relation {name}")
        for name, arity in self.functions:
            if arity < 1:
                raise FormulaError(f"function {name} must have arity >= 1")

    def rel_arity(self, name: str) -> int | None:
        for n, a in self.relations:
            if n == name:
                return a
        return None

    def fun_arity(self, name: str) -> int | None:
        for n, a in self.functions:
            if n == name:
                return a
        return None

    def is_constant(self, name: str) -> bool:
        return name in self.constants


J_SIG = Signature(relations=(("E", 2),))
TN_SIG = Signature(relations=(("<", 2),), functions=(("S", 1), ("+", 2), ("*", 2)), constants=("0",))


_SIG_HEADER = re.compile(r"\s*(rel|fun|const)\s+([^;]*);")


def parse_signature(text: str) -> Signature:
    """Parse a signature header such as ``rel E/2; fun S/1 +/2 */2; const 0;``."""
    relations: list[tuple[str, int]] = []
    functions: list[tuple[str, int]] = []
    constants: list[str] = []
    pos = 0
    while pos < len(text) and text[pos:].strip():
        m = _SIG_HEADER.match(text, pos)
        if not m:
            raise ParseError("expected 'rel', 'fun' or 'const' declaration", pos)
        kind, body = m.group(1), m.group(2)
        for item in body.split():
            if kind == "const":
                constants.append(item)
            else:
                if "/" not in item:
                    raise ParseError(f"missing arity in {item!r}", m.start(2))
                name, arity_s = item.rsplit("/", 1)
                entry = (name, int(arity_s))
                (relations if kind == "rel" else functions).append(entry)
        pos = m.end()
    return Signature(tuple(relations), tuple(functions), tuple(constants))


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple["Term", ...]


Term = Union[Var, Const, App]


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Sugar:
    """Tagged indexed atom such as ``A[2]`` or ``B[1](x)``, kept unexpanded."""

    name: str
    index: int
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Atom, Eq, Sugar, Top, Bot, Not, And, Or, Implies, Iff, Exists, Forall]

TRUE = Top()
FALSE = Bot()


def conj(parts: Iterable[Formula]) -> Formula:
    """Right-nested conjunction; empty input gives ``true``."""
    parts = list(parts)
    if not parts:
        return TRUE
    return reduce(And, parts)


def disj(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return FALSE
    return reduce(Or, parts)


# ---------------------------------------------------------------------------
# Traversal
#
# Passes that differ from the identity only at atoms or binders are written
# through these combinators.  ``subformulas``, ``fold`` and ``rewrite`` keep
# their own stack, so they handle any nesting depth the parser produced.


def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of ``f``, left to right; none for an atom."""
    match f:
        case Not() | Exists() | Forall():
            return (f.body,)
        case And() | Or() | Implies() | Iff():
            return (f.left, f.right)
    return ()


def rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """``f`` with its immediate subformulas replaced by ``kids``, given in
    the order of ``children``; an atom is returned as it is."""
    match f:
        case Not():
            return Not(kids[0])
        case Exists() | Forall():
            return type(f)(f.var, kids[0])
        case And() | Or() | Implies() | Iff():
            return type(f)(kids[0], kids[1])
    return f


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula of ``f`` (``f`` included) in left-to-right preorder."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


_T = TypeVar("_T")


def fold(f: Formula, combine: Callable[[Formula, tuple[_T, ...]], _T]) -> _T:
    """Bottom-up fold: ``combine(g, values)`` for each subformula ``g`` with
    the values of its children, children left to right and before ``g``."""
    values: list[_T] = []
    # a subformula still to expand, or (subformula, arity) once its children
    # are on the stack above it
    stack: list[Formula | tuple[Formula, int]] = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            g, n = g
            args = tuple(values[-n:])
            del values[-n:]
            values.append(combine(g, args))
        elif kids := children(g):
            stack.append((g, len(kids)))
            stack.extend(reversed(kids))
        else:
            values.append(combine(g, ()))
    return values[0]


def rewrite(f: Formula, post: Callable[[Formula], Formula]) -> Formula:
    """Rebuild ``f`` bottom-up, applying ``post`` to each subformula once its
    children have been rewritten; what ``post`` returns is not visited."""
    return fold(f, lambda g, kids: post(rebuild(g, kids)))


# ---------------------------------------------------------------------------
# Tokenizer


_TOKEN = re.compile(
    r"\s*(?:(?P<iff><->)|(?P<imp>->)|(?P<op>[~&|().,\[\]=<+*])|(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)

_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'iff', 'imp', 'op', 'nat', 'ident', 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    pos = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        for kind in ("iff", "imp", "op", "nat", "ident"):
            if m.group(kind) is not None:
                out.append(_Tok(kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    out.append(_Tok("end", "", len(text)))
    return out


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.toks = _tokenize(text)
        self.sig = sig
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    # formula := iff
    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        f = self.implies()
        while self.peek().kind == "iff":
            self.next()
            f = Iff(f, self.implies())
        return f

    def implies(self) -> Formula:
        f = self.disjunction()
        if self.peek().kind == "imp":
            self.next()
            return Implies(f, self.implies())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().text == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().text == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "~":
            self.next()
            return Not(self.unary())
        if tok.text in ("exists", "forall"):
            self.next()
            var = self.next()
            if var.kind != "ident" or not _VAR_RE.match(var.text):
                raise ParseError(f"expected variable after {tok.text!r}", var.pos)
            self.expect(".")
            body = self.formula()
            return Exists(var.text, body) if tok.text == "exists" else Forall(var.text, body)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if tok.text == "true":
            self.next()
            return TRUE
        if tok.text == "false":
            self.next()
            return FALSE
        if tok.kind == "ident" and self.toks[self.i + 1].text == "[":
            return self.sugar_atom()
        if tok.kind == "ident":
            arity = self.sig.rel_arity(tok.text)
            follower = self.toks[self.i + 1].text
            if arity is not None and arity > 0 and follower == "(":
                self.next()
                self.expect("(")
                args = self.termlist()
                self.expect(")")
                if len(args) != arity:
                    raise ArityMismatch(f"relation {tok.text} expects {arity} arguments, got {len(args)}")
                return Atom(tok.text, args)
            if arity == 0:
                self.next()
                return Atom(tok.text, ())
        # term comparison: term ('=' | '<') term
        left = self.term()
        op = self.next()
        if op.text == "=":
            return Eq(left, self.term())
        if op.text == "<":
            if self.sig.rel_arity("<") != 2:
                raise UndeclaredSymbol("relation '<' is not declared in this signature")
            return Atom("<", (left, self.term()))
        raise ParseError(f"expected '=' or '<', found {op.text!r}", op.pos)

    def sugar_atom(self) -> Formula:
        name = self.next()
        self.expect("[")
        nat = self.next()
        if nat.kind != "nat":
            raise ParseError("expected a natural number inside '[...]'", nat.pos)
        self.expect("]")
        args: tuple[Term, ...] = ()
        if self.peek().text == "(":
            self.next()
            args = self.termlist()
            self.expect(")")
        base = name.text.split("_", 1)[0]
        if base == "A" and args:
            raise ArityMismatch(f"sugar atom {name.text}[n] takes no arguments")
        if base == "B" and len(args) != 1:
            raise ArityMismatch(f"sugar atom {name.text}[n](x) takes exactly one argument")
        if base not in ("A", "B"):
            raise UndeclaredSymbol(f"unknown sugar atom {name.text!r}")
        return Sugar(name.text, int(nat.text), args)

    def termlist(self) -> tuple[Term, ...]:
        terms = [self.term()]
        while self.peek().text == ",":
            self.next()
            terms.append(self.term())
        return tuple(terms)

    # term := prod ('+' prod)* ; prod := primary ('*' primary)*
    def term(self) -> Term:
        t = self.prod()
        while self.peek().text == "+":
            if self.sig.fun_arity("+") != 2:
                break
            self.next()
            t = App("+", (t, self.prod()))
        return t

    def prod(self) -> Term:
        t = self.primary()
        while self.peek().text == "*":
            if self.sig.fun_arity("*") != 2:
                break
            self.next()
            t = App("*", (t, self.primary()))
        return t

    def primary(self) -> Term:
        if self.peek().text == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        tok = self.next()
        if tok.kind == "nat":
            if self.sig.is_constant(tok.text):
                return Const(tok.text)
            raise UndeclaredSymbol(f"numeral {tok.text!r} is not a declared constant")
        if tok.kind != "ident":
            raise ParseError(f"expected a term, found {tok.text!r}", tok.pos)
        arity = self.sig.fun_arity(tok.text)
        if arity is not None:
            self.expect("(")
            args = self.termlist()
            self.expect(")")
            if len(args) != arity:
                raise ArityMismatch(f"function {tok.text} expects {arity} arguments, got {len(args)}")
            return App(tok.text, args)
        if self.sig.is_constant(tok.text):
            return Const(tok.text)
        if self.sig.rel_arity(tok.text) is not None:
            raise ParseError(f"relation {tok.text!r} used in term position", tok.pos)
        if not _VAR_RE.match(tok.text):
            raise UndeclaredSymbol(f"undeclared symbol {tok.text!r} (variables must start lowercase)")
        return Var(tok.text)


def parse(text: str, sig: Signature = J_SIG) -> Formula:
    """Parse ``text`` into a formula over ``sig``; sugar atoms stay unexpanded."""
    p = _Parser(text, sig)
    f = p.formula()
    tail = p.peek()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.pos)
    return f


# ---------------------------------------------------------------------------
# Printing

_PREC_QUANT = 1
_PREC_IFF = 2
_PREC_IMP = 3
_PREC_OR = 4
_PREC_AND = 5
_PREC_NOT = 6


def term_str(t: Term) -> str:
    match t:
        case Var(name) | Const(name):
            return name
        case App("+", (a, b)):
            return f"{term_str(a)} + {_term_sum_operand(b)}"
        case App("*", (a, b)):
            right = f"({term_str(b)})" if isinstance(b, App) and b.fn in ("+", "*") \
                else term_str(b)
            return f"{_term_prod_operand(a)} * {right}"
        case App(fn, args):
            return f"{fn}({', '.join(term_str(a) for a in args)})"
    raise TypeError(f"not a term: {t!r}")


def _term_sum_operand(t: Term) -> str:
    # '+' parses left-associatively, so a sum on the right needs parentheses
    if isinstance(t, App) and t.fn == "+":
        return f"({term_str(t)})"
    return term_str(t)


def _term_prod_operand(t: Term) -> str:
    # a sum under a product always needs parentheses; '*' parses
    # left-associatively, so only keep a bare product on the left
    if isinstance(t, App) and t.fn == "+":
        return f"({term_str(t)})"
    return term_str(t)


def pretty(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(pretty(f))`` equals ``f``."""
    return _show(f, 0)


def _show(f: Formula, parent: int) -> str:
    match f:
        case Top():
            return "true"
        case Bot():
            return "false"
        case Atom(rel, ()):
            return rel
        case Atom("<", (a, b)):
            return f"{term_str(a)} < {term_str(b)}"
        case Atom(rel, args):
            return f"{rel}({', '.join(term_str(a) for a in args)})"
        case Eq(a, b):
            return f"{term_str(a)} = {term_str(b)}"
        case Sugar(name, index, ()):
            return f"{name}[{index}]"
        case Sugar(name, index, args):
            return f"{name}[{index}]({', '.join(term_str(a) for a in args)})"
        case Not(body):
            return f"~{_show(body, _PREC_NOT)}"
        case And():
            return _wrap(_show_chain(f, And, " & ", _PREC_AND), _PREC_AND, parent)
        case Or():
            return _wrap(_show_chain(f, Or, " | ", _PREC_OR), _PREC_OR, parent)
        case Implies(a, b):
            s = f"{_show(a, _PREC_IMP + 1)} -> {_show(b, _PREC_IMP)}"
            return _wrap(s, _PREC_IMP, parent)
        case Iff(a, b):
            s = f"{_show(a, _PREC_IFF + 1)} <-> {_show(b, _PREC_IFF + 1)}"
            return _wrap(s, _PREC_IFF, parent)
        case Exists(var, body):
            return _wrap(f"exists {var}. {_show(body, _PREC_QUANT)}", _PREC_QUANT, parent)
        case Forall(var, body):
            return _wrap(f"forall {var}. {_show(body, _PREC_QUANT)}", _PREC_QUANT, parent)
    raise TypeError(f"not a formula: {f!r}")


def _show_chain(f: Formula, cls: type, op: str, prec: int) -> str:
    """A left-nested chain of one connective, walked in a loop so that long
    chains such as the conjunctions of deep base axioms print without
    recursing once per conjunct."""
    rights = []
    while isinstance(f, cls):
        rights.append(f.right)
        f = f.left
    return op.join([_show(f, prec)] + [_show(r, prec + 1) for r in reversed(rights)])


def _wrap(s: str, prec: int, parent: int) -> str:
    return f"({s})" if prec < parent else s


# ---------------------------------------------------------------------------
# Free variables and substitution


def term_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Const(_):
            return frozenset()
        case App(_, args):
            return frozenset().union(*(term_vars(a) for a in args)) if args else frozenset()
    raise TypeError(f"not a term: {t!r}")


def free_variables(f: Formula) -> frozenset[str]:
    return fold(f, _free_in)


def _free_in(f: Formula, kids: tuple[frozenset[str], ...]) -> frozenset[str]:
    match f:
        case Top() | Bot():
            return frozenset()
        case Atom(_, args) | Sugar(_, _, args):
            return frozenset().union(*(term_vars(a) for a in args)) if args else frozenset()
        case Eq(a, b):
            return term_vars(a) | term_vars(b)
        case Not():
            return kids[0]
        case And() | Or() | Implies() | Iff():
            return kids[0] | kids[1]
        case Exists(var, _) | Forall(var, _):
            return kids[0] - {var}
    raise TypeError(f"not a formula: {f!r}")


def subst_term(t: Term, mapping: dict[str, Term]) -> Term:
    match t:
        case Var(name):
            return mapping.get(name, t)
        case Const(_):
            return t
        case App(fn, args):
            return App(fn, tuple(subst_term(a, mapping) for a in args))
    raise TypeError(f"not a term: {t!r}")


def substitute(f: Formula, mapping: dict[str, Term]) -> Formula:
    """Capture-avoiding simultaneous substitution of terms for free variables."""
    if not mapping:
        return f
    match f:
        case Atom(rel, args):
            return Atom(rel, tuple(subst_term(a, mapping) for a in args))
        case Sugar(name, index, args):
            return Sugar(name, index, tuple(subst_term(a, mapping) for a in args))
        case Eq(a, b):
            return Eq(subst_term(a, mapping), subst_term(b, mapping))
        case Exists(var, body) | Forall(var, body):
            inner = {k: v for k, v in mapping.items() if k != var}
            if not inner:
                return type(f)(var, body)
            captured = frozenset().union(*(term_vars(t) for t in inner.values()))
            if var in captured:
                fresh = _fresh_name(var, captured | free_variables(body) | set(inner))
                body = substitute(body, {var: Var(fresh)})
                var = fresh
            return type(f)(var, substitute(body, inner))
    kids = []
    for k in children(f):
        kids.append(substitute(k, mapping))
    return rebuild(f, kids)


def _fresh_name(base: str, avoid: Iterable[str]) -> str:
    avoid = set(avoid)
    base = base.split("_")[0] or "v"
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def rename_symbols(f: Formula, rel_map: dict[str, str], fun_map: dict[str, str] | None = None,
                   const_map: dict[str, str] | None = None, sugar_map: dict[str, str] | None = None) -> Formula:
    """Rename relation/function/constant/sugar symbols throughout a formula."""
    fun_map = fun_map or {}
    const_map = const_map or {}
    sugar_map = sugar_map or {}

    def rt(t: Term) -> Term:
        match t:
            case Var(_):
                return t
            case Const(name):
                return Const(const_map.get(name, name))
            case App(fn, args):
                return App(fun_map.get(fn, fn), tuple(rt(a) for a in args))
        raise TypeError(f"not a term: {t!r}")

    def rf(g: Formula) -> Formula:
        match g:
            case Atom(rel, args):
                return Atom(rel_map.get(rel, rel), tuple(rt(a) for a in args))
            case Sugar(name, index, args):
                return Sugar(sugar_map.get(name, name), index, tuple(rt(a) for a in args))
            case Eq(a, b):
                return Eq(rt(a), rt(b))
        return g

    return rewrite(f, rf)


# ---------------------------------------------------------------------------
# Sugar expansion


def expand_sugar(f: Formula) -> Formula:
    """Replace ``A[n]`` / ``B[n](x)`` atoms by their first-order definitions.

    ``A[n]`` says there is an equivalence class of size exactly n+1;
    ``B[n](x)`` says the class of ``x`` has size > n (so ``B[0](x)`` holds
    trivially by reflexivity).
    """
    return rewrite(f, _expand_atom)


def _expand_atom(f: Formula) -> Formula:
    match f:
        case Sugar("A", n, ()):
            return _expand_a(n)
        case Sugar("B", n, (x,)):
            return _expand_b(n, x)
        case Sugar(name, _, _):
            raise FormulaError(f"cannot expand tagged sugar atom {name!r} outside its theory context")
    return f


def _witness_names(count: int, avoid: frozenset[str]) -> list[str]:
    names = []
    i = 0
    while len(names) < count:
        cand = f"u{i}"
        if cand not in avoid:
            names.append(cand)
        i += 1
    return names


def _expand_a(n: int) -> Formula:
    xs = _witness_names(n + 1, frozenset(("w",)))
    parts: list[Formula] = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            parts.append(Not(Eq(Var(xs[i]), Var(xs[j]))))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            parts.append(Atom("E", (Var(xs[i]), Var(xs[j]))))
    closure = Forall("w", Implies(Atom("E", (Var(xs[0]), Var("w"))),
                                  disj([Eq(Var("w"), Var(x)) for x in xs])))
    parts.append(closure)
    body = conj(parts)
    for x in reversed(xs):
        body = Exists(x, body)
    return body


def _expand_b(n: int, x: Term) -> Formula:
    avoid = term_vars(x)
    xs = _witness_names(n + 1, avoid)
    parts: list[Formula] = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            parts.append(Not(Eq(Var(xs[i]), Var(xs[j]))))
    for name in xs:
        parts.append(Atom("E", (Var(name), x)))
    body = conj(parts)
    for name in reversed(xs):
        body = Exists(name, body)
    return body


def contains_sugar(f: Formula) -> bool:
    return any(isinstance(g, Sugar) for g in subformulas(f))


# ---------------------------------------------------------------------------
# Prenex normal form


@dataclass(frozen=True)
class PrenexFormula:
    """Quantifier prefix (kind, variable) pairs, outermost first, over a
    quantifier-free matrix."""

    prefix: tuple[tuple[str, str], ...]
    matrix: Formula

    def __post_init__(self):
        if _has_quantifier(self.matrix):
            raise FormulaError("prenex matrix must be quantifier-free")
        names = [v for _, v in self.prefix]
        if len(names) != len(set(names)):
            raise FormulaError("prenex prefix variables must be pairwise distinct")

    def to_formula(self) -> Formula:
        f = self.matrix
        for kind, var in reversed(self.prefix):
            f = Exists(var, f) if kind == "exists" else Forall(var, f)
        return f


def _has_quantifier(f: Formula) -> bool:
    return any(isinstance(g, (Exists, Forall)) for g in subformulas(f))


def _eliminate_iff(f: Formula) -> Formula:
    return rewrite(f, _iff_to_implications)


def _iff_to_implications(f: Formula) -> Formula:
    match f:
        case Iff(a, b):
            return And(Implies(a, b), Implies(b, a))
    return f


def _rectify(f: Formula) -> Formula:
    """Rename bound variables so they are pairwise distinct and disjoint
    from the free variables; renaming is deterministic."""
    used = set(free_variables(f))

    def go(g: Formula) -> Formula:
        match g:
            case Exists(var, body) | Forall(var, body):
                if var in used:
                    fresh = _fresh_name(var, used)
                    used.add(fresh)
                    body = substitute(body, {var: Var(fresh)})
                    var = fresh
                else:
                    used.add(var)
                return type(g)(var, go(body))
        kids = []
        for k in children(g):
            kids.append(go(k))
        return rebuild(g, kids)

    return go(f)


def _dual(kind: str) -> str:
    return "forall" if kind == "exists" else "exists"


def prenex(f: Formula) -> PrenexFormula:
    """Classical equivalence-preserving prenexing.

    Biconditionals are eliminated first and bound variables are renamed
    apart, so quantifiers can be pulled without capture.
    """
    if contains_sugar(f):
        raise FormulaError("expand sugar atoms before prenexing")
    g = _rectify(_eliminate_iff(f))

    def pull(h: Formula) -> tuple[list[tuple[str, str]], Formula]:
        match h:
            case Exists(var, body):
                prefix, matrix = pull(body)
                return [("exists", var)] + prefix, matrix
            case Forall(var, body):
                prefix, matrix = pull(body)
                return [("forall", var)] + prefix, matrix
            case Not(body):
                prefix, matrix = pull(body)
                return [(_dual(k), v) for k, v in prefix], Not(matrix)
            case And(a, b):
                pa, ma = pull(a)
                pb, mb = pull(b)
                return pa + pb, And(ma, mb)
            case Or(a, b):
                pa, ma = pull(a)
                pb, mb = pull(b)
                return pa + pb, Or(ma, mb)
            case Implies(a, b):
                pa, ma = pull(a)
                pb, mb = pull(b)
                return [(_dual(k), v) for k, v in pa] + pb, Implies(ma, mb)
            case _:
                return [], h

    prefix, matrix = pull(g)
    return PrenexFormula(tuple(prefix), matrix)
