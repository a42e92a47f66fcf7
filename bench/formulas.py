"""The benchmark's own sentence structures.

Sentences are nested tuples, independent of the program's syntax tree:

    terms     ("var", name)  ("0",)  ("S", t)  ("+", t, u)  ("*", t, u)
    formulas  ("true",)  ("false",)  ("=", t, u)  ("<", t, u)  ("E", t, u)
              ("A", k)  ("B", k, t)  ("not", f)  ("and", f, g)  ("or", f, g)
              ("imp", f, g)  ("iff", f, g)  ("ex", v, f)  ("all", v, f)

``render`` writes a structure in the program's concrete grammar, fully
parenthesised so no precedence rule is needed to read it back.  ``parse``
reads that grammar (the same precedence rules as the program) so the
references can evaluate text the program prints, such as a translation's
clauses, without going through the program's parser.
"""
from __future__ import annotations

import re

BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def var(name):
    return ("var", name)


def numeral(k):
    t = ("0",)
    for _ in range(k):
        t = ("S", t)
    return t


def render_term(t) -> str:
    tag = t[0]
    if tag == "var":
        return t[1]
    if tag == "0":
        return "0"
    if tag == "S":
        return f"S({render_term(t[1])})"
    left, right = render_term(t[1]), render_term(t[2])
    if t[2][0] in ("+", "*"):
        right = f"({right})"
    if tag == "*" and t[1][0] == "+":
        left = f"({left})"
    return f"{left} {tag} {right}"


def render(f) -> str:
    tag = f[0]
    if tag in ("true", "false"):
        return tag
    if tag in ("=", "<"):
        return f"{render_term(f[1])} {tag} {render_term(f[2])}"
    if tag == "E":
        return f"E({render_term(f[1])}, {render_term(f[2])})"
    if tag == "A":
        return f"A[{f[1]}]"
    if tag == "B":
        return f"B[{f[1]}]({render_term(f[2])})"
    if tag == "not":
        body = render(f[1])
        return f"~{body}" if f[1][0] in ("E", "A", "B", "true", "false") else f"~({body})"
    if tag in BINARY:
        return f"({render(f[1])} {BINARY[tag]} {render(f[2])})"
    if tag in ("ex", "all"):
        word = "exists" if tag == "ex" else "forall"
        return f"({word} {f[1]}. {render(f[2])})"
    raise ValueError(f"not a formula: {f!r}")


def rank(f) -> int:
    """Quantifier rank: the deepest nesting of quantifiers."""
    tag = f[0]
    if tag in ("ex", "all"):
        return 1 + rank(f[2])
    if tag == "not":
        return rank(f[1])
    if tag in BINARY:
        return max(rank(f[1]), rank(f[2]))
    return 0


def generators(f) -> set[int]:
    """Indices k of the A[k] atoms in a formula."""
    tag = f[0]
    if tag == "A":
        return {f[1]}
    if tag in ("ex", "all"):
        return generators(f[2])
    if tag == "not":
        return generators(f[1])
    if tag in BINARY:
        return generators(f[1]) | generators(f[2])
    return set()


def max_b_index(f) -> int:
    """Largest k of a B[k] atom, or -1."""
    tag = f[0]
    if tag == "B":
        return f[1]
    if tag in ("ex", "all"):
        return max_b_index(f[2])
    if tag == "not":
        return max_b_index(f[1])
    if tag in BINARY:
        return max(max_b_index(f[1]), max_b_index(f[2]))
    return -1


# ---------------------------------------------------------------------------
# Parser for the same grammar

_TOKEN = re.compile(r"\s*(<->|->|[~&|().,\[\]=<+*]|\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unexpected character at {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out + [""]


class _Parser:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self, k=0):
        return self.toks[self.i + k]

    def take(self, expected=None):
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def formula(self):
        f = self.implication()
        while self.peek() == "<->":
            self.take()
            f = ("iff", f, self.implication())
        return f

    def implication(self):
        f = self.disjunction()
        if self.peek() == "->":
            self.take()
            return ("imp", f, self.implication())
        return f

    def disjunction(self):
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = ("or", f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = ("and", f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("not", self.unary())
        if tok in ("exists", "forall"):
            self.take()
            name = self.take()
            self.take(".")
            return ("ex" if tok == "exists" else "all", name, self.formula())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if tok in ("true", "false"):
            self.take()
            return (tok,)
        if tok == "E" and self.peek(1) == "(":
            self.take()
            self.take("(")
            a = self.term()
            self.take(",")
            b = self.term()
            self.take(")")
            return ("E", a, b)
        if tok in ("A", "B") and self.peek(1) == "[":
            self.take()
            self.take("[")
            k = int(self.take())
            self.take("]")
            if tok == "A":
                return ("A", k)
            self.take("(")
            t = self.term()
            self.take(")")
            return ("B", k, t)
        left = self.term()
        op = self.take()
        if op not in ("=", "<"):
            raise ValueError(f"expected '=' or '<', found {op!r}")
        return (op, left, self.term())

    def term(self):
        t = self.product()
        while self.peek() == "+":
            self.take()
            t = ("+", t, self.product())
        return t

    def product(self):
        t = self.primary()
        while self.peek() == "*":
            self.take()
            t = ("*", t, self.primary())
        return t

    def primary(self):
        tok = self.take()
        if tok == "(":
            t = self.term()
            self.take(")")
            return t
        if tok == "0":
            return ("0",)
        if tok == "S":
            self.take("(")
            t = self.term()
            self.take(")")
            return ("S", t)
        if re.fullmatch(r"[a-z][A-Za-z0-9_]*", tok):
            return ("var", tok)
        raise ValueError(f"expected a term, found {tok!r}")


def parse(text: str):
    p = _Parser(text)
    f = p.formula()
    if p.peek() != "":
        raise ValueError(f"trailing input {p.peek()!r} in {text!r}")
    return f
