"""Independent references that check the program's outputs.

None of this imports ``theorybench``.  Each reference evaluates the
benchmark's own sentence structures (``formulas``) or machine texts:

- finite equivalence structures, with class sizes counted directly for
  ``A[k]`` / ``B[k](x)``, for ``decide``, ``eval_in_structure`` and the
  translated stream sentences behind ``diagonal`` stages;
- a counter-machine interpreter with its own Cantor unpairing, for the
  witness races, the Turing reduction, ``decide_sch`` and axiom streams;
- arithmetic over the naturals and over {0..cap} with min-truncated
  operations, for the capped-model searches.

Every ``check_*`` function returns ``None`` when the output is right and a
message otherwise.
"""
from __future__ import annotations

import itertools
from math import isqrt

from formulas import BINARY, generators, max_b_index, parse, rank

# ---------------------------------------------------------------------------
# Finite equivalence structures
#
# A structure is a tuple of class sizes; element (c, i) is member i of class
# c.  Quantifiers range over one representative of each orbit of the
# automorphisms that fix the current assignment: every assigned element,
# one unassigned element of each touched class, and one element of one
# untouched class of each size.  Truth is invariant under automorphisms, so
# this is exhaustive search, only shorter.


def _candidates(sizes, env):
    used = set(env.values())
    out = list(used)
    per_class = {}
    for c, _ in used:
        per_class[c] = per_class.get(c, 0) + 1
    for c, count in per_class.items():
        if count < sizes[c]:
            taken = {i for cc, i in used if cc == c}
            out.append((c, min(set(range(count + 1)) - taken)))
    seen = set()
    for c, size in enumerate(sizes):
        if c not in per_class and size not in seen:
            seen.add(size)
            out.append((c, 0))
    return out


def holds_eq(f, sizes, env=None) -> bool:
    """Truth of a formula over E, = and the sugar atoms in the structure
    whose classes have the given sizes."""
    sizes = tuple(sizes)
    realised = set(sizes)
    env = dict(env or {})

    def ev(g, env):
        tag = g[0]
        if tag == "E":
            return env[g[1][1]][0] == env[g[2][1]][0]
        if tag == "=":
            return env[g[1][1]] == env[g[2][1]]
        if tag == "A":
            return g[1] + 1 in realised
        if tag == "B":
            return sizes[env[g[2][1]][0]] > g[1]
        if tag == "not":
            return not ev(g[1], env)
        if tag == "and":
            return ev(g[1], env) and ev(g[2], env)
        if tag == "or":
            return ev(g[1], env) or ev(g[2], env)
        if tag == "imp":
            return not ev(g[1], env) or ev(g[2], env)
        if tag == "iff":
            return ev(g[1], env) == ev(g[2], env)
        if tag == "ex":
            return any(ev(g[2], {**env, g[1]: d}) for d in _candidates(sizes, env))
        if tag == "all":
            return all(ev(g[2], {**env, g[1]: d}) for d in _candidates(sizes, env))
        if tag == "true":
            return True
        if tag == "false":
            return False
        raise ValueError(f"cannot evaluate {g!r} in an equivalence structure")

    return ev(f, env)


def _large_structure(spectrum, count, size):
    return tuple(sorted(spectrum)) + (size,) * count


def check_decide(sentence, support, truth, verdict) -> str | None:
    """``truth(T)`` is the program's combination evaluated with exactly the
    generators in T true; ``verdict`` its provability answer.

    The spectra range over every subset of the support, the generators the
    sentence names, and the generators it can depend on at all: with
    quantifier rank q and B[k] atoms up to k = kb, no play of the q-round
    Ehrenfeucht-Fraisse game tells a class of size >= max(q, kb + 2) from
    an infinite one.  Large classes: q of them, of a size above every
    probed size and sugar index.
    """
    q = rank(sentence)
    reach = max(q, max_b_index(sentence) + 2) - 1
    span = sorted(set(support) | generators(sentence) | set(range(reach)))
    size = max(q, max_b_index(sentence) + 2, max(span, default=-1) + 2, 1)
    all_true = True
    for bits in range(1 << len(span)):
        chosen = {g for k, g in enumerate(span) if bits >> k & 1}
        structure = _large_structure({g + 1 for g in chosen}, max(q, 1), size)
        expected = holds_eq(sentence, structure)
        all_true &= expected
        if truth(chosen) != expected:
            return f"generators {sorted(chosen)} true: program says {not expected}, reference {expected}"
    if verdict != all_true:
        return f"verdict {verdict} but the sentence is {'valid' if all_true else 'not valid'}"
    return None


def spectrum_structure(spectrum, n):
    """One class of each size in the spectrum plus n classes of sizes
    n+1..2n, the structure ``build_spectrum_structure`` documents."""
    return tuple(sorted(spectrum)) + tuple(range(n + 1, 2 * n + 1))


def check_eval(sentence, spectrum, n, answer) -> str | None:
    expected = holds_eq(sentence, spectrum_structure(spectrum, n))
    if answer != expected:
        return f"eval_in_structure says {answer}, reference {expected}"
    return None


# -- translations --------------------------------------------------------


class _Fresh:
    def __init__(self):
        self.n = 0

    def __call__(self, base):
        self.n += 1
        return f"_{base}{self.n}"


def expand_sugar(f, fresh=None):
    """Write ``A[k]`` and ``B[k](t)`` out by their first-order definitions:
    A[k] is "some u0..uk, pairwise distinct and E(ui, uj) for i < j, with
    every w such that E(u0, w) among them"; B[k](t) is "some pairwise
    distinct u0..uk with E(ui, t) for each i"."""
    fresh = fresh or _Fresh()
    tag = f[0]
    if tag in ("A", "B"):
        k = f[1]
        us = [fresh("u") for _ in range(k + 1)]
        parts = [("not", ("=", ("var", a), ("var", b))) for a, b in itertools.combinations(us, 2)]
        if tag == "A":
            parts += [("E", ("var", a), ("var", b)) for a, b in itertools.combinations(us, 2)]
            w = fresh("w")
            others = [("=", ("var", w), ("var", u)) for u in us]
            closure = others[0]
            for o in others[1:]:
                closure = ("or", closure, o)
            parts.append(("all", w, ("imp", ("E", ("var", us[0]), ("var", w)), closure)))
        else:
            parts += [("E", ("var", u), f[2]) for u in us]
        body = parts[0] if parts else ("true",)
        for p in parts[1:]:
            body = ("and", body, p)
        for u in reversed(us):
            body = ("ex", u, body)
        return body
    if tag == "not":
        return ("not", expand_sugar(f[1], fresh))
    if tag in BINARY:
        return (tag, expand_sugar(f[1], fresh), expand_sugar(f[2], fresh))
    if tag in ("ex", "all"):
        return (tag, f[1], expand_sugar(f[2], fresh))
    return f


def _rename(f, mapping):
    tag = f[0]
    if tag == "var":
        return ("var", mapping.get(f[1], f[1]))
    if tag in ("E", "=", "<"):
        return (tag, _rename(f[1], mapping), _rename(f[2], mapping))
    if tag == "not":
        return ("not", _rename(f[1], mapping))
    if tag in BINARY:
        return (tag, _rename(f[1], mapping), _rename(f[2], mapping))
    if tag in ("true", "false"):
        return f
    raise ValueError(f"clause formulas are quantifier-free: {f!r}")


def translate(f, domain, clause):
    """Relativise every quantifier to ``domain`` (a formula in x) and
    replace every E(a, b) by ``clause`` (a formula in x, y); equality stays
    identity.  ``f`` must be free of sugar."""
    tag = f[0]
    if tag == "E":
        return _rename(clause, {"x": f[1][1], "y": f[2][1]})
    if tag == "not":
        return ("not", translate(f[1], domain, clause))
    if tag in BINARY:
        return (tag, translate(f[1], domain, clause), translate(f[2], domain, clause))
    if tag in ("ex", "all"):
        guard = _rename(domain, {"x": f[1]})
        body = translate(f[2], domain, clause)
        return (tag, f[1], ("and", guard, body) if tag == "ex" else ("imp", guard, body))
    return f


class TranslatedTable:
    """Truth table of a translated sentence over the generators it can
    depend on: with quantifier rank q it cannot tell classes of size >= q from
    large ones, so generators 0..q-2 suffice."""

    def __init__(self, sentence, domain, clause):
        formula = translate(expand_sugar(sentence), domain, clause)
        q = rank(formula)
        self.width = max(q - 1, 0)
        self.rows = {}
        for bits in range(1 << self.width):
            spectrum = {g + 1 for g in range(self.width) if bits >> g & 1}
            structure = _large_structure(spectrum, max(q, 1), max(q, 1))
            self.rows[bits] = holds_eq(formula, structure)

    def implied_by(self, n, j) -> bool:
        """Every completion of sign pattern j over generators < n makes
        the sentence true."""
        low = min(n, self.width)
        mask = (1 << low) - 1
        return all(v for bits, v in self.rows.items() if bits & mask == j & mask)

    def support_bound(self) -> int:
        """1 + the largest generator the truth table depends on, or 0."""
        top = 0
        for g in range(self.width):
            if any(self.rows[b] != self.rows[b ^ (1 << g)] for b in self.rows):
                top = g + 1
        return top


def stage_value(n, domain, clause, stream, budget) -> int:
    """f(n): the largest of n and, over every sign pattern j over the
    generators below n, the support bound of the first translated stream
    sentence that the pattern does not imply."""
    tables = {}
    best = n
    for j in range(1 << n):
        for k in range(budget):
            s = stream[min(k, len(stream) - 1)]
            if s not in tables:
                tables[s] = TranslatedTable(s, domain, clause)
            if not tables[s].implied_by(n, j):
                best = max(best, tables[s].support_bound())
                break
        else:
            raise ValueError(f"pattern {j} settles the whole stream within {budget}")
    return best


def check_stage(values, stage, expected=None) -> str | None:
    """F(0) = 0, strict increase, and (when given) the reference value."""
    if values[0] != 0:
        return f"F(0) = {values[0]}"
    if values[stage] <= values[stage - 1]:
        return f"F({stage}) = {values[stage]} does not exceed F({stage - 1}) = {values[stage - 1]}"
    if expected is not None and values[stage] != expected:
        return f"F({stage}) = {values[stage]}, reference {expected}"
    return None


# ---------------------------------------------------------------------------
# Counter machines


def parse_machine(text: str):
    """Instructions as (op, register, target) with op in INC/DECJZ/HALT."""
    code = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] == "HALT":
            code.append(("HALT", 0, 0))
        elif line[0] == "INC":
            code.append(("INC", int(line[1][1:]), 0))
        elif line[0] == "DECJZ":
            code.append(("DECJZ", int(line[1][1:]), int(line[2])))
        else:
            raise ValueError(f"unknown instruction {raw!r}")
    return tuple(code)


def unpair(z: int) -> tuple[int, int]:
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


class Machines:
    """A base machine and a table, with a memo of halting steps up to
    ``ceiling`` steps (the largest bound the benchmark uses)."""

    def __init__(self, base_text, table_texts, ceiling=10_000):
        self.codes = {"a": parse_machine(base_text)}
        self.codes.update((i, parse_machine(t)) for i, t in enumerate(table_texts))
        self.table_size = len(table_texts)
        self.ceiling = ceiling
        self.memo = {}

    def halts(self, machine, value, bound):
        """The halting step (executed instructions, HALT included) of
        machine "a" or table machine i if it is at most ``bound``, else
        None; table indices past the end name machines that never halt."""
        if bound > self.ceiling:
            raise ValueError("bound above the memo ceiling")
        if machine != "a" and machine >= self.table_size:
            return None
        key = (machine, value)
        if key not in self.memo:
            self.memo[key] = self._run(self.codes[machine], value)
        step = self.memo[key]
        return step if step is not None and step <= bound else None

    def _run(self, code, value):
        regs = {0: value}
        pc = 0
        for step in range(1, self.ceiling + 1):
            op, reg, target = code[pc]
            if op == "HALT":
                return step
            if op == "INC":
                regs[reg] = regs.get(reg, 0) + 1
                pc += 1
            elif regs.get(reg, 0) == 0:
                if target == pc:
                    return None  # jumps to itself forever
                pc = target
            else:
                regs[reg] -= 1
                pc += 1
            if pc >= len(code):
                raise ValueError("machine ran off its last line")
        return None

    def steps(self, x, bound):
        """(halting step of the base machine on the first projection,
        halting step of the indexed table machine on x itself)."""
        w, index = unpair(x)
        return self.halts("a", w, bound), self.halts(index, x, bound)

    def race(self, x, bound):
        """Expected bounded answers for B, B-perp and C: ("yes", witness),
        ("no",) when the facts within the bound refute membership, else
        ("unknown",).  B wants a base halt strictly before any Z-halt,
        B-perp a Z-halt no later than any base halt, C both the base halt
        and B-perp."""
        ya, z = self.steps(x, bound)
        if ya is not None:
            b = ("yes", ya) if z is None or z > ya else ("no",)
        else:
            b = ("no",) if z is not None else ("unknown",)
        if z is not None:
            bbot = ("yes", z) if ya is None or ya >= z else ("no",)
        else:
            bbot = ("no",) if ya is not None else ("unknown",)
        if bbot == ("no",):
            c = ("no",)
        elif ya is not None:
            c = ("yes", max(ya, z))
        else:
            c = ("unknown",)
        return {"B": b, "Bbot": bbot, "C": c}


def check_window(machines, xs, answers, bound) -> str | None:
    """``answers[i]`` holds the program's (B, C, B-perp) answers for xs[i]."""
    for x, (b, c, bbot) in zip(xs, answers):
        if b[0] == "yes" and c[0] == "yes":
            return f"x={x} is in both B and C"
        race = machines.race(x, bound)
        got = {"B": b, "C": c, "Bbot": bbot}
        for name in ("B", "C", "Bbot"):
            if got[name] != race[name]:
                return f"x={x}: {name} answered {got[name]}, race gives {race[name]}"
    return None


def reduction(machines, w, d_index, bound):
    """The verdict of the one-query reduction with the B race as the
    separator: ask x = <w, d>; on yes, the d-th machine's halting step on x
    bounds a search for a base halt on w strictly before it."""
    x = pair(w, d_index)
    if machines.race(x, bound)["B"][0] != "yes":
        return "not_in_A"
    z = machines.halts(d_index, x, bound)
    if z is None or z == 1:
        return "not_in_A"
    return "in_A" if machines.halts("a", w, z - 1) is not None else "not_in_A"


def check_reduce(machines, ws, verdicts, d_index, bound) -> str | None:
    for w, verdict in zip(ws, verdicts):
        expected = "in_A" if w % 2 == 0 else "not_in_A"
        if reduction(machines, w, d_index, bound) != expected:
            return f"w={w}: reference reduction disagrees with evenness"
        if verdict != expected:
            return f"w={w}: turing_reduce says {verdict}, expected {expected}"
    return None


def generator_table(f):
    """Support (generators the Boolean combination depends on) and truth
    function of a sentence built from A[k] atoms only."""
    gens = sorted(generators(f))

    def value(g, true_set):
        tag = g[0]
        if tag == "A":
            return g[1] in true_set
        if tag == "not":
            return not value(g[1], true_set)
        if tag == "and":
            return value(g[1], true_set) and value(g[2], true_set)
        if tag == "or":
            return value(g[1], true_set) or value(g[2], true_set)
        if tag == "imp":
            return not value(g[1], true_set) or value(g[2], true_set)
        if tag == "iff":
            return value(g[1], true_set) == value(g[2], true_set)
        if tag in ("true", "false"):
            return tag == "true"
        raise ValueError(f"not a generator combination: {g!r}")

    rows = {}
    for bits in range(1 << len(gens)):
        true_set = frozenset(g for k, g in enumerate(gens) if bits >> k & 1)
        rows[true_set] = value(f, true_set)
    support = [g for g in gens
               if any(rows[t] != rows[t ^ {g}] for t in rows)]
    return support, rows


def sch_verdict(machines, query, budget) -> str:
    """Provable iff the query holds under every assignment of its support
    that agrees with the generator facts the two races settle at the
    budget; unknown if a support generator is settled by neither."""
    support, rows = generator_table(query)
    forced = {}
    for g in support:
        race = machines.race(g, budget)
        if race["B"][0] == "yes":
            forced[g] = True
        elif race["C"][0] == "yes":
            forced[g] = False
        elif race["B"] != ("no",) or race["C"] != ("no",):
            return "unknown"
    ok = all(v for t, v in rows.items()
             if all((g in t) == val for g, val in forced.items()))
    return "provable" if ok else "not-provable"


def check_sch(machines, query, budget, verdict) -> str | None:
    expected = sch_verdict(machines, query, budget)
    if verdict != expected:
        return f"decide_sch says {verdict}, reference {expected}"
    return None


def axiom_kinds(positive, negative, count):
    """The dovetailed stream: stage s emits base axiom s-1, then probes
    every generator n < s at bound s, first for a positive axiom A[n],
    then for a negative one ~A[n], each emitted once."""
    kinds, seen, stage = [], set(), 0
    while len(kinds) < count:
        stage += 1
        kinds.append(("J", stage - 1))
        for n in range(stage):
            if ("pos", n) not in seen and positive(n, stage):
                seen.add(("pos", n))
                kinds.append(("pos", n))
            if ("neg", n) not in seen and negative(n, stage):
                seen.add(("neg", n))
                kinds.append(("neg", n))
    return kinds


def check_axiom(kind, text) -> str | None:
    """``text`` is the program's axiom, printed.  Generator axioms must be
    exactly A[n] or ~A[n]; a base axiom must be a sentence of E and B
    atoms, and true in a structure with one class of each size 1..2L+2
    when its quantifier rank is at most three (L is its level)."""
    f = parse(text)
    if kind[0] == "pos":
        return None if f == ("A", kind[1]) else f"expected A[{kind[1]}], got {text}"
    if kind[0] == "neg":
        return None if f == ("not", ("A", kind[1])) else f"expected ~A[{kind[1]}], got {text}"
    if generators(f):
        return f"base axiom {kind[1]} mentions a generator: {text}"
    if _free(f):
        return f"base axiom {kind[1]} has free variables: {text}"
    if rank(f) <= 3:
        level = max(kind[1] - 3, 0) // 2 + 1
        if not holds_eq(f, tuple(range(1, 2 * level + 3))):
            return f"base axiom {kind[1]} is false in a model of the base theory: {text}"
    return None


def _free(f, bound=frozenset()):
    tag = f[0]
    if tag == "var":
        return {f[1]} - bound
    if tag in ("ex", "all"):
        return _free(f[2], bound | {f[1]})
    out = set()
    for part in f[1:]:
        if isinstance(part, tuple):
            out |= _free(part, bound)
    return out


# ---------------------------------------------------------------------------
# Arithmetic over the naturals and over {0..cap}


def term_value(t, env, cap=None) -> int:
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "0":
        return 0
    if tag == "S":
        v = term_value(t[1], env, cap) + 1
    elif tag == "+":
        v = term_value(t[1], env, cap) + term_value(t[2], env, cap)
    else:
        v = term_value(t[1], env, cap) * term_value(t[2], env, cap)
    return v if cap is None else min(v, cap)


def arith_holds(f, cap=None, env=None, search=60, outer_below=None) -> bool:
    """Truth over the naturals (``cap`` None, unbounded existential search
    cut at ``search``) or over {0..cap} with min-truncated S, + and *.
    ``outer_below`` restricts the leading existential block to values
    below it."""
    env = dict(env or {})
    top = search if cap is None else cap

    def domain(g, env):
        body = g[2]
        guard = body[1] if body[0] in ("and", "imp") else None
        if guard and guard[0] == "<" and guard[1] == ("var", g[1]):
            return range(min(term_value(guard[2], env, cap), top + 1))
        return range(top + 1)

    def ev(g, env, outer):
        tag = g[0]
        if tag == "=":
            return term_value(g[1], env, cap) == term_value(g[2], env, cap)
        if tag == "<":
            return term_value(g[1], env, cap) < term_value(g[2], env, cap)
        if tag == "not":
            return not ev(g[1], env, False)
        if tag == "and":
            return ev(g[1], env, False) and ev(g[2], env, False)
        if tag == "or":
            return ev(g[1], env, False) or ev(g[2], env, False)
        if tag == "imp":
            return not ev(g[1], env, False) or ev(g[2], env, False)
        if tag == "ex":
            values = domain(g, env)
            if outer and outer_below is not None:
                values = range(min(len(values), outer_below))
            return any(ev(g[2], {**env, g[1]: d}, outer) for d in values)
        if tag == "all":
            return all(ev(g[2], {**env, g[1]: d}, False) for d in domain(g, env))
        if tag in ("true", "false"):
            return tag == "true"
        raise ValueError(f"cannot evaluate {g!r} in arithmetic")

    return ev(f, env, True)


def check_witness(sentence, truth, found_cap, family_cap=None) -> str | None:
    """``found_cap`` is the cap of the model the search returned, or None.
    Satisfiable iff true; a returned cap must leave room below it for the
    existential witnesses with the matrix true in {0..cap}, and equal the
    family's known minimal cap where there is one."""
    if arith_holds(sentence) != truth:
        return "the generator's truth mark disagrees with the standard evaluator"
    if (found_cap is not None) != truth:
        return f"search says {'satisfiable' if found_cap is not None else 'unsatisfiable'}, sentence is {truth}"
    if found_cap is None:
        return None
    if not arith_holds(sentence, cap=found_cap, outer_below=found_cap):
        return f"no witnesses below cap {found_cap}"
    if family_cap is not None and found_cap != family_cap:
        return f"cap {found_cap}, the bracket needs exactly {family_cap}"
    return None


TN_AXIOMS = (
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


def check_verify(cap, report) -> str | None:
    """``report`` holds the program's (axiom name, passed) pairs."""
    expected = []
    for name, text in TN_AXIOMS:
        f = parse(text)
        names = sorted(_free(f))
        ok = all(arith_holds(f, cap=cap, env=dict(zip(names, values)))
                 for values in itertools.product(range(cap + 1), repeat=len(names)))
        expected.append((name, ok))
    if list(report) != expected:
        return f"axiom report {list(report)}, reference {expected}"
    return None
