"""Command-line front end.

One subcommand per workbench operation, a stable text format (machine
parseable first line), and an exit-code protocol for shell harnesses:
0 success / positive, 1 negative decision, 2 unknown or out of budget,
3 usage or contract error.  ``--format json`` swaps the text payload for
a single JSON object.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .diagonal import (Exhausted, build_X, enumerate_translations,
                       stream_from_sentences)
from .janiczak import (config_to_formula, decide_J, enumerate_configs,
                       qe_sentence)
from .machines import (MachineError, OracleContractError, PaddedTable, Yes,
                       load_program, load_table, member_B, member_Bbot,
                       member_C, member_Z, run, turing_reduce)
from .syntax import FormulaError, J_SIG, TN_SIG, parse, pretty
from .theories import J, build_so, decide_ovee, decide_sch, ovee
from .tn import build_capped_model, purify, verify_tn_axioms, witness_model


@dataclass
class CommandResult:
    code: int
    lines: list[str]
    payload: dict

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload, sort_keys=True)
        return "\n".join(self.lines)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_qe(args) -> CommandResult:
    g = qe_sentence(parse(args.formula))
    lines = g.minterm_lines()
    return CommandResult(0, lines, {"result": lines, "support": list(g.support)})


def _cmd_decide(args) -> CommandResult:
    provable = decide_J(parse(args.formula))
    word = "PROVABLE" if provable else "NOT-PROVABLE"
    return CommandResult(0 if provable else 1, [word], {"result": word})


def _cmd_configs(args) -> CommandResult:
    names = tuple(sorted(v for v in args.vars.split(",") if v)) if args.vars else ()
    configs = enumerate_configs(args.n, names)
    lines = [str(len(configs))]
    lines += [pretty(config_to_formula(c)) for c in configs]
    return CommandResult(0, lines, {"count": len(configs), "formulas": lines[1:]})


def _cmd_run(args) -> CommandResult:
    answer = run(load_program(args.prog), args.input, args.steps)
    if isinstance(answer, Yes):
        return CommandResult(0, [f"YES {answer.witness}"],
                             {"result": "YES", "step": answer.witness})
    return CommandResult(2, [f"UNKNOWN {answer.bound}"],
                         {"result": "UNKNOWN", "bound": answer.bound})


_RACE_SETS = {"z": member_Z, "b": member_B, "bbot": member_Bbot, "c": member_C}


def _cmd_shoenfield(args) -> CommandResult:
    a = load_program(args.a)
    table = PaddedTable(load_table(args.table))
    wanted = [s.strip().lower() for s in args.emit.split(",") if s.strip()]
    lines, payload = [], {}
    for name in wanted:
        if name not in _RACE_SETS:
            raise UsageError(f"unknown set {name!r}; choose from z,b,bbot,c")
        proc = _RACE_SETS[name]
        members = []
        for x in range(args.xmax):
            answer = proc(x, table, args.bound) if name == "z" else \
                proc(a, x, table, args.bound)
            if isinstance(answer, Yes):
                members.append(x)
        lines.append(f"{name.upper()}: " + " ".join(map(str, members)))
        payload[name] = members
    return CommandResult(0, lines, payload)


def _cmd_reduce(args) -> CommandResult:
    a = load_program(args.a)
    table = load_table(args.table)

    def oracle(x: int) -> bool:
        return isinstance(member_B(a, x, PaddedTable(table), args.bound), Yes)

    verdict = turing_reduce(args.w, a, args.d_index, oracle, table, args.bound)
    word = {"in_A": "YES", "not_in_A": "NO", "unknown": "UNKNOWN"}[verdict]
    code = {"YES": 0, "NO": 1, "UNKNOWN": 2}[word]
    return CommandResult(code, [word], {"result": word, "verdict": verdict})


def _cmd_sch_decide(args) -> CommandResult:
    a = load_program(args.a)
    table = PaddedTable(load_table(args.table))
    verdict = decide_sch(
        parse(args.query),
        lambda n, bound: member_B(a, n, table, bound),
        lambda n, bound: member_C(a, n, table, bound),
        args.budget)
    word = {"provable": "PROVABLE", "not-provable": "NOT-PROVABLE",
            "unknown": "UNKNOWN"}[verdict]
    code = {"PROVABLE": 0, "NOT-PROVABLE": 1, "UNKNOWN": 2}[word]
    return CommandResult(code, [word], {"result": word})


def _cmd_so(args) -> CommandResult:
    theory = build_so(load_program(args.a), load_program(args.b))
    lines = [f"{i}\t{pretty(theory.axiom(i))}" for i in range(args.emit_axioms)]
    return CommandResult(0, lines, {"axioms": [pretty(theory.axiom(i))
                                               for i in range(args.emit_axioms)]})


def _cmd_ovee(args) -> CommandResult:
    if args.left != "J" or args.right != "J":
        raise UsageError("only the J ovee J instance is available")
    composite = ovee(J, J)
    provable = decide_ovee(parse(args.decide, composite.signature))
    word = "PROVABLE" if provable else "NOT-PROVABLE"
    return CommandResult(0 if provable else 1, [word], {"result": word})


def _cmd_tn_verify(args) -> CommandResult:
    report = verify_tn_axioms(build_capped_model(args.cap))
    ok = all(passed for _, passed, _ in report)
    lines = ["YES" if ok else "NO"]
    for name, passed, witness in report:
        lines.append(f"{name} {'ok' if passed else 'FAIL at ' + repr(witness)}")
    return CommandResult(0 if ok else 1, lines,
                         {"result": lines[0],
                          "axioms": {name: passed for name, passed, _ in report}})


def _cmd_tn_bracket(args) -> CommandResult:
    sigma = purify(parse(args.sigma, TN_SIG))
    model = witness_model(sigma, args.search)
    if model is None:
        return CommandResult(1, ["NO"], {"result": "NO", "search": args.search})
    return CommandResult(0, [f"YES {model.cap}"],
                         {"result": "YES", "cap": model.cap})


def _cmd_tn_purify(args) -> CommandResult:
    sigma = purify(parse(args.sigma, TN_SIG))
    text = pretty(sigma.to_formula())
    return CommandResult(0, [text],
                         {"result": text, "variables": list(sigma.exist_vars)})


def _cmd_diag(args) -> CommandResult:
    if args.action != "F":
        raise UsageError(f"unknown diag action {args.action!r}")
    if not args.translations.startswith("auto:"):
        raise UsageError("--translations must look like auto:<size-bound>")
    try:
        size_bound = int(args.translations.split(":", 1)[1])
    except ValueError:
        raise UsageError("--translations must look like auto:<size-bound>") from None
    sentences = []
    with open(args.stream) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                sentences.append(parse(line))
    translations = enumerate_translations(J_SIG, size_bound)
    try:
        values = build_X(args.kmax, translations, stream_from_sentences(sentences),
                         args.budget)
    except Exhausted as exc:
        return CommandResult(2, [f"UNKNOWN {exc}"], {"result": "UNKNOWN",
                                                     "reason": str(exc)})
    line = " ".join(map(str, values))
    return CommandResult(0, [line], {"result": values})


# ---------------------------------------------------------------------------
# Parser


def _natural(text: str) -> int:
    """argparse type of a flag that takes a natural number."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid natural number {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a natural number, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theorybench",
        description="decision procedures and effective constructions workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=handler)
        return p

    p = add("qe", _cmd_qe, help="eliminate quantifiers from a sentence")
    p.add_argument("formula")

    p = add("decide", _cmd_decide, help="decide provability over J")
    p.add_argument("formula")

    p = add("configs", _cmd_configs, help="enumerate configurations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vars", default="")

    p = add("run", _cmd_run, help="run a counter machine")
    p.add_argument("--prog", required=True)
    p.add_argument("--input", type=_natural, required=True)
    p.add_argument("--steps", type=_natural, required=True)

    p = add("shoenfield", _cmd_shoenfield, help="emit witness-race sets")
    p.add_argument("--a", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--xmax", type=_natural, required=True)
    p.add_argument("--bound", type=_natural, required=True)
    p.add_argument("--emit", default="b,c")

    p = add("reduce", _cmd_reduce, help="Turing reduction through a separator")
    p.add_argument("--w", type=_natural, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--d-index", type=_natural, required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--bound", type=_natural, required=True)

    p = add("sch-decide", _cmd_sch_decide, help="oracle-relative decision")
    p.add_argument("--a", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--budget", type=_natural, required=True)

    p = add("so", _cmd_so, help="dump axioms of a two-machine theory")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--emit-axioms", type=_natural, required=True)

    p = add("ovee", _cmd_ovee, help="decide over the switch-predicate infimum")
    p.add_argument("--left", default="J")
    p.add_argument("--right", default="J")
    p.add_argument("--decide", required=True)

    tn = sub.add_parser("tn", help="capped arithmetic")
    tn_sub = tn.add_subparsers(dest="tn_command", required=True)

    def add_tn(name, handler):
        q = tn_sub.add_parser(name)
        q.add_argument("--format", choices=("text", "json"), default="text")
        q.set_defaults(handler=handler)
        return q

    q = add_tn("verify", _cmd_tn_verify)
    q.add_argument("--cap", type=int, required=True)
    q = add_tn("bracket", _cmd_tn_bracket)
    q.add_argument("--sigma", required=True)
    q.add_argument("--search", type=_natural, default=12)
    q = add_tn("purify", _cmd_tn_purify)
    q.add_argument("--sigma", required=True)

    p = add("diag", _cmd_diag, help="the diagonal recursion")
    p.add_argument("action", choices=("F",))
    p.add_argument("--kmax", type=_natural, required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--translations", default="auto:5")
    p.add_argument("--budget", type=_natural, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic; normalise the exit code
        return 0 if exc.code == 0 else 3
    try:
        result = args.handler(args)
    except (UsageError, FormulaError, MachineError, OracleContractError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    print(result.render(args.format))
    return result.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
