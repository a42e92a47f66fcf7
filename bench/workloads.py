"""The four workloads: inputs loaded through the program, ops that call its
public functions, and checks that hand each output to a reference.

An op is a ``(kind, run, check)`` triple.  ``run`` is the timed call and
returns the program's raw output; ``check`` takes that output, runs
outside the timed region and returns ``None`` or a failure message.
"""
from __future__ import annotations

import random

import gen
import refs
from formulas import parse as parse_own
from inputs import DATA


def load_corpus():
    """(truth, text, structure) for each line of the arithmetic corpus."""
    out = []
    for raw in (DATA / "tn_corpus.sents").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            mark, text = line.split(None, 1)
            out.append((mark == "T", text, parse_own(text)))
    return out


def _answer(obj):
    """A bounded machine answer as the references write it."""
    kind = type(obj).__name__
    if kind == "Yes":
        return ("yes", obj.witness)
    return ("no",) if kind == "No" else ("unknown",)


class Decide:
    def __init__(self, seed, inputs):
        self.seed = seed

    def round(self, index):
        from theorybench import janiczak, syntax
        ops = []
        for spec in gen.decide_round(self.seed, index):
            def run(text=spec["text"]):
                g = janiczak.qe_sentence(syntax.parse(text))
                return g, g.is_top

            def check(out, sentence=spec["sentence"]):
                g, verdict = out
                return refs.check_decide(sentence, g.support,
                                         lambda true_set: g.evaluate(lambda i: i in true_set),
                                         verdict)
            ops.append(("decide", run, check))
        return ops


class Races:
    def __init__(self, seed, inputs):
        self.seed = seed
        self.a = inputs["a"]
        self.table = inputs["table"]
        self.reference = gen.machines()
        self.settled = gen.settled_generators(self.reference, min(gen.SCH_BUDGETS))
        self.kinds = {}

    def _kinds(self, key, k):
        """The reference axiom stream of a theory, extended as needed."""
        m = self.reference
        if key == "sch":
            def positive(n, s):
                return m.race(n, s)["B"][0] == "yes"

            def negative(n, s):
                return m.race(n, s)["C"][0] == "yes"
        else:
            def positive(n, s):
                return m.halts("a", n, s) is not None

            def negative(n, s, b=key[1]):
                return m.halts(b, n, s) is not None
        if len(self.kinds.get(key, ())) <= k:
            self.kinds[key] = refs.axiom_kinds(positive, negative, 2 * k + 10)
        return self.kinds[key]

    def round(self, index):
        from theorybench import machines, syntax, theories
        a, table, padded = self.a, self.table, machines.PaddedTable(self.table)
        ops = []
        for spec in gen.races_round(self.seed, index, self.settled):
            kind = spec["kind"]
            if kind == "window":
                def run(xs=spec["xs"], bound=spec["bound"]):
                    return [(machines.member_B(a, x, padded, bound),
                             machines.member_C(a, x, padded, bound),
                             machines.member_Bbot(a, x, padded, bound)) for x in xs]

                def check(out, spec=spec):
                    answers = [tuple(_answer(r) for r in triple) for triple in out]
                    return refs.check_window(self.reference, spec["xs"], answers, spec["bound"])
            elif kind == "reduce":
                def run(spec=spec):
                    bound = spec["bound"]

                    def oracle(x):
                        return isinstance(machines.member_B(a, x, padded, bound), machines.Yes)
                    return [machines.turing_reduce(w, a, spec["d_index"], oracle, table, bound)
                            for w in spec["ws"]]

                def check(out, spec=spec):
                    return refs.check_reduce(self.reference, spec["ws"], out,
                                             spec["d_index"], spec["bound"])
            elif kind == "sch":
                def run(texts=spec["texts"], budget=spec["budget"]):
                    return [theories.decide_sch(
                        syntax.parse(text),
                        lambda n, bound: machines.member_B(a, n, padded, bound),
                        lambda n, bound: machines.member_C(a, n, padded, bound), budget)
                        for text in texts]

                def check(out, spec=spec):
                    for query, verdict in zip(spec["queries"], out):
                        message = refs.check_sch(self.reference, query, spec["budget"], verdict)
                        if message:
                            return message
                    return None
            else:
                if kind == "sch_axiom":
                    key = "sch"

                    def run(k=spec["k"]):
                        return theories.build_sch(a, table).axiom(k)
                else:
                    key = ("so", spec["b"])

                    def run(k=spec["k"], b=table[spec["b"]]):
                        return theories.build_so(a, b).axiom(k)

                def check(out, key=key, k=spec["k"]):
                    return refs.check_axiom(self._kinds(key, k)[k], syntax.pretty(out))
            ops.append((kind, run, check))
        return ops


class Models:
    def __init__(self, seed, inputs):
        self.seed = seed
        self.corpus = load_corpus()

    def round(self, index):
        from theorybench import janiczak, syntax, tn
        ops = []
        for spec in gen.models_round(self.seed, index, self.corpus):
            kind = spec["kind"]
            if kind == "witness":
                def run(text=spec["text"]):
                    return tn.witness_model(tn.purify(syntax.parse(text, syntax.TN_SIG)),
                                            gen.SEARCH_CAP)

                def check(model, spec=spec):
                    cap = None if model is None else model.cap
                    return refs.check_witness(spec["sentence"], spec["truth"], cap,
                                              spec["family_cap"])
            elif kind == "verify":
                def run(cap=spec["cap"]):
                    return tn.verify_tn_axioms(tn.build_capped_model(cap))

                def check(report, cap=spec["cap"]):
                    return refs.check_verify(cap, [(name, ok) for name, ok, _ in report])
            else:
                def run(spec=spec):
                    sentence = syntax.parse(spec["text"])
                    return [janiczak.eval_in_structure(
                        sentence, janiczak.build_spectrum_structure(s, spec["n"]))
                        for s in spec["spectra"]]

                def check(answers, spec=spec):
                    for spectrum, answer in zip(spec["spectra"], answers):
                        message = refs.check_eval(spec["sentence"], spectrum, spec["n"], answer)
                        if message:
                            return f"spectrum {spectrum}: {message}"
                    return None
            ops.append((kind, run, check))
        return ops


class Diagonal:
    def __init__(self, seed, inputs):
        self.seed = seed
        self.translations = inputs["translations"]
        if len(self.translations) != gen.TRANSLATION_COUNT:
            raise ValueError(f"expected {gen.TRANSLATION_COUNT} translations, "
                             f"got {len(self.translations)}")

    def round(self, index):
        """One F run, an op per stage.  Every stage is checked for F(0) = 0
        and strict increase; one seeded stage per round is recomputed by
        the reference."""
        from theorybench.diagonal import DiagonalRun, stream_from_sentences
        from theorybench.syntax import parse, pretty
        spec = gen.diagonal_round(self.seed, index)
        taus = [self.translations[i] for i in spec["translations"]]
        run_f = DiagonalRun(taus, stream_from_sentences([parse(t) for t in spec["texts"]]),
                            spec["budget"])
        sampled = random.Random(f"diagonal-check:{self.seed}:{index}").randrange(1, spec["stages"] + 1)
        broken = []
        ops = []
        for stage in range(1, spec["stages"] + 1):
            def run(stage=stage):
                if broken:
                    raise RuntimeError("an earlier stage of this run failed")
                try:
                    return run_f.F(stage)
                except Exception:
                    broken.append(stage)
                    raise

            def check(value, stage=stage):
                expected = None
                if stage == sampled:
                    tau = taus[stage - 1]
                    params, clause = tau.clause("E")
                    if params != ("x", "y"):
                        return f"clause parameters {params}"
                    expected = refs.stage_value(run_f.values[stage - 1] + 1,
                                                parse_own(pretty(tau.domain)),
                                                parse_own(pretty(clause)),
                                                spec["stream"], spec["budget"])
                if value != run_f.values[stage]:
                    return f"F({stage}) returned {value}, recorded {run_f.values[stage]}"
                return refs.check_stage(run_f.values, stage, expected)
            ops.append(("stage", run, check))
        return ops


WORKLOADS = {"decide": Decide, "races": Races, "models": Models, "diagonal": Diagonal}
