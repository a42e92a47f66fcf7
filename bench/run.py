"""Benchmark runner for theorybench.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

One single-threaded closed-loop caller in this process calls the library's
public functions: the next op starts when the last one ends.  A run
attempts whole rounds (``gen.py``) until the summed op time reaches
``--seconds``; every op's output is then checked against an independent
reference (``refs.py``) outside the timed region.  Set-up is measured in
fresh interpreters (``setup_probe.py``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every round runs twice, op by op,
untraced and traced, and it holds the per-layer metrics of the traced ops
and the tracing overhead.  Results and traces are written under
``bench/out/``.
An op that raises or fails its check makes ``correct`` false and the exit
code 1.
"""
from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7

# A shared host's speed drifts: a fixed pure-Python loop runs up to a third
# faster or slower for seconds at a time (README), and every op slows with
# it.  So before each op, outside the timed region, run.py times
# ``reference_loop``, and each time it reports is scaled to a host that
# runs that loop in NOMINAL_REFERENCE_S (about the median on the host of
# the README's figures).
NOMINAL_REFERENCE_S = 1.25e-3
REFERENCE_WINDOW = 15

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: <module>.<function>.self_s is span time minus child
# span time and .calls a count, both per traced op; the set-up figures
# are per set-up.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "syntax.parse.self_s": "s/op",
    "syntax.expand_sugar.self_s": "s/op",
    "syntax.prenex.self_s": "s/op",
    "syntax.prenex.quantifiers": "1/op",
    "syntax.substitute.calls": "1/op",
    "boolcomb.canonical.self_s": "s/op",
    "boolcomb.canonical.calls": "1/op",
    "janiczak.enumerate_configs.self_s": "s/op",
    "janiczak.enumerate_configs.misses": "1/op",
    "janiczak.enumerate_configs.configs": "1/op",
    "janiczak.qf_to_configs.self_s": "s/op",
    "janiczak.qf_to_configs.kept_ratio": "ratio",
    "janiczak.project_config.calls": "1/op",
    "janiczak.project_config.self_s": "s/op",
    "janiczak.qe_sentence.self_s": "s/op",
    "janiczak.eval_in_structure.self_s": "s/op",
    "janiczak.eval_in_structure.calls": "1/op",
    "machines.run.self_s": "s/op",
    "machines.run.calls": "1/op",
    "machines.member_B.self_s": "s/op",
    "machines.member_C.self_s": "s/op",
    "machines.member_Bbot.self_s": "s/op",
    "machines.turing_reduce.self_s": "s/op",
    "theories.JXTheory.axiom.self_s": "s/op",
    "theories.decide_sch.self_s": "s/op",
    "tn.purify.self_s": "s/op",
    "tn.witness_model.self_s": "s/op",
    "tn.witness_model.caps_per_search": "caps/search",
    "tn.build_capped_model.self_s": "s/op",
    "tn.build_capped_model.calls": "1/op",
    "tn.verify_tn_axioms.self_s": "s/op",
    "tn.verify_tn_axioms.calls": "1/op",
    "tn.model_check.self_s": "s/op",
    "tn.model_check.calls": "1/op",
    "diagonal.find_p.self_s": "s/op",
    "diagonal.find_p.calls": "1/op",
    "diagonal.enumerate_Cn.self_s": "s/op",
    "diagonal.enumerate_Cn.minterms_per_pattern": "minterms/pattern",
    "diagonal.apply_translation.self_s": "s/op",
    "diagonal.enumerate_translations.self_s": "s",
    "trace.overhead_pct": "%",
}

WORKLOAD_NAMES = ("decide", "races", "models", "diagonal")

# Memos that a round fills and reuses for itself: the stages of one
# diagonal round share their eliminations, while rounds share almost
# nothing through it (1 hit in 2,329 calls over 30 rounds).  In a traced
# run each copy of a round gets fresh memos of its own (``run_pair``), so
# that one copy does not replay the other from them.
ROUND_MEMOS = (("theorybench.diagonal", "_translated_combination"),)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put this checkout's ``src`` first on the path and make sure the
    program imported is the one built from it."""
    package = SRC / "theorybench"
    if not (package / "__init__.py").is_file():
        fail(f"no theorybench sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import theorybench
    if Path(theorybench.__file__).resolve().parent != package.resolve():
        fail(f"imported theorybench from {theorybench.__file__}, not from {package}")
    import theorybench.cli  # noqa: F401  (every module, as a command-line call loads them)


def reference_loop() -> float:
    """Seconds the host takes for a fixed pure-Python loop that, like the
    program, mostly builds small tuples and looks them up in a dict."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(4_000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, ()) + (i,) if i & 15 else ()
    return time.perf_counter() - t0


def scale(seconds: float, references: list[float]) -> float:
    """A time measured while the reference loop took ``references``, as it
    would read on a host that runs the loop in NOMINAL_REFERENCE_S."""
    return seconds * NOMINAL_REFERENCE_S / statistics.median(references)


def measure_setup(workload: str) -> dict:
    """Medians over fresh interpreters of the time from spawn to the
    moment the first op could start (host-scaled by reference loops run
    just before and after each one), and of its import and input parts.
    One probe runs first untimed, so byte-code caches exist as they do for
    every later call."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        references = [reference_loop() for _ in range(3)]
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        references += [reference_loop() for _ in range(3)]
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            samples.append((scale(data["ready"] - start, references),
                            data["import_s"], data["inputs_s"]))
    return {
        "setup_s": statistics.median(s[0] for s in samples),
        "setup.import_s": statistics.median(s[1] for s in samples),
        "setup.inputs_s": statistics.median(s[2] for s in samples),
    }


class Record:
    """Every op of a run in order: its raw time (None if it raised), the
    reference-loop time taken just before it, its kind, and whether it ran
    traced."""

    def __init__(self):
        self.raw: list[float | None] = []
        self.reference: list[float] = []
        self.kinds: list[str] = []
        self.traced: list[bool] = []
        self.wrong = 0

    @property
    def attempted(self):
        return len(self.raw)

    @property
    def failed(self):
        return self.raw.count(None) + self.wrong

    def scaled(self, traced=False) -> list[tuple[str, float]]:
        """(kind, host-scaled time) of the completed ops of one phase; the
        host's speed at an op is the median reference time of the
        2 * REFERENCE_WINDOW + 1 ops around it."""
        out = []
        for i, raw in enumerate(self.raw):
            if raw is not None and self.traced[i] == traced:
                near = self.reference[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
                out.append((self.kinds[i], scale(raw, near)))
        return out


def time_op(op, record: Record, tracer=None):
    """Time one op (traced if ``tracer`` is given); return (kind, check,
    output), with no check if the op raised."""
    kind, run, check = op
    record.reference.append(reference_loop())
    if tracer is not None:
        tracer.install()
    try:
        span = tracer.open("op." + kind) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out, check = None, None
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record.raw.append(dt if check is not None else None)
    record.kinds.append(kind)
    record.traced.append(tracer is not None)
    return kind, check, out


def run_round(ops, record: Record):
    """Time every op of a round, then check the outputs."""
    check_outputs([time_op(op, record) for op in ops], record)


def run_pair(index: int, workload, record: Record, tracer):
    """Round ``index`` twice, untraced and traced, op by op: each op of one
    copy runs next to the same op of the other, which of them goes first
    alternating, so the tracing overhead compares the same ops at the same
    host speed.  Each copy has fresh ROUND_MEMOS of its own."""
    originals = {key: getattr(sys.modules[key[0]], key[1]) for key in ROUND_MEMOS}
    copies = []
    for side in (None, tracer):
        memos = {key: functools.lru_cache(memo.cache_parameters()["maxsize"])(memo.__wrapped__)
                 for key, memo in originals.items()}
        copies.append((side, memos, workload.round(index), []))
    try:
        for j in range(len(copies[0][2])):
            for side, memos, ops, outputs in (copies if (index + j) % 2 == 0 else copies[::-1]):
                for (module, name), memo in memos.items():
                    setattr(sys.modules[module], name, memo)
                outputs.append(time_op(ops[j], record, side))
    finally:
        for (module, name), memo in originals.items():
            setattr(sys.modules[module], name, memo)
    for _, _, _, outputs in copies:
        check_outputs(outputs, record)


def check_outputs(outputs, record: Record):
    """Check each (kind, check, output) outside the timed region."""
    for kind, check, out in outputs:
        if check is None:
            continue
        try:
            message = check(out)
        except Exception:
            message = "reference failed:\n" + traceback.format_exc()
        if message:
            record.wrong += 1
            print(f"bench: wrong {kind} output: {message}", file=sys.stderr)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(times: list[float], setup: dict) -> dict:
    return {
        "setup_s": setup["setup_s"],
        "throughput_ops_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_p90_ms": percentile(times, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: list[float], untraced: list[float], setup: dict) -> dict:
    ops = len(traced)
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {"setup.import_s": setup["setup.import_s"], "setup.inputs_s": setup["setup.inputs_s"]}
    for name in PER_LAYER:
        layer, _, quantity = name.rpartition(".")
        if quantity == "self_s" and not name.startswith("setup."):
            out[name] = self_s.get(layer, 0.0) / ops
        elif quantity in ("calls", "misses", "configs", "quantifiers"):
            out[name] = counts.get(name, 0) / ops

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    out["diagonal.enumerate_translations.self_s"] = self_s.get("diagonal.enumerate_translations", 0.0)
    out["janiczak.qf_to_configs.kept_ratio"] = ratio("janiczak.qf_to_configs.kept",
                                                     "janiczak.qf_to_configs.considered")
    out["tn.witness_model.caps_per_search"] = ratio("tn.witness_model.caps",
                                                    "tn.witness_model.calls")
    out["diagonal.enumerate_Cn.minterms_per_pattern"] = ratio("diagonal.enumerate_Cn.minterms",
                                                              "diagonal.find_p.calls")
    out["trace.overhead_pct"] = (statistics.mean(traced) / statistics.mean(untraced) - 1) * 100
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    import workloads
    from inputs import load_inputs
    setup = measure_setup(name)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        inputs = load_inputs(name)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload = workloads.WORKLOADS[name](seed, inputs)
    record = Record()
    index = 0
    while sum(t for t in record.raw if t) < seconds:
        if trace:
            run_pair(index, workload, record, tracer)
        else:
            run_round(workload.round(index), record)
        index += 1
    untraced = record.scaled()
    times = [t for _, t in untraced]
    if trace:
        traced = [t for _, t in record.scaled(traced=True)]
        metrics = per_layer(tracer, traced, times, setup)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json.gz")
    else:
        metrics = end_to_end(times, setup)
        units = END_TO_END
    summary = [f"workload {name}  seed {seed}  rounds {index}  "
               f"ops attempted {record.attempted}  failed {record.failed}"]
    summary += [f"  {m:<45} {metrics[m]:14.6g} {units[m]}" for m in units]
    if not trace:
        raw = [t for t, traced in zip(record.raw, record.traced) if t is not None and not traced]
        by_kind = {}
        for kind, t in untraced:
            by_kind.setdefault(kind, []).append(t)
        summary.append(f"  samples {len(times)}; unscaled: {len(raw) / sum(raw):.4g} ops/s, "
                       f"p50 {statistics.median(raw) * 1000:.4g} ms, "
                       f"p90 {percentile(raw, 90) * 1000:.4g} ms; host speed "
                       f"{NOMINAL_REFERENCE_S / statistics.median(record.reference):.3f} x nominal")
        summary.append("  median ms by kind: " + ", ".join(
            f"{k} {statistics.median(v) * 1000:.1f} (n={len(v)})" for k, v in sorted(by_kind.items())))
    print("\n".join(summary))
    return {
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        code = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], cwd=ROOT)
            code = code or proc.returncode
        return code
    if args.workload is None:
        parser.error("give --workload or --all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
