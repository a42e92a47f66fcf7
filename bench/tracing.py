"""Spans and counts around each layer's public functions.

``Tracer.install`` replaces every traced function in every ``theorybench``
module that bound it (``qe_sentence`` is bound in ``janiczak``,
``theories``, ``diagonal`` and ``cli``), so calls between modules are seen
wherever they come from; ``uninstall`` puts the originals back.  A
function that re-enters itself (``qe_sentence`` and ``substitute`` recurse
through their module names) gets one span for the outermost call.

Spans (name, start, end, parent) and counts stay in memory; ``write``
saves them once, at the end of a run.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

TRACED = {
    "syntax": ("parse", "expand_sugar", "prenex", "substitute"),
    "boolcomb": ("canonical",),
    "janiczak": ("enumerate_configs", "qf_to_configs", "project_config", "qe_sentence",
                 "eval_in_structure"),
    "machines": ("run", "member_B", "member_C", "member_Bbot", "turing_reduce"),
    "theories": ("JXTheory.axiom", "decide_sch"),
    "tn": ("purify", "witness_model", "build_capped_model", "verify_tn_axioms", "model_check"),
    "diagonal": ("find_p", "enumerate_Cn", "apply_translation", "enumerate_translations"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Per span name: span time minus the time its child spans cover."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(len(self.start)):
            name = self.names[self.span_name[i]]
            out[name] = out.get(name, 0.0) + self.end[i] - self.start[i] - child[i]
        return out

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self
        depth = [0]

        def traced(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                depth[0] -= 1
            tracer.count(name + ".calls")
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from theorybench import janiczak
        original_configs = janiczak.enumerate_configs
        misses = getattr(original_configs, "cache_info", None)

        def configs_before_after(args, result):
            if misses is not None:
                seen = self.counts.get("_cache_misses", 0)
                now = misses().misses
                self.counts["_cache_misses"] = now
                if now == seen:
                    return
            self.count("janiczak.enumerate_configs.misses")
            self.count("janiczak.enumerate_configs.configs", len(result))

        if misses is not None:
            self.counts["_cache_misses"] = misses().misses

        def kept(args, result):
            self.count("janiczak.qf_to_configs.kept", len(result))
            self.count("janiczak.qf_to_configs.considered", len(original_configs(args[1], args[2])))

        def prenex_prefix(args, result):
            self.count("syntax.prenex.quantifiers", len(getattr(result, "prefix", ())))

        def caps(args, result):
            cap = getattr(result, "cap", None)
            self.count("tn.witness_model.caps", cap + 1 if cap is not None else args[1] + 1)

        def minterms(args, result):
            self.count("diagonal.enumerate_Cn.minterms", len(result))

        after = {
            "janiczak.enumerate_configs": configs_before_after,
            "janiczak.qf_to_configs": kept,
            "syntax.prenex": prenex_prefix,
            "tn.witness_model": caps,
            "diagonal.enumerate_Cn": minterms,
        }
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "theorybench" or name.startswith("theorybench.")}
        for module_name, functions in TRACED.items():
            module = modules[f"theorybench.{module_name}"]
            for qualname in functions:
                full = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    wrapper = self._wrap(full, original, after.get(full))
                    self._patch(owner, attr, wrapper)
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(full, original, after.get(full))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Spans as parallel arrays plus the counts, gzip-compressed JSON."""
        payload = {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": {k: v for k, v in self.counts.items() if not k.startswith("_")},
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)
