"""Outside-in layer tracing: spans recorded around public demerlab functions.

`install` wraps each traced function and rebinds the wrapper in every module
namespace that binds the original, so a call made through an aliased import
(`from .protocol import rest_projector`) is recorded like a direct one.
Methods are wrapped on their class. No source under `src/` changes.

Spans stay in memory as tuples (id, parent id, request id, layer, start,
end, extra) and are written out by `write_jsonl` when the run ends. A layer's
self time is its span duration minus the durations of its direct child
spans. Counts named `amps` and `flops_computed` are computed from argument
shapes, not measured.
"""
from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter


def _verifier_key(p) -> bytes:
    """Digest of everything `rest_projector` reads from a protocol."""
    h = hashlib.sha1(repr((p.verifier.n_qubits, p.bob_bits, p.accept_qubit)).encode())
    for g in p.verifier.gates:
        h.update(repr((g.name, g.targets, g.controls, g.control_values)).encode())
        h.update(g.matrix.tobytes())
    return h.digest()


def _to_matrix_extra(args):
    return {"amps": 4 ** args["self"].n_qubits}


def _rest_projector_extra(args):
    return {"input": (_verifier_key(args["p"]), args["y"], args["outcome"])}


def _evaluate_extra(args):
    base = args["d"].base
    dim = 2 ** (base.verifier.n_qubits - base.bob_bits)
    rounds = args["d"].t_rounds
    # T rounds, 2^W projectors, two dense complex matmuls of 8 dim^3 flops each
    return {"rounds": rounds, "rest_dim_max": dim,
            "flops_computed": rounds * 2 ** base.witness_qubits * 2 * 8 * dim ** 3}


def _shots_extra(args):
    return {"shots": args["shots"]}


# layer -> (module, attribute path, extra-count function or None)
LAYERS = {
    "qcore.to_matrix": [("demerlab.qcore", "UnitaryCircuit.to_matrix", _to_matrix_extra)],
    "qcore.apply": [("demerlab.qcore", "UnitaryCircuit.apply", None)],
    "qcore.measurement_init": [("demerlab.qcore", "TwoOutcomeMeasurement.__post_init__", None)],
    "qcore.top_eigenpair": [("demerlab.qcore", "top_eigenpair", None)],
    "protocol.rest_projector": [("demerlab.protocol", "rest_projector", _rest_projector_extra)],
    "protocol.induced_witness_operator": [
        ("demerlab.protocol", "induced_witness_operator", None)],
    "demerlin.evaluate": [("demerlab.demerlin", "evaluate_demerlinized", _evaluate_extra)],
    "demerlin.sample": [("demerlab.demerlin", "sample_demerlinized", _shots_extra)],
    "demerlin.demerlinize": [("demerlab.demerlin", "demerlinize", None)],
    "qlemmas.union_bound_run": [("demerlab.qlemmas", "union_bound_run", None)],
    "qlemmas.or_bound_run": [("demerlab.qlemmas", "or_bound_run", None)],
    "qlemmas.monte_carlo": [("demerlab.qlemmas", "monte_carlo_any_outcome1", _shots_extra)],
    "qlemmas.instance_gen": [("demerlab.qlemmas", name, None) for name in (
        "random_union_instance", "random_or_instance", "projector_or_instance")],
    "amplify.binom_tail": [("demerlab.amplify", "binom_tail", None)],
    "amplify.planning": [("demerlab.amplify", name, None) for name in (
        "plan_amplification", "desk_plan", "identity_plan", "min_majority_reps")],
    "amplify.build": [("demerlab.amplify", name, None) for name in ("build_inner", "build_outer")],
    "rac.build_code": [("demerlab.rac", "build_code", None)],
    "rac.cheat_detection_profile": [("demerlab.rac", "cheat_detection_profile", None)],
    "rac.audit_reduced": [("demerlab.rac", "audit_reduced", None)],
    "rac.fingerprint": [("demerlab.rac", "fingerprint", None)],
    "advice.qcma_train": [("demerlab.advice", "qcma_train", None)],
    "advice.fix": [("demerlab.advice", name, None) for name in ("ma_fix_advice", "qma_fix_advice")],
    "cli.main": [("demerlab.cli", "main", None)],
}

# per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {}
for _layer in LAYERS:
    LAYER_METRICS[_layer + ".calls"] = "count"
    LAYER_METRICS[_layer + ".self_s"] = "s"
LAYER_METRICS.update({
    "qcore.to_matrix.amps": "count",
    "protocol.rest_projector.distinct": "count",
    "protocol.rest_projector.useful_ratio": "ratio",
    "demerlin.evaluate.rounds": "count",
    "demerlin.evaluate.rest_dim_max": "count",
    "demerlin.evaluate.flops_computed": "flop",
    "demerlin.sample.shots": "count",
    "qlemmas.monte_carlo.shots": "count",
})


class Tracer:
    """In-memory span recorder; `request` tags the spans of the current job."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list = []

    def wrap(self, layer: str, fn, extra=None):
        sig = inspect.signature(fn) if extra else None
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                info = extra(sig.bind(*args, **kwargs).arguments) if extra else None
                spans.append((sid, parent, self.request, layer, t0, t1, info))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS and rebind it wherever it is bound."""
        by_id = {}  # id(original) -> wrapper; the wrapper keeps the original alive
        for layer, targets in LAYERS.items():
            for module, path, extra in targets:
                owner = sys.modules[module]
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                    fn = owner.__dict__[attr]
                    self._rebind(owner, attr, self.wrap(layer, fn, extra))
                else:
                    fn = getattr(owner, attr)
                    by_id[id(fn)] = self.wrap(layer, fn, extra)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            hits = [(k, by_id[id(v)]) for k, v in namespace.items() if id(v) in by_id]
            for name, wrapper in hits:
                self._rebind(mod, name, wrapper)

    def _rebind(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, request, layer, t0, t1, info in self.spans:
                rec = {"id": sid, "parent": parent, "request": request, "layer": layer,
                       "start": t0, "end": t1}
                if info:
                    rec.update({k: v for k, v in info.items() if k != "input"})
                fh.write(json.dumps(rec) + "\n")


def layer_totals(spans) -> dict:
    """Per-layer counts and self times over the given spans, for one pass."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _req, _layer, t0, t1, _info in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    extra: dict[str, int] = defaultdict(int)
    inputs: set = set()
    for sid, _parent, _req, layer, t0, t1, info in spans:
        calls[layer] += 1
        self_s[layer] += (t1 - t0) - child_time[sid]
        for key, value in (info or {}).items():
            name = f"{layer}.{key}"
            if key == "input":
                inputs.add(value)
            elif key.endswith("_max"):
                extra[name] = max(extra[name], value)
            else:
                extra[name] += value
    out = {}
    for name in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        out[name] = {"calls": calls[layer], "self_s": self_s[layer]}.get(kind, extra[name])
    n_rest = calls["protocol.rest_projector"]
    out["protocol.rest_projector.distinct"] = len(inputs)
    out["protocol.rest_projector.useful_ratio"] = len(inputs) / n_rest if n_rest else 0.0
    return out


def per_pass_layers(spans, passes: list[str]) -> tuple[dict, bool]:
    """Counts of one pass and median self times over the given passes.

    Spans carry request ids "<pass>:<job>". Returns the metrics and whether
    every count repeated exactly across the passes.
    """
    by_pass = defaultdict(list)
    for span in spans:
        by_pass[span[2].split(":")[0]].append(span)
    totals = [layer_totals(by_pass[p]) for p in passes]
    out = dict(totals[-1])
    repeat = True
    for name in out:
        if name.endswith("_s"):
            out[name] = median(t[name] for t in totals)
        elif any(t[name] != out[name] for t in totals):
            repeat = False
    return out, repeat
