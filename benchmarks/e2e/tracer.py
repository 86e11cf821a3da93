"""Per-layer tracing installed from outside the program under test.

``LAYERS`` maps a layer (named after the module that owns the work) to the
``repro`` modules — or single classes, ``module:Class`` — whose functions
belong to it.  :meth:`Tracer.install` wraps every plain function and method
defined there, so a span opens each time control crosses from one layer into
another.  Spans nest on a stack; a layer's *self time* is its spans'
durations minus the part their child spans cover, so self times of all
layers plus the time outside any wrapped boundary add up to the timed wall.

Two boundaries are not plain functions and get their own hooks:

* ``Event.fire`` runs a scheduled callback; the span is attributed to the
  layer of the module that defines the callback, which is what hands time
  from the event loop to consensus timers, network deliveries, driver ticks…
* the scale-out parent talks to its workers through ``multiprocessing``
  pipes: ``Connection.send/recv/poll`` (layer ``core.scaleout.pipe``) and
  the pickler (layer ``core.scaleout.codec``, which also counts bytes).

Calls that stay inside one layer are counted but not timed (one identity
check), which keeps the overhead of wrapping whole modules bearable.  Raw
spans go to a bounded ring; everything is written out by :meth:`dump`.

Wrapping doubles the run time, and the cost lands unevenly: a layer entered
250 times per transaction (hashing) pays 250 span costs.  :meth:`install`
therefore calibrates three constants on a no-op — the cost a span adds
inside its own interval, the cost it adds to its parent, and the cost of a
same-layer pass-through.  A no-op understates what a span costs amid real
arguments and a cold cache, so the constants only fix the *proportions*:
:meth:`TraceSnapshot.fit_overhead` scales them until the estimated total
equals the overhead actually measured (traced minus untraced wall of the
same seed).  Reported self times are net of that, so they add up to the
untraced wall instead of crediting chatty layers with the tracer's own cost.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import types
from collections import deque
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS: Dict[str, List[str]] = {
    "sim.events": ["repro.sim.simulator", "repro.sim.events", "repro.runtime"],
    "sim.network": ["repro.sim.network", "repro.sim.latency"],
    "sim.node": ["repro.sim.node"],
    "sim.monitor": ["repro.sim.monitor"],
    "crypto.hashing": ["repro.crypto.hashing"],
    "crypto.merkle": ["repro.crypto.merkle"],
    "crypto.signatures": ["repro.crypto.signatures", "repro.crypto.costs"],
    "tee.attested_log": ["repro.tee"],
    "consensus": ["repro.consensus"],
    "ledger.blockchain": ["repro.ledger.blockchain", "repro.ledger.block",
                          "repro.ledger.transaction"],
    "ledger.state": ["repro.ledger.state"],
    # Chaincode execution: the engine plus the benchmark contracts it invokes.
    "ledger.chaincode": ["repro.ledger.chaincode",
                         "repro.workloads.smallbank:SmallbankChaincode",
                         "repro.workloads.kvstore:KVStoreChaincode",
                         "repro.consensus.cluster:NoopChaincode"],
    "txn.coordinator": ["repro.txn.coordinator"],
    "txn.locks": ["repro.txn.locks"],
    "txn.reference_committee": ["repro.txn.reference_committee"],
    "core.system": ["repro.core.system", "repro.core.splitters",
                    "repro.core.client_api", "repro.core.adversary",
                    "repro.core.config"],
    "core.driver": ["repro.core.driver"],
    "core.scaleout": ["repro.core.scaleout"],
    "core.homecoord": ["repro.core.homecoord"],
    "workloads.generator": ["repro.workloads"],
    # Everything else (committee formation, auditor, ledger index, ...):
    # set-up and checking code that should stay out of the timed regions.
    "other": ["repro"],
}

PIPE_LAYER = "core.scaleout.pipe"
CODEC_LAYER = "core.scaleout.codec"
RING_SPANS = 200_000


def _traceable(member: Any) -> bool:
    """Plain synchronous functions only: a generator or coroutine returns at once."""
    return (isinstance(member, types.FunctionType)
            and not inspect.isgeneratorfunction(member)
            and not inspect.iscoroutinefunction(member))


class Tracer:
    """Span stack, per-function accumulators and the raw-span ring."""

    def __init__(self) -> None:
        #: name -> [layer, self seconds, calls, spans opened, child spans]
        self.functions: Dict[str, List[Any]] = {}
        #: Calibrated cost in seconds of: a span inside its own interval, a
        #: span to its parent, a same-layer pass-through call.
        self.span_costs: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        self.ring: deque = deque(maxlen=RING_SPANS)
        self.codec_bytes = 0
        self._ids = itertools.count(1)
        # Bottom frame = "outside every wrapped boundary"; frames are
        # [layer, seconds covered by child spans, span id, child spans].
        self._stack: List[List[Any]] = [[None, 0.0, 0, 0]]
        self._patched: List[Tuple[Any, str, Any]] = []
        self._module_layer: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------ wrapping
    def _accumulator(self, name: str, layer: str) -> List[Any]:
        return self.functions.setdefault(name, [layer, 0.0, 0, 0, 0])

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        layer = sys.intern(layer)  # wrappers compare layers by identity
        acc = self._accumulator(name, layer)
        stack, ring_append, ids = self._stack, self.ring.append, self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            acc[2] += 1
            parent = stack[-1]
            if parent[0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, next(ids), 0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                acc[1] += ended - started - frame[1]
                acc[3] += 1
                acc[4] += frame[3]
                parent[1] += ended - started
                parent[3] += 1
                ring_append((frame[2], parent[2], name, started, ended))

        return wrapper

    def _wrap_event_fire(self, fire: Callable) -> Callable:
        """``Event.fire``: attribute the span to the callback's own layer."""
        stack, ring_append, ids = self._stack, self.ring.append, self._ids
        layer_of = self._layer_of_module
        by_layer: Dict[str, Tuple[List[Any], str]] = {}

        @functools.wraps(fire)
        def wrapper(event: Any) -> Any:
            layer = layer_of(getattr(event.callback, "__module__", None))
            parent = stack[-1]
            if layer is None or parent[0] is layer:
                return fire(event)
            entry = by_layer.get(layer)
            if entry is None:
                name = f"event:{layer}"
                entry = by_layer[layer] = (self._accumulator(name, layer), name)
            acc, name = entry
            acc[2] += 1
            frame = [layer, 0.0, next(ids), 0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fire(event)
            finally:
                ended = perf_counter()
                stack.pop()
                acc[1] += ended - started - frame[1]
                acc[3] += 1
                acc[4] += frame[3]
                parent[1] += ended - started
                parent[3] += 1
                ring_append((frame[2], parent[2], name, started, ended))

        return wrapper

    def _wrap_codec(self, fn: Callable, name: str, size_of: Callable[[Any, Any], int]) -> Callable:
        """A pickler entry point: timed like any span, plus a byte counter."""
        timed = self._wrap(fn, CODEC_LAYER, name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = timed(*args, **kwargs)
            self.codec_bytes += size_of(args, result)
            return result

        return wrapper

    def _layer_of_module(self, module: Optional[str]) -> Optional[str]:
        try:
            return self._module_layer[module]  # type: ignore[index]
        except KeyError:
            pass
        best: Optional[str] = None
        best_len = -1
        if module is not None:
            for layer, targets in LAYERS.items():
                for target in targets:
                    prefix = target.partition(":")[0]
                    if ":" not in target and len(prefix) > best_len and (
                            module == prefix or module.startswith(prefix + ".")):
                        best, best_len = layer, len(prefix)
        self._module_layer[module] = sys.intern(best) if best else None  # type: ignore[index]
        return self._module_layer[module]  # type: ignore[index]

    # ---------------------------------------------------------- installing
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, layer: str) -> None:
        from repro.sim.events import Event

        for attr, member in list(cls.__dict__.items()):
            if attr.startswith("__"):
                continue
            if cls is Event and attr == "fire":
                self._set(cls, attr, self._wrap_event_fire(member))
                continue
            kind: Optional[type] = None
            if isinstance(member, (staticmethod, classmethod)):
                kind, member = type(member), member.__func__
            if not _traceable(member):
                continue
            name = f"{cls.__module__[len('repro.'):]}.{cls.__qualname__}.{attr}"
            wrapped = self._wrap(member, layer, name)
            self._set(cls, attr, kind(wrapped) if kind else wrapped)

    def install(self) -> None:
        """Wrap every function of every ``LAYERS`` module imported so far."""
        class_layer: Dict[Tuple[str, str], str] = {}
        for layer, targets in LAYERS.items():
            for target in targets:
                module, _, cls_name = target.partition(":")
                if cls_name:
                    class_layer[(module, cls_name)] = layer
        replaced: Dict[int, Callable] = {}
        modules = [(name, module) for name, module in sorted(sys.modules.items())
                   if module is not None and (name == "repro" or name.startswith("repro."))]
        for mod_name, module in modules:
            module_layer = self._layer_of_module(mod_name)
            for attr, member in list(vars(module).items()):
                if getattr(member, "__module__", None) != mod_name:
                    continue  # imported from elsewhere: wrapped where defined
                if isinstance(member, type):
                    layer = class_layer.get((mod_name, member.__qualname__), module_layer)
                    if layer is not None:
                        self._wrap_class(member, layer)
                elif (module_layer is not None and not attr.startswith("__")
                      and _traceable(member)):
                    name = f"{mod_name[len('repro.'):]}.{attr}"
                    replaced[id(member)] = self._wrap(member, module_layer, name)
        # ``from x import f`` copied the original into other namespaces:
        # rebind every reference a repro module holds to a wrapped function.
        for _, module in modules:
            for attr, member in list(vars(module).items()):
                wrapped = replaced.get(id(member))
                if wrapped is not None and isinstance(member, types.FunctionType):
                    self._set(module, attr, wrapped)
        self._install_pipe_hooks()
        self._calibrate()

    def _calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Measure what one span / one pass-through costs, on a trivial method."""
        class Probe:
            def method(self, first: Any, second: Any = None) -> None:
                return None

        def loop(method: Callable[..., None]) -> None:
            for _ in range(calls):
                method(1, second=2)

        probe = Probe()
        bare = probe.method
        Probe.method = self._wrap(bare.__func__, "calibration.leaf", "calibration.leaf")  # type: ignore[method-assign]
        leaf = probe.method
        Probe.method = self._wrap(bare.__func__, "calibration.outer", "calibration.same")  # type: ignore[method-assign]
        same = probe.method
        outer = self._wrap(loop, "calibration.outer", "calibration.outer")
        leaf_acc, outer_acc = (self.functions[f"calibration.{n}"] for n in ("leaf", "outer"))
        inside, to_parent, passthrough = [], [], []
        for _ in range(repeats):
            started = perf_counter()
            loop(bare)
            unwrapped = perf_counter() - started
            leaf_acc[1] = outer_acc[1] = 0.0
            outer(leaf)
            inside.append(leaf_acc[1] / calls)
            to_parent.append((outer_acc[1] - unwrapped) / calls)
            outer_acc[1] = 0.0
            outer(same)
            passthrough.append((outer_acc[1] - unwrapped) / calls)
        self.span_costs = (max(min(inside), 0.0), max(min(to_parent), 0.0),
                           max(min(passthrough), 0.0))
        for name in ("leaf", "same", "outer"):
            del self.functions[f"calibration.{name}"]

    def _install_pipe_hooks(self) -> None:
        from multiprocessing import connection, reduction

        conn = connection._ConnectionBase  # where send/recv/poll are defined
        for attr in ("send", "recv", "poll"):
            self._set(conn, attr, self._wrap(conn.__dict__[attr], PIPE_LAYER,
                                             f"multiprocessing.Connection.{attr}"))
        pickler = reduction.ForkingPickler
        dumps = pickler.__dict__["dumps"].__func__
        self._set(pickler, "dumps", classmethod(self._wrap_codec(
            dumps, "multiprocessing.ForkingPickler.dumps",
            lambda args, result: len(result))))
        # ``loads`` is ``pickle.loads`` stored as a plain class attribute.
        self._set(pickler, "loads", staticmethod(self._wrap_codec(
            pickler.__dict__["loads"], "multiprocessing.ForkingPickler.loads",
            lambda args, result: len(args[0]))))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reading
    def reset(self) -> None:
        """Zero every accumulator (call at the start of a timed region)."""
        for acc in self.functions.values():
            acc[1:] = [0.0, 0, 0, 0]
        self.codec_bytes = 0
        self._stack[0][1] = 0.0

    def snapshot(self) -> "TraceSnapshot":
        return TraceSnapshot(
            functions={name: tuple(acc) for name, acc in self.functions.items() if acc[2]},
            attributed_s=self._stack[0][1], codec_bytes=self.codec_bytes,
            span_costs=self.span_costs)

    def dump(self, path: str, snapshots: Dict[str, "TraceSnapshot"]) -> None:
        """Write layer/function tables of each snapshot plus the span ring."""
        payload = {
            "span_costs_s": dict(zip(("inside", "to_parent", "passthrough"), self.span_costs)),
            "layers": {label: snap.layer_self_s() for label, snap in snapshots.items()},
            "functions": {
                label: [{"name": name, "layer": entry[0], "raw_self_s": entry[1],
                         "calls": entry[2], "spans": entry[3], "child_spans": entry[4]}
                        for name, entry
                        in sorted(snap.functions.items(), key=lambda kv: -kv[1][1])]
                for label, snap in snapshots.items()},
            "spans": [{"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                      for sid, parent, name, start, end in self.ring],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class TraceSnapshot:
    """What one timed region accumulated."""

    def __init__(self, functions: Dict[str, Tuple[Any, ...]], attributed_s: float,
                 codec_bytes: int, span_costs: Tuple[float, float, float]) -> None:
        #: name -> (layer, raw self seconds, calls, spans opened, child spans)
        self.functions = functions
        #: Seconds of the region spent inside some wrapped boundary.
        self.attributed_s = attributed_s
        self.codec_bytes = codec_bytes
        self.span_costs = span_costs

    def fit_overhead(self, measured_s: float) -> None:
        """Scale the span costs so the estimated overhead totals ``measured_s``."""
        for _ in range(8):  # a few rounds: per-function clamping bends the total
            estimate = self.overhead_s()
            if estimate <= 0:
                return
            factor = max(measured_s, 0.0) / estimate
            self.span_costs = tuple(cost * factor for cost in self.span_costs)  # type: ignore[assignment]
            if abs(factor - 1.0) < 0.01:
                return

    def _layers(self) -> Dict[str, Tuple[float, float]]:
        """layer -> (raw self seconds, estimated tracing overhead inside them).

        Overhead is estimated per layer, not per function: a pass-through
        call's cost lands in whichever span of its layer encloses it.
        """
        raw: Dict[str, List[float]] = {}
        for layer, self_s, calls, spans, child_spans in self.functions.values():
            totals = raw.setdefault(layer, [0.0, 0, 0, 0])
            totals[0] += self_s
            totals[1] += calls
            totals[2] += spans
            totals[3] += child_spans
        inside, to_parent, passthrough = self.span_costs
        return {layer: (self_s, min(self_s, inside * spans + to_parent * child_spans
                                    + passthrough * (calls - spans)))
                for layer, (self_s, calls, spans, child_spans) in raw.items()}

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer with the estimated tracing cost removed."""
        return {layer: raw - overhead for layer, (raw, overhead) in self._layers().items()}

    def overhead_s(self) -> float:
        """Estimated seconds the wrappers themselves added to the region."""
        return sum(overhead for _raw, overhead in self._layers().values())

    def calls(self, name: str) -> int:
        """Calls of one wrapped function (0 if it never ran)."""
        entry = self.functions.get(name)
        return entry[2] if entry else 0

    def calls_matching(self, prefix: str) -> int:
        return sum(entry[2] for name, entry in self.functions.items()
                   if name.startswith(prefix))
