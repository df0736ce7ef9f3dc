"""Outside-in tracing of fqdist: wrap each layer's public callables in spans.

The wrappers live here, not in the program.  ``install`` replaces every public
function of the layer modules, plus the constructors of the two set types and
the JSON writer, with a wrapper that records a span (name, start, end, parent,
run id) and, for a few callables, counts computed from the call's arguments.
Private helpers are not wrapped, so their time lands in the self time of the
public function that called them.

Counting work (hashing transform inputs, checking code order) runs on a paused
clock: span times exclude it, and ``Tracer.counter_s`` reports how long it took.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from statistics import median

import numpy as np

LAYERS = ("field", "geometry", "fourier", "pair_spectrum", "rotation_energy",
          "experiments", "cli")

# Class members wrapped besides the module-level functions; a constructor's
# span is named after its class.
CLASS_MEMBERS = {
    "geometry": [("PointSet", "__init__")],
    "pair_spectrum": [("SplitPointSet", "__init__")],
    "experiments": [("RunReport", "to_json_text")],
}


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    return sig.bind_partial(*args, **kwargs).arguments.get(name)


def _codes_counts(sig, args, kwargs) -> dict:
    codes = _arg(sig, args, kwargs, "codes")
    arr = np.asarray(codes, dtype=np.int64).reshape(-1)
    presorted = arr.size < 2 or bool(np.all(arr[1:] > arr[:-1]))
    return {"codes": int(arr.size), "presorted": int(presorted)}


def _forward_counts(sig, args, kwargs) -> dict:
    table = _arg(sig, args, kwargs, "f")
    values = np.ascontiguousarray(table.values)
    digest = hashlib.blake2b(values.view(np.uint8), digest_size=16)
    digest.update(f"{table.field.q},{table.d},{values.dtype}".encode())
    return {"points": table.field.q ** table.d, "input": digest.hexdigest()}


def _inverse_counts(sig, args, kwargs) -> dict:
    spec = _arg(sig, args, kwargs, "spec")
    return {"points": spec.field.q ** spec.d}


def _scan_pairs(sig, args, kwargs) -> dict:
    e = _arg(sig, args, kwargs, "e")
    f = _arg(sig, args, kwargs, "f")
    return {"scan_pairs": (e.field.q + 1) ** 2 * (len(e) ** 2 + len(f) ** 2)}


def _pairs(sig, args, kwargs) -> dict:
    e = _arg(sig, args, kwargs, "e")
    f = _arg(sig, args, kwargs, "f")
    return {"pairs": len(e) * len(f)}


# Span name -> counts computed from the call's arguments.
COUNTERS = {
    "geometry.PointSet": _codes_counts,
    "pair_spectrum.SplitPointSet": _codes_counts,
    "fourier.forward_transform": _forward_counts,
    "fourier.inverse_transform": _inverse_counts,
    "rotation_energy.energy_chain_check": _scan_pairs,
    "pair_spectrum.pair_spectrum_naive": _pairs,
}


class Tracer:
    """Span store for one traced run; spans stay in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.counter_s = 0.0
        self._stack: list[int] = []
        self._seen_errors: set[tuple[str, int]] = set()

    def clock(self) -> float:
        return time.perf_counter() - self.counter_s

    def wrap(self, name: str, module: str, fn, error_types: tuple):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter is not None:
                paused = time.perf_counter()
                counts = counter(sig, args, kwargs)
                tracer.counter_s += time.perf_counter() - paused
            span = {"id": len(tracer.spans), "parent": tracer._stack[-1] if tracer._stack else None,
                    "name": name, "run": tracer.run_id, "start": tracer.clock(), "end": None}
            if counts:
                span["counts"] = counts
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            except error_types as exc:
                if (module, id(exc)) not in tracer._seen_errors:
                    tracer._seen_errors.add((module, id(exc)))
                    tracer.errors[module] += 1
                raise
            finally:
                tracer._stack.pop()
                span["end"] = tracer.clock()

        return traced


def _public_functions(module) -> list[tuple[str, object]]:
    return [(name, obj) for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer's public callables; returns the span names installed.

    ``fqdist.pair_spectrum`` is a function on the package, so modules come from
    ``importlib``.  Names bound with ``from .x import y`` are rebound in every
    fqdist namespace that holds the original object.
    """
    errors = importlib.import_module("fqdist.errors")
    error_types = (errors.PrecisionError, errors.SizeGuardError)
    modules = {layer: importlib.import_module(f"fqdist.{layer}") for layer in LAYERS}
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "fqdist" or name.startswith("fqdist."))]
    installed = []
    for layer, module in modules.items():
        for fname, fn in _public_functions(module):
            wrapper = tracer.wrap(f"{layer}.{fname}", layer, fn, error_types)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
            installed.append(f"{layer}.{fname}")
        for cls_name, member in CLASS_MEMBERS.get(layer, []):
            cls = getattr(module, cls_name)
            span_name = f"{layer}.{cls_name}" if member == "__init__" else f"{layer}.{cls_name}.{member}"
            setattr(cls, member, tracer.wrap(span_name, layer, getattr(cls, member), error_types))
            installed.append(span_name)
    return installed


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
    return dict(totals)


def exact_counts(spans: list[dict], errors: dict[str, int]) -> dict[str, float]:
    """Counts and ratios that must repeat exactly between traced runs at one seed."""
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, int] = defaultdict(int)
    inputs: dict[str, set] = defaultdict(set)
    by_id = {span["id"]: span for span in spans}
    routed = fast_routed = 0
    for span in spans:
        name = span["name"]
        calls[name] += 1
        for key, value in span.get("counts", {}).items():
            if key == "input":
                inputs[name].add(value)
            else:
                sums[f"{name}.{key}"] += value
        if name == "pair_spectrum.pair_spectrum":
            routed += 1
        if name == "pair_spectrum.pair_spectrum_fast" and span["parent"] is not None \
                and by_id[span["parent"]]["name"] == "pair_spectrum.pair_spectrum":
            fast_routed += 1

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    out: dict[str, float] = {f"{name}.calls": n for name, n in calls.items()}
    for key, total in sums.items():
        if key.endswith(".presorted"):
            base = key[: -len(".presorted")]
            out[f"{base}.presorted_share"] = share(total, calls[base])
        else:
            out[key] = total
    for name, distinct in inputs.items():
        out[f"{name}.distinct_share"] = share(len(distinct), calls[name])
    out["pair_spectrum.route_fast_share"] = share(fast_routed, routed)
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors.get(layer, 0)
    return out


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Median self times over traced runs, plus the first run's exact counts."""
    names = set().union(*(r["self_s"] for r in runs))
    out = {f"{name}.self_s": median(r["self_s"].get(name, 0.0) for r in runs) for name in names}
    out.update(runs[0]["counts"])
    return out
