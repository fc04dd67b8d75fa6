"""Span tracing installed from outside the package.

``Tracer`` wraps every public function of the layer modules and installs
each wrapper wherever a caller looks the function up: the defining module's
own namespace (for calls inside it, such as ``engine.iter_survivor_blocks``
calling ``engine.predicted_codes``) and every package module that imported
the name (``verifier.find_winning_mask``, ``adversary.adjudicate``,
``montecarlo.random_strategy``, ``montecarlo.census_perfect``, ...).

Each call records a span: name, start, end, parent span and operation id,
kept in flat arrays in memory and written out at the end.  Self time is
derived from the spans afterwards.  Work counts come from the wrapped
calls' arguments and results only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from oracle import mask_index

PACKAGE = "balancegame"
LAYERS = ("cli", "formats", "core", "builders", "engine", "adversary", "verifier", "montecarlo", "analysis")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _scan_step(counts: Counter, args, kwargs, item) -> None:
    spec = _arg(args, kwargs, 0, "spec")
    block = len(item[1])
    counts["engine.scan.masks"] += block
    counts["engine.scan.computed_bytes"] += spec.hypothesis_count * block * spec.q


def _winning_mask(counts: Counter, args, kwargs, result) -> None:
    q = _arg(args, kwargs, 0, "spec").q
    counts["engine.scan.masks_checked"] += 3**q if result is None else mask_index(result.mask) + 1


def _batch(counts: Counter, args, kwargs, result) -> None:
    spec = _arg(args, kwargs, 0, "spec")
    plans, width = _arg(args, kwargs, 1, "row_codes").shape
    counts["engine.batch.plans"] += plans
    counts["engine.batch.plan_masks"] += plans * 3**spec.q
    counts["engine.batch.computed_bytes"] += width * len(spec.signs) * plans * 3**spec.q * spec.q


def _game_value(counts: Counter, args, kwargs, result) -> None:
    counts["verifier.plans_checked"] += result.instances_checked


def _census(counts: Counter, args, kwargs, result) -> None:
    spec = _arg(args, kwargs, 0, "spec")
    counts["verifier.plans_checked"] += (3**spec.q) ** spec.n


# name -> hook(counts, args, kwargs, result); for generators, called per item
HOOKS = {
    "engine.iter_survivor_blocks": _scan_step,
    "adversary.find_winning_mask": _winning_mask,
    "engine.batch_survivor_counts": _batch,
    "verifier.game_value": _game_value,
    "verifier.census_perfect": _census,
}


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; set
    ``op_id`` before each operation."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.patches = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").split(".")[0] != PACKAGE:
                        continue
                    for where, value in list(vars(m).items()):
                        if value is fn:
                            self.patches.append((m, where, fn, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self.patches:
            setattr(mod, attr, fn)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        counts = self.counts

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    if hook:
                        hook(counts, args, kwargs, item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function and per layer: calls, total seconds, self seconds.

        A span's self time is its duration minus that of its child spans.  A
        layer's total counts only its outermost spans, so nested calls within
        one layer are not counted twice."""
        a = self.arrays()
        n = len(a["name"])
        names = a["name"]
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        layer_of_name = np.array([LAYERS.index(x.split(".")[0]) for x in self.names], dtype=np.int64)
        span_layer = layer_of_name[names] if n else np.zeros(0, dtype=np.int64)
        outer = np.ones(n, dtype=bool)
        above = [0] * n  # bitmask of layers among a span's ancestors
        parents, layers = a["parent"].tolist(), span_layer.tolist()
        for i, p in enumerate(parents):
            if p >= 0:
                above[i] = above[p] | (1 << layers[p])
                outer[i] = not (above[i] >> layers[i]) & 1
        out: dict[str, dict[str, float]] = {}
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selfs[i])}
        for j, layer in enumerate(LAYERS):
            sel = span_layer == j
            out[layer] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel & outer].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out
