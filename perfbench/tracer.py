"""Span tracer for the benchmark's traced runs.

The tracer wraps minent's public module-level functions from outside the
package: every function a layer module defines under a name without a
leading underscore, plus the two private channel-application kernels
that the Monte Carlo layers call directly. A wrapper is bound in every minent
module that holds the original, so ``from .x import f`` call sites are
traced too. ``linalg`` is not wrapped; its primitives are inlined into
the callers' self time.

Spans (name, start, end, parent) stay in memory until the run ends.
``sdp.solve_stack`` spans are renamed after the SDP family their
``blocks`` signature identifies and keep the per-instance iteration
counts and statuses that the solver returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "thermo", "decoupling", "dynamical", "entropies",
          "channels", "sdp", "_sampling")
PRIVATE_KERNELS = ("dynamical._apply_to_pure_batch",
                   "decoupling._apply_map_batch")
FAMILIES = ("smin_up", "diamond", "hypothesis", "dmax")
APPLY_KERNELS = ("channels.apply",) + PRIVATE_KERNELS


def sdp_family(blocks) -> str:
    """SDP family from the block signature passed to ``solve_stack``.

    S_min-up uses (d_B, d_A d_B), D_max (1, d), the diamond norm
    (d d', d d', d), and the two hypothesis-testing programs (d, d, 1) and
    (d_B, 1, d_A d_B, d_A d_B).
    """
    b = tuple(blocks or ())
    if len(b) == 2:
        return "dmax" if b[0] == 1 else "smin_up"
    if len(b) == 3:
        return "hypothesis" if b[2] == 1 else "diamond"
    if len(b) == 4:
        return "hypothesis"
    return "other"


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, raised, sdp extra]
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self.overhead_s = 0.0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"minent.{layer}")
            for name, fn in list(vars(mod).items()):
                public = not name.startswith("_") \
                    or f"{layer}.{name}" in PRIVATE_KERNELS
                if public and inspect.isfunction(fn) \
                        and fn.__module__ == mod.__name__:
                    label = f"{layer.lstrip('_')}.{name}"
                    originals[id(fn)] = (fn, self._wrap(fn, label))
        for modname, mod in list(sys.modules.items()):
            if modname != "minent" and not modname.startswith("minent."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, fn, label: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_stack = label == "sdp.solve_stack"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            name = label
            if is_stack:
                blocks = kwargs.get("blocks", args[4] if len(args) > 4 else None)
                name = "sdp." + sdp_family(blocks)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                t1 = clock()
                span[1], span[2] = t0, t1
                stack.pop()
                self.overhead_s += (t0 - t_in) + (clock() - t1)
            if is_stack:
                span[5] = (np.asarray(result["iters"]).copy(),
                           int(np.count_nonzero(result["status"] != 0)))
            return result

        return wrapper

    # -- output ---------------------------------------------------------

    def mark(self) -> int:
        """Span count so far; pass to ``summary`` to cover later spans."""
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per-name calls, failures, busy and self time, and per-family SDP
        iteration data, over the spans recorded between two marks.

        Busy time counts a span only when no enclosing span has the same
        name (``busy_s``) or the same layer (``layer_busy_s``)."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        names: dict = {}
        iters: dict = {f: [] for f in FAMILIES}
        nonopt = {f: 0 for f in FAMILIES}
        for k, s in enumerate(spans):
            rec = names.setdefault(s[0], {"calls": 0, "failed": 0, "busy_s": 0.0,
                                          "layer_busy_s": 0.0, "self_s": 0.0})
            dur = s[2] - s[1]
            rec["calls"] += 1
            rec["failed"] += int(s[4])
            rec["self_s"] += dur - child[k]
            same_name, same_layer = self._enclosed(s, first)
            rec["busy_s"] += 0.0 if same_name else dur
            rec["layer_busy_s"] += 0.0 if same_layer else dur
            fam = s[0][4:] if s[0].startswith("sdp.") else None
            if s[5] is not None and fam in iters:
                iters[fam].append(s[5][0])
                nonopt[fam] += s[5][1]
        fams = {f: (np.concatenate(iters[f]) if iters[f]
                    else np.zeros(0, dtype=int), nonopt[f]) for f in FAMILIES}
        return {"names": names, "families": fams}

    def _enclosed(self, span, first: int):
        """Whether an enclosing span shares this span's name, and its layer."""
        layer = span[0].split(".", 1)[0]
        same_name = same_layer = False
        p = span[3]
        while p >= first:
            up = self.spans[p]
            same_name = same_name or up[0] == span[0]
            same_layer = same_layer or up[0].split(".", 1)[0] == layer
            p = up[3]
        return same_name, same_layer


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, 0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0
