"""Outside-in tracer: spans around calls into the cornets layers.

The program is not edited.  ``Tracer.install`` replaces each layer-boundary
function listed in ``SPANS`` by a timing wrapper, rebinding it in every
``cornets.*`` namespace that holds it (``cli``, ``sets`` and ``fuzzy`` import
by name) and on the class for methods.  It must run before any
``make_*_cornet`` call whose instance should be traced, because a
``CornetInstance`` keeps the function references it was built with.

Spans stay in memory (up to ``SPAN_CAP``; later spans are only counted) and
``write`` puts them out with a per-name self-time summary.  Self time is a
span's duration minus the durations of its children in the same thread.
The counting hooks on ``msum`` and ``lp_feasible`` run after their span has
closed, and their time is charged to no span.
Spans are wall-clock, so with ``--jobs 2`` they include time a worker thread
waited for the interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Optional

MODULES = ("cli", "core", "sets", "fuzzy", "wedges", "geometry")

# The public functions that mark each layer's boundary.  Vector helpers in
# geometry (vadd, rat, ...) are left out: they run millions of times per
# request and a wrapper would cost more than the work.
SPANS = {
    "cli": ("main", "load_instance", "emit", "cmd_laws", "cmd_cancel", "cmd_hunt"),
    "core": (
        "check_cornet_laws",
        "check_lemma_identities",
        "subcornet_closure_suite",
        "cancellation_check",
        "ablation_hunt",
        "is_A_bounded",
        "is_archimedean",
        "verify_closure",
        "is_n_convex",
        "dot_mul",
    ),
    "sets": (
        "UpperSet.make",
        "msum",
        "star_set",
        "subset",
        "convex_hull",
        "is_n_convex_set",
        "make_set_cornet",
        "enumerate_z_subsets",
        "interval_z_subsets",
    ),
    "fuzzy": ("StepFuzzy.make", "oplus", "odot", "leq_fuzzy", "make_fuzzy_cornet"),
    "wedges": ("Wedge.leq", "make_elem_cornet"),
    "geometry": ("lp_feasible",),
}

# Spans kept in memory per run, which bounds a traced run's memory: an
# average hunt request makes about 28k.  The summary counts every call,
# kept or not.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request, thread)
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict] = []
        self._installed: list[tuple] = []
        # Counters kept by hooks at the msum and lp_feasible boundaries.
        self.msum_seen: set = set()
        self.counts = {
            "msum.calls": 0,
            "msum.repeats": 0,
            "msum.kept": 0,
            "msum.candidates": 0,
            "lp.calls": 0,
            "lp.feasible": 0,
            "lp.fm": 0,
            "lp.simplex": 0,
        }

    # --- requests ---------------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        with self._lock:
            self.request = request_id
            self.msum_seen = set()

    # --- wrappers ---------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        local.stack = []
        local.stats = {}
        local.thread = threading.get_ident()
        with self._lock:
            self._thread_stats.append(local.stats)
        return local

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        local, spans, ids, perf = self._local, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = local if hasattr(local, "stack") else self._thread_state()
            stack = state.stack
            frame = [next(ids), 0.0]  # span id, time covered by children
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = state.stats.get(name)
                if st is None:
                    st = state.stats[name] = [0, 0.0, 0.0, 0.0, 0]  # calls, total, self, max, dropped
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if dur > st[3]:
                    st[3] = dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent, name, t0, t1, self.request, state.thread))
                else:
                    st[4] += 1
            if hook is not None:
                h0 = perf()
                hook(args, result)
                if stack:
                    stack[-1][1] += perf() - h0
            return result

        return traced

    def _msum_hook(self, args, result) -> None:
        a, b = args[0], args[1]
        key = (a, b)
        with self._lock:
            c = self.counts
            c["msum.calls"] += 1
            if key in self.msum_seen:
                c["msum.repeats"] += 1
            else:
                self.msum_seen.add(key)
            c["msum.candidates"] += len(a.generators) * len(b.generators)
            c["msum.kept"] += len(result.generators)

    def _lp_hook(self, args, result) -> None:
        nvars = args[1]
        with self._lock:
            c = self.counts
            c["lp.calls"] += 1
            c["lp.feasible"] += result is not None
            c["lp.fm" if nvars <= self._geometry.FM_VAR_LIMIT else "lp.simplex"] += 1

    def install(self) -> None:
        """Wrap every function in SPANS; idempotence is not supported."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("cornets")
        mods = {m: importlib.import_module(f"cornets.{m}") for m in MODULES}
        self._geometry = mods["geometry"]
        namespaces = [package, *mods.values()]
        hooks = {"sets.msum": self._msum_hook, "geometry.lp_feasible": self._lp_hook}
        for modname, names in SPANS.items():
            home = mods[modname]
            for dotted in names:
                name = f"{modname}.{dotted}"
                hook = hooks.get(name)
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__, hook))
                    else:
                        new = self._wrap(name, raw, hook)
                    self._installed.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                fn = getattr(home, dotted)
                wrapper = self._wrap(name, fn, hook)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._installed.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # --- results ----------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, max_s and dropped spans."""
        out: dict[str, dict] = {}
        with self._lock:
            per_thread = list(self._thread_stats)
        for stats in per_thread:
            for name, (calls, total, self_s, mx, dropped) in list(stats.items()):
                agg = out.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "dropped": 0}
                )
                agg["calls"] += calls
                agg["total_s"] += total
                agg["self_s"] += self_s
                agg["max_s"] = max(agg["max_s"], mx)
                agg["dropped"] += dropped
        return out

    def write(self, directory: Path, stem: str) -> Path:
        """Spans as JSON lines plus the summary; returns the summary path."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, request, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
                         "request": request, "thread": thread}
                    )
                    + "\n"
                )
        path = directory / f"{stem}.summary.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.summary(), "counts": self.counts}, fh, indent=2, sort_keys=True)
        return path
