"""In-memory span tracer that wraps crossedprod's public functions from outside.

The program itself is not instrumented: `Tracer.install()` replaces each
traced function by a wrapper under every module attribute that is bound to it
(``build_product`` is bound in ``products``, ``classify``, ``decompose`` and
``cli``; ``check_table`` is reached through ``groups`` itself), so calls made
inside the library are seen too.  `uninstall()` puts the originals back.

Each wrapper records a span (name, start, end, parent, thread) in per-thread
arrays, so worker threads of ``classify``'s pool keep their own stacks.  A
span's self time is its duration minus the durations of its direct children
in the same thread.  Counters (calls, hits, ...) are exact and repeat from run
to run; times do not.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np

_PACKAGE_MODULES = ("groups", "systems", "products", "morphisms", "classify", "decompose", "cli")

# (module, function) pairs whose calls become spans, in the order they are reported.
TRACED = (
    ("classify", "enumerate_raw_systems"),
    ("classify", "system_from_raw"),
    ("classify", "iter_orbit_representatives"),
    ("classify", "coboundary_orbit_keys"),
    ("classify", "are_equivalent_1"),
    ("classify", "are_equivalent_2"),
    ("classify", "classify"),
    ("products", "product_table_np"),
    ("products", "center_pairs"),
    ("products", "abelian_by_criterion"),
    ("products", "build_product"),
    ("products", "cached_product"),
    ("groups", "are_isomorphic"),
    ("groups", "identify_group"),
    ("groups", "automorphism_group"),
    ("groups", "check_table"),
    ("groups", "normal_subgroups"),
    ("groups", "enumerate_homomorphisms"),
    ("systems", "validate_crossed_system"),
    ("systems", "system_from_doc"),
    ("morphisms", "enumerate_morphisms"),
    ("decompose", "decompose"),
    ("decompose", "extract_crossed_system"),
    ("decompose", "holder_enumerate"),
    ("decompose", "holder_cross_validate"),
    ("cli", "cmd_build"),
    ("cli", "cmd_morphisms"),
    ("cli", "cmd_decompose"),
    ("cli", "cmd_enumerate"),
    ("cli", "cmd_classify"),
)

# Generator functions are counted, not timed: their work runs in the caller.
COUNTED_ONLY = (("morphisms", "iter_stabilizing_maps"),)

VISIT = "classify.enumerate_raw_systems.visit"


def span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        return f"cli.{func[4:]}"
    return f"{module}.{func}"


class _Buffer:
    """Spans of one thread; parent indices point into the same buffer."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # recording -------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def count(self, key: str, by: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + by

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        nid = self._name_id(name)
        buf = self._buffer()
        idx = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            buf.end[idx] = time.perf_counter()
            buf.stack.pop()

    # wrappers --------------------------------------------------------------

    def _wrap(self, module: str, func: str, orig):
        name = span_name(module, func)
        calls = f"{name}.calls"
        span = self.span
        count = self.count

        if (module, func) == ("classify", "enumerate_raw_systems"):
            systems = f"{name}.systems"

            def wrapper(h, g, visit, **kwargs):
                count(calls)

                def traced_visit(alpha, f_bytes):
                    count(systems)
                    return span(VISIT, visit, alpha, f_bytes)

                return span(name, orig, h, g, traced_visit, **kwargs)

        elif (module, func) == ("classify", "iter_orbit_representatives"):
            visited = "classify.enumerate_raw_systems.systems"

            def wrapper(*args, **kwargs):
                count(calls)
                before = self.counts.get(visited, 0)
                # The generator computes every representative before its first
                # yield, so draining it inside the span times exactly that work.
                reps = span(name, lambda: list(orig(*args, **kwargs)))
                count(f"{name}.reps", len(reps))
                count(f"{name}.visited", self.counts.get(visited, 0) - before)
                return iter(reps)

        elif (module, func) in (("classify", "are_equivalent_1"), ("classify", "are_equivalent_2")):

            def wrapper(*args, **kwargs):
                count(calls)
                out = span(name, orig, *args, **kwargs)
                if out is not None:
                    count(f"{name}.hits")
                return out

        elif (module, func) == ("groups", "are_isomorphic"):

            def wrapper(g1, g2):
                count(calls)
                out = span(name, orig, g1, g2)
                if out is not None:
                    count(f"{name}.hits")
                elif g1.fingerprint() != g2.fingerprint():
                    count(f"{name}.fp_rejects")
                return out

        elif (module, func) == ("products", "cached_product"):
            info = orig.cache_info

            def wrapper(sys_obj):
                count(calls)
                hits = info().hits
                out = span(name, orig, sys_obj)
                count(f"{name}.hits" if info().hits > hits else f"{name}.misses")
                return out

            wrapper.cache_clear = orig.cache_clear
            wrapper.cache_info = orig.cache_info

        elif (module, func) == ("morphisms", "enumerate_morphisms"):

            def wrapper(*args, **kwargs):
                count(calls)
                out = span(name, orig, *args, **kwargs)
                count(f"{name}.quadruples", len(out))
                return out

        elif module == "cli":
            stdout_bytes = f"{name}.stdout_bytes"

            def wrapper(*args, **kwargs):
                count(calls)
                before = sys.stdout.tell()
                try:
                    return span(name, orig, *args, **kwargs)
                finally:
                    count(stdout_bytes, sys.stdout.tell() - before)

        elif (module, func) in COUNTED_ONLY:

            def wrapper(*args, **kwargs):
                count(calls)
                return orig(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                count(calls)
                return span(name, orig, *args, **kwargs)

        if not hasattr(wrapper, "cache_clear"):
            functools.update_wrapper(wrapper, orig)
        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module("crossedprod")] + [
            importlib.import_module(f"crossedprod.{m}") for m in _PACKAGE_MODULES
        ]
        for (module, func) in TRACED + COUNTED_ONLY:
            orig = getattr(importlib.import_module(f"crossedprod.{module}"), func)
            wrapper = self._wrap(module, func, orig)
            for mod in mods:
                if getattr(mod, func, None) is orig:
                    self._patches.append((mod, func, orig))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for (mod, func, orig) in reversed(self._patches):
            setattr(mod, func, orig)
        self._patches.clear()

    # results ---------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as columns; `parent` indexes the same columns (-1: none)."""
        cols: dict[str, list] = {"name": [], "start": [], "end": [], "parent": [], "thread": []}
        offset = 0
        for buf in self._buffers:
            parent = np.array(buf.parent, dtype=np.int64)
            cols["name"].append(np.array(buf.name, dtype=np.int64))
            cols["start"].append(np.array(buf.start, dtype=np.float64))
            cols["end"].append(np.array(buf.end, dtype=np.float64))
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["thread"].append(np.full(len(parent), buf.thread_id, dtype=np.uint64))
            offset += len(parent)
        return {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}

    def self_times(self, cols: dict[str, np.ndarray] | None = None) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        cols = self.spans() if cols is None else cols
        if not len(cols["name"]):
            return {}
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child_time = np.bincount(
            cols["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child_time
        totals = np.bincount(cols["name"], weights=own, minlength=len(self.names))
        return {self.names[i]: float(totals[i]) for i in range(len(self.names))}

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.spans())
