"""Tracing from outside the program: wrap the layers' public functions.

`Tracer.install()` replaces every public function of the layer modules
(cli, rings, groups, ideals, properties, series, transfer) in every
`mnseries` module namespace that holds it, plus a few named methods, with a
wrapper; `Tracer.restore()` puts the originals back. A span wrapper records
(name, start, end, parent) into flat arrays kept in memory; a count wrapper
only counts calls, for the hottest leaves whose spans would cost more than
the work they time (and for generator functions, whose call returns before
the work is done). Time inside a count-only callee belongs to the nearest
enclosing span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "rings", "groups", "ideals", "properties", "series", "transfer")

# (layer, class, method, metric name, spanned)
METHODS = (
    ("groups", "IntegersGroup", "op", "groups.op", False),
    ("groups", "LexProductGroup", "op", "groups.op", False),
    ("series", "TwistSystem", "tau_at", "series.tau_at", False),
    ("transfer", "TruncatedUniverse", "all_series", "transfer.TruncatedUniverse.all_series", True),
)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mnseries" or name.startswith("mnseries."))]


def public_functions(layer: str) -> dict[str, object]:
    """Functions defined in mnseries.<layer> whose names are public."""
    module = sys.modules[f"mnseries.{layer}"]
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._counters: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()  # names installed somewhere
        self.spanned: set[str] = set()  # the span-recording ones among them

    # --- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        box = self._counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- install / restore ------------------------------------------------

    def _patch(self, owner, attr: str, name: str, replacement, spanned: bool):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)
        self.wrapped.add(name)
        if spanned:
            self.spanned.add(name)

    def install(self):
        """Wrap every layer's public functions wherever they were imported."""
        modules = package_modules()
        for layer in LAYERS:
            for fname, fn in public_functions(layer).items():
                name = f"{layer}.{fname}"
                spanned = not inspect.isgeneratorfunction(fn)
                wrapper = self._span(name, fn) if spanned else self._count(name, fn)
                for module in modules:
                    if vars(module).get(fname) is fn:
                        self._patch(module, fname, name, wrapper, spanned)
        for layer, cls_name, method, name, spanned in METHODS:
            cls = getattr(sys.modules[f"mnseries.{layer}"], cls_name)
            fn = vars(cls)[method]
            wrapper = self._span(name, fn) if spanned else self._count(name, fn)
            self._patch(cls, method, name, wrapper, spanned)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ------------------------------------------------------------

    def layer_stats(self, clock=None) -> dict[str, dict]:
        """{name: {"calls", "self_s"}} over every recorded span, plus
        {"calls"} for count-only wrappers. `clock` maps a perf_counter
        reading to the seconds `self_s` is given in (default: itself)."""
        n = len(self.start)
        clock = clock or float
        duration = array("d", (clock(e) - clock(s) for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += duration[i]
        stats = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        names = self.names
        for i in range(n):
            s = stats[names[self.name_of[i]]]
            s["calls"] += 1
            s["self_s"] += duration[i] - child[i]
        for name, box in self._counters.items():
            stats.setdefault(name, {"calls": 0})["calls"] += box[0]
        return stats

    def dump(self, directory: Path, stem: str):
        """Write the spans: <stem>.json describes <stem>.bin, which holds the
        name-id, parent, start and end arrays one after another."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.bin", "wb") as out:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(out)
        header = {"spans": len(self.start), "names": self.names,
                  "arrays": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                  "clock": "time.perf_counter seconds; parent -1 is a root span",
                  "count_only_calls": {k: v[0] for k, v in sorted(self._counters.items())}}
        (directory / f"{stem}.json").write_text(json.dumps(header, indent=1))
