"""Layer tracing from outside the library.

`Tracer.install()` wraps the public functions of every `wciq` module and
rebinds each `wciq.*` module attribute that points at a wrapped function,
so calls between modules (and inside a module, through its globals) go
through the wrappers. `uninstall()` puts the originals back.

Each wrapped call records a span (id, name, start, end, parent id, item id)
in memory; a layer's self time is its spans' durations minus the time of
their child spans. The per-subset predicates are too hot for spans and are
only counted: `is_non_divisible`, `is_strongly_non_divisible`, and the
`member` callback handed to `maximal_members`. A few outcome counters are
read off arguments and results: membership tables built, repeated and
UNKNOWN membership queries, families built, partitions found, search
budgets exhausted, value-class verification, report bytes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("arith", "complexes", "regularity", "maps", "nef", "realize", "serialize", "cli")

#: Small helpers whose time stays with their caller.
_UNWRAPPED = {
    "arith.as_weights", "arith.as_degrees", "arith.gcd_of", "arith.lcm_of",
    "arith.lcm_or_one", "arith.poset_covers", "serialize.encode_int",
    "serialize.decode_int",
}
#: Hot predicates that are counted instead of timed.
_COUNTED = {"regularity.is_non_divisible", "regularity.is_strongly_non_divisible"}


def _public_functions():
    """(layer.name, function) for every public function a wciq layer module
    defines, except the small helpers."""
    for layer in LAYERS:
        mod = sys.modules.get(f"wciq.{layer}")
        if mod is None:
            continue
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name not in _UNWRAPPED:
                yield name, fn


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.item_s = 0.0
        self.items = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._item = None
        self._seen: set = set()
        self._wrappers: dict = {}
        self._cells: dict[str, list[int]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if not self._wrappers:
            for name, fn in _public_functions():
                self._wrappers[fn] = self._wrap(name, fn)
        self._rebind(self._wrappers)

    def uninstall(self) -> None:
        self._rebind({w: fn for fn, w in self._wrappers.items()})

    @staticmethod
    def _rebind(mapping: dict) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "wciq" and not modname.startswith("wciq."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in mapping:
                    setattr(mod, attr, mapping[value])

    # -- items --------------------------------------------------------------

    def begin_item(self, item_id: int) -> None:
        self._item = item_id
        self._seen = set()
        self._stack = [[time.perf_counter(), 0.0, self._new_id()]]

    def end_item(self) -> None:
        start, _, sid = self._stack[0]
        end = time.perf_counter()
        self.spans.append((sid, "item", start, end, -1, self._item))
        self.item_s += end - start
        self.items += 1
        self._stack = []
        self._item = None

    def abort_item(self) -> None:
        """Drop the open frames after an item was interrupted mid-call."""
        del self._stack[1:]
        self.end_item()

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in _COUNTED:
            cell = self._cell(f"{name}.calls")

            @functools.wraps(fn)
            def counted(weights, subset):
                cell[0] += 1
                return fn(weights, subset)
            return counted

        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)
        if name == "complexes.maximal_members":
            fn = self._count_members(fn)
        if name == "arith.is_representable":
            fn = self._membership(fn)
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            frame = [perf(), 0.0, tracer._new_id()]
            parent = stack[-1][2]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.spans.append((frame[2], name, frame[0], end, parent, tracer._item))
                if observe is not None:
                    observe(args, kwargs, result, exc)
        return spanned

    def _cell(self, key: str) -> list[int]:
        """A one-slot counter that hot wrappers bump without a dict lookup."""
        return self._cells.setdefault(key, [0])

    def _count_members(self, fn):
        cell = self._cell("complexes.maximal_members.member_calls")

        @functools.wraps(fn)
        def maximal_members(items, member):
            def counted_member(s):
                cell[0] += 1
                return member(s)
            return fn(items, counted_member)
        return maximal_members

    def _membership(self, fn):
        """Classify each membership query the way `is_representable` decides
        it: divisor shortcut, table build, or UNKNOWN beyond the cap."""
        counts = self.counts
        tracer = self
        default_cap = inspect.signature(fn).parameters["dp_cap"].default

        @functools.wraps(fn)
        def is_representable(d, weights, **kwargs):
            vals = tuple(weights)
            key = (d, frozenset(vals))
            if key in tracer._seen:
                counts["arith.repeats"] += 1
            tracer._seen.add(key)
            result = fn(d, vals, **kwargs)
            dp_cap = kwargs.get("dp_cap", default_cap)
            if isinstance(d, int) and d > 0 and vals and not any(d % a == 0 for a in vals):
                if d <= dp_cap:
                    counts["arith.table_builds"] += 1
                else:
                    counts["arith.unknown"] += 1
            return result
        return is_representable

    def _observe_build_admissible_family(self, args, kwargs, result, exc):
        self.counts["maps.family_attempts"] += 1
        if exc is None and result is not None:
            self.counts["maps.family_built"] += 1

    def _observe_verify_poset_map(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["maps.verify_reports"] += 1
            if result.scope == "value-class-representatives":
                self.counts["maps.verify_value_class"] += 1

    def _observe_find_nef_partition(self, args, kwargs, result, exc):
        self.counts["nef.find_calls"] += 1
        if exc is None and result is not None:
            self.counts["nef.find_found"] += 1
        if exc is not None and type(exc).__name__ == "ResourceLimitError":
            self.counts["nef.budget_exhausted"] += 1

    def _observe_construct_strong_nef_partition(self, args, kwargs, result, exc):
        self.counts["nef.construct_calls"] += 1
        if exc is None:
            self.counts["nef.construct_ok"] += 1

    def _observe_canonical_json(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["serialize.report_bytes"] += len(result.encode("utf-8"))

    # -- results ------------------------------------------------------------

    def stats(self) -> dict:
        """Mergeable totals (not yet divided by the item count)."""
        counts = dict(self.counts)
        counts.update((key, cell[0]) for key, cell in self._cells.items())
        return {"items": self.items, "item_s": self.item_s, "self_s": dict(self.self_s),
                "calls": dict(self.calls), "counts": counts}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,item\n")
            for sid, name, start, end, parent, item in sorted(self.spans):
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{item}\n")


def merge(into: dict, stats: dict) -> dict:
    """Add one stats dict into another, field by field."""
    into["items"] = into.get("items", 0) + stats["items"]
    into["item_s"] = into.get("item_s", 0.0) + stats["item_s"]
    for field in ("self_s", "calls", "counts"):
        bucket = into.setdefault(field, {})
        for key, value in stats[field].items():
            bucket[key] = bucket.get(key, 0) + value
    return into
