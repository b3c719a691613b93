"""In-memory span recorder that times a layer from outside its code.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` (a class method or
a module-level function binding) with a wrapper that records one span —
``[name, start, end, parent]`` — per call.  Spans stay in memory until the
benchmark ends.  A layer's self time is its span duration minus the part its
child spans cover.  ``Tracer.restore()`` puts every original back.

Nothing under ``src/`` changes: every span sits around a call into a layer's
public function, and the counters come from objects the calls hand back.
"""

from __future__ import annotations

import functools
import time

ENGINE_COUNTERS = (
    "n_tree_site_products",
    "n_nodes_pruned",
    "n_cache_hits",
    "n_cache_misses",
    "n_workspace_items",
    "n_padded_items",
    "n_pmat_requests",
    "n_pmat_builds",
)


class Tracer:
    """Nested spans plus named counters, for one process."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object, bool]] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.engines: dict[int, object] = {}
        self.resimulators: dict[int, object] = {}
        self.chains: list[tuple] = []

    def reset(self) -> None:
        """Drop every recorded span, counter and observed object.

        Containers are cleared in place: wrappers hold references to them.
        """
        for container in (self.spans, self._stack, self.counters, self.engines,
                          self.resimulators, self.chains):
            container.clear()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, owner, attr: str, name: str, *, on_call=None, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        A call made while a span of the same name is open (a subclass
        method delegating to its parent's) joins the open span.
        ``on_call(args)`` sees the arguments, ``on_result(result)`` the value.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            if on_call is not None:
                on_call(args)
            if stack and spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        self.patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without a span (for hot, tiny calls)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counters[counter] = self.counters.get(counter, 0) + 1
            return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def fold(self) -> None:
        """Move the counters of observed engines, resimulators and chains into
        ``counters`` and drop the objects, so the next EM run starts clean.

        An engine shared across EM iterations is observed once, so it counts once.
        """
        from repro.diagnostics.convergence import effective_sample_size

        for key in ENGINE_COUNTERS:
            self.count("engine." + key, sum(getattr(e, key, 0) for e in self.engines.values()))
        self.count(
            "proposals.n_proposals_generated",
            sum(r.counters()["n_proposals_generated"] for r in self.resimulators.values()),
        )
        for accepted, decisions, heights in self.chains:
            self.count("core.gmh.n_accepted", accepted)
            self.count("core.gmh.n_decisions", decisions)
            self.count("core.sampler.ess_sum", effective_sample_size(heights))
            self.count("core.sampler.chains")
        self.engines.clear()
        self.resimulators.clear()
        self.chains.clear()

    def snapshot(self) -> dict:
        """Per-name calls, total and self seconds, plus counters and the
        seconds covered by root spans."""
        self.fold()
        stats: dict[str, dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        roots = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                roots += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
        return {"spans": stats, "counters": dict(self.counters), "root_s": roots}


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Sum several snapshots (e.g. one per worker job) into one."""
    merged: dict = {"spans": {}, "counters": {}, "root_s": 0.0}
    for snap in snapshots:
        merged["root_s"] += snap["root_s"]
        for name, entry in snap["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value
        for key, value in snap["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
    return merged
