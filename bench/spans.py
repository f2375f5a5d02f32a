"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every module attribute
through which callers reach it, and ``uninstall`` puts the originals back.
A span is (name, start, end, parent span, job id, result was not None);
spans stay in a list until the pass ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

# span name -> the (module, attribute) pairs callers reach it through
TRACED = {
    "cli.main": [("cli", "main")],
    "graphs.graph_from_name": [("graphs", "graph_from_name"), ("cli", "graph_from_name")],
    "graphs.all_graphs": [("extremal", "all_graphs")],
    "graphs.canonical_form": [("graphs", "canonical_form"), ("extremal", "canonical_form")],
    "graphs.canonical_graph": [("extremal", "canonical_graph")],
    "counting.count_gallai": [("counting", "count_gallai"), ("extremal", "count_gallai")],
    "counting.count_gallai_with_palettes": [("counting", "count_gallai_with_palettes"),
                                            ("templates", "count_gallai_with_palettes")],
    "templates.template_from_text": [("templates", "template_from_text")],
    "templates.count_ga": [("templates", "count_ga")],
    "templates.rt_count": [("templates", "rt_count"), ("containers", "rt_count")],
    "templates.classify_triangles": [("templates", "classify_triangles")],
    "containers.verify_cover": [("containers", "verify_cover")],
    "extremal.extremal_search": [("extremal", "extremal_search")],
    "extremal.CountCache.get": [("extremal.CountCache", "get")],
    "extremal.CountCache.put": [("extremal.CountCache", "put")],
}

NAME, START, END, PARENT, JOB, HIT = range(6)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                           self.job, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, result) -> None:
        end = perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[START], span[END], span[HIT] = start, end, result is not None

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per step, so the time is spent inside the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    start = perf_counter()
                    item = None
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, start, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, start, result)
        return wrapper

    def _owner(self, path: str):
        head, _, attr = path.partition(".")
        obj = self.modules[head]
        return getattr(obj, attr) if attr else obj

    def install(self) -> None:
        for name, sites in TRACED.items():
            originals = {}
            for path, attr in sites:
                owner = self._owner(path)
                original = getattr(owner, attr)
                if original not in originals:
                    originals[original] = self._wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, originals[original])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def summarize(spans: list[list]) -> dict:
    """Per-name call count, total time, self time and hits for one pass.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the run is single-threaded.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0,
                                     "under": defaultdict(int)})
    for idx, span in enumerate(spans):
        entry = out[span[NAME]]
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[idx]
        entry["hits"] += span[HIT]
        parent = span[PARENT]
        while parent is not None:
            entry["under"][spans[parent][NAME]] += 1
            parent = spans[parent][PARENT]
    return out
