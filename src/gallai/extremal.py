"""Exhaustive extremal search over isomorphism classes of small graphs."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from .counting import DEFAULT_NODE_BUDGET, count_gallai
from .errors import InvalidParameterError, ResourceLimitError
from .graphs import Record, all_graphs, decimal_digits, graph6_encode, parse_digits
# unused here, but bench/spans.py traces them through this module by name
from .graphs import canonical_form, canonical_graph  # noqa: F401


class ExtremalRow(Record):
    g6: str
    edges: int
    count: int | None


class ExtremalTable(Record):
    n: int
    r: int
    rows: tuple[ExtremalRow, ...]
    argmax: tuple[str, ...]
    authoritative: bool

    @property
    def max_count(self) -> int | None:
        counts = [row.count for row in self.rows if row.count is not None]
        return max(counts, default=None)


class CountCache:
    """Persistent JSONL memo of computed counts, keyed by (graph6, r).

    The graph6 key must be the canonical one of its isomorphism class, such as
    the encoding of a graph yielded by ``all_graphs`` or of ``canonical_graph(g)``.
    The cache does not canonicalize; two labelings of one class under
    different keys are two unrelated entries.  Corrupt lines are skipped with a
    warning; the cache never serves data it could not fully parse.

    Each ``put`` opens the file, appends its line and closes it.  Inside
    ``with cache:`` the puts share one handle instead, opened at the first
    put and closed when the block ends; every line is still flushed as it is
    written.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._data: dict[tuple[str, int], int] = {}
        self._loaded = False
        self._held = False
        self._out = None

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self.path.exists():
            return
        for lineno, line in enumerate(self.path.read_bytes().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                r, count = obj["r"], obj["count"]
                # only what put writes: an int r and the count's digits
                if type(r) is not int or not isinstance(count, str):
                    raise TypeError
                self._data[(str(obj["g6"]), r)] = parse_digits(count)
            except (ValueError, KeyError, TypeError):  # UnicodeDecodeError is a ValueError
                warnings.warn(f"skipping corrupt cache line {lineno} in {self.path}")

    def get(self, g6: str, r: int) -> int | None:
        self._load()
        return self._data.get((g6, r))

    def put(self, g6: str, r: int, count: int) -> None:
        self._load()
        if self._data.get((g6, r)) == count:
            return
        self._data[(g6, r)] = count
        line = json.dumps({"g6": g6, "r": r, "count": decimal_digits(count)}) + "\n"
        if not self._held:
            with self.path.open("a") as fh:
                fh.write(line)
            return
        if self._out is None:
            self._out = self.path.open("a")
        self._out.write(line)
        # so that a table cut short keeps every row it counted
        self._out.flush()

    def __enter__(self) -> "CountCache":
        self._held = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._held = False
        if self._out is not None:
            self._out.close()
            self._out = None


def extremal_search(n: int, r: int, *, node_budget: int = DEFAULT_NODE_BUDGET,
                    cache: CountCache | None = None) -> ExtremalTable:
    """Count Gallai r-colorings for every isomorphism class on n vertices.

    Rows come in increasing canonical form, as ``all_graphs`` yields them,
    and the argmax lists the g6 of every maximizer.  Cache keys are the rows'
    g6.  ``all_graphs`` bounds n and ``node_budget`` bounds each row's count.
    If a row overruns the node budget, the error carries the partial table
    (remaining counts None, flagged non-authoritative).  The cache's file
    stays open for the whole table and is closed however the search ends.
    """
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    if cache is None:
        return _count_classes(n, r, node_budget, None)
    with cache:
        return _count_classes(n, r, node_budget, cache)


def _count_classes(n: int, r: int, node_budget: int, cache: CountCache | None) -> ExtremalTable:
    rows = []
    classes = list(all_graphs(n))
    for idx, graph in enumerate(classes):
        g6 = graph6_encode(graph)
        count = cache.get(g6, r) if cache else None
        if count is None:
            try:
                count = count_gallai(graph, r, node_budget=node_budget)
            except ResourceLimitError as exc:
                done = rows + [ExtremalRow(graph6_encode(g), g.edge_count, None)
                               for g in classes[idx:]]
                partial = ExtremalTable(n, r, tuple(done), (), False)
                raise ResourceLimitError(
                    f"row {g6} exceeded the node budget", partial=partial,
                    nodes_visited=exc.nodes_visited) from exc
            if cache:
                cache.put(g6, r, count)
        rows.append(ExtremalRow(g6, graph.edge_count, count))
    best = max(row.count for row in rows)
    argmax = tuple(row.g6 for row in rows if row.count == best)
    return ExtremalTable(n, r, tuple(rows), argmax, True)


class KnownComparison(Record):
    n: int
    r: int
    count_complete: int
    count_bipartite: int
    winner: str


def compare_known(n: int, r: int) -> KnownComparison:
    """Exact counts for K_n versus the balanced complete bipartite graph, in
    closed form: K_n from ``count_complete``, and K_{⌊n/2⌋,⌈n/2⌉}, which has
    no triangle, as r^(⌊n/2⌋ ⌈n/2⌉)."""
    # loaded here, so that the extremal tables never compile the K_n module
    from .kn import count_complete
    if n < 2 or r < 1:
        raise InvalidParameterError("need n >= 2 and r >= 1")
    full = count_complete(n, r)
    bip = r ** (n // 2 * (n - n // 2))
    winner = "complete" if full > bip else "bipartite" if bip > full else "tie"
    return KnownComparison(n, r, full, bip, winner)


def export_csv(table: ExtremalTable, path) -> None:
    lines = ["g6,edges,count"]
    for row in table.rows:
        count = "" if row.count is None else decimal_digits(row.count)
        lines.append(f"{row.g6},{row.edges},{count}")
    Path(path).write_text("\n".join(lines) + "\n")
