"""Exhaustive extremal search over isomorphism classes of small graphs."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from .counting import DEFAULT_NODE_BUDGET, count_gallai
from .errors import InvalidParameterError, ResourceLimitError
from .graphs import all_graphs, complete, complete_bipartite, graph6_encode
# unused here, but bench/spans.py traces them through this module by name
from .graphs import canonical_form, canonical_graph  # noqa: F401

SEARCH_N_SMALL_R = 6
SEARCH_N_LARGE_R = 5


@dataclass(frozen=True)
class ExtremalRow:
    canonical: bytes
    g6: str
    edges: int
    count: int | None


@dataclass(frozen=True)
class ExtremalTable:
    n: int
    r: int
    rows: tuple[ExtremalRow, ...]
    argmax: tuple[bytes, ...]
    authoritative: bool

    @property
    def max_count(self) -> int | None:
        counts = [row.count for row in self.rows if row.count is not None]
        return max(counts, default=None)

    @property
    def argmax_g6(self) -> tuple[str, ...]:
        forms = set(self.argmax)
        return tuple(row.g6 for row in self.rows if row.canonical in forms)


class CountCache:
    """Persistent JSONL memo of computed counts, keyed by (graph6, r).

    The graph6 key must be the canonical one of its isomorphism class, such as
    the encoding of a graph yielded by ``all_graphs`` or of ``canonical_graph(g)``.
    The cache does not canonicalize; two labelings of one class under
    different keys are two unrelated entries.  Corrupt lines are skipped with a
    warning; the cache never serves data it could not fully parse.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._data: dict[tuple[str, int], int] = {}
        self._loaded = False

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self.path.exists():
            return
        for lineno, line in enumerate(self.path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                key = (str(obj["g6"]), int(obj["r"]))
                self._data[key] = int(obj["count"])
            except (ValueError, KeyError, TypeError):
                warnings.warn(f"skipping corrupt cache line {lineno} in {self.path}")

    def get(self, g6: str, r: int) -> int | None:
        self._load()
        return self._data.get((g6, r))

    def put(self, g6: str, r: int, count: int) -> None:
        self._load()
        if self._data.get((g6, r)) == count:
            return
        self._data[(g6, r)] = count
        with self.path.open("a") as fh:
            fh.write(json.dumps({"g6": g6, "r": r, "count": str(count)}) + "\n")


def _search_limit(r: int) -> int:
    return SEARCH_N_SMALL_R if r <= 4 else SEARCH_N_LARGE_R


def extremal_search(n: int, r: int, *, node_budget: int = DEFAULT_NODE_BUDGET,
                    cache: CountCache | None = None) -> ExtremalTable:
    """Count Gallai r-colorings for every isomorphism class on n vertices.

    Rows come in increasing canonical form, as ``all_graphs`` yields them,
    and the argmax lists every maximizer.  Cache keys are the rows' g6.
    If a row overruns the node budget, the error carries the partial table
    (remaining counts None, flagged non-authoritative).
    """
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    limit = _search_limit(r)
    if n > limit:
        raise ResourceLimitError(
            f"extremal search with r = {r} is capped at n <= {limit}")
    rows = []
    classes = list(all_graphs(n))
    for idx, (form, graph) in enumerate(classes):
        g6 = graph6_encode(graph)
        count = cache.get(g6, r) if cache else None
        if count is None:
            try:
                count = count_gallai(graph, r, node_budget=node_budget)
            except ResourceLimitError as exc:
                done = rows + [ExtremalRow(f, graph6_encode(g), g.edge_count, None)
                               for f, g in classes[idx:]]
                partial = ExtremalTable(n, r, tuple(done), (), False)
                raise ResourceLimitError(
                    f"row {g6} exceeded the node budget", partial=partial,
                    nodes_visited=exc.nodes_visited) from exc
            if cache:
                cache.put(g6, r, count)
        rows.append(ExtremalRow(form, g6, graph.edge_count, count))
    best = max(row.count for row in rows)
    argmax = tuple(row.canonical for row in rows if row.count == best)
    return ExtremalTable(n, r, tuple(rows), argmax, True)


@dataclass(frozen=True)
class KnownComparison:
    n: int
    r: int
    count_complete: int
    count_bipartite: int
    winner: str


def compare_known(n: int, r: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> KnownComparison:
    """Exact counts for K_n versus the balanced complete bipartite graph."""
    if n < 2 or r < 1:
        raise InvalidParameterError("need n >= 2 and r >= 1")
    full = count_gallai(complete(n), r, node_budget=node_budget)
    bip = count_gallai(complete_bipartite(n // 2, n - n // 2), r, node_budget=node_budget)
    winner = "complete" if full > bip else "bipartite" if bip > full else "tie"
    return KnownComparison(n, r, full, bip, winner)


def export_csv(table: ExtremalTable, path) -> None:
    lines = ["g6,edges,count"]
    for row in table.rows:
        count = "" if row.count is None else str(row.count)
        lines.append(f"{row.g6},{row.edges},{count}")
    Path(path).write_text("\n".join(lines) + "\n")
