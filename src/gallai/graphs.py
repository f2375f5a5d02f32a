"""Small-graph toolkit: bit-vector graphs, named families, statistics, isomorphism, graph6.

Vertices are 0..n-1 and adjacency is kept as one integer bitmask per vertex,
so neighborhood intersections are single ``&`` operations.  Everything here is
sized for exhaustive work on graphs of at most a dozen or so vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial, sqrt

import numpy as np

from .errors import InvalidParameterError, ParseError, ResourceLimitError

# Enumerating isomorphism classes walks all 2^C(n,2) labeled graphs.
ALL_GRAPHS_LIMIT = 7
# Canonical forms minimize over all n! vertex permutations.
CANONICAL_LIMIT = 8


def edge_index(n: int, u: int, v: int) -> int:
    """Position of the pair (u, v), u < v, in lexicographic order over [n]."""
    if not 0 <= u < v < n:
        raise InvalidParameterError(f"not an ordered vertex pair for n={n}: ({u}, {v})")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def edge_pairs(n: int) -> list[tuple[int, int]]:
    """All vertex pairs of [n] in lexicographic order; position matches edge_index."""
    return list(itertools.combinations(range(n), 2))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with bit-vector adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("graphs need at least one vertex")
        if len(self.adj) != self.n:
            raise InvalidParameterError("adjacency length differs from vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise InvalidParameterError(f"neighbor bits out of range at vertex {u}")
            if row >> u & 1:
                raise InvalidParameterError(f"loop at vertex {u}")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (self.adj[u] >> v & 1) != (self.adj[v] >> u & 1):
                    raise InvalidParameterError(f"asymmetric adjacency at ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * max(n, 1)
        if n < 1:
            raise InvalidParameterError("graphs need at least one vertex")
        for u, v in edges:
            if u == v:
                raise InvalidParameterError(f"loop edge ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                bit = row & -row
                row ^= bit
                out.append((u, bit.bit_length() - 1))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            return False
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def common_neighbors(self, u: int, v: int) -> int:
        """Bitmask of vertices adjacent to both u and v."""
        return self.adj[u] & self.adj[v]

    def triangles(self) -> list[tuple[int, int, int]]:
        """All triangles (a, b, c) with a < b < c, lexicographically sorted."""
        out = []
        for a, b in self.edges():
            common = self.adj[a] & self.adj[b]
            common >>= b + 1
            c = b + 1
            while common:
                if common & 1:
                    out.append((a, b, c))
                common >>= 1
                c += 1
        return out

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidParameterError(f"bad edge ({u}, {v})")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on the given vertices, relabeled in sorted order."""
        vs = sorted(set(vertices))
        if not vs:
            raise InvalidParameterError("induced subgraph needs at least one vertex")
        if vs[0] < 0 or vs[-1] >= self.n:
            raise InvalidParameterError("vertex out of range")
        pos = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for v in vs:
            row = self.adj[v]
            for u in vs:
                if row >> u & 1:
                    rows[pos[v]] |= 1 << pos[u]
        return Graph(len(vs), tuple(rows))

    def permuted(self, perm) -> "Graph":
        """Image of the graph under the vertex permutation perm (old -> new)."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise InvalidParameterError("not a permutation of the vertex set")
        rows = [0] * self.n
        for u, v in self.edges():
            pu, pv = perm[u], perm[v]
            rows[pu] |= 1 << pv
            rows[pv] |= 1 << pu
        return Graph(self.n, tuple(rows))


# ---------------------------------------------------------------------------
# named families


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidParameterError("complete bipartite graph needs both sides nonempty")
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    rows = [right] * a + [left] * b
    return Graph(a + b, tuple(rows))


def book(q: int) -> Graph:
    """Book with q pages: base edge {0, 1}, pages 2..q+1 joined to both ends."""
    if q < 0:
        raise InvalidParameterError("book needs q >= 0 pages")
    edges = [(0, 1)]
    for p in range(2, q + 2):
        edges.append((0, p))
        edges.append((1, p))
    return Graph.from_edges(q + 2, edges)


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# statistics


def booksize(graph: Graph) -> int:
    """Largest number of common neighbors over the endpoint pairs of edges."""
    best = 0
    for u, v in graph.edges():
        size = (graph.adj[u] & graph.adj[v]).bit_count()
        if size > best:
            best = size
    return best


def booksize_edge(graph: Graph) -> tuple[int, tuple[int, int] | None]:
    """Booksize together with the lexicographically first edge attaining it."""
    best, best_edge = 0, None
    for u, v in graph.edges():
        size = (graph.adj[u] & graph.adj[v]).bit_count()
        if best_edge is None or size > best:
            best, best_edge = size, (u, v)
    return best, best_edge


def count_cliques(graph: Graph, k: int) -> int:
    """Number of k-vertex cliques."""
    if k < 1:
        raise InvalidParameterError("clique order must be >= 1")
    n = graph.n

    def rec(candidates: int, need: int) -> int:
        if need == 0:
            return 1
        total = 0
        cand = candidates
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            higher = ~((1 << (v + 1)) - 1)
            total += rec(candidates & graph.adj[v] & higher, need - 1)
        return total

    return rec((1 << n) - 1, k)


def max_k_partite_edges(graph: Graph, k: int) -> int:
    """Largest edge count of a spanning k-partite subgraph (exact max k-cut).

    Branch and bound over vertex-to-part assignments with symmetry breaking:
    vertex 0 always sits in part 0 and a vertex may only open one new part.
    """
    n = graph.n
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == 1:
        return 0
    edges = graph.edges()
    # edges whose later endpoint is >= v are still undecided when v is assigned
    undecided = [0] * (n + 1)
    for u, v in edges:
        for t in range(v + 1):
            undecided[t] += 1
    best = 0
    parts = [0] * k

    def rec(v: int, cut: int, used: int):
        nonlocal best
        if v == n:
            if cut > best:
                best = cut
            return
        if cut + undecided[v] <= best:
            return
        row = graph.adj[v]
        assigned = (1 << v) - 1
        deg_assigned = (row & assigned).bit_count()
        for p in range(min(used + 1, k)):
            gain = deg_assigned - (row & parts[p]).bit_count()
            parts[p] |= 1 << v
            rec(v + 1, cut + gain, max(used, p + 1))
            parts[p] &= ~(1 << v)

    rec(0, 0, 0)
    return best


def t_far(graph: Graph, k: int, t: int) -> bool:
    """True when removing fewer than t edges cannot make the graph k-partite."""
    if t < 0:
        raise InvalidParameterError("t must be >= 0")
    return graph.edge_count - max_k_partite_edges(graph, k) >= t


def lovasz_triangle_bound(m: int) -> float:
    """Largest possible triangle count of a graph with m edges.

    With x solving C(x, 2) = m, the bound is C(x, 3) = x(x-1)(x-2)/6.
    """
    if m < 0:
        raise InvalidParameterError("edge count must be >= 0")
    if m == 0:
        return 0.0
    x = (1.0 + sqrt(1.0 + 8.0 * m)) / 2.0
    return x * (x - 1.0) * (x - 2.0) / 6.0


# ---------------------------------------------------------------------------
# isomorphism machinery


def _mask_to_bytes(mask: int, m: int) -> bytes:
    nbytes = (m + 7) // 8
    return (mask << (8 * nbytes - m)).to_bytes(nbytes, "big") if nbytes else b""


def _mask_to_graph(n: int, mask: int, pairs: list[tuple[int, int]]) -> Graph:
    m = len(pairs)
    edges = [pairs[i] for i in range(m) if mask >> (m - 1 - i) & 1]
    return Graph.from_edges(n, edges)


def canonical_form(graph: Graph, *, max_n: int = CANONICAL_LIMIT) -> bytes:
    """Canonical adjacency encoding: minimal packed edge bitstring over all n!
    vertex relabelings.  Two graphs are isomorphic iff their forms are equal."""
    n = graph.n
    if n > max_n:
        raise ResourceLimitError(f"canonical form minimizes over n! permutations; n={n} > {max_n}")
    m = n * (n - 1) // 2
    edges = graph.edges()
    best = None
    for perm in itertools.permutations(range(n)):
        val = 0
        for u, v in edges:
            pu, pv = perm[u], perm[v]
            if pu > pv:
                pu, pv = pv, pu
            val |= 1 << (m - 1 - edge_index(n, pu, pv))
        if best is None or val < best:
            best = val
    return _mask_to_bytes(best if best is not None else 0, m)


def canonical_graph(graph: Graph, *, max_n: int = CANONICAL_LIMIT) -> Graph:
    """The isomorphism-class representative whose encoding is canonical_form."""
    form = canonical_form(graph, max_n=max_n)
    m = graph.n * (graph.n - 1) // 2
    mask = int.from_bytes(form, "big") >> (8 * len(form) - m) if form else 0
    return _mask_to_graph(graph.n, mask, edge_pairs(graph.n))


def all_graphs(n: int, *, limit: int = ALL_GRAPHS_LIMIT):
    """One (form, graph) pair per isomorphism class on n vertices, by labeled
    enumeration with orbit dedup, in increasing order of form.

    Each mask visited first is the minimum of its orbit, so ``form`` equals
    ``canonical_form(graph)`` and ``graph`` equals ``canonical_graph(graph)``
    without the n! search either would make."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    if n > limit:
        raise ResourceLimitError(f"labeled enumeration walks 2^C(n,2) graphs; n={n} > {limit}")
    pairs = edge_pairs(n)
    m = len(pairs)
    nperm = factorial(n)
    perm_maps = np.empty((nperm, m), dtype=np.int64)
    for pi, perm in enumerate(itertools.permutations(range(n))):
        for i, (u, v) in enumerate(pairs):
            pu, pv = perm[u], perm[v]
            if pu > pv:
                pu, pv = pv, pu
            perm_maps[pi, edge_index(n, pu, pv)] = i
    shifts = (m - 1 - np.arange(m)).astype(np.int64)
    weights = (np.int64(1) << shifts).astype(np.int64)
    seen = np.zeros(1 << m, dtype=bool)
    for mask in range(1 << m):
        if seen[mask]:
            continue
        bits = ((mask >> shifts) & 1).astype(np.int64)
        orbit = bits[perm_maps] @ weights
        seen[orbit] = True
        yield _mask_to_bytes(mask, m), _mask_to_graph(n, mask, pairs)


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62)


def graph6_encode(graph: Graph) -> str:
    n = graph.n
    if n > 62:
        raise InvalidParameterError("short-form graph6 covers n <= 62 only")
    chars = [chr(n + 63)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if graph.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    for g in range(0, len(bits), 6):
        val = 0
        for b in bits[g:g + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return "".join(chars)


def graph6_decode(text: str) -> Graph:
    if not text:
        raise ParseError("empty graph6 string", offset=0)
    c0 = ord(text[0])
    if c0 == 126:
        raise ParseError("long-form graph6 is not supported", offset=0)
    if not 63 <= c0 <= 125:
        raise ParseError(f"bad order byte {text[0]!r}", offset=0)
    n = c0 - 63
    if n == 0:
        raise ParseError("order-0 graphs are rejected", offset=0)
    m = comb(n, 2)
    nchars = (m + 5) // 6
    if len(text) != 1 + nchars:
        raise ParseError(
            f"expected {1 + nchars} bytes for n={n}, got {len(text)}",
            offset=min(len(text), 1 + nchars),
        )
    bits = []
    for i, ch in enumerate(text[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ParseError(f"bad data byte {ch!r}", offset=i)
        for k in range(5, -1, -1):
            bits.append(val >> k & 1)
    for extra in range(m, len(bits)):
        if bits[extra]:
            raise ParseError("nonzero padding bits", offset=1 + extra // 6)
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# edge-list text format and graph names


def format_edge_list(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty edge list", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n m'", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must hold two integers", line=1) from None
    if n < 1:
        raise ParseError("order-0 graphs are rejected", line=1)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", line=len(lines))
    edges = []
    seen = set()
    for no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", line=no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge line must hold two integers", line=no) from None
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"bad edge ({u}, {v})", line=no)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge ({u}, {v})", line=no)
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def graph_from_name(name: str) -> Graph:
    """Build a graph from a short name (K5, K2,3, C5, B4) or a graph6 string."""
    s = name.strip()
    if len(s) > 1 and s[0] in "KCB":
        body = s[1:]
        try:
            if s[0] == "K" and "," in body:
                a, b = body.split(",", 1)
                return complete_bipartite(int(a), int(b))
            if s[0] == "K":
                return complete(int(body))
            if s[0] == "C":
                return cycle(int(body))
            if s[0] == "B":
                return book(int(body))
        except ValueError:
            pass  # fall through to graph6
    return graph6_decode(s)
