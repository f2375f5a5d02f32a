"""Small-graph toolkit: bit-vector graphs, named families, statistics, isomorphism, graph6.

Vertices are 0..n-1 and adjacency is kept as one integer bitmask per vertex,
so neighborhood intersections are single ``&`` operations.  Everything here is
sized for exhaustive work on graphs of at most a dozen or so vertices.
"""

from __future__ import annotations

import itertools
from math import comb, sqrt
from operator import attrgetter

# numpy is imported only inside _relabel_weights and all_graphs: at module
# level it would add its start-up time to every CLI run, most of which never use it
from .errors import InvalidParameterError, ParseError, ResourceLimitError

# Enumerating isomorphism classes walks all 2^C(n,2) labeled graphs.
ALL_GRAPHS_LIMIT = 7
# Canonical forms minimize over all n! vertex permutations.
CANONICAL_LIMIT = 8
# Default bound on the search nodes of one enumeration call.
DEFAULT_NODE_BUDGET = 10**9
# The CLI's parser reads the defaults below without loading the modules that
# use them, so they live here beside the budget.
# containers: colorings a cover certificate samples, and the cap on the
# container constant c for k = 3: 1000 * (3!)^3 * 3
DEFAULT_SAMPLE_SIZE = 10_000
DEFAULT_C_CAP = 648000.0
# templates: the triangle classification modes
TALLY_MODES = ("complete", "dense-generic", "dense4")
# Most vertices of a named family (K_n, K_{a,b}, C_n, B_q).  A graph holds n
# adjacency rows of up to n bits, so K_n at this cap would hold 512 MiB.  A
# larger family is refused before it is built.
FAMILY_VERTEX_LIMIT = 1 << 16


def decimal_digits(value: int) -> str:
    """Decimal digits of an exact integer.  str() refuses ints past the
    interpreter's digit limit (4300 by default); Decimal is not bound by it."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(value))


def parse_digits(text: str) -> int:
    """The count that a string of ASCII decimal digits spells, the inverse of
    :func:`decimal_digits` on counts, past the digit limit too; anything else
    (a sign, spaces, underscores, other scripts' digits) is a ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a string of decimal digits: {text[:20]!r}")
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal
        return int(Decimal(text))


def edge_index(n: int, u: int, v: int) -> int:
    """Position of the pair (u, v), u < v, in lexicographic order over [n]."""
    if not 0 <= u < v < n:
        raise InvalidParameterError(f"not an ordered vertex pair for n={n}: ({u}, {v})")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def edge_pairs(n: int) -> list[tuple[int, int]]:
    """All vertex pairs of [n] in lexicographic order; position matches edge_index."""
    return list(itertools.combinations(range(n), 2))


class _RecordType(type):
    """Makes the fields a record class annotates its ``__slots__``, in order,
    and gives it ``_key``, which reads them all at once.  The annotations are
    read from the class body, where ``from __future__ import annotations``
    keeps them as strings."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = fields
        if fields:
            namespace["_key"] = attrgetter(*fields)
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_RecordType):
    """Immutable value with the fields its subclass annotates.

    Construction takes the fields positionally or by name, equality and
    hashing go by the fields within one class, and assigning a field raises
    ``AttributeError``.  Each class is built by a plain class statement, with
    no method generated for it, so that importing the package stays cheap.
    """

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs:
            args += tuple([kwargs.pop(name) for name in fields[len(args):] if name in kwargs])
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({values})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class Graph(Record):
    """Simple undirected graph with bit-vector adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]):
        super().__init__(n, adj)
        if self.n < 1:
            raise InvalidParameterError("graphs need at least one vertex")
        if len(self.adj) != self.n:
            raise InvalidParameterError("adjacency length differs from vertex count")
        n, rows = self.n, self.adj
        bits = 0
        for u, row in enumerate(rows):
            if row >> n:
                raise InvalidParameterError(f"neighbor bits out of range at vertex {u}")
            if row >> u & 1:
                raise InvalidParameterError(f"loop at vertex {u}")
            bits += row.bit_count()
        # symmetric when each bit above the diagonal has its mirror and they
        # are half of all bits.  A graph denser than half of all pairs is
        # checked on its complement, which is symmetric when it is and has
        # fewer bits to visit
        if bits > n * (n - 1) // 2:
            full = (1 << n) - 1
            rows = [full ^ row ^ 1 << u for u, row in enumerate(rows)]
            bits = n * (n - 1) - bits
        for u, row in enumerate(rows):
            row >>= u + 1
            while row:
                bit = row & -row
                row ^= bit
                v = u + bit.bit_length()
                if not rows[v] >> u & 1:
                    raise InvalidParameterError(f"asymmetric adjacency at ({u}, {v})")
                bits -= 2
        if bits:
            # a bit below the diagonal has no mirror above it
            for v, row in enumerate(rows):
                row &= (1 << v) - 1
                while row:
                    bit = row & -row
                    row ^= bit
                    u = bit.bit_length() - 1
                    if not rows[u] >> v & 1:
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
        edges = self.edges()
        return [(*edges[ab], edges[bc][1]) for ab, _, bc in _triangle_edges(self.adj, edges)]

    def triangle_edges(self) -> list[tuple[int, int, int]]:
        """Each triangle a < b < c, in lexicographic order, as the positions
        of its edges ab, ac, bc in ``edges()``; on ``complete(n)`` these are
        ``edge_index`` slots."""
        return _triangle_edges(self.adj, self.edges())

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


def _triangle_edges(adj, edges: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """:meth:`Graph.triangle_edges` of the graph with rows ``adj``, given
    its ``edges()``, for a caller that already holds them."""
    # the position of edge ab, a < b, keyed by a * n + b
    n = len(adj)
    at = {a * n + b: i for i, (a, b) in enumerate(edges)}
    out = []
    for ab, (a, b) in enumerate(edges):
        common = adj[a] & adj[b] & -(2 << b)
        if common:
            a *= n
            b *= n
            while common:
                bit = common & -common
                common ^= bit
                c = bit.bit_length() - 1
                out.append((ab, at[a + c], at[b + c]))
    return out


# ---------------------------------------------------------------------------
# named families


def _check_family(vertices: int) -> None:
    # the size is not printed: a + b may be past the digits str() prints
    if vertices > FAMILY_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"the graph would have more than {FAMILY_VERTEX_LIMIT} vertices, too many to build")


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    _check_family(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidParameterError("complete bipartite graph needs both sides nonempty")
    _check_family(a + b)
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    rows = [right] * a + [left] * b
    return Graph(a + b, tuple(rows))


def book(q: int) -> Graph:
    """Book with q pages: base edge {0, 1}, pages 2..q+1 joined to both ends."""
    if q < 0:
        raise InvalidParameterError("book needs q >= 0 pages")
    _check_family(q + 2)
    edges = [(0, 1)]
    for p in range(2, q + 2):
        edges.append((0, p))
        edges.append((1, p))
    return Graph.from_edges(q + 2, edges)


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    _check_family(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# statistics


def booksize(graph: Graph) -> int:
    """Largest number of common neighbors over the endpoint pairs of edges."""
    return booksize_edge(graph)[0]


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


def max_k_partite_edges(graph: Graph, k: int, *,
                        node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest edge count of a spanning k-partite subgraph (exact max k-cut).

    Branch and bound over vertex-to-part assignments with symmetry breaking:
    vertex 0 always sits in part 0 and a vertex may only open one new part.
    Every branch node costs one unit of node_budget.
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
    nodes = 0
    parts = [0] * k

    def rec(v: int, cut: int, used: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError("node budget exhausted during the max k-cut search",
                                     nodes_visited=nodes)
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


def t_far(graph: Graph, k: int, t: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True when removing fewer than t edges cannot make the graph k-partite."""
    if t < 0:
        raise InvalidParameterError("t must be >= 0")
    return graph.edge_count - max_k_partite_edges(graph, k, node_budget=node_budget) >= t


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


def _relabel_weights(n: int):
    """The (n!, C(n,2)) int64 numpy array whose entry (p, i) is the
    packed-mask bit that pair i of ``edge_pairs(n)`` sets after the p-th
    vertex permutation, so a mask with pair bits b relabels to ``table @ b``."""
    import numpy as np

    pairs = edge_pairs(n)
    slot = np.zeros((n, n), dtype=np.int64)
    for i, (u, v) in enumerate(pairs):
        slot[u, v] = slot[v, u] = i
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return np.int64(1) << (len(pairs) - 1 - slot[perms[:, u], perms[:, v]])


def canonical_form(graph: Graph) -> bytes:
    """Canonical adjacency encoding: minimal packed edge bitstring over all n!
    vertex relabelings.  Two graphs are isomorphic iff their forms are equal."""
    n = graph.n
    if n > CANONICAL_LIMIT:
        raise ResourceLimitError(
            f"canonical form minimizes over n! permutations; n={n} > {CANONICAL_LIMIT}")
    slots = [edge_index(n, u, v) for u, v in graph.edges()]
    best = int(_relabel_weights(n)[:, slots].sum(axis=1).min())
    return _mask_to_bytes(best, comb(n, 2))


def canonical_graph(graph: Graph) -> Graph:
    """The isomorphism-class representative whose encoding is canonical_form."""
    form = canonical_form(graph)
    m = graph.n * (graph.n - 1) // 2
    mask = int.from_bytes(form, "big") >> (8 * len(form) - m) if form else 0
    return _mask_to_graph(graph.n, mask, edge_pairs(graph.n))


def all_graphs(n: int):
    """One graph per isomorphism class on n vertices, by labeled enumeration
    with orbit dedup, in increasing order of ``canonical_form``.

    Each mask visited first is the minimum of its orbit, so every graph
    equals its ``canonical_graph`` without the n! search that would make."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    if n > ALL_GRAPHS_LIMIT:
        raise ResourceLimitError(
            f"labeled enumeration walks 2^C(n,2) graphs; n={n} > {ALL_GRAPHS_LIMIT}")
    import numpy as np

    pairs = edge_pairs(n)
    m = len(pairs)
    weights = _relabel_weights(n)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    # the slot past the last mask is never reached and ends the walk
    unseen = np.ones((1 << m) + 1, dtype=bool)
    mask = 0
    while mask < 1 << m:
        unseen[weights @ ((mask >> shifts) & 1)] = False
        yield _mask_to_graph(n, mask, pairs)
        # the next class starts at the first mask that no orbit has reached
        mask += 1 + int(unseen[mask + 1:].argmax())


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


def content_lines(text: str):
    """Yield (physical line number, stripped line) for each line of ``text``
    that is neither blank nor a ``#`` comment, so errors name the line a
    reader sees."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield no, line


def parse_edge_list(text: str) -> Graph:
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("empty edge list", line=1)
    head_no, head = lines[0][0], lines[0][1].split()
    if len(head) != 2:
        raise ParseError("header must be 'n m'", line=head_no)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must hold two integers", line=head_no) from None
    if n < 1:
        raise ParseError("order-0 graphs are rejected", line=head_no)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", line=lines[-1][0])
    edges = []
    seen = set()
    for no, ln in lines[1:]:
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
        parts = body.split(",", 1) if s[0] == "K" else [body]
        try:
            sizes = [int(part) for part in parts]
        except ValueError:
            pass  # not a family name: fall through to graph6
        else:
            # a body int() accepts holds a digit, a byte below graph6's range,
            # so a bad size is the family's error and never a graph6 string
            if len(sizes) == 2:
                return complete_bipartite(*sizes)
            return {"K": complete, "C": cycle, "B": book}[s[0]](*sizes)
    return graph6_decode(s)
