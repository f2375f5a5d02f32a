"""Exact counting of Gallai colorings: edge colorings with no rainbow triangle.

Two independent counting routes are kept side by side on purpose:

* :func:`count_gallai_naive` sweeps the full product space of colorings with
  vectorized triangle checks and no search cleverness at all, and
* :func:`count_gallai` backtracks over edges with rainbow pruning,
  forced-color propagation and color-symmetry breaking.

For K_n alone, :func:`count_complete` is a third route: it reads the count
off the recurrences of Gallai's decomposition, without a search, and
:func:`sample_complete` walks the same tables down to draw its colorings
uniformly.

Counts are plain Python integers, so they never overflow or round.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import random
import sys
from math import comb, log2, prod

# numpy is imported only inside scan_colorings, and fractions only inside
# asymptotic_bounds: at module level they would add their start-up time to
# every CLI run, most of which never use them
from .errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from .graphs import DEFAULT_NODE_BUDGET, Graph, Record, edge_pairs

# colorings per array of the full sweep
_SCAN_CHUNK = 1 << 16
# stack frames kept free below the recursion limit for the search's callers
_CALLER_FRAMES = 200
# most bits in a star truth table: the product of the star edges' palette sizes
_STAR_TABLE_BITS = 1 << 12
# largest n whose bounds are built exactly: 2^C(n,2) has C(n,2) bits, and
# printing the two-color bound in decimal takes 0.03 s at n = 500 but 0.48 s
# at n = 1000 (2-vCPU Xeon, Python 3.11), growing quadratically
EXACT_BOUNDS_LIMIT = 500
# widest entry of the K_n decomposition tables that are built, taken as
# C(n,2) + (n - 1) bit_length(r) bits: the rows through n take O(n^3) products
# of such integers, so a cap on n alone is not enough: n = 150 took 22 s at
# r = 2^144.  At this cap r = 3 reaches n = 153 in 1.5 s, r = 2^20 n = 136 in
# 0.8 s, r = 2^144 n = 68 in 0.4 s and r = 10^400 n = 9 (2-vCPU Xeon,
# Python 3.11)
COMPLETE_BITS = 12_000
# K_n decomposition tables kept at once, one per r: a table grown to the
# COMPLETE_BITS cap holds about 3.7 MiB (r = 3 through K_153), so a process
# that sweeps r keeps at most about 60 MiB; an evicted r is rebuilt on use
_DECOMPOSITION_TABLES = 16


class Coloring:
    """Total edge coloring with colors 1..r, keyed by normalized (u, v) pairs."""

    __slots__ = ("colors", "r")

    def __init__(self, colors, r: int):
        if r < 1:
            raise InvalidParameterError("need r >= 1 colors")
        norm: dict[tuple[int, int], int] = {}
        for (u, v), c in dict(colors).items():
            if u == v:
                raise InvalidInputError(f"loop edge ({u}, {v})")
            if u > v:
                u, v = v, u
            if not 1 <= c <= r:
                raise InvalidInputError(f"color {c} outside 1..{r}")
            norm[(u, v)] = c
        self.colors = norm
        self.r = r

    @classmethod
    def from_sequence(cls, graph: Graph, seq, r: int) -> "Coloring":
        """Colors assigned to graph.edges() in order."""
        seq = list(seq)
        edges = graph.edges()
        if len(seq) != len(edges):
            raise InvalidInputError(f"expected {len(edges)} colors, got {len(seq)}")
        return cls(dict(zip(edges, seq)), r)

    def color(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.colors[(u, v)]

    def used_colors(self) -> set[int]:
        return set(self.colors.values())

    def __eq__(self, other):
        return isinstance(other, Coloring) and self.r == other.r and self.colors == other.colors

    def __repr__(self):
        return f"Coloring(r={self.r}, {self.colors!r})"


def _check_total(graph: Graph, coloring: Coloring) -> None:
    """Raise unless the coloring's keys are exactly the graph's edges.  Keys
    are distinct pairs u < v, so as many keys as edges, each one an edge,
    decides it without building the edge list."""
    n, adj = graph.n, graph.adj
    if len(coloring.colors) == graph.edge_count and all(
            0 <= u and v < n and adj[u] >> v & 1 for u, v in coloring.colors):
        return
    edges = set(graph.edges())
    dom = set(coloring.colors)
    if dom != edges:
        missing = sorted(edges - dom)[:3]
        extra = sorted(dom - edges)[:3]
        raise InvalidInputError(f"coloring domain mismatch: missing={missing} extra={extra}")


def is_gallai(graph: Graph, coloring: Coloring) -> bool:
    """True when no triangle of the graph carries three distinct colors."""
    _check_total(graph, coloring)
    col = coloring.colors
    for a, b, c in graph.triangles():
        x, y, z = col[(a, b)], col[(a, c)], col[(b, c)]
        if x != y and y != z and x != z:
            return False
    return True


# ---------------------------------------------------------------------------
# naive route: full enumeration with vectorized triangle checks


def _sweep_size(graph: Graph, r: int, node_budget: int) -> int:
    """r^e(G), the colorings a full sweep walks, once the node budget admits them.

    r^e is at least 2^((bits of r - 1)·e), so a sweep whose floor has as many
    bits as the budget is refused before the power is built: a huge r would
    spend seconds on it.  The refusal names r and e by size, since the digits
    of r^e may be past what str() prints."""
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    e = graph.edge_count
    if (r.bit_length() - 1) * e < node_budget.bit_length():
        total = r**e
        if total <= node_budget:
            return total
    raise ResourceLimitError(f"r^e colorings exceed the node budget {node_budget} "
                             f"(e = {e} edges, r of {r.bit_length()} bits)")


def scan_colorings(graph: Graph, r: int, *, node_budget: int = DEFAULT_NODE_BUDGET):
    """Sweep all r^e(G) colorings in chunks, in lexicographic order.

    Yields (colors, gallai) pairs where ``colors`` is an (N, e) array of
    0-based colors aligned with graph.edges(), in the smallest unsigned dtype
    that holds r, and ``gallai`` flags the rows with no rainbow triangle.
    The sweep is plain mixed-radix enumeration with the last edge varying
    fastest: column i holds the digit of weight r^(e-1-i) of the row's index.
    """
    import numpy as np

    total = _sweep_size(graph, r, node_budget)
    m = graph.edge_count
    triples = graph.triangle_edges()
    dtype = np.min_scalar_type(r)
    for start in range(0, total, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        cols = np.empty((stop - start, m), dtype=dtype)
        for i in reversed(range(m)):
            idx, cols[:, i] = np.divmod(idx, r)
        ok = np.ones(stop - start, dtype=bool)
        for a, b, c in triples:
            ca, cb, cc = cols[:, a], cols[:, b], cols[:, c]
            ok &= ~((ca != cb) & (cb != cc) & (ca != cc))
        yield cols, ok


def count_gallai_naive(graph: Graph, r: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact Gallai coloring count by full enumeration of all r^e(G) colorings."""
    total = _sweep_size(graph, r, node_budget)
    if not graph.triangle_edges():
        return total
    return sum(int(ok.sum()) for _, ok in scan_colorings(graph, r, node_budget=node_budget))


def gallai_colorings(graph: Graph, r: int, *, node_budget: int = DEFAULT_NODE_BUDGET):
    """Yield every Gallai coloring as a 1-based color tuple over graph.edges(),
    in lexicographic order: the flagged rows of :func:`scan_colorings`."""
    for cols, ok in scan_colorings(graph, r, node_budget=node_budget):
        yield from map(tuple, (cols[ok] + 1).tolist())


# ---------------------------------------------------------------------------
# pruned route: backtracking with propagation


def _edge_triangles(m: int, triples) -> list[list[tuple[int, int]]]:
    """For each of the m edges, the other two edges of each of its triangles."""
    tri_of_edge: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for a, b, c in triples:
        tri_of_edge[a].append((b, c))
        tri_of_edge[b].append((a, c))
        tri_of_edge[c].append((a, b))
    return tri_of_edge


def _edge_components(tri_of_edge: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Group edges that interact through triangles, each group sorted and the
    groups by their first edge; singletons are free edges."""
    seen = [False] * len(tri_of_edge)
    groups = []
    for e in range(len(tri_of_edge)):
        if seen[e]:
            continue
        seen[e] = True
        group = [e]
        for x in group:
            for f, g in tri_of_edge[x]:
                if not seen[f]:
                    seen[f] = True
                    group.append(f)
                if not seen[g]:
                    seen[g] = True
                    group.append(g)
        group.sort()
        groups.append(group)
    return groups


class _Memo(dict):
    """A table that computes ``build(key)`` the first time a key is read."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _StarTable:
    """Truth tables that count the colorings of a star in one step.

    The star edges e_0..e_{s-1} share a vertex v, and bit j of a row stands
    for the coloring of the star whose digit i, in the mixed radix
    ``radix`` of the palette sizes, picks color ``choices[i][digit]`` of
    e_i.  ``rows(i)`` holds, keyed by a color mask, the row of the
    colorings whose e_i takes a color of the mask; ``doms`` pairs each e_i
    that the prefix narrows with those rows, to be keyed by its candidates.
    Two star edges va and vb share only the triangle vab, and ``pair(i,
    j)`` gives its row for a color bit of ab: the colorings that leave vab
    not rainbow.  The live colorings under a colored prefix are the bits
    set in ``ones`` and in every row that its candidates and colors select.

    A prefix that used the colors below k may give the star new colors only
    in canonical order, the rule the search branches by.  ``fresh[k]`` lists
    the rows M_{k,t}: the colorings whose colors of k and above are exactly
    k..k+t-1, each first used, in star order, after the one below it.  At
    or past ``width``, past every palette's highest color, no color is new
    and the list is [ones].  Rows are built the first time they are read.
    A star of no edges has one coloring, ``ones`` = 1.
    """

    __slots__ = ("ones", "width", "choices", "radix", "single", "doms", "fresh")

    def __init__(self, star: list[int], masks: list[int], narrowed: set[int]):
        choices = []
        radix = []
        size = 1
        every = 0
        for e in star:
            palette = masks[e]
            every |= palette
            bits = []
            while palette:
                bits.append(palette & -palette)
                palette &= palette - 1
            choices.append(bits)
            radix.append(size)
            size *= len(bits)
        ones = (1 << size) - 1
        width = every.bit_length()
        # single[i] maps each color bit of e_i's palette to the row of the
        # colorings where e_i takes it: digit i's run of radix[i] ones, which
        # repeats once per period of the digit
        single = []
        for bits, low in zip(choices, radix):
            run = ((1 << low) - 1) * (ones // ((1 << low * len(bits)) - 1))
            rows = {}
            for bit in bits:
                rows[bit] = run
                run <<= low
            single.append(rows)

        # below[i][d]: the colorings where e_i takes one of its first d colors
        below: list[list[int]] = []

        def new_colors(k: int) -> list[int]:
            """M_{k,0}, M_{k,1}, ...: after digit i, found[t] holds the
            colorings whose digits up to i are canonical with t new colors;
            digit i keeps t with a color below k + t or opens color k + t."""
            if k >= width:
                return [ones]
            if not below:
                for rows in single:
                    runs = [0]
                    for row in rows.values():
                        runs.append(runs[-1] | row)
                    below.append(runs)
            found = [ones]
            for e, rows, runs in zip(star, single, below):
                kept = runs[(masks[e] & ((1 << k) - 1)).bit_count()]
                grown = [0] * (len(found) + 1)
                for t, row in enumerate(found):
                    opened = rows.get(1 << k + t, 0)
                    grown[t] |= row & kept
                    grown[t + 1] = row & opened
                    kept |= opened
                found = grown
            # no palette holds a color from width on
            return found[:width - k + 1]

        self.ones = ones
        self.width = width
        self.choices = choices
        self.radix = radix
        self.single = single
        self.doms = [(e, self.rows(i)) for i, e in enumerate(star) if e in narrowed]
        self.fresh = _Memo(new_colors)

    def rows(self, i: int) -> _Memo:
        """Rows of the colorings whose e_i takes a color of the key mask."""
        single = self.single[i]

        def digits(colors: int) -> int:
            block = 0
            for bit, row in single.items():
                if colors & bit:
                    block |= row
            return block

        return _Memo(digits)

    def pair(self, i: int, j: int):
        """The row of the colorings that leave the triangle through star edges
        i and j not rainbow, for a color bit of its third edge; the row of
        equal colors is built on the first call."""
        single_i, single_j = self.single[i], self.single[j]
        same = []

        def not_rainbow(color: int) -> int:
            if not same:
                same.append(0)
                for bit, row in single_i.items():
                    if bit in single_j:
                        same[0] |= row & single_j[bit]
            return same[0] | single_i.get(color, 0) | single_j.get(color, 0)

        return not_rainbow


class _ComponentPlan:
    """Search plan for one triangle-connected component that has a triangle.

    The search branches on ``order[:leaf_start]``, narrowing by ``narrow``,
    and ends there in one leaf that counts the last two stars of the order,
    A = order[leaf_start:star_start] and B = order[star_start:], in one
    step.  One rule grows both stars backwards, B from the end of the order
    and A from B, one edge at a time: an edge joins while the star's edges
    share a vertex, their palette sizes multiply to at most
    ``_STAR_TABLE_BITS`` and no triangle through it has one edge past the
    star and one before the edge, which holds for every edge of B.  Either
    star may be empty: B when the last edge's palette alone is wider than a
    table, A when the edge before B closes a triangle with B and an earlier
    edge.  ``count_gallai`` plans with full palettes of its window's width,
    so its stars hold up to log_width(_STAR_TABLE_BITS) edges.

    So no triangle holds a prefix edge, an edge of A and an edge of B, and
    none holds two edges of A and one of B: when the later of the two A
    edges joined A, the earlier one still lay before it.  What ties A to B
    is B's pair rows keyed by the colors of A's edges, which depend on A's
    coloring j alone; ``cross[j]`` is their AND, and ``cross`` is None when
    no triangle holds edges of both, A empty among them.  ``star`` holds B's
    tables, ``lead`` A's, and ``levels[k]`` the new-color rows of both stars
    at level k: (M_{k,t} of A, [(k + t + u, M_{k+t,u} of B), ...]) for each
    t.  From level ``window`` on, past both stars' palettes, that list is
    the one pair of all colorings.

    The live colorings of both stars travel as one int: B's row shifted
    ``shift`` bits, A's width, above A's row, starting from ``live``, all
    of both.  A prefix edge's color selects at most one pair row of each
    star, of the triangle it closes with the star's vertex, and
    ``keys[pos]`` holds, keyed by the color bit of order[pos], those two
    rows packed the same way, all of a star that the edge keys no row of;
    it is None where the edge keys neither.  All are built with the plan;
    the rows of ``keys``, ``cross``, ``levels`` and the tables are filled
    in the first time the search reads them, and live as long as the plan:
    one call.
    """

    __slots__ = ("order", "narrow", "leaf_start", "star_start", "star", "lead", "shift",
                 "live", "keys", "window", "cross", "levels")

    def __init__(self, comp: list[int], tri_of_edge: list[list[tuple[int, int]]],
                 ends: list[tuple[int, int]], masks: list[int]):
        # greedy: close as many fully-placed triangles as possible, ties by edge
        # id; an edge's score rises when a placed edge is the second of one of
        # its triangles, and a heap entry is stale once the score has moved on
        m = len(tri_of_edge)
        score = [0] * m
        # comp is sorted, so already a heap
        heap = [(0, e) for e in comp]
        placed = [False] * m
        order: list[int] = []
        while heap:
            neg, e = heapq.heappop(heap)
            if placed[e] or -neg != score[e]:
                continue
            order.append(e)
            placed[e] = True
            for f, g in tri_of_edge[e]:
                if placed[f] == placed[g]:
                    continue
                third = f if placed[g] else g
                score[third] += 1
                heapq.heappush(heap, (-score[third], third))
        # positions in the order, read only at this component's edges
        pos = [0] * m
        for i, e in enumerate(order):
            pos[e] = i

        def grow(stop: int) -> int:
            """Start of the star that ends at ``stop``, grown by the rule above."""
            common = -1
            bits = 1
            start = stop
            while start:
                i = start - 1
                e = order[i]
                u, v = ends[e]
                common &= 1 << u | 1 << v
                bits *= masks[e].bit_count()
                if not common or bits > _STAR_TABLE_BITS:
                    return start
                for f, g in tri_of_edge[e]:
                    pf, pg = pos[f], pos[g]
                    if (pf < i and pg >= stop) or (pg < i and pf >= stop):
                        return start
                start = i
            return start

        star_start = grow(len(order))
        leaf_start = grow(star_start)
        # the search narrows only at the positions it branches on
        narrow: list[tuple[tuple[int, int], ...]] = []
        narrowed = set()
        for i, e in enumerate(order[:leaf_start]):
            pairs = []
            for f, g in tri_of_edge[e]:
                pf, pg = pos[f], pos[g]
                if pf < i < pg:
                    pairs.append((f, g))
                    narrowed.add(g)
                elif pg < i < pf:
                    pairs.append((g, f))
                    narrowed.add(f)
            narrow.append(tuple(pairs))
        self.order = order
        self.narrow = narrow
        self.star_start = star_start
        self.leaf_start = leaf_start
        self.star = star = _StarTable(order[star_start:], masks, narrowed)
        self.lead = lead = _StarTable(order[leaf_start:star_start], masks, narrowed)

        def pairs_of(start: int, stop: int):
            """(i, j, third edge) for each triangle through edges i < j of
            the star order[start:stop]; its third edge comes before both."""
            for i in range(start, stop):
                for f, g in tri_of_edge[order[i]]:
                    if pos[g] > pos[f]:
                        f, g = g, f
                    if i < pos[f] < stop:
                        yield i - start, pos[f] - start, g

        # a triangle through two edges of B has its third edge in the prefix
        # or in A, where B's pair rows are keyed by that edge's digit; one
        # through two edges of A has it in the prefix.  A star at v has one
        # triangle through ab, vab, so a prefix edge keys at most one pair
        # row of each star: sides[position] = [B's, A's]
        sides: dict[int, list] = {}
        keyed = []
        for i, j, ab in pairs_of(star_start, len(order)):
            rows = star.pair(i, j)
            if pos[ab] < leaf_start:
                sides[pos[ab]] = [rows, None]
            else:
                a = pos[ab] - leaf_start
                keyed.append((lead.choices[a], lead.radix[a], _Memo(rows)))
        for i, j, ab in pairs_of(leaf_start, star_start):
            sides.setdefault(pos[ab], [None, None])[1] = lead.pair(i, j)
        shift = lead.ones.bit_length()

        def packed(high, low) -> _Memo:
            """One prefix edge's rows keyed by its color bit: B's shifted
            above A's, all of a star where it keys no row."""
            return _Memo(lambda color: (high(color) if high else star.ones) << shift
                         | (low(color) if low else lead.ones))

        def admitted(j: int) -> int:
            row = star.ones
            for bits, low, rows in keyed:
                row &= rows[bits[j // low % len(bits)]]
            return row

        def level(k: int) -> list[tuple[int, list[tuple[int, int]]]]:
            return [(head, [(w, row) for w, row in enumerate(star.fresh[t], t) if row])
                    for t, head in enumerate(lead.fresh[k], k) if head]

        self.shift = shift
        self.live = star.ones << shift | lead.ones
        self.keys = [None] * leaf_start
        for p, (high, low) in sides.items():
            self.keys[p] = packed(high, low)
        self.window = max(star.width, lead.width)
        self.cross = _Memo(admitted) if keyed else None
        self.levels = _Memo(level)


def _exhausted(meter: list[int]) -> ResourceLimitError:
    return ResourceLimitError("node budget exhausted during backtracking",
                              nodes_visited=meter[1] - meter[0])


class _Searcher:
    """Backtracking counter over the component plans of one call.

    Assigning a color to an edge narrows the candidate palettes of the yet
    unassigned third edges of its triangles to the two colors already present,
    so a branch dies the moment a rainbow triangle becomes unavoidable.

    Level k of ``run(pos, k)`` is the number of colors the prefix has used.
    While k is inside the new-color window, an edge may take a color already
    used or the lowest one not yet used, bit k; every other color would only
    relabel the same coloring.  A palette search starts past the window with
    weight 1, so it sees every candidate as given.

    ``run(pos, k, live)`` carries the stars' live colorings down the
    prefix as the plan's packed int: a child ANDs the one entry of
    ``keys[pos]`` for its color, and a child whose B half is then empty has
    no coloring to count and is cut before its narrowing.  Every search
    ends at its plan's ``leaf_start`` with one leaf that counts the
    colorings of its two stars under the colored prefix.  It splits the int
    into L, B's live colorings, and V, A's, and ANDs in only the rows of
    the star edges whose candidates the prefix narrowed; the count is the
    sum over s in V of popcount(L & cross[s]), or |V| popcount(L) with no
    cross rows.  Past the window every coloring has weight ``weight[k]``,
    which multiplies that sum once.  Inside it, split by new colors, A's
    rows M_{k,t} pick the s that open t colors and B's rows M_{k+t,u} the
    completions that open u more, and each (t, u) sum is multiplied once by
    ``weight[k + t + u]``.  Every color tried at a branching level costs
    one node, charged before the colors are tried, so a cut child has cost
    its node; a leaf costs one node per s in V that it sums, and at least
    one, charged once it has summed.  One meter covers every component of
    the call.
    """

    __slots__ = ("plan", "cand", "colors", "meter", "weight")

    def __init__(self, masks: list[int], node_budget: int, weight):
        self.plan: _ComponentPlan | None = None
        self.cand = list(masks)
        self.colors = [0] * len(masks)
        # [nodes left, budget]
        self.meter = [node_budget, node_budget]
        self.weight = weight

    def count(self, plans: list[_ComponentPlan], start: int) -> int:
        """Product of the component counts, each searched from level start;
        a finished search leaves every candidate palette as it found it."""
        total = 1
        for plan in plans:
            self.plan = plan
            total *= self.run(0, start, plan.live)
            if total == 0:
                return 0
        return total

    def run(self, pos: int, k: int, live: int) -> int:
        plan = self.plan
        cand = self.cand
        meter = self.meter
        if pos == plan.leaf_start:
            tail = live >> plan.shift
            for e, dom in plan.star.doms:
                tail &= dom[cand[e]]
            lead = plan.lead
            live &= lead.ones
            for e, dom in lead.doms:
                live &= dom[cand[e]]
            total = 0
            nodes = 0
            if tail and live:
                cross = plan.cross
                weight = self.weight
                if k >= plan.window:
                    # every coloring of both stars has weight[k]
                    nodes = live.bit_count()
                    if cross is None:
                        found = nodes * tail.bit_count()
                    else:
                        found = 0
                        while live:
                            low = live & -live
                            live ^= low
                            found += (tail & cross[low.bit_length() - 1]).bit_count()
                    total = weight[k] * found
                else:
                    for head, rows in plan.levels[k]:
                        head &= live
                        if not head:
                            continue
                        size = head.bit_count()
                        nodes += size
                        if cross is None:
                            for w, row in rows:
                                total += weight[w] * size * (tail & row).bit_count()
                            continue
                        parts = []
                        while head:
                            low = head & -head
                            head ^= low
                            parts.append(tail & cross[low.bit_length() - 1])
                        for w, row in rows:
                            found = 0
                            for part in parts:
                                found += (part & row).bit_count()
                            total += weight[w] * found
            meter[0] -= nodes or 1
            if meter[0] < 0:
                raise _exhausted(meter)
            return total
        colors = self.colors
        e = plan.order[pos]
        pairs = plan.narrow[pos]
        keys = plan.keys[pos]
        total = 0
        fresh = 1 << k
        mask = cand[e] & ((fresh << 1) - 1)
        meter[0] -= mask.bit_count()
        if meter[0] < 0:
            raise _exhausted(meter)
        # the child's B half is empty when its int is below this
        top = 1 << plan.shift
        child = live
        while mask:
            bit = mask & -mask
            mask ^= bit
            if keys is not None:
                child = live & keys[bit]
                if child < top:
                    continue
            colors[e] = bit
            trail = []
            for f, g in pairs:
                d = colors[f]
                if d == bit:
                    continue
                old = cand[g]
                new = old & (bit | d)
                if new != old:
                    if not new:
                        break
                    trail.append((g, old))
                    cand[g] = new
            else:
                total += self.run(pos + 1, k + 1 if bit == fresh else k, child)
            for g, old in trail:
                cand[g] = old
        return total


def _component_floor(graph: Graph, cap: int) -> int:
    """A lower bound on the edges of the largest triangle-connected component,
    found without listing triangles.  For a vertex v and a connected piece P
    of the graph its neighbourhood induces, the edges from v to P and the
    edges inside P lie in one component: an edge pq inside P closes the
    triangle vpq.  On K_n the bound is exact.  The first piece with more than
    ``cap`` edges is returned at once, since it already decides a refusal."""
    adj = graph.adj
    best = 0
    for v in range(graph.n):
        rest = around = adj[v]
        while rest:
            piece = frontier = rest & -rest
            # twice the edges inside the piece: each member's neighbours in
            # the neighbourhood all lie in its piece
            ends = 0
            while frontier:
                grown = 0
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    row = adj[bit.bit_length() - 1] & around
                    ends += row.bit_count()
                    grown |= row
                frontier = grown & ~piece
                piece |= frontier
            rest &= ~piece
            edges = piece.bit_count() + ends // 2
            if edges > cap:
                return edges
            best = max(best, edges)
    return best


def _check_depth(edges: int, depth_cap: int, at_least: str = "") -> None:
    if edges > depth_cap:
        raise ResourceLimitError(
            f"a triangle-connected component of {at_least}{edges} edges exceeds the "
            f"search depth limit of {depth_cap} edges")


def _search_plans(graph: Graph, masks: list[int]) -> tuple[list[_ComponentPlan], list[int]]:
    """One plan per triangle-connected component that has a triangle, with
    star tables for the palette masks, and the free edges: the edges in no
    triangle, which no plan holds and which multiply out."""
    m = len(masks)
    # the search recurses once per edge of a component, below its callers;
    # a graph with more edges than that is first refused on a cheap lower
    # bound, before its triangles are listed
    depth_cap = sys.getrecursionlimit() - _CALLER_FRAMES
    if m > depth_cap:
        _check_depth(_component_floor(graph, depth_cap), depth_cap, "at least ")
    tri_of_edge = _edge_triangles(m, graph.triangle_edges())
    components = _edge_components(tri_of_edge)
    _check_depth(max(map(len, components), default=0), depth_cap)
    ends = graph.edges()
    plans = [_ComponentPlan(comp, tri_of_edge, ends, masks)
             for comp in components if len(comp) > 1]
    free = [comp[0] for comp in components if len(comp) == 1]
    return plans, free


def count_gallai_with_palettes(graph: Graph, palette_masks, *,
                               node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Gallai colorings of the graph where edge i draws its color from the bitmask
    palette_masks[i] (bit c-1 stands for color c), aligned with graph.edges().

    The same search as :func:`count_gallai`, without the new-color window.
    An edge in no triangle is free: it takes no part in the search and
    multiplies the count by its palette size.  Every other component's search
    ends in one leaf over its last two stars: runs of edges at one vertex
    whose palette sizes multiply to at most ``_STAR_TABLE_BITS``.  Their
    truth tables are built once per call, and the leaf counts the stars'
    colorings under a colored prefix from ANDs and popcounts of table rows:
    the rows that the prefix's colors select are ANDed in on the way down,
    one per branch, and a branch that leaves the last star no coloring is
    cut.  The leaf costs one node per coloring of the first star that it
    sums.  node_budget bounds the search nodes of the whole call.
    """
    masks = list(palette_masks)
    m = graph.edge_count
    if len(masks) != m:
        raise InvalidInputError(f"expected {m} palettes, got {len(masks)}")
    if m == 0:
        return 1
    if any(mask < 0 for mask in masks):
        raise InvalidInputError("negative palette mask")
    if any(mask == 0 for mask in masks):
        return 0
    plans, free = _search_plans(graph, masks)
    # past every palette's highest bit no color is new: the search is plain
    start = max(masks).bit_length()
    searcher = _Searcher(masks, node_budget, {start: 1})
    return searcher.count(plans, start) * prod(masks[e].bit_count() for e in free)


def count_gallai(graph: Graph, r: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact number of Gallai colorings of the graph with colors from 1..r.

    One search per triangle-connected component, in a greedy edge order that
    closes triangles early, pruning on completed rainbow triangles and
    narrowing palettes by forced-color propagation.  Colors are
    interchangeable, so an edge may only take a color already used or the
    lowest unused one, and a coloring whose edges used k colors is weighted
    by the falling factorial (r)_k.  The search therefore never looks at more
    than min(r, e) colors, and a huge r costs no more than a small one.  An
    edge in no triangle is free: it takes no part in the search and keeps all
    r choices.  As in :func:`count_gallai_with_palettes`, each search ends in
    one leaf over its last two stars, whose truth tables hold full palettes
    of min(r, e) colors; the leaf weighs the stars' colorings by the new
    colors they open.  node_budget bounds the search nodes of the whole call.
    """
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    m = graph.edge_count
    if m == 0:
        return 1
    if r == 1:
        return 1
    if r == 2:
        return 2**m
    width = min(r, m)
    weight = [1]
    for k in range(width):
        weight.append(weight[-1] * (r - k))
    masks = [(1 << width) - 1] * m
    plans, free = _search_plans(graph, masks)
    searcher = _Searcher(masks, node_budget, weight)
    return searcher.count(plans, 0) * r ** len(free)


# ---------------------------------------------------------------------------
# closed forms and bounds


class _Decomposition:
    """Labeled counts of the Gallai r-colorings of K_1..K_n by the root of
    their Gallai decomposition, grown on demand.

    By Gallai's theorem (see Gyárfás–Simonyi, J. Graph Theory 2004), the
    vertices of a Gallai coloring of K_n, n >= 2, split into blocks in one of
    two ways.  Either all edges between blocks take one color c, there are at
    least two blocks, and no block is itself such a join in c; or the blocks
    form a prime graph on k >= 4 of them, its edges in one color of a pair
    and its non-edges in the other, and each block is any Gallai coloring.
    In exponential generating functions

        F = x + r D + C(r,2) P(F),   D = exp(F - D) - 1 - (F - D),

    so F - D = log(1 + F).  Index n of each list holds:

    * ``full[n]`` = F_n, all colorings;
    * ``join[n]`` = D_n, those whose root is a join in one fixed color;
    * ``prime[n]``, those whose root is prime in one fixed pair of colors;
    * ``bell[n][k]``, the colorings of K_n cut into k blocks with every edge
      between blocks left out: the partial Bell polynomial B_{n,k}(F);
    * ``quotients[n]`` = p_n, the labeled prime graphs on n vertices, found
      at r = 2, where F_n = 2^C(n,2), and shared by every r.

    Each new n costs O(n^2) products of big integers.
    """

    __slots__ = ("r", "full", "join", "prime", "bell", "quotients")

    def __init__(self, r: int):
        self.r = r
        self.full = [0, 1]
        self.join = [0, 0]
        self.prime = [0, 0]
        self.bell = [[1], [0, 1]]
        self.quotients = [0, 0]

    def grow(self, n: int) -> "_Decomposition":
        """The same tables, extended through K_n."""
        full, join, prime, bell = self.full, self.join, self.prime, self.bell
        r = self.r
        if n >= len(full) and r != 2:
            self.quotients = _decomposition(2).grow(n).quotients
        quotients = self.quotients
        for size in range(len(full), n + 1):
            # the block of the first vertex has j vertices, the rest k - 1 blocks
            row = [0] * (size + 1)
            joined = 0
            for j in range(1, size):
                lead = comb(size - 1, j - 1)
                joined += lead * (full[j] - join[j]) * full[size - j]
                lead *= full[j]
                rest = bell[size - j]
                for k in range(2, size - j + 2):
                    row[k] += lead * rest[k - 1]
            if r == 2:
                partial = sum(quotients[k] * row[k] for k in range(4, size))
                quotients.append(2 ** comb(size, 2) - 2 * joined - partial)
            primed = sum(quotients[k] * row[k] for k in range(4, size + 1))
            row[1] = r * joined + comb(r, 2) * primed
            full.append(row[1])
            join.append(joined)
            prime.append(primed)
            bell.append(row)
        return self


@functools.lru_cache(maxsize=_DECOMPOSITION_TABLES)
def _decomposition(r: int) -> _Decomposition:
    """The growing tables of one r, built on first use; the tables of the
    ``_DECOMPOSITION_TABLES`` most recently used r are kept."""
    return _Decomposition(r)


def _complete_tables(n: int, r: int) -> _Decomposition:
    """The decomposition tables of r, grown through K_n; tables wider than
    ``COMPLETE_BITS`` are refused."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    width = comb(n, 2) + (n - 1) * r.bit_length()
    if width > COMPLETE_BITS:
        raise ResourceLimitError(
            f"the K_n decomposition tables for n={n}, r={r} hold entries of about "
            f"{width} bits; capped at {COMPLETE_BITS}")
    return _decomposition(r).grow(n)


def count_complete(n: int, r: int) -> int:
    """Exact number of Gallai colorings of K_n with colors from 1..r.

    Read from the tables of Gallai's decomposition (see ``_Decomposition``)
    in exact integers, without a search, while C(n,2) + (n - 1) bit_length(r)
    stays within ``COMPLETE_BITS``.
    """
    return _complete_tables(n, r).full[n]


def _choose(rng: random.Random, weights: list[int]) -> int:
    """An index drawn with probability proportional to its weight."""
    bounds = list(itertools.accumulate(weights))
    return bisect.bisect_right(bounds, rng.randrange(bounds[-1]))


def _is_prime(adj: list[int]) -> bool:
    """True when a graph on k >= 3 vertices has no module of 2 to k - 1
    vertices: no such vertex set that every vertex outside it sees all of
    it or none of it.

    A module holding vertices 0 and 1 holds the smallest one that does,
    which grows from {0, 1} by every vertex that sees part of it.  A module
    avoiding vertex v lies in one part of the partition of the other
    vertices that starts from v's neighbours and non-neighbours and splits
    a part by the neighbours of every vertex outside it; the parts end as
    the largest such modules, so they must all be single vertices."""
    k = len(adj)
    everyone = (1 << k) - 1
    module, grown = 0, 0b11
    while grown != module:
        module = grown
        for z in range(k):
            seen = adj[z] & module
            if seen and seen != module:
                grown |= 1 << z
    if module != everyone:
        return False
    for v in (0, 1):
        rest = everyone ^ (1 << v)
        parts = [p for p in (rest & adj[v], rest & ~adj[v]) if p]
        split = True
        while split:
            split = False
            for z in range(k):
                cut = []
                for part in parts:
                    inside = adj[z] & part
                    if inside and inside != part and not part >> z & 1:
                        cut += (inside, part ^ inside)
                        split = True
                    else:
                        cut.append(part)
                parts = cut
        if len(parts) < k - 1:
            return False
    return True


def _prime_graph(rng: random.Random, k: int) -> list[int]:
    """Adjacency rows of a uniform labeled prime graph on k >= 4 vertices,
    drawn by rejection from uniform graphs.  The acceptance rate is
    p_k / 2^C(k,2): 0.19 at k = 4 and 5, rising towards 1."""
    while True:
        bits = rng.getrandbits(comb(k, 2))
        adj = [0] * k
        for u in range(k):
            for v in range(u + 1, k):
                if bits & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                bits >>= 1
        if _is_prime(adj):
            return adj


def _blocks(rng: random.Random, vertices: list[int], weight) -> list[list[int]]:
    """Cut the vertices into labeled blocks: the block of the first vertex
    left has j vertices with probability proportional to weight(m, j, t),
    where m vertices are left and t blocks are already cut."""
    blocks: list[list[int]] = []
    rest = vertices
    while rest:
        m = len(rest)
        j = 1 + _choose(rng, [comb(m - 1, j - 1) * weight(m, j, len(blocks))
                              for j in range(1, m + 1)])
        mates = set(rng.sample(rest[1:], j - 1))
        blocks.append([rest[0], *mates])
        rest = [v for v in rest[1:] if v not in mates]
    return blocks


def sample_complete(n: int, r: int, count: int, rng: random.Random):
    """Yield count colorings of K_n, each drawn uniformly and independently
    from its Gallai r-colorings, as 1-based colors over edge_pairs(n).

    Each walks down Gallai's decomposition (see ``_Decomposition``) by the
    recursive method of Nijenhuis–Wilf (Combinatorial Algorithms, 1978):
    pick the root's kind and colors in proportion to the colorings of each,
    then its blocks and, for a prime root, its quotient, then recurse into
    the blocks.  A color or a pair of colors is one draw, so no step loops
    over the r colors.  The tables are capped as in :func:`count_complete`.
    """
    tables = _complete_tables(n, r)
    # slot[u][v] is the position of the pair (u, v) in edge_pairs(n)
    slot = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(edge_pairs(n)):
        slot[u][v] = slot[v][u] = i
    full, join, prime, bell = tables.full, tables.join, tables.prime, tables.bell
    quotients = tables.quotients
    pairs = comb(r, 2)

    def paint(blocks: list[list[int]], color) -> None:
        """Color every edge between two blocks by color(i, j) of their indices."""
        for i, a in enumerate(blocks):
            for j in range(i + 1, len(blocks)):
                c = color(i, j)
                for u in a:
                    row = slot[u]
                    for v in blocks[j]:
                        colors[row[v]] = c

    def draw(vertices: list[int], banned: int) -> None:
        """Color the edges inside ``vertices``; their root is no join in
        color ``banned`` (0 bans none)."""
        size = len(vertices)
        if size == 1:
            return
        joins = (r - (banned > 0)) * join[size]
        x = rng.randrange(joins + pairs * prime[size])
        if x < joins:
            c = x // join[size] + 1
            c += 0 < banned <= c
            # at least two blocks, none a join in c; since exp(F - D) = 1 + F,
            # the blocks after this one can be cut and colored in full[m - j]
            # ways, and only a later block may take every vertex left
            blocks = _blocks(rng, vertices, lambda m, j, t: (full[j] - join[j]) * (
                full[m - j] if j < m else t > 0))
            paint(blocks, lambda i, j: c)
            for block in blocks:
                draw(block, c)
            return
        a = rng.randrange(r)
        b = rng.randrange(r - 1)
        b += b >= a
        k = 4 + _choose(rng, [quotients[k] * bell[size][k] for k in range(4, size + 1)])
        # k - t - 1 blocks are left for the m - j vertices after this one
        blocks = _blocks(rng, vertices, lambda m, j, t: full[j] * (
            bell[m - j][k - t - 1] if k - t - 1 <= m - j else 0))
        adj = _prime_graph(rng, k)
        paint(blocks, lambda i, j: a + 1 if adj[i] >> j & 1 else b + 1)
        for block in blocks:
            draw(block, 0)

    for _ in range(count):
        colors = [0] * comb(n, 2)
        draw(list(range(n)), 0)
        yield tuple(colors)


def lower_bound_two_color(n: int, r: int) -> int:
    """Gallai colorings of K_n that use at most two colors."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    if r < 2:
        raise InvalidParameterError("need r >= 2")
    if n > EXACT_BOUNDS_LIMIT:
        raise ResourceLimitError(
            f"the bound has C(n,2) bits; n={n} > {EXACT_BOUNDS_LIMIT}")
    if n == 1:
        return 1
    return comb(r, 2) * 2 ** comb(n, 2) - r * (r - 2)


def red_once_count(n: int) -> int:
    """Gallai colorings of K_n with exactly three colors, one used exactly once."""
    if n < 3:
        raise InvalidParameterError("need n >= 3")
    return comb(n, 2) * (2 ** (comb(n, 2) - (n - 1)) - 2)


def book_gallai_count(q: int, r: int) -> int:
    """Gallai colorings of the book with q pages: r * (3r - 2)^q.

    Given the base color, each page contributes 3r - 2 legal color pairs and
    pages only interact through the base, so the product is exact.
    """
    if q < 0:
        raise InvalidParameterError("need q >= 0")
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    return r * (3 * r - 2) ** q


class AsymptoticBounds(Record):
    """Two-sided bounds for the Gallai coloring count of K_n, reported in log2.

    ``trivial_lower`` is the exact rational up to EXACT_BOUNDS_LIMIT and None
    past it."""

    n: int
    r: int
    trivial_lower: Fraction | None
    trivial_lower_log2: float
    main_upper_log2: float
    two_color_log2: float


def asymptotic_bounds(n: int, r: int) -> AsymptoticBounds:
    """Trivial lower bound (C(r,2) + 2^-n) 2^C(n,2), the upper bound
    (C(r,2) + 2^(-n / (4 log2(n)^2))) 2^C(n,2) and :func:`lower_bound_two_color`.

    Up to EXACT_BOUNDS_LIMIT the lower bounds are exact integers or rationals
    and their log2 is taken from them; past it every log2 is computed in log
    space.  An n whose log2 of 2^C(n,2) is past the float range is refused."""
    if n < 2:
        raise InvalidParameterError("need n >= 2")
    if r < 2:
        raise InvalidParameterError("need r >= 2")
    m = comb(n, 2)
    if m > sys.float_info.max:
        raise InvalidParameterError("n is too large: log2 of 2^C(n,2) is past the float range")
    # log2(C(r,2) + 2^-x) = log2 C(r,2) + log2(1 + 2^(-x - log2 C(r,2))), finite
    # for every r, where C(r,2) itself may be too large for a float
    pairs_log2 = log2(comb(r, 2))

    def scaled_log2(x: float) -> float:
        """log2((C(r,2) + 2^-x) 2^C(n,2))."""
        return pairs_log2 + log2(1 + 2.0 ** (-x - pairs_log2)) + m

    upper_log2 = scaled_log2(n / (4.0 * log2(n) ** 2))
    if n <= EXACT_BOUNDS_LIMIT:
        from fractions import Fraction
        lower = (Fraction(comb(r, 2)) + Fraction(1, 2**n)) * Fraction(2**m)
        lower_log2 = log2(lower.numerator) - log2(lower.denominator)
        two_color_log2 = log2(lower_bound_two_color(n, r))
    else:
        lower = None
        lower_log2 = scaled_log2(n)
        # C(r,2) 2^C(n,2) - r(r-2): the r(r-2) < 2 C(r,2) moves the log2 by
        # less than 2^(2 - C(n,2)), far below a float's resolution here
        two_color_log2 = pairs_log2 + m
    return AsymptoticBounds(n, r, lower, lower_log2, upper_log2, two_color_log2)


# ---------------------------------------------------------------------------
# deviation from a two-color majority


def max_matching_size(n: int, edges) -> int:
    """Exact maximum matching size by exhaustive search over vertex subsets."""
    if n > 20:
        raise ResourceLimitError(f"matching search is exponential in n; n={n} > 20")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        bit = mask & -mask
        rest = mask ^ bit
        value = best(rest)
        nb = adj[bit.bit_length() - 1] & rest
        while nb:
            ub = nb & -nb
            nb ^= ub
            value = max(value, 1 + best(rest ^ ub))
        memo[mask] = value
        return value

    return best((1 << n) - 1)


class SDeviation(Record):
    """Edges colored outside a fixed pair of colors, and their matching number."""

    pair: tuple[int, int]
    s_edges: frozenset[tuple[int, int]]
    matching_size: int


def s_deviation(graph: Graph, coloring: Coloring, i: int, j: int) -> SDeviation:
    if i == j:
        raise InvalidParameterError("the two majority colors must differ")
    r = coloring.r
    if not (1 <= i <= r and 1 <= j <= r):
        raise InvalidParameterError(f"colors must lie in 1..{r}")
    if i > j:
        i, j = j, i
    _check_total(graph, coloring)
    stray = frozenset(e for e, c in coloring.colors.items() if c not in (i, j))
    size = max_matching_size(graph.n, stray)
    return SDeviation((i, j), stray, size)
