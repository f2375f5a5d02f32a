"""Exact counting of Gallai colorings: edge colorings with no rainbow triangle.

Two independent counting routes are kept side by side on purpose:

* :func:`count_gallai_naive` sweeps the full product space of colorings with
  vectorized triangle checks and no search cleverness at all, and
* :func:`count_gallai` backtracks over edges with rainbow pruning,
  forced-color propagation and color-symmetry breaking.

For K_n alone, :mod:`gallai.kn` counts and samples from Gallai's
decomposition, without a search.

Counts are plain Python integers, so they never overflow or round.
"""

from __future__ import annotations

import heapq
import sys
from math import prod

# numpy is imported only inside scan_colorings: at module level it would add
# its start-up time to every CLI run, most of which never use it
from .errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from .graphs import DEFAULT_NODE_BUDGET, Graph, Record, _triangle_edges

# colorings per array of the full sweep
_SCAN_CHUNK = 1 << 16
# stack frames kept free below the recursion limit for the search's callers
_CALLER_FRAMES = 200
# most bits in a star truth table: the product of the star edges' palette sizes
_STAR_TABLE_BITS = 1 << 12


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
    e_i.  ``rows(i, ...)`` holds, keyed by a color mask, the row of the
    colorings whose e_i takes a color of the mask.  Two star edges va and
    vb share only the triangle vab, and ``pair(i, j)`` gives its row for a
    color bit of ab: the colorings that leave vab not rainbow.  The live
    colorings under a colored prefix are the bits set in ``ones`` and in
    every row that its candidates and colors select.

    A prefix that used the colors below k may give the star new colors only
    in canonical order, the rule the search branches by.  ``fresh[k]`` lists
    the rows M_{k,t}: the colorings whose colors of k and above are exactly
    k..k+t-1, each first used, in star order, after the one below it.  At
    or past ``width``, past every palette's highest color, no color is new
    and the list is [ones].  Rows are built the first time they are read.
    A star of no edges has one coloring, ``ones`` = 1.
    """

    __slots__ = ("ones", "width", "choices", "radix", "single", "fresh")

    def __init__(self, star: list[int], masks: list[int]):
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
            period = low * len(bits)
            run = (1 << low) - 1
            while period < size:
                run |= run << period
                period <<= 1
            run &= ones
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
        self.fresh = _Memo(new_colors)

    def rows(self, i: int, shift: int, rest: int) -> _Memo:
        """Rows of the colorings whose e_i takes a color of the key mask,
        shifted ``shift`` bits and ORed with ``rest``."""
        single = self.single[i]

        def digits(colors: int) -> int:
            block = 0
            for bit, row in single.items():
                if colors & bit:
                    block |= row
            return block << shift | rest

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

    The order is a head, order[:starts[0]], that the search branches on
    edge by edge, and a chain of star blocks, block j being
    order[starts[j]:starts[j + 1]].  One rule grows the blocks backwards,
    each from the start of the one after it (the last from the end of the
    order), until it finds no edge: an edge joins while the block's edges
    share a vertex, their palette sizes multiply to at most
    ``_STAR_TABLE_BITS`` and no triangle through it has one edge past the
    block and one before the edge.  The last two blocks, A and B, are
    always there; B is empty when the last edge's palette alone is wider
    than a table, A when the edge before B closes a triangle with B and an
    earlier edge.  ``count_gallai`` plans with full palettes of its window's
    width; on K7 at r = 3 and 4 every vertex star is a block and the head
    is empty.  So a triangle lies in the head, or has two head edges and a
    block edge, whose candidates the head narrows, or has two edges in one
    block and its third edge earlier, whose color selects the block's pair
    row of the triangle: a triangle with its middle edge in a block and its
    last past it would have stopped the block.  A block is a star, so an
    edge selects at most one row of each block.

    The blocks' live colorings travel as one int, block j's row
    ``offsets[j]`` bits up, starting from ``live``, all of every block;
    frame j is that int with the blocks before j shifted out, and
    ``tops[j]`` the least int of frame j that leaves B a coloring.
    ``steps[pos]`` is (edge, pairs, keys, last) for head position pos: the
    (f, g) whose g its color narrows with f's, the rows each color bit
    selects packed in frame 0, all of a block where it selects none (None
    if it selects none at all), and whether it is the head's last edge.
    ``doms`` pairs each block edge that the head narrows with its rows,
    keyed by its candidates and packed the same way.  ``cross[j][s]`` is
    the AND of the rows that coloring s of block j selects, in frame j + 1,
    or None where block j selects none.  ``leaf`` is (A's width, A's
    colorings, A's cross rows, window), and ``levels[k]`` holds the
    new-color rows of A and B at level k: (M_{k,t} of A, [(k + t + u,
    M_{k+t,u} of B), ...]) for each t, from level ``window`` on the one
    pair of all colorings.  Rows are filled in the first time the search
    reads them, except A's cross rows in a chain, and live for one call.
    """

    __slots__ = ("order", "starts", "tables", "steps", "live", "doms", "cross", "tops", "leaf",
                 "levels")

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
            """Start of the block that ends at ``stop``, grown by the rule above."""
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

        # B and A, then more blocks while the rule finds an edge
        start = grow(len(order))
        starts = [len(order), start, grow(start)]
        while starts[-1] < starts[-2]:
            start = grow(starts[-1])
            if start == starts[-1]:
                break
            starts.append(start)
        starts.reverse()
        head = starts[0]
        # the search narrows only at the positions it branches on; steps[i]
        # gets its keys below
        steps = []
        narrowed = set()
        for i, e in enumerate(order[:head]):
            pairs = []
            for f, g in tri_of_edge[e]:
                pf, pg = pos[f], pos[g]
                if pf < i < pg:
                    pairs.append((f, g))
                    narrowed.add(g)
                elif pg < i < pf:
                    pairs.append((g, f))
                    narrowed.add(f)
            steps.append((e, tuple(pairs), None, i + 1 == head))
        tables = []
        offsets = [0]
        for start, stop in zip(starts, starts[1:]):
            tables.append(_StarTable(order[start:stop], masks))
            offsets.append(offsets[-1] + tables[-1].ones.bit_length())
        full = (1 << offsets[-1]) - 1

        # sides[p]: (offset, ones, pair rows) of each block in which the edge
        # at position p keys a row, as the third edge of a triangle through
        # two edges of the block
        sides: dict[int, list] = {}
        doms = []
        for table, start, stop, offset in zip(tables, starts, starts[1:], offsets):
            for i in range(start, stop):
                e = order[i]
                if e in narrowed:
                    doms.append((e, table.rows(i - start, offset, full ^ table.ones << offset)))
                for f, g in tri_of_edge[e]:
                    pf, pg = pos[f], pos[g]
                    if pg > pf:
                        pf, pg = pg, pf
                    if i < pf < stop:
                        sides.setdefault(pg, []).append(
                            (offset, table.ones, table.pair(i - start, pf - start)))

        def packed(rows: list, base: int) -> _Memo:
            """One edge's rows keyed by its color bit, in the frame that
            starts at bit ``base``: all of a block where it keys no row."""
            if base == offsets[-2]:
                # the frame is B alone, which the edge keys
                return _Memo(rows[0][2])

            def key(color: int) -> int:
                found = full >> base
                for offset, ones, row in rows:
                    found ^= (ones ^ row(color)) << offset - base
                return found

            return _Memo(key)

        def admits(above: int, table: _StarTable, keyed: list) -> _Memo:
            choices, radix = table.choices, table.radix

            def admitted(j: int) -> int:
                row = above
                for i, rows in keyed:
                    bits = choices[i]
                    row &= rows[bits[j // radix[i] % len(bits)]]
                return row

            return _Memo(admitted)

        for p, rows in sides.items():
            if p < head:
                e, pairs, _, last = steps[p]
                steps[p] = (e, pairs, packed(rows, 0), last)
        cross: list = []
        for a, table in enumerate(tables[:-1]):
            base = offsets[a + 1]
            keyed = [(i, packed(sides[p], base))
                     for i, p in enumerate(range(starts[a], starts[a + 1])) if p in sides]
            if not keyed:
                cross.append(None)
            elif a + 2 < len(tables) or len(tables) == 2:
                # each row built the first time it is read: a two-block plan
                # reads A's rows once per leaf, and the symmetric search reads
                # few rows of the early blocks
                cross.append(admits(full >> base, table, keyed))
            else:
                # A in a chain is read at every leaf: all its rows at once,
                # digit by digit from the last edge, one AND per row
                by_digit = dict(keyed)
                found = [full >> base]
                for i in reversed(range(len(table.choices))):
                    rows = by_digit.get(i)
                    if rows is None:
                        found = [row for row in found for _ in table.choices[i]]
                    else:
                        picks = [rows[bit] for bit in table.choices[i]]
                        found = [row & pick for row in found for pick in picks]
                cross.append(found)
        cross.append(None)
        lead, star = tables[-2:]

        def level(k: int) -> list[tuple[int, list[tuple[int, int]]]]:
            return [(first, [(w, row) for w, row in enumerate(star.fresh[t], t) if row])
                    for t, first in enumerate(lead.fresh[k], k) if first]

        self.order = order
        self.starts = starts
        self.tables = tables
        self.steps = steps
        self.live = full
        self.doms = doms
        self.cross = cross
        self.tops = list(map((1 << offsets[-2]).__rshift__, offsets[:-1]))
        self.leaf = (offsets[-2] - offsets[-3], lead.ones, cross[-2], max(star.width, lead.width))
        self.levels = _Memo(level)


def _exhausted(meter: list[int]) -> ResourceLimitError:
    return ResourceLimitError("node budget exhausted during backtracking",
                              nodes_visited=meter[1] - meter[0])


class _Searcher:
    """Backtracking counter over the component plans of one call.

    Assigning a color to an edge narrows the candidate palettes of the yet
    unassigned third edges of its triangles to the two colors already present,
    so a branch dies the moment a rainbow triangle becomes unavoidable.

    Level k of the search is the number of colors the prefix has used.
    While k is inside the new-color window, an edge may take a color already
    used or the lowest one not yet used, bit k; every other color would only
    relabel the same coloring.  A palette search starts past the window with
    weight 1, so it sees every candidate as given.

    ``run(pos, k, live)`` branches on the head and carries the blocks' live
    colorings down it as the plan's packed int: a child ANDs its color's
    entry of the step's keys, and a child whose B half is then empty has no
    coloring to count and is cut before its narrowing.  A child of the
    head's last edge ANDs in the ``doms`` rows.  ``walk(j, k, live)`` then
    iterates block j's live colorings s, inside the window by the block's
    rows M_{k,t}, and gives each child the rest of the int ANDed with
    ``cross[j][s]``, at level k + t, cut as above.  The children of the
    block before A, or of the head's last edge in a plan of two blocks, are
    leaves, which ``sum_leaves`` counts together.  A leaf splits its int
    into L, B's live colorings, and V, A's; its count is the sum over s in
    V of popcount(L & cross[s]), or |V| popcount(L) with no cross rows.
    Past the window every coloring has weight ``weight[k]``, which
    multiplies that sum once.  Inside it, A's rows M_{k,t} pick the s that
    open t colors and B's rows M_{k+t,u} the completions that open u more,
    and each (t, u) sum is multiplied once by ``weight[k + t + u]``.

    Every color tried at a branching level costs one node, charged before
    the colors are tried, so a cut child has cost its node.  A block before
    A costs one node per live coloring that it iterates, and at least one,
    charged before it iterates.  A leaf costs one node per s in V that it
    sums, and at least one, charged once its batch is summed.  So chaining
    changes node totals only in plans of three blocks or more.  One meter
    covers every component of the call.
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
            if plan.steps:
                total *= self.run(0, start, plan.live)
            elif len(plan.tables) > 2:
                total *= self.walk(0, start, plan.live)
            else:
                total *= self.sum_leaves([(start, plan.live)])
            if total == 0:
                return 0
        return total

    def run(self, pos: int, k: int, live: int) -> int:
        """The count under the colored prefix order[:pos] of the head.  At
        the head's last edge each child ANDs in the rows of the narrowed
        block edges and starts the chain, or, in a plan of two blocks, is
        a leaf, summed with its siblings."""
        plan = self.plan
        cand = self.cand
        colors = self.colors
        meter = self.meter
        e, pairs, keys, last = plan.steps[pos]
        leaves = []
        total = 0
        fresh = 1 << k
        mask = cand[e] & ((fresh << 1) - 1)
        meter[0] -= mask.bit_count()
        if meter[0] < 0:
            raise _exhausted(meter)
        # the child's B half is empty when its int is below this
        top = plan.tops[0]
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
                w = k + 1 if bit == fresh else k
                if not last:
                    total += self.run(pos + 1, w, child)
                else:
                    ended = child
                    for f, dom in plan.doms:
                        ended &= dom[cand[f]]
                    if len(plan.tables) > 2:
                        total += self.walk(0, w, ended)
                    else:
                        leaves.append((w, ended))
            for g, old in trail:
                cand[g] = old
        if leaves:
            total += self.sum_leaves(leaves)
        return total

    def walk(self, j: int, k: int, live: int) -> int:
        """The count from block j on under ``live``, the int of block j's
        frame; the children of the block before A are leaves, summed
        together."""
        plan = self.plan
        table = plan.tables[j]
        row = live & table.ones
        rest = live >> table.ones.bit_length()
        heads = []
        nodes = 0
        for w, first in enumerate(table.fresh[k], k):
            first &= row
            if first:
                heads.append((w, first))
                nodes += first.bit_count()
        meter = self.meter
        meter[0] -= nodes or 1
        if meter[0] < 0:
            raise _exhausted(meter)
        cross = plan.cross[j]
        top = plan.tops[j + 1]
        more = j + 3 < len(plan.tables)
        total = 0
        leaves = []
        for w, first in heads:
            while first:
                low = first & -first
                first ^= low
                child = rest if cross is None else rest & cross[low.bit_length() - 1]
                if child < top:
                    continue
                if more:
                    total += self.walk(j + 1, w, child)
                else:
                    leaves.append((w, child))
        return self.sum_leaves(leaves) if leaves else total

    def sum_leaves(self, leaves: list[tuple[int, int]]) -> int:
        """The counts of A and B under each (level, int of A's frame)."""
        plan = self.plan
        shift, lead, cross, window = plan.leaf
        weight = self.weight
        total = 0
        spent = 0
        for k, live in leaves:
            # L, B's live colorings, and V, A's
            tail = live >> shift
            live &= lead
            nodes = 0
            if tail and live:
                if k >= window:
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
                    total += weight[k] * found
                else:
                    for first, rows in plan.levels[k]:
                        first &= live
                        if not first:
                            continue
                        size = first.bit_count()
                        nodes += size
                        if cross is None:
                            for w, row in rows:
                                total += weight[w] * size * (tail & row).bit_count()
                            continue
                        parts = []
                        while first:
                            low = first & -first
                            first ^= low
                            parts.append(tail & cross[low.bit_length() - 1])
                        for w, row in rows:
                            found = 0
                            for part in parts:
                                found += (part & row).bit_count()
                            total += weight[w] * found
            spent += nodes or 1
        meter = self.meter
        meter[0] -= spent
        if meter[0] < 0:
            raise _exhausted(meter)
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
    ends = graph.edges()
    tri_of_edge = _edge_triangles(m, _triangle_edges(graph.adj, ends))
    components = _edge_components(tri_of_edge)
    _check_depth(max(map(len, components), default=0), depth_cap)
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
    multiplies the count by its palette size.  Every other component's
    order ends in a chain of stars: runs of edges at one vertex whose
    palette sizes multiply to at most ``_STAR_TABLE_BITS``, found backwards
    from the end of the order for as long as the triangles allow.  The
    search branches edge by edge on what comes before the chain, then
    walks the chain one star at a time, iterating each star's live
    colorings, and ends in one leaf over the last two stars.  The stars'
    truth tables are built once per call, and the rows that a coloring
    selects in later stars are ANDed in on the way down, one per branch or
    star coloring; a branch that leaves the last star no coloring is cut.
    A star before the last two costs one node per live coloring that it
    iterates, and the leaf one per coloring of the first of its stars that
    it sums.  node_budget bounds the search nodes of the whole call.
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
    r choices.  As in :func:`count_gallai_with_palettes`, each search walks
    a chain of stars, whose truth tables hold full palettes of min(r, e)
    colors, and weighs the stars' colorings by the new colors they open.
    node_budget bounds the search nodes of the whole call.
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
# closed forms


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
