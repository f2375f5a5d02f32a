"""Gallai colorings of K_n, counted and sampled through Gallai's decomposition.

A Gallai coloring of K_n is a one-color join of smaller ones or a
two-colored prime graph of them (Gallai's theorem).  :func:`count_complete`
reads the count off the recurrences this gives, without a search, and
:func:`sample_complete` walks the same tables down to draw colorings
uniformly.  The closed forms and asymptotic bounds for K_n live here too.

Counts are plain Python integers, so they never overflow or round.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
import sys
from math import comb, log2

# fractions is imported only inside asymptotic_bounds: at module level it
# would add its start-up time to every run that loads this module
from .errors import InvalidParameterError, ResourceLimitError
from .graphs import Record, edge_pairs

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
