"""Independent references for every output the benchmark checks.

Nothing here calls the package's counting, canonical-form or template code:
the counters are plain backtracking loops, the class check is a NumPy
minimum over all vertex relabelings, and graph6 is re-implemented, so a
defect in the package cannot hide behind the same defect in its check.
"""

from __future__ import annotations

import itertools
from math import comb, log2

import numpy as np

# isomorphism classes of graphs on n vertices (OEIS A000088)
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def graph6(n: int, edges) -> str:
    """Short-form graph6: bits of the upper triangle, column by column."""
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)))
    return "".join(chars)


def graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    cols = [(i, j) for j in range(1, n) for i in range(j)]
    return n, sorted(e for e, b in zip(cols, bits) if b == "1")


def _closing_checks(edges) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """Order edges by larger then smaller endpoint.  Triangle a < b < c is
    complete when (b, c) is placed; checks[k] lists the positions of the
    other two edges of each triangle closed at position k."""
    order = sorted(edges, key=lambda e: (e[1], e[0]))
    pos = {e: k for k, e in enumerate(order)}
    checks = []
    for b, c in order:
        checks.append([(pos[(a, b)], pos[(a, c)]) for a in range(b)
                       if (a, b) in pos and (a, c) in pos])
    return order, checks


def count_colorings(edges, r: int) -> int:
    """Gallai r-colorings, counted with colors opened in order of first use.

    A new color may only be the lowest unused one, and opening it stands
    for r - used choices of its real label, so the count is exact.
    """
    order, checks = _closing_checks(edges)
    m = len(order)
    col = [0] * m

    def rec(k: int, used: int) -> int:
        if k == m:
            return 1
        total = 0
        for c in range(used + 1 if used < r else used):
            for i, j in checks[k]:
                x, y = col[i], col[j]
                if x != y and x != c and y != c:
                    break
            else:
                col[k] = c
                total += (r - used) * rec(k + 1, used + 1) if c == used else rec(k + 1, used)
        return total

    return rec(0, 0)


def count_in_palettes(edges, palette: dict) -> int:
    """Gallai colorings where edge e takes a color from the bitmask palette[e]."""
    order, checks = _closing_checks(edges)
    masks = [palette[e] for e in order]
    m = len(order)
    col = [0] * m

    def rec(k: int) -> int:
        if k == m:
            return 1
        total = 0
        mask = masks[k]
        while mask:
            bit = mask & -mask
            mask ^= bit
            for i, j in checks[k]:
                x, y = col[i], col[j]
                if x != y and x != bit and y != bit:
                    break
            else:
                col[k] = bit
                total += rec(k + 1)
        return total

    return rec(0)


class ClassKeys:
    """Isomorphism-class keys: the smallest packed upper triangle over all n!
    relabelings, computed as one NumPy reduction per graph."""

    def __init__(self):
        self._tables: dict[int, tuple[dict, np.ndarray]] = {}

    def key(self, n: int, edges) -> int:
        if n not in self._tables:
            index = {e: k for k, e in enumerate(pairs(n))}
            # image[p, k]: slot of edge k after relabeling by permutation p
            image = np.array([[index[tuple(sorted((p[u], p[v])))] for u, v in pairs(n)]
                              for p in itertools.permutations(range(n))], dtype=np.int64)
            self._tables[n] = (index, np.int64(1) << image)
        index, weight = self._tables[n]
        present = np.zeros(len(index), dtype=np.int64)
        for u, v in edges:
            present[index[(min(u, v), max(u, v))]] = 1
        return int((weight * present).sum(axis=1).min())


def rainbow_triples(a: int, b: int, c: int, r: int) -> int:
    return sum(1 for x in range(r) if a >> x & 1
               for y in range(r) if b >> y & 1 and y != x
               for z in range(r) if c >> z & 1 and z != x and z != y)


def rt_count(n: int, r: int, palette: dict) -> int:
    """Rainbow triangles realizable inside a template, by direct enumeration."""
    return sum(rainbow_triples(palette[(a, b)], palette[(a, c)], palette[(b, c)], r)
               for a, b, c in itertools.combinations(range(n), 3))


def _triangle_class(mode: str, masks) -> str:
    s1, s2, s3 = sorted(bin(m).count("1") for m in masks)
    total = s1 + s2 + s3
    if total == 6 and masks[0] == masks[1] == masks[2]:
        return "T1"
    if mode == "complete":
        rules = [("T2", s3 >= 3), ("T3", total == 6), ("T4", total <= 5)]
    elif mode == "dense-generic":
        rules = [("T2", s1 == 0 and s2 >= 3), ("T3", s3 >= 3 and s1 + s2 <= 2),
                 ("T4", total >= 6)]
    else:
        rules = [("T2", s1 == 0), ("T3", (s1, s2, s3) == (1, 1, 4)), ("T4", total >= 6)]
    return next((label for label, hit in rules if hit), "T5")


def classify(n: int, palette: dict, mode: str) -> dict:
    tally = dict.fromkeys(("T1", "T2", "T3", "T4", "T5"), 0)
    for a, b, c in itertools.combinations(range(n), 3):
        tally[_triangle_class(mode, (palette[(a, b)], palette[(a, c)], palette[(b, c)]))] += 1
    return {"mode": mode, "counts": tally, "total": comb(n, 3)}


def cover_expectation(n: int, r: int, family: list[dict], c: float,
                      sample_size: int) -> dict:
    """What verify-cover must print for a family that contains the full
    template: coverage passes on every sample, and the sparsity and
    size-bound verdicts recomputed here."""
    rhs = comb(n, 3) ** 3
    sparsity = {"passed": True, "checked": len(family), "witness": None}
    for idx, palette in enumerate(family):
        rt = rt_count(n, r, palette)
        if rt**3 * n > rhs:
            sparsity["passed"] = False
            sparsity["witness"] = {"template_index": idx, "rt": rt, "lhs": rt**3 * n,
                                   "rhs": rhs}
            break
    limit = c * n ** (-1.0 / 3.0) * log2(n) ** 2 * comb(n, 2)
    measured = log2(len(family))
    size_ok = measured <= limit
    size_bound = {"passed": size_ok, "checked": len(family),
                  "witness": None if size_ok else {"log2_family": measured, "limit": limit}}
    return {"n": n, "r": r, "family_size": len(family),
            "passed": sparsity["passed"] and size_ok,
            "coverage": {"passed": True, "checked": sample_size, "witness": None},
            "sparsity": sparsity, "size_bound": size_bound}


def extremal_mismatches(out: dict, n: int, r: int, keys: ClassKeys,
                        counts: dict) -> list[str]:
    """Check an extremal table: one row per class, every count recomputed.

    ``counts`` memoizes class key -> reference count for this (n, r).
    """
    problems = []
    rows = out.get("rows", [])
    if out.get("n") != n or out.get("r") != r or out.get("authoritative") is not True:
        problems.append("header")
    if len(rows) != CLASS_COUNTS[n]:
        problems.append(f"{len(rows)} rows, expected {CLASS_COUNTS[n]}")
    seen = set()
    values = []
    for row in rows:
        rn, edges = graph6_edges(row["g6"])
        key = keys.key(rn, edges)
        if rn != n or key in seen or row["edges"] != len(edges):
            problems.append(f"row {row['g6']}")
        seen.add(key)
        if key not in counts:
            counts[key] = count_colorings(edges, r)
        values.append(counts[key])
        if row["count"] != str(counts[key]):
            problems.append(f"row {row['g6']} count {row['count']} != {counts[key]}")
    best = max(values, default=None)
    if out.get("max_count") != str(best):
        problems.append("max_count")
    if out.get("argmax") != [row["g6"] for row, v in zip(rows, values) if v == best]:
        problems.append("argmax")
    return problems
