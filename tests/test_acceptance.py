"""End-to-end acceptance checks.

Each test prints one [criterion NN] PASS/FAIL line straight to the terminal
(bypassing capture) so a full run yields a twelve-line scoreboard, then
asserts the same condition for pytest bookkeeping.  Stated time budgets are
enforced with a monotonic clock.
"""
import itertools
import random
import time
from fractions import Fraction
from math import comb, log2

import numpy as np
import pytest

from conftest import constrained_count, random_graph, random_template
from gallai.containers import (build, closed_form_stats, degree_stats,
                               verify_cover)
from gallai.counting import (Coloring, book_gallai_count, count_gallai,
                             count_gallai_naive, gallai_colorings, is_gallai,
                             lower_bound_two_color, red_once_count,
                             scan_colorings)
from gallai.extremal import extremal_search
from gallai.graphs import (Graph, all_graphs, canonical_graph, complete,
                           graph6_encode, graph_from_name, max_k_partite_edges)
from gallai.stability import (greedy_book_family, majority_color_check, peel,
                              remove_low_degree, supersaturation_check)
from gallai.templates import (TALLY_MODES, classify_triangles, count_ga,
                              full_template, pair_template, product_log_bound,
                              rt_count)


def report(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {label} ({detail})")
    assert ok, f"criterion {num:02d}: {label}: {detail}"


def small_classes(max_n):
    out = []
    for n in range(1, max_n + 1):
        out.extend(all_graphs(n))
    return out


def test_criterion_01_counter_agreement(capsys):
    budget = 300.0
    start = time.monotonic()
    mismatches = []
    cases = 0
    for g in small_classes(5):
        for r in (3, 4):
            cases += 1
            if count_gallai(g, r) != count_gallai_naive(g, r):
                mismatches.append((g.n, g.edges(), r))
    k6 = complete(6)
    cases += 1
    if count_gallai(k6, 3) != count_gallai_naive(k6, 3):
        mismatches.append((6, "K6", 3))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < budget
    report(capsys, 1, "backtracking counter matches full enumeration",
           ok, f"{cases} cases, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_02_closed_form_families(capsys):
    bad = []
    for r in range(3, 7):
        if count_gallai(complete(3), r) != r**3 - r * (r - 1) * (r - 2):
            bad.append(("triangle", r))
    for q in range(1, 6):
        book = graph_from_name(f"B{q}")
        for r in range(3, 6):
            if count_gallai(book, r) != book_gallai_count(q, r):
                bad.append(("book", q, r))
    tf = [g for g in small_classes(6) if not g.triangles()]
    for g in tf:
        for r in (3, 5):
            if count_gallai(g, r) != r**g.edge_count:
                bad.append(("triangle-free", g.n, g.edges(), r))
    report(capsys, 2, "triangle, book, and triangle-free closed forms",
           not bad, f"{len(tf)} triangle-free classes, failures: {bad!r}")


def test_criterion_03_two_color_floor(capsys):
    bad = []
    for n in range(3, 6):
        for r in (3, 4):
            found = 0
            for colors, ok in scan_colorings(complete(n), r):
                present = np.stack([(colors == c).any(axis=1) for c in range(r)])
                mask = present.sum(axis=0) <= 2
                if not ok[mask].all():
                    bad.append(("non-gallai", n, r))
                found += int(mask.sum())
            if found != lower_bound_two_color(n, r):
                bad.append((n, r, found, lower_bound_two_color(n, r)))
    floor = lower_bound_two_color(6, 3)
    count6 = count_gallai(complete(6), 3)
    if count6 < floor:
        bad.append(("K6", count6, floor))
    report(capsys, 3, "at-most-two-color count matches closed form",
           not bad, f"K6 count {count6} >= floor {floor}, failures: {bad!r}")


def test_criterion_04_single_use_color_count(capsys):
    budget = 60.0
    start = time.monotonic()
    bad = []
    for n in (4, 5):
        found = 0
        for colors, ok in scan_colorings(complete(n), 3):
            once = (colors == 0).sum(axis=1) == 1
            surj = (colors == 1).any(axis=1) & (colors == 2).any(axis=1)
            mask = ok & once & surj
            found += int(mask.sum())
        if found != red_once_count(n):
            bad.append((n, found, red_once_count(n)))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < budget
    report(capsys, 4, "colorings using one color exactly once match closed form",
           ok, f"counts {red_once_count(4)}/{red_once_count(5)}, "
               f"failures: {bad!r}, {elapsed:.1f}s")


def test_criterion_05_hypergraph_degree_stats(capsys):
    budget = 60.0
    start = time.monotonic()
    bad = []
    for n in range(3, 9):
        for r in range(3, 6):
            if degree_stats(build(n, r)) != closed_form_stats(n, r):
                bad.append((n, r))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < budget
    report(capsys, 5, "measured hypergraph statistics equal closed forms",
           ok, f"18 (n, r) pairs, failures: {bad!r}, {elapsed:.1f}s")


def test_criterion_06_extremal_five_vertices(capsys):
    budget = 600.0
    start = time.monotonic()
    table = extremal_search(5, 10)
    elapsed = time.monotonic() - start
    expected = graph6_encode(canonical_graph(graph_from_name("K2,3")))
    ok = (table.authoritative
          and table.argmax == (expected,)
          and table.argmax == ("DFw",)
          and table.max_count == 10**6
          and elapsed < budget)
    report(capsys, 6, "unique 5-vertex maximizer at r=10 is K_{2,3}",
           ok, f"argmax {table.argmax}, count {table.max_count}, {elapsed:.1f}s")


def test_criterion_07_template_counting(capsys):
    rng = random.Random(7)
    bad = []
    for _ in range(20):
        n = rng.randint(3, 6)
        g = random_graph(rng, n)
        r = rng.randint(3, 5)
        i, j = sorted(rng.sample(range(1, r + 1), 2))
        if count_ga(pair_template(n, r, i, j), g) != 2**g.edge_count:
            bad.append(("pair", n, r, g.edges()))
    for n in range(3, 9):
        for r in range(3, 6):
            if rt_count(full_template(n, r)) != comb(n, 3) * r * (r - 1) * (r - 2):
                bad.append(("rt", n, r))
    for k in range(100):
        r = rng.choice((3, 4, 5))
        tpl = random_template(rng, 5, r)
        for mode in TALLY_MODES:
            if mode == "dense4" and r != 4:
                continue
            tally = classify_triangles(tpl, mode)
            if sum(tally.as_dict().values()) != comb(5, 3):
                bad.append(("tally", k, mode))
    report(capsys, 7, "pair, full, and random template counts",
           not bad, f"20 pair + 18 closed-form + 100 tally checks, "
                    f"failures: {bad!r}")


def test_criterion_08_entropy_bound(capsys):
    rng = random.Random(8)
    k5 = complete(5)
    bad = []
    positive = 0
    done = 0
    while done < 100:
        r = rng.choice((3, 4))
        tpl = random_template(rng, 5, r)
        exact = constrained_count(tpl, k5, cap=500_000)
        if exact is None:
            continue
        done += 1
        bound = product_log_bound(tpl).edge_sum
        if exact:
            positive += 1
            if log2(exact) > bound + 1e-9:
                bad.append((tpl.palettes, exact, bound))
    ok = not bad and positive >= 30
    report(capsys, 8, "constrained counts never exceed the palette product bound",
           ok, f"100 templates, {positive} with positive count, "
               f"violations: {len(bad)}")


def test_criterion_09_supersaturation_sweep(capsys):
    budget = 600.0
    start = time.monotonic()
    bad = []
    checks = 0
    for g in small_classes(7):
        if g.n < 2:
            continue
        slack = g.edge_count - max_k_partite_edges(g, 2)
        for t in range(1, slack + 1):
            rep = supersaturation_check(g, 2, t)
            checks += 1
            if not (rep.t_far and rep.ok):
                bad.append((g.n, g.edges(), t, rep))
    elapsed = time.monotonic() - start
    ok = not bad and checks > 0 and elapsed < budget
    report(capsys, 9, "triangle counts meet the supersaturation bound",
           ok, f"{checks} (graph, t) pairs over 1252 classes, "
               f"failures: {len(bad)}, {elapsed:.1f}s")


def test_criterion_10_majority_implication(capsys):
    eps_grid = (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5))
    counterexamples = []
    swept = 0
    hypothesis_hits = 0
    for g in small_classes(6):
        edges = g.edges()
        for assignment in itertools.product((1, 2), repeat=len(edges)):
            coloring = Coloring(dict(zip(edges, assignment)), 2)
            for eps in eps_grid:
                rep = majority_color_check(g, coloring, eps)
                swept += 1
                if rep.hypothesis_ok:
                    hypothesis_hits += 1
                    if not rep.conclusion_ok:
                        counterexamples.append((g.edges(), assignment, eps))

    rng = random.Random(10)
    eps = Fraction(2, 5)
    for n in (9, 10, 11, 12):
        g = complete(n)
        edges = g.edges()
        for _ in range(2500):
            colors = dict.fromkeys(edges, 1)
            for e in rng.sample(edges, rng.randrange(0, n // 3 + 1)):
                colors[e] = rng.choice((2, 3))
            rep = majority_color_check(g, Coloring(colors, 3), eps)
            swept += 1
            if rep.hypothesis_ok:
                hypothesis_hits += 1
                if not rep.conclusion_ok:
                    counterexamples.append((n, colors, eps))
    ok = not counterexamples and hypothesis_hits > 0
    report(capsys, 10, "mono-triangle hypothesis forces a dominant color",
           ok, f"{swept} checks, {hypothesis_hits} with hypothesis true, "
               f"counterexamples: {len(counterexamples)}")


def test_criterion_11_removal_routines(capsys):
    bad = []
    fam = greedy_book_family(graph_from_name("K3,3"), 5)
    if fam.books != ():
        bad.append(("k33", fam.books))
    fam = greedy_book_family(graph_from_name("B5"), 5)
    if not (len(fam.books) == 1 and fam.books[0].pages == frozenset({2, 3, 4, 5, 6})):
        bad.append(("b5", fam.books))
    for n in (5, 6, 7):
        trace = peel(complete(n), pair_template(n, 3, 1, 2), xi=Fraction(1, 10))
        if trace.removed != () or trace.residual_vertices != tuple(range(n)):
            bad.append(("peel", n, trace.removed))
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, rng.randint(3, 9))
        res = remove_low_degree(g, range(g.n))
        n2 = len(res.residual_vertices)
        e2 = res.residual.edge_count if res.residual is not None else 0
        lhs = 2 * (g.edge_count - e2)
        if lhs > comb(g.n, 2) - comb(n2, 2):
            bad.append(("lowdeg", g.edges()))
    report(capsys, 11, "book extraction, peeling, and low-degree removal",
           not bad, f"failures: {bad!r}")


def test_criterion_12_cover_certification(capsys):
    bad = []
    pairs = list(itertools.combinations(range(1, 4), 2))

    fam3 = [pair_template(3, 3, i, j) for i, j in pairs]
    cert = verify_cover(fam3, 3, 3, c=648000.0)
    if not cert.passed:
        bad.append(("pass-cert", cert))
    for assignment in gallai_colorings(complete(3), 3):
        covered = any(
            all(color in t.palette_colors(u, v)
                for (u, v), color in zip(complete(3).edges(), assignment))
            for t in fam3)
        if not covered:
            bad.append(("recheck-coverage", assignment))

    fam4 = [pair_template(4, 3, i, j) for i, j in pairs]
    cert = verify_cover(fam4, 4, 3, c=648000.0)
    witness = cert.coverage.witness
    if cert.passed or cert.coverage.passed or witness is None:
        bad.append(("fail-cert", cert))
    else:
        coloring = Coloring(witness["coloring"], 3)
        if not is_gallai(complete(4), coloring):
            bad.append(("witness-not-gallai", witness))
        for t in fam4:
            if all(coloring.color(u, v) in t.palette_colors(u, v)
                   for u, v in complete(4).edges()):
                bad.append(("witness-covered", witness))

    cert = verify_cover([full_template(4, 3)], 4, 3, c=648000.0)
    w = cert.sparsity.witness
    if cert.sparsity.passed or w is None:
        bad.append(("sparse-cert", cert))
    else:
        tpl = full_template(4, 3)
        rt = 0
        for a, b, c in itertools.combinations(range(4), 3):
            for x in tpl.palette_colors(a, b):
                for y in tpl.palette_colors(a, c):
                    for z in tpl.palette_colors(b, c):
                        rt += x != y and y != z and x != z
        if not (w["rt"] == rt and w["lhs"] == rt**3 * 4
                and w["rhs"] == comb(4, 3) ** 3 and w["lhs"] > w["rhs"]):
            bad.append(("sparse-witness", w, rt))
    report(capsys, 12, "cover certificates carry independently verified witnesses",
           not bad, f"failures: {bad!r}")
