import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from conftest import random_template
import gallai.containers
from gallai.containers import (
    BUILD_N_LIMIT,
    TAU_CEILING_DENOM,
    audit_params,
    build,
    closed_form_stats,
    codegree_function,
    container_params,
    degree_stats,
    is_independent,
    template_vertices,
    verify_cover,
)
from gallai.counting import Coloring, gallai_colorings, is_gallai
from gallai.errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from gallai.graphs import complete, edge_pairs
from gallai.kn import count_complete, lower_bound_two_color, sample_complete
from gallai.templates import (
    Template,
    from_coloring,
    full_template,
    pair_template,
    rt_count,
)


class TestBuild:
    @pytest.mark.parametrize("n,r,v,e", [
        (3, 3, 9, 6),
        (4, 3, 18, 24),
        (5, 4, 40, 240),
        (5, 3, 30, 60),
    ])
    def test_sizes(self, n, r, v, e):
        h = build(n, r)
        assert (len(h.vertices), len(h.edges)) == (v, e)

    def test_hyperedges_are_rainbow_triangles(self):
        h = build(4, 3)
        g = complete(4)
        for he in h.edges:
            members = sorted(he)
            edges = [e for e, _ in members]
            colors = [d for _, d in members]
            verts = sorted({v for e in edges for v in e})
            assert len(verts) == 3
            assert len(set(edges)) == 3
            assert len(set(colors)) == 3
            assert all(g.has_edge(u, v) for u, v in edges)

    def test_every_rainbow_assignment_appears_once(self):
        h = build(3, 3)
        assert len(h.edges) == len(set(h.edges)) == 6

    def test_limits(self):
        with pytest.raises(ResourceLimitError):
            build(BUILD_N_LIMIT + 1, 3)
        with pytest.raises(ResourceLimitError):
            build(5, 7)
        with pytest.raises(InvalidParameterError):
            build(5, 2)


class TestDegreeStats:
    def test_matches_closed_forms_everywhere(self):
        for n in range(3, 9):
            for r in range(3, 6):
                assert degree_stats(build(n, r)) == closed_form_stats(n, r)

    def test_closed_form_fields(self):
        s = closed_form_stats(5, 3)
        assert (s.v, s.e) == (30, 60)
        assert s.d == Fraction(6)
        assert (s.delta2, s.delta3) == (1, 1)


class TestCodegree:
    def test_reference_values(self):
        assert codegree_function(5, 3, 0.5) == pytest.approx(8 / 3, rel=1e-12)
        assert codegree_function(6, 4, 0.1) == pytest.approx(35 / 3, rel=1e-12)
        assert codegree_function(10, 3, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_decreasing_in_tau(self):
        values = [codegree_function(8, 4, tau) for tau in (0.1, 0.3, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)

    def test_tau_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidInputError):
                codegree_function(5, 3, bad)


class TestParams:
    def test_epsilon_and_tau_reported(self):
        p = container_params(10, 3)
        assert p.epsilon == pytest.approx(
            float(Fraction(1, 6)) * 10 ** (-1 / 3), rel=1e-12)
        assert p.tau > 1  # far too large at this order, reported as-is

    def test_audit_small_case(self):
        a = audit_params(10, 3)
        assert not a.tau_ok
        assert not a.delta_ok
        assert a.min_n_estimate == 470184984576000000

    def test_audit_crossover_is_sharp(self):
        est = audit_params(10, 3).min_n_estimate
        below = audit_params(est - 1, 3)
        at = audit_params(est, 3)
        assert not (below.tau_ok and below.delta_ok)
        assert at.tau_ok and at.delta_ok

    def test_predicates_monotone_in_order(self):
        for r in (3, 4, 5):
            est = audit_params(10, r).min_n_estimate
            grid = sorted({10, 100, 10**6, 10**9, est - 1, est, 2 * est, 10 * est})
            tau_seen = delta_seen = False
            for n in grid:
                a = audit_params(n, r)
                assert a.tau_ok or not tau_seen
                assert a.delta_ok or not delta_seen
                tau_seen = tau_seen or a.tau_ok
                delta_seen = delta_seen or a.delta_ok
            assert tau_seen and delta_seen

    def test_tau_ceiling_denominator(self):
        assert TAU_CEILING_DENOM == 200 * 36 * 3


class TestIndependence:
    def test_two_color_templates_are_independent(self):
        h = build(3, 3)
        assert is_independent(h, template_vertices(pair_template(3, 3, 1, 2)))

    def test_rainbow_coloring_is_not(self):
        h = build(3, 3)
        rainbow = Coloring({(0, 1): 1, (0, 2): 2, (1, 2): 3}, 3)
        assert not is_independent(h, template_vertices(from_coloring(rainbow, 3)))

    def test_characterizes_rainbow_free_templates(self):
        # independence in the hypergraph is exactly RT = 0
        h3 = build(3, 3)
        for masks in itertools.product(range(8), repeat=3):
            t = Template(3, 3, masks)
            assert is_independent(h3, template_vertices(t)) == (rt_count(t) == 0)
        h4 = build(4, 3)
        rng = random.Random(89)
        for _ in range(300):
            t = random_template(rng, 4, 3)
            assert is_independent(h4, template_vertices(t)) == (rt_count(t) == 0)


def two_color_family(n, r=3):
    return [pair_template(n, r, i, j)
            for i, j in itertools.combinations(range(1, r + 1), 2)]


class TestVerifyCover:
    def test_two_color_family_covers_order_three(self):
        cert = verify_cover(two_color_family(3), 3, 3, c=648000.0)
        assert cert.passed
        assert cert.coverage.checked == 21
        assert cert.sparsity.checked == 3

    def test_two_color_family_fails_at_order_four(self):
        cert = verify_cover(two_color_family(4), 4, 3, c=648000.0)
        assert not cert.coverage.passed
        witness = cert.coverage.witness["coloring"]
        coloring = Coloring(witness, 3)
        # the witness must be a genuine three-color Gallai coloring that no
        # family member admits
        assert is_gallai(complete(4), coloring)
        assert len(coloring.used_colors()) == 3
        for t in two_color_family(4):
            assert any(coloring.color(u, v) not in t.palette_colors(u, v)
                       for u, v in complete(4).edges())

    def test_full_template_fails_sparsity(self):
        cert = verify_cover([full_template(4, 3)], 4, 3, c=648000.0)
        assert not cert.sparsity.passed
        w = cert.sparsity.witness
        assert w == {"template_index": 0, "rt": 24, "lhs": 55296, "rhs": 64}
        assert w["lhs"] == w["rt"] ** 3 * 4
        assert w["rhs"] == comb(4, 3) ** 3
        assert rt_count(full_template(4, 3)) == w["rt"]

    def test_exhaustive_coverage_counts_every_gallai_coloring(self):
        family = two_color_family(4) + [full_template(4, 3)]
        cert = verify_cover(family, 4, 3, c=648000.0)
        assert cert.coverage.passed
        assert cert.coverage.checked == sum(1 for _ in gallai_colorings(complete(4), 3))

    def test_exhaustive_coverage_honours_the_node_budget(self):
        with pytest.raises(ResourceLimitError):
            verify_cover(two_color_family(4), 4, 3, c=648000.0, node_budget=10)
        # the budget bounds all 3^6 colorings, not only the Gallai ones
        with pytest.raises(ResourceLimitError):
            verify_cover(two_color_family(4), 4, 3, c=648000.0, node_budget=3**6 - 1)
        cert = verify_cover(two_color_family(4), 4, 3, c=648000.0, node_budget=3**6)
        assert cert.coverage.checked == 12

    def test_tiny_size_budget_fails_with_witness(self):
        cert = verify_cover(two_color_family(3), 3, 3, c=1e-9)
        assert not cert.size_bound.passed
        assert cert.size_bound.witness is not None

    def test_sampled_mode_is_deterministic_per_seed(self):
        fam = two_color_family(5)
        a = verify_cover(fam, 5, 3, c=648000.0, sample_size=200, seed=5)
        b = verify_cover(fam, 5, 3, c=648000.0, sample_size=200, seed=5)
        assert a == b
        # two-color colorings are always covered, so only a three-color
        # draw finds the gap; about half of the Gallai 3-colorings of K5
        # use three colors
        assert not a.coverage.passed
        assert a.mode == "sampled"
        assert a.three_color_checked == 1
        assert len(set(a.coverage.witness["coloring"].values())) == 3

    def test_sampled_witness_is_the_first_draw_the_per_edge_check_misses(self):
        # the third color only on the edges at vertex 0, 1 or 2: the family
        # covers some three-color colorings of K5 and misses others
        pairs = edge_pairs(5)
        family = [Template(5, 3, tuple(0b111 if x in (u, v) else 1 << i | 1 << j
                                       for u, v in pairs))
                  for x in range(3) for i, j in itertools.combinations(range(3), 2)]
        cert = verify_cover(family, 5, 3, c=648000.0, sample_size=200, seed=3)
        for checked, draw in enumerate(sample_complete(5, 3, 200, random.Random(3)), 1):
            if not any(all(t.palette(u, v) >> (c - 1) & 1 for (u, v), c in zip(pairs, draw))
                       for t in family):
                break
        assert cert.mode == "sampled"
        assert cert.coverage.witness == {"coloring": dict(zip(pairs, draw))}
        assert cert.coverage.checked == checked
        # three-color draws were covered before one was missed
        assert cert.three_color_checked > 10

    @pytest.mark.parametrize("seed", range(4))
    def test_two_color_family_fails_at_order_ten(self, seed):
        # about one in nine Gallai 3-colorings of K10 uses three colors, and
        # uniform draws meet them that often
        cert = verify_cover(two_color_family(10), 10, 3, c=648000.0,
                            sample_size=200, seed=seed)
        assert not cert.coverage.passed
        coloring = Coloring(cert.coverage.witness["coloring"], 3)
        assert is_gallai(complete(10), coloring)
        assert len(coloring.used_colors()) == 3
        assert cert.three_color_checked == 1

    def test_certificate_says_how_coverage_was_checked(self):
        family = two_color_family(4) + [full_template(4, 3)]
        exhaustive = verify_cover(family, 4, 3, c=648000.0)
        assert exhaustive.mode == "exhaustive"
        assert exhaustive.three_color_checked == (
            count_complete(4, 3) - lower_bound_two_color(4, 3))
        sampled = verify_cover([full_template(7, 3)], 7, 3, c=648000.0, sample_size=200)
        assert sampled.mode == "sampled"
        assert sampled.coverage.checked == 200
        assert 0 < sampled.three_color_checked < 200

    def test_sampled_order_is_capped(self):
        with pytest.raises(ResourceLimitError):
            verify_cover([], 200, 3, c=1.0, sample_size=1)

    def test_mismatched_family_rejected(self):
        with pytest.raises(InvalidInputError):
            verify_cover([pair_template(4, 3, 1, 2)], 5, 3, c=1.0)
        with pytest.raises(InvalidInputError):
            verify_cover([pair_template(5, 4, 1, 2)], 5, 3, c=1.0)


class TestUniformSampler:
    """The cover sampler draws uniformly from the Gallai colorings of K_n."""

    def test_primality_test_against_every_vertex_subset(self):
        def brute_prime(adj):
            k = len(adj)
            for module in range(1 << k):
                if 2 <= module.bit_count() < k and all(
                        adj[z] & module in (0, module)
                        for z in range(k) if not module >> z & 1):
                    return False
            return True

        for k, primes in [(3, 0), (4, 12), (5, 192)]:
            found = 0
            pairs = list(itertools.combinations(range(k), 2))
            for bits in range(1 << len(pairs)):
                adj = [0] * k
                for i, (u, v) in enumerate(pairs):
                    if bits >> i & 1:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                prime = gallai.kn._is_prime(adj)
                assert prime == brute_prime(adj)
                found += prime
            assert found == primes

    @pytest.mark.parametrize("r", [2, 3, 4, 10, 10**6])
    def test_every_draw_is_gallai(self, r):
        for n in range(2, 9):
            g = complete(n)
            for colors in sample_complete(n, r, 40, random.Random(n)):
                assert is_gallai(g, Coloring.from_sequence(g, colors, r))
                assert r > 2 or len(set(colors)) <= 2

    def test_chi_square_at_order_four(self):
        # 20 draws per coloring; chi^2 on 278 degrees of freedom has mean 278
        # and standard deviation 23.6, and the bound is four of them above
        cells = list(gallai_colorings(complete(4), 3))
        draws = 20 * len(cells)
        tally = Counter(sample_complete(4, 3, draws, random.Random(3)))
        assert set(tally) <= set(cells)
        chi2 = sum((tally[cell] - 20) ** 2 for cell in cells) / 20
        assert chi2 < 278 + 4 * 23.6
