import itertools
import random
from math import comb

import networkx as nx
import pytest

from conftest import brute_canonical_form, brute_triangles, random_graph
from gallai.errors import InvalidParameterError, ParseError, ResourceLimitError
from gallai.graphs import (
    ALL_GRAPHS_LIMIT,
    CANONICAL_LIMIT,
    FAMILY_VERTEX_LIMIT,
    Graph,
    all_graphs,
    book,
    booksize,
    booksize_edge,
    canonical_form,
    canonical_graph,
    complete,
    complete_bipartite,
    count_cliques,
    cycle,
    edge_index,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    graph_from_name,
    lovasz_triangle_bound,
    max_k_partite_edges,
    parse_edge_list,
    t_far,
)


class TestConstruction:
    def test_from_edges_rejects_bad_vertices(self):
        with pytest.raises(Exception):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(Exception):
            Graph.from_edges(3, [(1, 1)])

    def test_named_families(self):
        assert complete(5).edge_count == 10
        assert complete_bipartite(2, 3).edge_count == 6
        assert cycle(5).edge_count == 5
        assert book(4).edge_count == 1 + 2 * 4
        assert all(complete(6).degree(v) == 5 for v in range(6))

    @pytest.mark.parametrize("build, sizes", [
        (complete, (FAMILY_VERTEX_LIMIT + 1,)), (complete, (10**22,)),
        (complete_bipartite, (1, FAMILY_VERTEX_LIMIT)), (complete_bipartite, (2, 10**20)),
        (complete_bipartite, (10**4300 - 1, 10**4300 - 1)),
        (cycle, (FAMILY_VERTEX_LIMIT + 1,)), (cycle, (10**22,)),
        (book, (FAMILY_VERTEX_LIMIT - 1,)), (book, (10**22,))])
    def test_family_past_the_vertex_cap_is_refused_before_it_is_built(self, build, sizes):
        with pytest.raises(ResourceLimitError, match=f"more than {FAMILY_VERTEX_LIMIT} vertices"):
            build(*sizes)

    def test_family_errors_below_the_cap_are_unchanged(self):
        for name in ("K0", "K2,0", "K-5,100000000000000000000", "C2", "B-1"):
            with pytest.raises(InvalidParameterError):
                graph_from_name(name)
        assert graph_from_name("B0").edge_count == 1

    def test_book_two_pages_is_diamond(self):
        diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert canonical_form(book(2)) == canonical_form(diamond)

    def test_edge_listing_is_lexicographic(self):
        g = complete(4)
        assert list(g.edges()) == list(itertools.combinations(range(4), 2))
        assert [edge_index(4, u, v) for u, v in g.edges()] == list(range(6))

    def test_with_and_without_edge(self):
        g = cycle(4)
        assert g.with_edge(0, 2).edge_count == 5
        assert g.with_edge(0, 2).without_edge(0, 2) == g

    def test_induced_relabels(self):
        g = complete(5).without_edge(0, 1)
        sub = g.induced([0, 2, 4])
        assert sub.n == 3
        assert sub.edge_count == 3

    def test_permuted_preserves_degree_sequence(self):
        rng = random.Random(7)
        g = random_graph(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        h = g.permuted(perm)
        assert sorted(g.degree(v) for v in range(7)) == sorted(h.degree(v) for v in range(7))


class TestAdjacencyCheck:
    """The constructor refuses rows that are not a simple undirected graph,
    on sparse graphs and on those checked through their complement."""

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("upper", [True, False])
    def test_a_lone_bit_names_its_pair(self, dense, upper):
        # (2, 5) is no edge of C7 and an edge of K7
        rows = list((complete if dense else cycle)(7).adj)
        u, v = (2, 5) if upper else (5, 2)
        if dense:
            rows[v] ^= 1 << u
        else:
            rows[u] ^= 1 << v
        with pytest.raises(InvalidParameterError, match=r"asymmetric adjacency at \(2, 5\)"):
            Graph(7, tuple(rows))

    @pytest.mark.parametrize("dense", [False, True])
    def test_loop(self, dense):
        rows = list((complete if dense else cycle)(7).adj)
        rows[3] |= 1 << 3
        with pytest.raises(InvalidParameterError, match="loop at vertex 3"):
            Graph(7, tuple(rows))

    @pytest.mark.parametrize("row", [1 << 7, 1 << 70 | 1, -1])
    def test_bit_at_or_past_n(self, row):
        rows = list(cycle(7).adj)
        rows[4] = row
        with pytest.raises(InvalidParameterError, match="out of range at vertex 4"):
            Graph(7, tuple(rows))

    def test_random_graphs_build_and_any_flipped_bit_is_named(self):
        rng = random.Random(11)
        for _ in range(400):
            n = rng.randint(2, 12)
            density = rng.random()
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            g = Graph.from_edges(n, edges)
            assert Graph(n, g.adj) == g
            assert g.edges() == edges
            u, v = rng.sample(range(n), 2)
            rows = list(g.adj)
            rows[u] ^= 1 << v
            pair = fr"\({min(u, v)}, {max(u, v)}\)"
            with pytest.raises(InvalidParameterError, match=f"asymmetric adjacency at {pair}"):
                Graph(n, tuple(rows))


class TestTriangles:
    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 8))
            assert sorted(g.triangles()) == brute_triangles(g)

    def test_common_neighbors_bitmask(self):
        g = complete(5)
        mask = g.common_neighbors(0, 1)
        assert mask == 0b11100

    def test_triangle_free_families(self):
        assert list(cycle(5).triangles()) == []
        assert list(complete_bipartite(3, 3).triangles()) == []

    def test_triangle_edges_of_complete_graphs_are_edge_index_slots(self):
        for n in range(1, 10):
            assert complete(n).triangle_edges() == [
                (edge_index(n, a, b), edge_index(n, a, c), edge_index(n, b, c))
                for a, b, c in itertools.combinations(range(n), 3)]

    def test_triangle_edges_are_positions_in_edges(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9))
            edges = g.edges()
            assert [tuple(edges[i] for i in t) for t in g.triangle_edges()] == [
                ((a, b), (a, c), (b, c)) for a, b, c in g.triangles()]


class TestBooks:
    def test_booksize_values(self):
        assert booksize(complete(5)) == 3
        assert booksize(book(4)) == 4
        assert booksize(complete_bipartite(3, 3)) == 0

    def test_booksize_edge_prefers_lexicographic(self):
        size, edge = booksize_edge(complete(5))
        assert (size, edge) == (3, (0, 1))

    def test_booksize_edge_on_triangle_free_graph(self):
        size, edge = booksize_edge(cycle(5))
        assert size == 0


class TestCliquesAndPartitions:
    def test_count_cliques(self):
        assert count_cliques(complete(5), 3) == 10
        assert count_cliques(complete(5), 5) == 1
        wheel = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] + [(5, i) for i in range(5)])
        assert count_cliques(wheel, 3) == 5

    def test_max_k_partite_matches_bruteforce(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 6)
            g = random_graph(rng, n)
            for k in (2, 3):
                if k > n:
                    continue
                best = 0
                for parts in itertools.product(range(k), repeat=n):
                    cut = sum(1 for u, v in g.edges() if parts[u] != parts[v])
                    best = max(best, cut)
                assert max_k_partite_edges(g, k) == best

    def test_max_k_partite_search_is_metered(self):
        g = complete(8)
        assert max_k_partite_edges(g, 3) == 21
        with pytest.raises(ResourceLimitError):
            max_k_partite_edges(g, 3, node_budget=20)
        with pytest.raises(ResourceLimitError):
            t_far(g, 3, 1, node_budget=20)

    def test_t_far_tracks_max_cut(self):
        g = complete(4)
        assert max_k_partite_edges(g, 2) == 4
        assert t_far(g, 2, 1) and t_far(g, 2, 2)
        assert not t_far(g, 2, 3)

    def test_lovasz_triangle_bound(self):
        assert lovasz_triangle_bound(6) == pytest.approx(4.0)
        assert lovasz_triangle_bound(0) == 0.0
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            assert len(g.triangles()) <= lovasz_triangle_bound(g.edge_count) + 1e-9


class TestIsomorphism:
    def test_all_graphs_class_counts(self):
        assert [sum(1 for _ in all_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]

    def test_all_graphs_against_pairwise_isomorphism(self):
        # independent route: bucket every labeled graph by invariants, then
        # dedupe buckets with networkx isomorphism tests
        for n in range(1, 6):
            classes = []
            for bits in range(1 << comb(n, 2)):
                edges = [e for i, e in enumerate(itertools.combinations(range(n), 2))
                         if bits >> i & 1]
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from(edges)
                if not any(nx.is_isomorphic(h, other) for other in classes):
                    classes.append(h)
            assert sum(1 for _ in all_graphs(n)) == len(classes)

    def test_all_graphs_yields_canonical_representatives(self):
        for n in range(1, 7):
            forms = []
            for g in all_graphs(n):
                assert canonical_graph(g) == g
                forms.append(canonical_form(g))
            assert all(a < b for a, b in zip(forms, forms[1:]))

    def test_all_graphs_matches_the_plain_mask_loop(self):
        # every mask in increasing order, skipping those an earlier orbit
        # reached, with each orbit found by relabeling in plain Python
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            m = len(pairs)
            perms = list(itertools.permutations(range(n)))
            seen = set()
            expected = []
            for mask in range(1 << m):
                if mask in seen:
                    continue
                edges = [pairs[i] for i in range(m) if mask >> (m - 1 - i) & 1]
                expected.append(Graph.from_edges(n, edges))
                for perm in perms:
                    seen.add(sum(1 << (m - 1 - edge_index(n, *sorted((perm[u], perm[v]))))
                                 for u, v in edges))
            assert list(all_graphs(n)) == expected

    def test_all_graphs_limit(self):
        with pytest.raises(ResourceLimitError):
            list(all_graphs(ALL_GRAPHS_LIMIT + 1))

    def test_canonical_form_is_permutation_invariant(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(g.permuted(perm))

    def test_canonical_form_matches_the_permutation_loop(self):
        rng = random.Random(29)
        for n in range(1, 9):
            for _ in range(2 if n == 8 else 4):
                g = random_graph(rng, n)
                form = canonical_form(g)
                assert form == brute_canonical_form(g)
                rep = canonical_graph(g)
                assert canonical_form(rep) == form
                assert canonical_graph(rep) == rep
                assert brute_canonical_form(rep) == form
                assert nx.is_isomorphic(nx.Graph(rep.edges()), nx.Graph(g.edges()))
                assert rep.n == n and rep.edge_count == g.edge_count

    def test_canonical_form_limit(self):
        too_big = complete(CANONICAL_LIMIT + 1)
        with pytest.raises(ResourceLimitError):
            canonical_form(too_big)
        with pytest.raises(ResourceLimitError):
            canonical_graph(too_big)

    def test_canonical_form_separates_classes(self):
        forms = [canonical_form(g) for g in all_graphs(4)]
        assert len(set(forms)) == len(forms)


class TestGraph6:
    def test_known_encodings(self):
        assert graph6_encode(complete(5)) == "D~{"
        assert graph6_encode(Graph(1, (0,))) == "@"
        assert graph6_decode("DFw").edge_count == 6
        assert canonical_form(graph6_decode("DFw")) == canonical_form(complete_bipartite(2, 3))

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 12))
            assert graph6_decode(graph6_encode(g)) == g

    def test_rejects_malformed_input(self):
        with pytest.raises(ParseError):
            graph6_decode("")
        with pytest.raises(ParseError):
            graph6_decode("D~")  # truncated payload
        with pytest.raises(ParseError):
            graph6_decode("D~{extra")
        with pytest.raises(ParseError):
            graph6_decode("D\x19{{")  # byte below the printable range


class TestEdgeListFormat:
    def test_round_trip(self):
        g = complete(3)
        text = format_edge_list(g)
        assert text == "3 3\n0 1\n0 2\n1 2\n"
        assert parse_edge_list(text) == g

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("nonsense\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("3 1\n0 9\n")
        with pytest.raises(ParseError):
            parse_edge_list("3 2\n0 1\n0 1\n")

    def test_line_numbers_count_comments_and_blank_lines(self):
        with pytest.raises(ParseError, match=r"\(line 5\)") as exc:
            parse_edge_list("# path\n3 2\n\n0 1\n1 1\n")
        assert exc.value.line == 5
        with pytest.raises(ParseError, match=r"\(line 3\)"):
            parse_edge_list("\n# header next\nthree 2\n")


class TestGraphNames:
    @pytest.mark.parametrize("name,n,e", [
        ("K5", 5, 10),
        ("K2,3", 5, 6),
        ("K1,9", 10, 9),
        ("C5", 5, 5),
        ("B4", 6, 9),
        ("D~{", 5, 10),
        # graph6 strings that start with a family letter
        ("Bw", 3, 3),
        ("C~", 4, 6),
    ])
    def test_named_graphs(self, name, n, e):
        g = graph_from_name(name)
        assert (g.n, g.edge_count) == (n, e)

    def test_unknown_name_is_a_parse_error(self):
        with pytest.raises(ParseError):
            graph_from_name("Zork")

    def test_bad_counts_rejected(self):
        for name, message in [("K0", "complete graph needs n >= 1"),
                              ("K2,0", "complete bipartite graph needs both sides nonempty"),
                              ("C2", "cycle needs n >= 3"),
                              ("B-1", "book needs q >= 0 pages")]:
            with pytest.raises(InvalidParameterError, match=message):
                graph_from_name(name)
