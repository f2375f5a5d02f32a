"""The result records are immutable values: fields fixed at construction,
equality and hashing by value within one class, and a readable repr."""

from __future__ import annotations

import copy
import pickle

import pytest

from gallai.containers import closed_form_stats
from gallai.errors import InvalidParameterError
from gallai.extremal import extremal_search
from gallai.graphs import Graph, Record, complete
from gallai.kn import asymptotic_bounds
from gallai.stability import greedy_book_family
from gallai.templates import Template, classify_triangles, full_template

# each builds a fresh record with the same value on every call
RECORDS = {
    "Graph": lambda: complete(4),
    "Template": lambda: full_template(4, 3),
    "ExtremalTable": lambda: extremal_search(3, 3),
    "TriangleTally": lambda: classify_triangles(full_template(4, 3), "complete"),
    "DegreeStats": lambda: closed_form_stats(5, 3),
    "AsymptoticBounds": lambda: asymptotic_bounds(6, 3),
    "BookFamily": lambda: greedy_book_family(complete(5), 1),
}


@pytest.fixture(params=sorted(RECORDS))
def build(request):
    return RECORDS[request.param]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


class TestRecords:
    def test_fields_cannot_be_assigned(self, build):
        record = build()
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert fields(record) == fields(build())

    def test_equal_records_hash_equal_and_key_sets_and_dicts(self, build):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: "value"}[b] == "value"

    def test_equality_stays_within_the_class(self, build):
        record = build()
        assert record != fields(record)
        assert record != object()

    def test_copies_and_pickles_are_equal(self, build):
        record = build()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record

    def test_repr_names_every_field(self, build):
        record = build()
        names = type(record).__slots__
        assert repr(record).startswith(f"{type(record).__name__}({names[0]}=")
        assert all(f"{name}=" in repr(record) for name in names)

    def test_repr_of_a_graph(self):
        assert repr(complete(3)) == "Graph(n=3, adj=(6, 5, 3))"

    def test_fields_by_position_or_by_name(self):
        assert Graph(n=2, adj=(2, 1)) == Graph(2, adj=(2, 1)) == complete(2)
        assert Template(r=3, palettes=(7,), n=2) == full_template(2, 3)

        class Pair(Record):
            a: int
            b: int

        assert Pair(1, b=2) == Pair(b=2, a=1) == Pair(1, 2)
        for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"c": 2}), ((1, 2), {"a": 1})]:
            with pytest.raises(TypeError):
                Pair(*args, **kwargs)
        with pytest.raises(TypeError):
            Graph(2)

    def test_records_of_different_classes_differ(self):
        class First(Record):
            x: int

        class Second(Record):
            x: int

        assert First(1) == First(1)
        assert First(1) != Second(1)

    @pytest.mark.parametrize("n, adj", [(0, ()), (2, (2, 0)), (2, (1, 2)), (2, (2,))])
    def test_invalid_graph_is_refused(self, n, adj):
        with pytest.raises(InvalidParameterError):
            Graph(n, adj)

    @pytest.mark.parametrize("n, r, palettes", [
        (3, 2, (1, 1, 4)),    # color 3 past r = 2
        (0, 3, ()),
        (3, 17, (1, 1, 1)),
        (3, 3, (7, 7)),
    ])
    def test_invalid_template_is_refused(self, n, r, palettes):
        with pytest.raises(InvalidParameterError):
            Template(n, r, palettes)
