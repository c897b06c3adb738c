"""The record classes: value semantics of the immutable ones, keyword
construction, and an import of the package that stays cheap and provides
every name it exports."""

import os
import pathlib
import subprocess
import sys

import pytest

import z2poisson
from z2poisson import (Classification, DynkinGraph, PairId, SatakeDiagram,
                       Z2Grading, parse_satake)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _value_pairs():
    """Per value type: two instances with equal fields, built separately,
    and one that differs in a field."""
    graph = lambda: DynkinGraph((("A", 3), ("B", 2)))
    diagram = lambda colors: SatakeDiagram(graph(), colors, ((1, 3),))
    record = lambda rank: Classification("sl_gl", (4, 1), rank, True, True, 1)
    return [
        (PairId("sl_gl", (4, 1)), PairId("sl_gl", (4, 1)), PairId("sl_gl", (4, 2))),
        (graph(), graph(), DynkinGraph((("A", 3),))),
        (diagram("wbwww"), diagram("wbwww"), diagram("wbwwb")),
        (record(1), record(1), record(2)),
        (Z2Grading((0,), (1, 2)), Z2Grading((0,), (1, 2)), Z2Grading((0, 1), (2,))),
    ]


@pytest.mark.parametrize("a,b,other", _value_pairs(),
                         ids=lambda v: type(v).__name__)
def test_value_types_compare_and_hash_by_field(a, b, other):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    assert {a: "found"}[b] == "found"
    assert len({a, b, other}) == 2
    # only instances of the same class compare equal
    assert a != a._key() and a != object()


def test_classification_equality_ignores_satake():
    d = parse_satake("A1 colors=w arrows=[]")
    plain = Classification("sl_so", (2,), 1, False, True, 0)
    with_form = Classification("sl_so", (2,), 1, False, True, 0, satake=d)
    assert plain == with_form and hash(plain) == hash(with_form)
    assert with_form.satake is d and plain.satake is None
    assert "satake=SatakeDiagram(" in repr(with_form)


def test_keyword_construction():
    rec = Classification(family="sl_so", params=(2,), rank=1, codim3=False,
                         n_regular=True, m=0)
    assert rec == Classification("sl_so", (2,), 1, False, True, 0)
    assert PairId(family="e6_f4") == PairId("e6_f4", ())
    assert Z2Grading(odd_idx=(1,), even_idx=(0,)) == Z2Grading((0,), (1,))
    graph = DynkinGraph(components=(("A", 2),))
    assert SatakeDiagram(graph=graph, colors="ww", arrows=()) == \
        parse_satake("A2 colors=ww arrows=[]")


def test_value_repr_lists_fields():
    assert repr(PairId("sl_so", (2,))) == "PairId(family='sl_so', params=(2,))"
    assert repr(Z2Grading((0,), (1, 2))) == "Z2Grading(even_idx=(0,), odd_idx=(1, 2))"
    assert repr(parse_satake("A1 colors=w arrows=[]")) == (
        "SatakeDiagram(graph=DynkinGraph(components=(('A', 1),)), "
        "colors='w', arrows=())")


def test_public_names_resolve():
    for name in z2poisson.__all__:
        assert hasattr(z2poisson, name), name
    namespace = {}
    exec("from z2poisson import *", namespace)
    assert set(z2poisson.__all__) <= set(namespace)


def test_import_skips_dataclasses_and_inspect():
    # a fresh interpreter without site-packages, so only the package counts
    code = ("import sys, z2poisson.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
