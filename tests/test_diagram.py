import json
import random

import pytest

from z2poisson import (Classification, DiagramSyntaxError, DiagramValidationError,
                       PairId, SatakeDiagram, UnsupportedPairError, classify,
                       parse_pair_name, parse_satake, satake_of)
from z2poisson.diagram import (connected_dynkin_types, enumerate_valid_diagrams,
                               rank_of_g)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def test_parse_simple():
    d = parse_satake("A2 colors=ww arrows=[]")
    assert d.graph.components == (("A", 2),)
    assert d.colors == "ww"
    assert d.arrows == ()


def test_parse_with_arrows_and_product():
    d = parse_satake("A3 colors=wbw arrows=[(1,3)]")
    assert d.arrows == ((1, 3),)
    d2 = parse_satake("A1 x A1 colors=ww arrows=[(1,2)]")
    assert d2.graph.components == (("A", 1), ("A", 1))


def test_parse_empty():
    d = parse_satake("empty")
    assert d.n_nodes == 0
    assert d.serialize() == "empty"


def test_parse_syntax_errors_have_positions():
    with pytest.raises(DiagramSyntaxError) as e:
        parse_satake("A2 colours=ww arrows=[]")
    assert e.value.position > 0
    with pytest.raises(DiagramSyntaxError):
        parse_satake("Q7 colors=ww arrows=[]")
    with pytest.raises(DiagramSyntaxError):
        parse_satake("A2 colors=ww arrows=[(1,2]")
    with pytest.raises(DiagramSyntaxError):
        parse_satake("A2 colors=ww arrows=[] junk")


def test_validation_errors():
    with pytest.raises(DiagramValidationError, match="black"):
        parse_satake("A2 colors=wb arrows=[(1,2)]")
    with pytest.raises(DiagramValidationError, match="more than one arrow"):
        parse_satake("A3 colors=www arrows=[(1,2),(2,3)]")
    with pytest.raises(DiagramValidationError, match="length"):
        parse_satake("A3 colors=ww arrows=[]")
    with pytest.raises(DiagramValidationError, match="itself"):
        parse_satake("A2 colors=ww arrows=[(1,1)]")
    with pytest.raises(DiagramValidationError, match="rank"):
        parse_satake("B1 colors=w arrows=[]")
    with pytest.raises(DiagramValidationError, match="rank"):
        parse_satake("E5 colors=wwwww arrows=[]")
    with pytest.raises(DiagramValidationError, match="not a node"):
        parse_satake("A2 colors=ww arrows=[(1,7)]")


def test_arrow_across_nonisomorphic_nodes_is_structurally_valid():
    # arrow-joined nodes are not required to match under a diagram
    # isomorphism; structural validity is the only gate
    d = parse_satake("A2 x A1 colors=www arrows=[(1,3)]")
    assert d.is_connected()


def test_round_trip_catalog():
    for pair in [PairId("sl_gl", (5, 2)), PairId("e6_so10_t1"),
                 PairId("diag_sl", (3,)), PairId("so_gl", (5,)),
                 PairId("sp_sp", (4, 2)), PairId("f4_so9"),
                 PairId("g2_sl2_sl2")]:
        d = satake_of(pair)
        assert parse_satake(d.serialize()) == d


def test_round_trip_enumerated():
    for d in enumerate_valid_diagrams(3):
        assert parse_satake(d.serialize()) == d


def test_json_round_trip():
    d = satake_of(PairId("sl_gl", (4, 1)))
    blob = json.dumps(d.to_json())
    assert SatakeDiagram.from_json(json.loads(blob)) == d
    assert d.to_json() == {"components": [{"type": "A", "rank": 3}],
                           "colors": "wbw", "arrows": [[1, 3]]}


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def test_catalog_small_pictures():
    # diagonal pair over sl2: two white nodes, no edge, one arrow
    d = satake_of(PairId("diag_sl", (2,)))
    assert d.serialize() == "A1 x A1 colors=ww arrows=[(1,2)]"
    # (so_n, so_{n-1}): one white node, all-black chain
    assert satake_of(PairId("so_so", (1, 4))).serialize() == "B2 colors=wb arrows=[]"
    assert satake_of(PairId("so_so", (1, 6))).colors == "wbb"
    # (f4, so9)
    assert satake_of(PairId("f4_so9")).serialize() == "F4 colors=wbbb arrows=[]"


def test_catalog_row1_shape():
    d = satake_of(PairId("sl_gl", (7, 2)))
    assert d.colors == "wwbbww"
    assert d.arrows == ((1, 6), (2, 5))
    # middle node stays unpaired when the two blocks are equal
    d2 = satake_of(PairId("sl_gl", (6, 3)))
    assert d2.colors == "wwwww"
    assert d2.arrows == ((1, 5), (2, 4))


def test_catalog_quaternionic_and_orthogonal_shapes():
    assert satake_of(PairId("sl_sp", (3,))).colors == "bwbwb"
    d = satake_of(PairId("so_gl", (5,)))  # arrows at the fork for odd size
    assert d.colors == "bwbww"
    assert d.arrows == ((4, 5),)
    d2 = satake_of(PairId("so_gl", (4,)))  # no arrows for even size
    assert d2.colors == "bwbw"
    assert d2.arrows == ()
    d3 = satake_of(PairId("so_so", (4, 6)))  # fork pair arrowed when q-p = 2
    assert d3.colors == "wwwww"
    assert d3.arrows == ((4, 5),)
    # on D4 the same pattern exists but triality relabels the arrow
    d4 = satake_of(PairId("so_so", (3, 5)))
    assert d4.colors == "wwww" and len(d4.arrows) == 1


def test_catalog_parameter_validation():
    with pytest.raises(UnsupportedPairError):
        satake_of(PairId("sl_gl", (4, 3)))
    with pytest.raises(UnsupportedPairError):
        satake_of(PairId("so_so", (2, 2)))
    with pytest.raises(UnsupportedPairError):
        satake_of(PairId("nosuch", (1,)))
    with pytest.raises(UnsupportedPairError):
        satake_of(PairId("diag_so", (4,)))


def test_parse_pair_name():
    assert parse_pair_name("sl2,so2") == PairId("sl_so", (2,))
    assert parse_pair_name("SL4,SP4") == PairId("sl_sp", (2,))
    assert parse_pair_name("sl3,gl2") == PairId("sl_gl", (3, 1))
    assert parse_pair_name("so5,so4") == PairId("so_so", (1, 4))
    assert parse_pair_name("so7,so3+so4") == PairId("so_so", (3, 4))
    assert parse_pair_name("so10,gl5") == PairId("so_gl", (5,))
    assert parse_pair_name("sp4,sp2+sp2") == PairId("sp_sp", (2, 1))
    assert parse_pair_name("sp4,gl2") == PairId("sp_gl", (2,))
    assert parse_pair_name("sl3+sl3,diag") == PairId("diag_sl", (3,))
    assert parse_pair_name("E6,F4") == PairId("e6_f4")
    assert parse_pair_name("e8,e7+sl2") == PairId("e8_e7_sl2")
    with pytest.raises(UnsupportedPairError):
        parse_pair_name("sl2")
    with pytest.raises(UnsupportedPairError):
        parse_pair_name("sl5,sp5")
    with pytest.raises(UnsupportedPairError):
        parse_pair_name("e6,e5")


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------

def test_rank():
    assert satake_of(PairId("sl_gl", (9, 3))).rank() == 3
    assert parse_satake("A3 colors=bbb arrows=[]").rank() == 0
    assert satake_of(PairId("diag_sl", (2,))).rank() == 1
    assert satake_of(PairId("sl_sp", (4,))).rank() == 3
    assert satake_of(PairId("e6_f4")).rank() == 2


def test_rank_bounds_on_enumeration():
    for d in enumerate_valid_diagrams(3):
        assert 0 <= d.rank() <= d.n_nodes


def test_trivial_nodes():
    assert parse_satake("A2 colors=ww arrows=[]").trivial_nodes() == {1, 2}
    assert satake_of(PairId("so_so", (1, 4))).trivial_nodes() == set()
    # a white node whose only neighbor is white, rest black
    d = satake_of(PairId("so_so", (2, 5)))
    assert 1 in d.trivial_nodes()


def test_has_codim3_definitional_consistency():
    for d in enumerate_valid_diagrams(3):
        assert d.has_codim3() == (not d.trivial_nodes())


def test_has_codim3_examples():
    assert not parse_satake("A1 colors=w arrows=[]").has_codim3()
    assert satake_of(PairId("sl_gl", (4, 1))).has_codim3()
    assert not satake_of(PairId("e7_e6_t1")).has_codim3()


def test_is_n_regular():
    assert satake_of(PairId("sl_gl", (5, 2))).is_n_regular()
    assert satake_of(PairId("e6_sl6_sl2")).is_n_regular()
    assert not satake_of(PairId("f4_so9")).is_n_regular()


def test_nreg_list_arrow_counts():
    # arrow count = rk g - rk(g, g0) for the black-node-free families
    cases = [
        (PairId("sl_gl", (5, 2)), 2),      # blocks differing by one: min(n, k)
        (PairId("sl_gl", (6, 3)), 2),      # equal blocks: one fewer (middle node unpaired)
        (PairId("so_so", (3, 5)), 1),
        (PairId("e6_sl6_sl2"), 2),
        (PairId("diag_sl", (4,)), 3),
        (PairId("diag_sp", (2,)), 2),
    ]
    for pid, m in cases:
        d = satake_of(pid)
        assert d.is_n_regular()
        assert len(d.arrows) == m
        assert rank_of_g(pid) - d.rank() == m


# ----------------------------------------------------------------------
# subdiagram calculus
# ----------------------------------------------------------------------

def test_subdiagrams_one_step():
    assert parse_satake("A3 colors=bbb arrows=[]").subdiagrams_one_step() == []
    diag = satake_of(PairId("diag_sl", (2,)))
    assert [d.serialize() for d in diag.subdiagrams_one_step()] == ["empty"]
    sub = satake_of(PairId("so_so", (1, 4))).subdiagrams_one_step()
    assert [d.serialize() for d in sub] == ["A1 colors=b arrows=[]"]


def test_subdiagram_rank_drops_by_one():
    rng = random.Random(4)
    pool = list(enumerate_valid_diagrams(4))
    for d in rng.sample(pool, 60):
        for s in d.subdiagrams_one_step():
            assert s.rank() == d.rank() - 1
            s.validate()


def test_reduced_subpairs():
    single = parse_satake("A1 colors=w arrows=[]")
    assert {s.serialize() for s in single.reduced_subpairs()} == {
        "A1 colors=w arrows=[]", "empty"}
    allblack = parse_satake("A2 colors=bb arrows=[]")
    assert {s.serialize() for s in allblack.reduced_subpairs()} == {
        "A2 colors=bb arrows=[]"}
    assert allblack.reduced_subpairs(proper=True) == set()
    # nested arrows reach the adjacent arrowed pair
    d = satake_of(PairId("sl_gl", (5, 2)))
    assert parse_satake("A2 colors=ww arrows=[(1,2)]") in d.reduced_subpairs()


def test_has_bad_rank1_subpair_examples():
    assert parse_satake("A2 colors=ww arrows=[]").has_bad_rank1_subpair()
    assert not satake_of(PairId("so_so", (1, 6))).has_bad_rank1_subpair()
    assert satake_of(PairId("e8_e7_sl2")).has_bad_rank1_subpair()


def _bad_shape(s):
    whites = s.white_nodes()
    return (len(whites) == 1 and not s.arrows
            and all(whites[0] not in (a, b) for a, b, _, _ in s.graph.edges()))


def test_closure_matches_one_step_fixpoint():
    # the closure as iterated one-step removals, found by breadth-first search
    for d in enumerate_valid_diagrams(5):
        reached = set()
        frontier = {d}
        while frontier:
            frontier = {s for t in frontier
                        for s in t.subdiagrams_one_step()} - reached
            reached |= frontier
        assert d.reduced_subpairs(proper=True) == reached, d.serialize()
        assert d.reduced_subpairs() == reached | {d}, d.serialize()
        assert d.has_bad_rank1_subpair() == any(
            _bad_shape(s) for s in reached | {d}), d.serialize()


def test_predicate_equivalence_small():
    for d in enumerate_valid_diagrams(4):
        assert d.has_codim3() == (not d.has_bad_rank1_subpair()), d.serialize()


# ----------------------------------------------------------------------
# connectivity and canonical forms
# ----------------------------------------------------------------------

def test_connectivity():
    assert satake_of(PairId("diag_sl", (2,))).is_connected()
    assert not parse_satake("A1 x A1 colors=ww arrows=[]").is_connected()
    assert satake_of(PairId("so_gl", (5,))).is_connected()


def test_decompose():
    d = parse_satake("A1 x A2 colors=wbb arrows=[]")
    parts = sorted(p.serialize() for p in d.decompose())
    assert parts == ["A1 colors=w arrows=[]", "A2 colors=bb arrows=[]"]
    # an arrow ties two graph components into one part
    d = parse_satake("A1 x A2 x A1 colors=wbww arrows=[(1,4)]")
    parts = sorted(p.serialize() for p in d.decompose())
    assert parts == ["A1 x A1 colors=ww arrows=[(1,2)]", "A2 colors=bw arrows=[]"]


def test_canonical_identifies_isomorphic_labelings():
    a = parse_satake("A3 colors=wbb arrows=[]").canonical()
    b = parse_satake("A3 colors=bbw arrows=[]").canonical()
    assert a == b
    # component order does not matter
    c = parse_satake("A1 x A2 colors=bww arrows=[]").canonical()
    d = parse_satake("A2 x A1 colors=wwb arrows=[]").canonical()
    assert c == d
    # the 2-node double-bond graph normalizes to type B
    e = parse_satake("C2 colors=wb arrows=[]").canonical()
    assert e.graph.components == (("B", 2),)


def test_canonical_idempotent():
    for d in enumerate_valid_diagrams(3):
        assert d.canonical() == d


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_classify_records():
    rec = classify(satake_of(PairId("e6_f4")))
    assert rec == Classification("e6_f4", (), 2, True, False, None)
    rec2 = classify(satake_of(PairId("sl_sp", (3,))))
    assert (rec2.family, rec2.params, rec2.rank, rec2.codim3) == \
        ("sl_sp", (3,), 2, True)
    # so*(8) and so(2,6) are isomorphic real forms with the same diagram;
    # the classifier reports the orthogonal-pair family
    rec3 = classify(satake_of(PairId("so_gl", (4,))))
    assert rec3.family == "so_so" and rec3.params == (2, 6)
    assert rec3.codim3 is False
    rec3b = classify(satake_of(PairId("so_gl", (6,))))
    assert rec3b.family == "so_gl" and rec3b.params == (6,)
    assert rec3b.codim3 is False
    rec4 = classify(parse_satake("G2 colors=wb arrows=[]"))
    assert rec4.family == "unrecognized"
    assert rec4.codim3 is True


def test_classify_json_key_order():
    rec = classify(satake_of(PairId("diag_sl", (2,))))
    assert list(rec.to_json().keys()) == [
        "family", "params", "rank", "codim3", "n_regular", "m"]
    assert rec.to_json()["m"] == 1


def test_classify_round_trips_catalog():
    pairs = [
        PairId("sl_so", (4,)), PairId("sl_gl", (7, 3)), PairId("sl_sp", (4,)),
        PairId("so_so", (2, 7)), PairId("so_so", (4, 4)), PairId("so_gl", (6,)),
        PairId("sp_sp", (5, 2)), PairId("sp_gl", (3,)), PairId("diag_so", (7,)),
        PairId("diag_e6"), PairId("e7_so12_sl2"), PairId("e8_so16"),
        PairId("f4_sp6_sl2"), PairId("g2_sl2_sl2"),
    ]
    for pid in pairs:
        rec = classify(satake_of(pid))
        assert (rec.family, rec.params) == (pid.family, pid.params), pid
    # low-rank coincidences resolve to the first isomorphic catalog entry
    assert classify(satake_of(PairId("so_so", (3, 3)))).family == "sl_so"


def test_enumeration_types_nonredundant():
    types = connected_dynkin_types(6)
    assert ("C", 2) not in types and ("D", 3) not in types
    assert ("E", 6) in types and ("G", 2) in types
