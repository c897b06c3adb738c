import hashlib
import itertools
import json
import random
import time

import pytest

from z2poisson import (Classification, DiagramSyntaxError, DiagramValidationError,
                       PairId, SatakeDiagram, UnsupportedPairError, build_pair,
                       classify, parse_pair_name, parse_satake, satake_of)
from z2poisson.analysis import verify_main_combinatorics
from z2poisson import diagram
from z2poisson.diagram import (_EXCEPTIONAL, _PARAM_COUNT, _partial_matchings,
                               connected_dynkin_types, enumerate_valid_diagrams)

from oracles import is_connected


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
    assert is_connected(d)


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


@pytest.mark.parametrize("pid, shown", [
    (PairId("sl_so", ()), "sl_so()"),
    (PairId("diag_sl"), "diag_sl()"),
    (PairId("sl_gl", (4,)), "sl_gl(4,)"),
    (PairId("so_gl", (4, 1)), "so_gl(4, 1)"),
    (PairId("e6_f4", (1,)), "e6_f4(1,)"),
    (PairId("diag_e6", (1,)), "diag_e6(1,)"),
])
def test_catalog_parameter_count(pid, shown):
    # a wrong number of parameters is an unsupported pair, named by family
    # and count, and the pair still prints
    message = rf"^{pid.family} takes .* not {len(pid.params)}$"
    with pytest.raises(UnsupportedPairError, match=message):
        satake_of(pid)
    with pytest.raises(UnsupportedPairError):
        build_pair(pid)
    assert str(pid) == shown


@pytest.mark.parametrize("pid, shown", [
    (PairId("sl_so", 4), "sl_so(4)"),
    (PairId("sl_so", ("4",)), "sl_so('4',)"),
    (PairId("sl_so", (4.0,)), "sl_so(4.0,)"),
    (PairId("sl_so", (True,)), "sl_so(True,)"),
    (PairId("sl_gl", (4, "1")), "sl_gl(4, '1')"),
    (PairId("e6_f4", [1]), "e6_f4([1])"),
])
def test_catalog_parameter_types(pid, shown):
    # parameters that are not a tuple of ints are an unsupported pair,
    # caught before the count, and the pair still prints
    with pytest.raises(UnsupportedPairError, match="tuple of int"):
        satake_of(pid)
    with pytest.raises(UnsupportedPairError):
        build_pair(pid)
    assert str(pid) == shown


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


def test_exceptional_names_round_trip():
    # the catalog table holds each exceptional pair's names once
    for fam, (g, g0, _, _) in _EXCEPTIONAL.items():
        assert parse_pair_name(f"{g},{g0}") == PairId(fam)
        assert str(PairId(fam)) == f"({g}, {g0})"
    for h in ("e6", "e7", "e8", "f4", "g2"):
        pid = parse_pair_name(f"{h}+{h},diag")
        assert pid == PairId(f"diag_{h}")
        assert str(pid) == f"({h}+{h}, diag)"
    for name in ("e5+e5,diag", "e9+e9,diag", "f5+f5,diag", "g3+g3,diag"):
        with pytest.raises(UnsupportedPairError):
            parse_pair_name(name)


def test_printed_pair_names_parse_back():
    # the name a report prints runs as given, for every catalog family
    pids = [PairId(fam) for fam in _EXCEPTIONAL]
    pids += [PairId(f"diag_{h}") for h in ("e6", "e7", "e8", "f4", "g2")]
    for fam, count in _PARAM_COUNT.items():
        for params in itertools.product(range(1, 8), repeat=count):
            try:
                satake_of(PairId(fam, params))
            except UnsupportedPairError:
                continue
            pids.append(PairId(fam, params))
    families = {pid.family for pid in pids}
    assert families >= set(_PARAM_COUNT) | set(_EXCEPTIONAL)
    for pid in pids:
        assert parse_pair_name(str(pid)) == pid, str(pid)
    assert parse_pair_name("(sl3+sl3, diag)") == PairId("diag_sl", (3,))
    assert parse_pair_name("sl6,sl1+sl5+t1") == parse_pair_name("sl6,gl5") \
        == PairId("sl_gl", (6, 1))
    for name in ("(sl3", "sl3,so3)", "((sl3,so3))", "sl6,sl1+sl4+t1", "sl6,sl1+sl5+t2",
                 "sl6,so1+so5+t1"):
        with pytest.raises(UnsupportedPairError):
            parse_pair_name(name)


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
        assert d.n_nodes - d.rank() == m


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
    for d in enumerate_valid_diagrams(4):
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


# the list-based predicates that the bitmask ones replaced, kept as oracles

def _list_trivial_nodes(d):
    adj = {v: [] for v in range(1, d.n_nodes + 1)}
    for a, b, _, _ in d.graph.edges():
        adj[a].append(b)
        adj[b].append(a)
    arrowed = d.arrowed_nodes()
    return {v for v in d.white_nodes()
            if v not in arrowed and all(d.color(u) == "w" for u in adj[v])}


def _list_has_bad_rank1_subpair(d):
    nodes = range(1, d.n_nodes + 1)
    arrowed = d.arrowed_nodes()
    units = [{v} for v in nodes if d.color(v) == "w" and v not in arrowed]
    units += [set(p) for p in d.arrows]
    edges = d.graph.edges()
    for r in range(len(units) + 1):
        for chosen in itertools.combinations(units, r):
            gone = set().union(*chosen)
            keep = [v for v in nodes if v not in gone]
            whites = [v for v in keep if d.color(v) == "w"]
            if len(whites) != 1:
                continue
            w = whites[0]
            kept = set(keep)
            if any(a in kept and b in kept for a, b in d.arrows):
                continue
            if all(w not in (a, b) for a, b, _, _ in edges
                   if a in kept and b in kept):
                return True
    return False


def _catalog_pairs():
    """Every catalog pair whose g has rank at most 8, and every exceptional
    and exceptional diagonal one."""
    pairs = [PairId(f) for f in _EXCEPTIONAL]
    pairs += [PairId(f"diag_{x}") for x in ("e6", "e7", "e8", "f4", "g2")]
    for n in range(2, 10):
        pairs.append(PairId("sl_so", (n,)))
        pairs += [PairId("sl_gl", (n, k)) for k in range(1, n // 2 + 1)]
    for n in range(2, 9):
        pairs.append(PairId("sp_gl", (n,)))
        pairs += [PairId("sp_sp", (n, k)) for k in range(1, n // 2 + 1)]
    for total in range(5, 18):
        pairs += [PairId("so_so", (p, total - p)) for p in range(1, total // 2 + 1)]
    pairs += [PairId("sl_sp", (n,)) for n in range(2, 5)]
    pairs += [PairId("so_gl", (n,)) for n in range(4, 9)]
    pairs += [PairId("diag_sl", (n,)) for n in range(2, 6)]
    pairs += [PairId("diag_so", (n,)) for n in range(5, 10)]
    pairs += [PairId("diag_sp", (n,)) for n in range(2, 5)]
    return pairs


def _rank_of_g(pair):
    """Rank of g from the catalog parameters alone, without the diagram."""
    fam, p = pair.family, pair.params
    if fam in _EXCEPTIONAL:
        return int(_EXCEPTIONAL[fam][0][1:])
    if fam in ("sl_so", "sl_gl"):
        return p[0] - 1
    if fam == "sl_sp":
        return 2 * p[0] - 1
    if fam == "so_so":
        return (p[0] + p[1]) // 2
    if fam in ("so_gl", "sp_sp", "sp_gl"):
        return p[0]
    if fam == "diag_sp":
        return 2 * p[0]
    if fam == "diag_sl":
        return 2 * (p[0] - 1)
    if fam == "diag_so":
        return 2 * (p[0] // 2)
    return 2 * int(fam[6:])     # diag_e6, ..., diag_g2


def test_diagram_node_count_is_rank_of_g():
    pairs = _catalog_pairs()
    assert len(pairs) == 156
    for pid in pairs:
        assert satake_of(pid).n_nodes == _rank_of_g(pid), pid


def test_bitmask_predicates_match_list_oracles():
    # the kernels fed the inputs that `main` takes once per coloring, on
    # every diagram up to 7 nodes and every catalog diagram, against the
    # methods and the list oracles
    groups = list(diagram._colorings(7))
    groups += [(d.graph, d.colors, [d.arrows])
               for d in map(satake_of, _catalog_pairs())]
    assert sum(len(matchings) for *_, matchings in groups) == 50757 + 156
    for graph, colors, matchings in groups:
        white = diagram._white_mask(colors)
        open_white = {v + 1 for v in diagram._open_whites(colors, graph.adjacency)}
        for arrows in matchings:
            d = SatakeDiagram(graph, colors, arrows)
            trivial = _list_trivial_nodes(d)
            assert open_white - d.arrowed_nodes() == trivial, d.serialize()
            assert d.trivial_nodes() == trivial, d.serialize()
            assert d.has_codim3() == (not trivial), d.serialize()
            bad = _list_has_bad_rank1_subpair(d)
            assert diagram._has_isolated_white(
                graph.neighbor_masks, white, arrows) == bad, d.serialize()
            assert d.has_bad_rank1_subpair() == bad, d.serialize()


def test_local_predicate_is_linear():
    # classify calls has_codim3 on user diagrams; n-bit masks per node would
    # cost O(n^2) memory here
    d = parse_satake(f"A100000 colors={'w' * 100000} arrows=[]")
    start = time.perf_counter()
    assert d.has_codim3() is False
    assert time.perf_counter() - start < 1.0


def test_predicate_equivalence_small():
    for d in enumerate_valid_diagrams(4):
        assert d.has_codim3() == (not d.has_bad_rank1_subpair()), d.serialize()


# ----------------------------------------------------------------------
# connectivity and canonical forms
# ----------------------------------------------------------------------

def test_connectivity():
    assert is_connected(satake_of(PairId("diag_sl", (2,))))
    assert not is_connected(parse_satake("A1 x A1 colors=ww arrows=[]"))
    assert is_connected(satake_of(PairId("so_gl", (5,))))


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
    for d in enumerate_valid_diagrams(6):
        d.validate()
        assert d.canonical() == d, d.serialize()


def test_component_identification_is_pinned():
    # every connected node subset of every standard component up to 8
    # nodes, relabeled by a seeded permutation, its edges shuffled and
    # flipped; the digest of (type, rank, all relabelings) was taken from
    # the recognizer that worked types out from path orders, arm lengths,
    # fork positions and arrow directions
    rng = random.Random(1312)
    sizes = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9),
             "D": range(3, 9), "E": (6, 7, 8), "F": (4,), "G": (2,)}
    records = []
    for letter, ranks in sizes.items():
        for r in ranks:
            edges = diagram.component_edges(letter, r)
            for k in range(1, r + 1):
                for sub in itertools.combinations(range(1, r + 1), k):
                    inside = [e for e in edges if e[0] in sub and e[1] in sub]
                    if len(inside) != k - 1:  # a forest is a tree iff connected
                        continue
                    new = dict(zip(sub, rng.sample(range(1, 100), k)))
                    raw = [(new[b], new[a], bond, tgt and new[tgt])
                           if rng.random() < 0.5 else
                           (new[a], new[b], bond, tgt and new[tgt])
                           for a, b, bond, tgt in inside]
                    rng.shuffle(raw)
                    t, rank, maps = diagram._identify_component(
                        sorted(new.values()), raw)
                    records.append((t, rank, sorted(maps)))
    assert len(records) == 605
    assert connected_dynkin_types(8) == (
        [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
        + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
    graphs = [(t,) for t in connected_dynkin_types(8)]
    graphs += [(("A", 2),) * 2, (("D", 4),) * 2, (("A", 1),) * 4,
               (("E", 6), ("A", 1))]
    autos = [sorted(diagram._diagram_automorphisms(diagram.DynkinGraph(g)))
             for g in graphs]
    text = repr((records, autos))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7ad02357d7295cdb3b231cc7798fa316048759f2f70cbebc1649e4c8cda30cdf")


def test_identify_component_indexes_only_letters_with_matching_counts(monkeypatch):
    # A, B and C share D's node count but not its degree or bond counts, so
    # only the subgraph and the D template get an edge index; B and C differ
    # only in the arrow, so C is reached through B's index
    calls = []
    raw = diagram._edge_index

    def counted(*args):
        calls.append(1)
        return raw(*args)

    monkeypatch.setattr(diagram, "_edge_index", counted)
    for letter, n, indexes in [("D", 2000, 2), ("C", 9, 3), ("A", 7, 2), ("G", 2, 2)]:
        calls.clear()
        got, rank, maps = diagram._identify_component(
            list(range(1, n + 1)), diagram.component_edges(letter, n))
        assert (got, rank, len(calls)) == (letter, n, indexes)
        assert tuple(range(1, n + 1)) in maps



def test_diagram_automorphisms_are_automorphisms():
    # C2 and D3 are graphs of their own even though they identify as B2 and
    # A3; each component's maps come from its own template
    graphs = [((letter, r),) for letter in "ABCDEFG"
              for r in range(diagram._MIN_RANK[letter],
                             min(diagram._MAX_RANK.get(letter, 8), 8) + 1)]
    graphs += [(("A", 2),) * 2, (("D", 4),) * 2]
    for comps in graphs:
        graph = diagram.DynkinGraph(comps)
        edges = {(frozenset(e[:2]), e[2], e[3]) for e in graph.edges()}
        maps = diagram._diagram_automorphisms(graph)
        assert tuple(range(graph.n_nodes)) in maps, comps
        assert len(set(maps)) == len(maps), comps
        for g in maps:
            pos = {v + 1: p for p, v in enumerate(g, start=1)}
            moved = {(frozenset((pos[a], pos[b])), bond, tgt and pos[tgt])
                     for a, b, bond, tgt in graph.edges()}
            assert moved == edges, (comps, g)
    autos = lambda *comps: sorted(diagram._diagram_automorphisms(
        diagram.DynkinGraph(comps)))
    assert autos(("C", 2)) == [(0, 1)]
    assert autos(("D", 3)) == [(0, 1, 2), (0, 2, 1)]
    assert len(autos(("A", 2), ("A", 2))) == 8
    assert len(autos(("D", 4), ("D", 4))) == 72


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def brute_force_6():
    """Every valid diagram with at most 6 nodes, by brute force: each
    coloring and partial matching of each component multiset, kept when
    connected and the first of its canonical form."""
    types = connected_dynkin_types(6)
    seen = set()
    for k in range(1, 7):
        for comps in itertools.combinations_with_replacement(types, k):
            n = sum(r for _, r in comps)
            if n > 6:
                continue
            for bits in itertools.product("wb", repeat=n):
                colors = "".join(bits)
                whites = [i + 1 for i, c in enumerate(colors) if c == "w"]
                for matching in _partial_matchings(whites):
                    d = SatakeDiagram.make(comps, colors, matching)
                    if is_connected(d):
                        seen.add(d.canonical())
    return seen


@pytest.mark.parametrize("max_nodes", range(1, 7))
def test_enumeration_matches_brute_force(max_nodes, brute_force_6):
    # lists, not sets, so that a class yielded twice shows
    expected = sorted(d.serialize() for d in brute_force_6
                      if d.n_nodes <= max_nodes)
    got = sorted(d.serialize() for d in enumerate_valid_diagrams(max_nodes))
    assert got == expected


def test_enumeration_order_is_pinned():
    # the digest of the 6-node sequence as the list-based enumeration
    # yielded it: matchings taken from a table keep their order
    text = "\n".join(d.serialize() for d in enumerate_valid_diagrams(6))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7ff54d367b319c6398abe08d78a14b990eb4b94ef6fb2004e22d0e149ccc0d65")


def test_enumeration_order_is_pinned_at_7_nodes():
    # the digest of the 7-node sequence (50,757 diagrams) as the enumeration
    # with one matchings list per white count yielded it
    text = "\n".join(d.serialize() for d in enumerate_valid_diagrams(7))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "eccf5be47042701b4332a981bb3e212aaee43e7afa44f8b5573e5dbf17f076bc")


def test_colorings_flatten_to_the_enumeration():
    # one group per least coloring that takes a matching, holding all of
    # its matchings, in the order of the enumeration
    groups = list(diagram._colorings(7))
    assert len({(graph, colors) for graph, colors, _ in groups}) == len(groups)
    assert all(matchings for *_, matchings in groups)
    assert [SatakeDiagram(graph, colors, arrows) for graph, colors, matchings in groups
            for arrows in matchings] == list(enumerate_valid_diagrams(7))
    assert sum(1 for _ in diagram._colorings(6)) == 1806


def test_enumeration_builds_each_types_own_maps_once(monkeypatch):
    # the relabelings of each component type onto itself come from one
    # template search per call, shared by every multiset that holds it;
    # the list of types is fixed first, as its identification searches too
    types = connected_dynkin_types(6)
    assert len(types) == 21
    monkeypatch.setattr(diagram, "connected_dynkin_types", lambda n: types)
    calls = []
    raw = diagram._template_maps

    def counted(letter, nodes, *args):
        calls.append((letter, len(nodes)))
        return raw(letter, nodes, *args)

    monkeypatch.setattr(diagram, "_template_maps", counted)
    assert sum(1 for _ in enumerate_valid_diagrams(6)) == 8755
    assert sorted(calls) == sorted(types)


def test_enumeration_counts_at_7_nodes():
    (check,) = verify_main_combinatorics(7).checks
    assert check.computed == [] and check.passed
    assert check.note == "50757 diagrams enumerated, 17915 with codim-3"


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


def test_classify_large_diagrams():
    alternating = "wb" * 1000
    for letter in ("D", "A"):
        d = parse_satake(f"{letter}2000 colors={alternating} arrows=[]")
        start = time.perf_counter()
        rec = classify(d)
        assert time.perf_counter() - start < 2.0, letter
        assert rec.to_json() == {"family": "unrecognized", "params": [],
                                 "rank": 1000, "codim3": True,
                                 "n_regular": False, "m": None}
    rec = classify(satake_of(PairId("sl_gl", (1001, 300))))
    assert (rec.family, rec.params, rec.rank) == ("sl_gl", (1001, 300), 300)


def test_classify_builds_one_candidate_per_family(monkeypatch):
    # the black-node count fixes each classical family's parameter, so a
    # single A/B/C/D component is compared with at most three catalog
    # diagrams, whatever its rank
    calls = []
    real = diagram._catalog_diagram
    monkeypatch.setattr(diagram, "_catalog_diagram",
                        lambda pair: calls.append(pair) or real(pair))
    cases = [parse_satake(f"{letter}{n} colors={colors} arrows=[]")
             for letter, n in (("A", 2000), ("B", 2000), ("C", 2000),
                               ("D", 2000), ("A", 7), ("C", 6), ("D", 6))
             for colors in ("wb" * (n // 2) + "w" * (n % 2), "w" * n,
                            "b" * n, "w" * 3 + "b" * (n - 3))]
    cases += [satake_of(pid) for pid in _catalog_pairs()
              if len(pid.params) and not pid.family.startswith("diag_")]
    for d in cases:
        calls.clear()
        classify(d)
        assert len(calls) <= 3, (d.graph.components, d.colors[:8], calls)


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
