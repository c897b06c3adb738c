"""Satake diagrams: data model, DSL parser, catalog, and the combinatorial
classification predicates.

A Satake diagram is a Dynkin graph with a black/white node coloring and a
partial matching of white nodes by arrows.  Everything here is exact, finite
combinatorics: ranks, trivial nodes, subdiagram calculus, and the two
equivalent characterisations of which decorated diagrams admit the
codimension-3 regularity property of the associated contraction.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from operator import itemgetter

from .errors import (BudgetError, DiagramSyntaxError, DiagramValidationError,
                     UnsupportedPairError)
from .record import Value

# node ids are global and 1-based; components are numbered left to right,
# Bourbaki numbering inside each component.

Edge = tuple[int, int, int, int | None]  # (a, b, bond, arrow-target or None)

# a canonical form tries every relabeling; repeated equal components make
# that count factorial (nine A1 would be 9! = 362,880)
CANONICAL_RELABELING_BUDGET = 100_000

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}


@lru_cache(maxsize=None)
def component_edges(letter: str, rank: int) -> tuple[Edge, ...]:
    """Edges of the standard component in local 1-based numbering."""
    if letter == "A":
        return tuple((i, i + 1, 1, None) for i in range(1, rank))
    if letter == "B":
        edges = [(i, i + 1, 1, None) for i in range(1, rank - 1)]
        edges.append((rank - 1, rank, 2, rank))
        return tuple(edges)
    if letter == "C":
        edges = [(i, i + 1, 1, None) for i in range(1, rank - 1)]
        edges.append((rank - 1, rank, 2, rank - 1))
        return tuple(edges)
    if letter == "D":
        edges = [(i, i + 1, 1, None) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank, 1, None))
        return tuple(edges)
    if letter == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        edges = [(a, b, 1, None) for a, b in zip(chain, chain[1:])]
        edges.append((2, 4, 1, None))
        return tuple(sorted(edges))
    if letter == "F":
        return ((1, 2, 1, None), (2, 3, 2, 3), (3, 4, 1, None))
    if letter == "G":
        return ((1, 2, 3, 1),)
    raise DiagramValidationError(f"unknown component type {letter!r}")


def _check_component(letter: str, rank: int) -> None:
    if letter not in _MIN_RANK:
        raise DiagramValidationError(f"unknown component type {letter!r}")
    if rank < _MIN_RANK[letter] or rank > _MAX_RANK.get(letter, 10 ** 9):
        raise DiagramValidationError(f"rank {rank} out of range for type {letter}")


class DynkinGraph(Value):
    """A disjoint union of standard Dynkin components; immutable."""

    _fields = ("components",)

    def __init__(self, components: tuple[tuple[str, int], ...]):
        self.components = components

    @property
    def n_nodes(self) -> int:
        return sum(r for _, r in self.components)

    def offsets(self) -> list[int]:
        out, total = [], 0
        for _, r in self.components:
            out.append(total)
            total += r
        return out

    def edges(self) -> list[Edge]:
        out: list[Edge] = []
        for off, (letter, rank) in zip(self.offsets(), self.components):
            for a, b, bond, tgt in component_edges(letter, rank):
                out.append((a + off, b + off, bond, tgt + off if tgt else None))
        return out

    def validate(self) -> None:
        for letter, rank in self.components:
            _check_component(letter, rank)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The 0-based neighbors of each 0-based node."""
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for a, b, _, _ in self.edges():
            adj[a - 1].append(b - 1)
            adj[b - 1].append(a - 1)
        return tuple(map(tuple, adj))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """The neighbors of each 0-based node as a bitmask (bit ``u`` for
        node ``u``); n bits per node, so only for small graphs."""
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adjacency)


class SatakeDiagram(Value):
    """A Dynkin graph with a black/white coloring and arrows, each a sorted
    pair of 1-based white nodes; immutable."""

    _fields = ("graph", "colors", "arrows")

    def __init__(self, graph: DynkinGraph, colors: str,
                 arrows: tuple[tuple[int, int], ...]):
        self.graph = graph
        self.colors = colors
        self.arrows = arrows

    # -- construction -------------------------------------------------
    @staticmethod
    def make(components, colors: str, arrows) -> "SatakeDiagram":
        graph = DynkinGraph(tuple((str(c[0]), int(c[1])) for c in components))
        arr = tuple(sorted(tuple(sorted((int(a), int(b)))) for a, b in arrows))
        d = SatakeDiagram(graph, colors, arr)
        d.validate()
        return d

    def validate(self) -> None:
        self.graph.validate()
        n = self.graph.n_nodes
        if len(self.colors) != n:
            raise DiagramValidationError(
                f"color string length {len(self.colors)} != number of nodes {n}")
        if not set(self.colors) <= {"w", "b"}:
            raise DiagramValidationError("colors must be a string over 'w'/'b'")
        seen: set[int] = set()
        for a, b in self.arrows:
            if a == b:
                raise DiagramValidationError(f"arrow ({a},{b}) joins a node to itself")
            for v in (a, b):
                if not 1 <= v <= n:
                    raise DiagramValidationError(f"arrow endpoint {v} is not a node")
                if self.colors[v - 1] != "w":
                    raise DiagramValidationError(f"arrow endpoint {v} is black")
                if v in seen:
                    raise DiagramValidationError(
                        f"node {v} belongs to more than one arrow")
                seen.add(v)

    # -- basic queries -------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    def color(self, v: int) -> str:
        return self.colors[v - 1]

    def white_nodes(self) -> list[int]:
        return [v for v in range(1, self.n_nodes + 1) if self.color(v) == "w"]

    def arrowed_nodes(self) -> set[int]:
        return {v for pair in self.arrows for v in pair}

    def rank(self) -> int:
        """Rank of the symmetric pair: white nodes minus arrows."""
        return len(self.white_nodes()) - len(self.arrows)

    def trivial_nodes(self, first: bool = False) -> set[int]:
        """White nodes with no arrow attached and only white neighbors: the
        ``_open_whites`` of the coloring minus the arrowed nodes.  With
        ``first``, only the least of them, and the pass over the adjacency
        stops there."""
        arrowed, out = self.arrowed_nodes(), set()
        for v in _open_whites(self.colors, self.graph.adjacency):
            if v + 1 not in arrowed:
                out.add(v + 1)
                if first:
                    break
        return out

    def has_codim3(self) -> bool:
        return not self.trivial_nodes(first=True)

    def is_n_regular(self) -> bool:
        return "b" not in self.colors

    # -- subdiagram calculus ---------------------------------------------
    # A removal unit is an arrow-free white node or an arrow pair.  Units
    # are disjoint, and removing one leaves every other unit removable and
    # creates none, so iterated one-step removals reach exactly the
    # diagrams left by removing some subset of the units.
    def _removals(self, sizes) -> Iterator[list[int]]:
        """The sorted node lists left by removing ``r`` removal units, for
        each ``r`` in ``sizes``, yielded one at a time."""
        nodes = range(1, self.n_nodes + 1)
        arrowed = self.arrowed_nodes()
        units = [{v} for v in nodes if self.colors[v - 1] == "w" and v not in arrowed]
        units += [set(p) for p in self.arrows]
        for r in sizes:
            for chosen in itertools.combinations(units, r):
                gone = set().union(*chosen)
                yield [v for v in nodes if v not in gone]

    def _restrict(self, keep: list[int]):
        """The raw ``(nodes, edges, colors, arrows)`` on the node list ``keep``."""
        kept = set(keep)
        edges = [e for e in self.graph.edges() if e[0] in kept and e[1] in kept]
        colors = {v: self.color(v) for v in keep}
        arrows = [p for p in self.arrows if p[0] in kept and p[1] in kept]
        return keep, edges, colors, arrows

    def subdiagrams_one_step(self) -> list["SatakeDiagram"]:
        """All diagrams obtained by one legal removal: a single arrow-free
        white node, or a pair of arrow-joined nodes.  Canonical, deduplicated,
        sorted by serialization."""
        seen: dict[str, SatakeDiagram] = {}
        for keep in self._removals((1,)):
            sub = _canonical_from_raw(*self._restrict(keep))
            seen[sub.serialize()] = sub
        return [seen[k] for k in sorted(seen)]

    def reduced_subpairs(self, proper: bool = False) -> set["SatakeDiagram"]:
        """Transitive closure of one-step removals: every union of removal
        units taken away, canonicalized.  Includes the diagram itself (the
        empty union) unless ``proper`` is set."""
        sizes = range(1 if proper else 0, self.n_nodes + 1)
        return {_canonical_from_raw(*self._restrict(keep))
                for keep in self._removals(sizes)}

    def has_bad_rank1_subpair(self) -> bool:
        """Whether some reduced subpair is a single isolated white node plus
        an all-black rest.  Equivalent to the failure of ``has_codim3`` but
        computed through the subdiagram closure instead of locally, by
        ``_has_isolated_white`` on the white mask of the coloring."""
        return _has_isolated_white(self.graph.neighbor_masks,
                                   _white_mask(self.colors), self.arrows)

    # -- canonical form / serialization ----------------------------------
    def canonical(self) -> "SatakeDiagram":
        nodes = list(range(1, self.n_nodes + 1))
        colors = {v: self.color(v) for v in nodes}
        return _canonical_from_raw(nodes, self.graph.edges(), colors, list(self.arrows))

    def serialize(self) -> str:
        if self.n_nodes == 0:
            return "empty"
        comps = " x ".join(f"{letter}{rank}" for letter, rank in self.graph.components)
        arrows = ",".join(f"({a},{b})" for a, b in self.arrows)
        return f"{comps} colors={self.colors} arrows=[{arrows}]"

    def to_json(self) -> dict:
        return {
            "components": [{"type": t, "rank": r} for t, r in self.graph.components],
            "colors": self.colors,
            "arrows": [[a, b] for a, b in self.arrows],
        }

    @staticmethod
    def from_json(data: dict) -> "SatakeDiagram":
        comps = [(c["type"], c["rank"]) for c in data["components"]]
        return SatakeDiagram.make(comps, data["colors"], data["arrows"])

    def __str__(self) -> str:
        return self.serialize()


# ----------------------------------------------------------------------
# the two predicates' kernels, shared by the ``SatakeDiagram`` methods and
# the ``main`` suite, which feeds them inputs taken once per coloring
# ----------------------------------------------------------------------

def _open_whites(colors: str, adjacency) -> Iterator[int]:
    """The 0-based white nodes whose neighbors are all white, in order: one
    pass over the adjacency lists, linear in the graph's size."""
    for v, nbrs in enumerate(adjacency):
        if colors[v] == "w":
            for u in nbrs:
                if colors[u] != "w":
                    break
            else:
                yield v


def _white_mask(colors: str) -> int:
    """The white nodes of a coloring as a bitmask, bit ``v - 1`` for node v."""
    return int("0" + colors[::-1].replace("b", "0").replace("w", "1"), 2)


def _has_isolated_white(neighbor_masks: Sequence[int], white: int,
                        arrows) -> bool:
    """Whether removing some union of removal units (an arrow pair, or an
    arrow-free white node) leaves one white node, none of whose neighbors
    is kept, with an all-black rest.  ``white`` is the white mask and
    ``arrows`` the 1-based arrow pairs.

    The kept-node masks of all unit subsets are built by doubling from the
    all-black rest, each unit joining every mask so far, and each new mask
    is tested as it is made: the search returns at the first hit, and with
    no hit it visits all 2^units masks, at most 256 on the 8 nodes ``main``
    enumerates.  A kept set with one white node holds no arrow, as both
    ends of an arrow are white."""
    units, free = [], white
    for a, b in arrows:
        unit = 1 << a - 1 | 1 << b - 1
        units.append(unit)
        free &= ~unit
    while free:
        units.append(free & -free)
        free &= free - 1
    kept = [((1 << len(neighbor_masks)) - 1) & ~white]
    for unit in units:
        for k in kept:
            k |= unit
            w = k & white       # never 0: k holds the white unit
            if not w & (w - 1) and not neighbor_masks[w.bit_length() - 1] & k:
                return True
        kept += [k | unit for k in kept]
    return False


# ----------------------------------------------------------------------
# canonicalization of raw decorated graphs: each connected piece is typed by
# matching the ``component_edges`` templates onto it, and the canonical form
# is the least (colors, arrows) over all relabelings onto the templates
# ----------------------------------------------------------------------

def _edge_index(nodes: Iterable[int], edges: Sequence[Edge]):
    """The neighbors of each node as ``(node, bond, arrow target)``, and the
    sorted edge shape: each edge's endpoint degrees and bond."""
    adj: dict[int, list[tuple[int, int, int | None]]] = {v: [] for v in nodes}
    for a, b, bond, tgt in edges:
        adj[a].append((b, bond, tgt))
        adj[b].append((a, bond, tgt))
    shape = sorted((*sorted((len(adj[a]), len(adj[b]))), bond)
                   for a, b, bond, _ in edges)
    return adj, shape


def _counts(edges: Sequence[Edge]) -> tuple:
    """The edge count, how many nodes have each degree and how many edges
    have each bond: a template whose counts differ cannot map onto the
    graph."""
    degree = Counter(map(itemgetter(0), edges))
    degree.update(map(itemgetter(1), edges))
    return (len(edges), sorted(Counter(degree.values()).items()),
            sorted(Counter(map(itemgetter(2), edges)).items()))


def _identify_component(nodes: list[int], edges: Sequence[Edge]):
    """Type a connected decorated subgraph and list all relabelings onto the
    standard component (template position -> original node).  The type is
    the first letter in ``ABCDEFG`` whose template maps onto the subgraph,
    so A3 wins over D3 and B2 over C2.  A letter whose template has other
    node, edge, degree or bond counts is rejected before its index is
    built."""
    n = len(nodes)
    adj, shape = _edge_index(nodes, edges)
    counts = _counts(edges)
    for letter in "ABCDEFG":
        if not _MIN_RANK[letter] <= n <= _MAX_RANK.get(letter, n):
            continue
        if _counts(component_edges(letter, n)) != counts:
            continue
        maps = _template_maps(letter, nodes, adj, shape)
        if maps:
            return letter, n, maps
    raise DiagramValidationError("unrecognized component")


def _template_maps(letter: str, nodes: list[int], adj, shape) -> list[tuple[int, ...]]:
    """Every relabeling of the ``letter`` template onto a connected subgraph
    given by its ``_edge_index``.  Templates are trees, so once the edge
    shapes agree the search places the template positions in breadth-first
    order, each on an unused neighbor of its parent's image with the same
    degree, bond and arrow target, and backtracks on an explicit stack."""
    n = len(nodes)
    tadj, tshape = _edge_index(range(1, n + 1), component_edges(letter, n))
    if tshape != shape:
        return []
    # each later position's parent, and the bond and arrow target between
    order, parent = [1], {1: (0, 0, None)}
    for p in order:
        for q, bond, tgt in tadj[p]:
            if q not in parent:
                parent[q] = (p, bond, tgt)
                order.append(q)
    maps: list[tuple[int, ...]] = []
    image: dict[int, int] = {}  # template position -> node
    used: set[int] = set()
    stack = [[v for v in nodes if len(adj[v]) == len(tadj[1])]]
    while stack:
        p = order[len(stack) - 1]
        used.discard(image.pop(p, None))
        if not stack[-1]:
            stack.pop()
            continue
        image[p] = v = stack[-1].pop()
        used.add(v)
        if len(stack) == n:
            maps.append(tuple(image[q] for q in range(1, n + 1)))
            continue
        q = order[len(stack)]
        par, bond, tgt = parent[q]
        src = image[par]
        # tgt is None, par or q
        stack.append([
            u for u, b, t in adj[src] if u not in used and len(adj[u]) == len(tadj[q])
            and b == bond and t == (tgt and (u if tgt == q else src))])
    return maps


def _components(nodes, pairs) -> list[list[int]]:
    """Connected components of the graph on ``nodes`` whose edges are the
    first two entries of each item of ``pairs``; each component is sorted,
    and they come in the order of their first node in ``nodes``."""
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b, *_ in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[int] = set()
    parts: list[list[int]] = []
    for v in nodes:
        if v in seen:
            continue
        seen.add(v)
        comp, stack = [v], [v]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        parts.append(sorted(comp))
    return parts


def _canonical_from_raw(nodes: list[int], edges: list[Edge],
                        colors: dict[int, str], arrows) -> SatakeDiagram:
    if not nodes:
        return SatakeDiagram(DynkinGraph(()), "", ())
    comps = []
    for comp in _components(nodes, edges):
        members = set(comp)
        comp_edges = [e for e in edges if e[0] in members]
        letter, rank, maps = _identify_component(comp, comp_edges)
        colorkey = min("".join(colors[v] for v in m) for m in maps)
        comps.append((letter, rank, colorkey, maps))
    comps.sort(key=lambda t: (t[0], t[1], t[2]))
    # only components with identical invariant keys may permute
    groups: list[list[int]] = []
    for i, c in enumerate(comps):
        if groups and comps[groups[-1][0]][:3] == c[:3]:
            groups[-1].append(i)
        else:
            groups.append([i])
    relabelings = (math.prod(math.factorial(len(g)) for g in groups)
                   * math.prod(len(c[3]) for c in comps))
    if relabelings > CANONICAL_RELABELING_BUDGET:
        raise BudgetError(f"canonical form needs {relabelings} relabelings, "
                          f"over the budget of {CANONICAL_RELABELING_BUDGET}")
    arrow_pairs = [tuple(sorted(p)) for p in arrows]
    best = None
    group_perms = [list(itertools.permutations(g)) for g in groups]
    for arrangement in itertools.product(*group_perms):
        order = [i for g in arrangement for i in g]
        ordered = [comps[i] for i in order]
        offsets = []
        total = 0
        for _, rank, _, _ in ordered:
            offsets.append(total)
            total += rank
        for choice in itertools.product(*[c[3] for c in ordered]):
            relabel: dict[int, int] = {}
            for off, mapping in zip(offsets, choice):
                for pos, orig in enumerate(mapping, start=1):
                    relabel[orig] = off + pos
            colorstr = "".join(
                colors[orig]
                for mapping in choice
                for orig in mapping
            )
            arr = tuple(sorted(tuple(sorted((relabel[a], relabel[b])))
                               for a, b in arrow_pairs))
            key = (colorstr, arr)
            if best is None or key < best[0]:
                best = (key, tuple((c[0], c[1]) for c in ordered))
    (colorstr, arr), comp_list = best
    return SatakeDiagram(DynkinGraph(comp_list), colorstr, arr)


# ----------------------------------------------------------------------
# DSL parser
# ----------------------------------------------------------------------

_COMP_RE = re.compile(r"\s*([A-G])(\d+)")
_X_RE = re.compile(r"\s*x\b")
_COLORS_RE = re.compile(r"\s*colors=([wb]*)")
_ARROWS_RE = re.compile(r"\s*arrows=\[")
_PAIR_RE = re.compile(r"\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_satake(text: str) -> SatakeDiagram:
    """Parse one diagram in the DSL:

        <TYPE><rank> [x <TYPE><rank>]* colors=<w/b string> arrows=[(i,j),...]

    Syntax problems raise :class:`DiagramSyntaxError` with a position;
    structural problems raise :class:`DiagramValidationError`.
    """
    if text.strip() == "empty":
        return SatakeDiagram(DynkinGraph(()), "", ())
    pos = 0
    comps: list[tuple[str, int]] = []
    m = _COMP_RE.match(text, pos)
    if not m:
        raise DiagramSyntaxError("expected a component like 'A3'", pos)
    comps.append((m.group(1), int(m.group(2))))
    pos = m.end()
    while True:
        mx = _X_RE.match(text, pos)
        if not mx:
            break
        m = _COMP_RE.match(text, mx.end())
        if not m:
            raise DiagramSyntaxError("expected a component after 'x'", mx.end())
        comps.append((m.group(1), int(m.group(2))))
        pos = m.end()
    m = _COLORS_RE.match(text, pos)
    if not m:
        raise DiagramSyntaxError("expected 'colors=<w/b string>'", pos)
    colors = m.group(1)
    pos = m.end()
    m = _ARROWS_RE.match(text, pos)
    if not m:
        raise DiagramSyntaxError("expected 'arrows=[...]'", pos)
    pos = m.end()
    arrows: list[tuple[int, int]] = []
    first = True
    close_re = re.compile(r"\s*\]")
    comma_re = re.compile(r"\s*,")
    while True:
        close = close_re.match(text, pos)
        if close:
            pos = close.end()
            break
        if not first:
            comma = comma_re.match(text, pos)
            if not comma:
                raise DiagramSyntaxError("expected ',' or ']' in arrow list", pos)
            pos = comma.end()
        mp = _PAIR_RE.match(text, pos)
        if not mp:
            raise DiagramSyntaxError("expected an arrow pair '(i,j)'", pos)
        arrows.append((int(mp.group(1)), int(mp.group(2))))
        pos = mp.end()
        first = False
    if text[pos:].strip():
        raise DiagramSyntaxError("trailing input after arrow list", pos)
    return SatakeDiagram.make(comps, colors, arrows)


# ----------------------------------------------------------------------
# catalog of named symmetric pairs
# ----------------------------------------------------------------------

class PairId(Value):
    """A named symmetric pair: a catalog family plus its integer
    parameters; immutable."""

    _fields = ("family", "params")

    def __init__(self, family: str, params: tuple[int, ...] = ()):
        self.family = family
        self.params = params

    def __str__(self) -> str:
        return pair_display_name(self)


_EXCEPTIONAL = {
    # family: (g, g0, colors, arrows); the graph is the Dynkin diagram of g
    "e6_f4": ("e6", "f4", "wbbbbw", ()),
    "e6_so10_t1": ("e6", "so10+t1", "wwbbbw", ((1, 6),)),
    "e6_sl6_sl2": ("e6", "sl6+sl2", "wwwwww", ((1, 6), (3, 5))),
    "e6_sp8": ("e6", "sp8", "wwwwww", ()),
    "e7_sl8": ("e7", "sl8", "wwwwwww", ()),
    "e7_e6_t1": ("e7", "e6+t1", "wbbbbww", ()),
    "e7_so12_sl2": ("e7", "so12+sl2", "wbwwbwb", ()),
    "e8_so16": ("e8", "so16", "wwwwwwww", ()),
    "e8_e7_sl2": ("e8", "e7+sl2", "wbbbbwww", ()),
    "f4_so9": ("f4", "so9", "wbbb", ()),
    "f4_sp6_sl2": ("f4", "sp6+sl2", "wwww", ()),
    "g2_sl2_sl2": ("g2", "sl2+sl2", "ww", ()),
}


def _exceptional_component(name: str) -> tuple[str, int] | None:
    """The Dynkin component of the exceptional simple algebra named like
    ``e6``, or None if the name denotes none."""
    letter, rank = name[:1].upper(), name[1:]
    if letter in ("E", "F", "G") and rank.isdigit() \
            and _MIN_RANK[letter] <= int(rank) <= _MAX_RANK[letter]:
        return letter, int(rank)
    return None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UnsupportedPairError(message)


# the number of parameters of each classical family; every other family
# takes none
_PARAM_COUNT = {"sl_so": 1, "sl_gl": 2, "sl_sp": 1, "so_so": 2, "so_gl": 1,
                "sp_sp": 2, "sp_gl": 1, "diag_sl": 1, "diag_so": 1, "diag_sp": 1}


def satake_of(pair: PairId) -> SatakeDiagram:
    """The catalog Satake diagram of a named pair, canonicalized."""
    return _catalog_diagram(pair).canonical()


def _catalog_diagram(pair: PairId) -> SatakeDiagram:
    """The catalog Satake diagram of a named pair in its catalog labeling."""
    fam, p = pair.family, pair.params
    _require(type(p) is tuple and all(type(x) is int for x in p),  # True is no int
             f"{fam} parameters must be a tuple of int, not {p!r}")
    count = _PARAM_COUNT.get(fam, 0)
    _require(len(p) == count,
             f"{fam} takes {count} parameter{'' if count == 1 else 's'}, not {len(p)}")
    if fam in _EXCEPTIONAL:
        g, _, colors, arrows = _EXCEPTIONAL[fam]
        return SatakeDiagram.make((_exceptional_component(g),), colors, arrows)
    if fam == "sl_so":
        (n,) = p
        _require(n >= 2, "sl_so needs n >= 2")
        return SatakeDiagram.make((("A", n - 1),), "w" * (n - 1), ())
    if fam == "sl_gl":
        n, k = p
        _require(1 <= k <= n - k and n >= 2, "sl_gl needs 0 < k <= n-k")
        colors = "".join("w" if (i <= k or i >= n - k) else "b"
                         for i in range(1, n))
        arrows = tuple((i, n - i) for i in range(1, k + 1) if i != n - i)
        return SatakeDiagram.make((("A", n - 1),), colors, arrows)
    if fam == "sl_sp":
        (n,) = p
        _require(n >= 2, "sl_sp needs n >= 2")
        colors = "".join("b" if i % 2 else "w" for i in range(1, 2 * n))
        return SatakeDiagram.make((("A", 2 * n - 1),), colors, ())
    if fam == "so_so":
        pp, q = p
        _require(1 <= pp <= q and pp + q >= 5, "so_so needs 1 <= p <= q, p+q >= 5")
        total = pp + q
        letter, l = ("B", total // 2) if total % 2 else ("D", total // 2)
        if q - pp <= 1:
            colors = "w" * l
            arrows: tuple = ()
        elif letter == "D" and q - pp == 2:
            colors = "w" * l
            arrows = ((l - 1, l),)
        else:
            colors = "w" * pp + "b" * (l - pp)
            arrows = ()
        return SatakeDiagram.make(((letter, l),), colors, arrows)
    if fam == "so_gl":
        (l,) = p
        _require(l >= 4, "so_gl needs l >= 4")
        colors = ["b" if i % 2 else "w" for i in range(1, l + 1)]
        arrows = ()
        if l % 2:
            colors[l - 1] = "w"
            arrows = ((l - 1, l),)
        return SatakeDiagram.make((("D", l),), "".join(colors), arrows)
    if fam == "sp_sp":
        n, k = p
        _require(n >= 2 and 1 <= k <= n - k, "sp_sp needs 1 <= k <= n-k")
        colors = "".join("w" if (i % 2 == 0 and i <= 2 * k) else "b"
                         for i in range(1, n + 1))
        return SatakeDiagram.make((("C", n),), colors, ())
    if fam == "sp_gl":
        (n,) = p
        _require(n >= 2, "sp_gl needs n >= 2")
        return SatakeDiagram.make((("C", n),), "w" * n, ())
    if fam.startswith("diag_"):
        letter, rank = _diag_component(fam, p)
        arrows = tuple((i, i + rank) for i in range(1, rank + 1))
        return SatakeDiagram.make(
            ((letter, rank), (letter, rank)), "w" * (2 * rank), arrows)
    raise UnsupportedPairError(f"unknown family {fam!r}")


def _diag_component(fam: str, params: tuple[int, ...]) -> tuple[str, int]:
    if fam == "diag_sl":
        (n,) = params
        _require(n >= 2, "diag_sl needs n >= 2")
        return ("A", n - 1)
    if fam == "diag_so":
        (n,) = params
        _require(n >= 5, "diag_so needs n >= 5")
        return ("B", n // 2) if n % 2 else ("D", n // 2)
    if fam == "diag_sp":
        (n,) = params
        _require(n >= 2, "diag_sp needs n >= 2")
        return ("C", n)
    component = _exceptional_component(fam[5:])
    if component:
        return component
    raise UnsupportedPairError(f"unknown diagonal family {fam!r}")


def pair_display_name(pair: PairId) -> str:
    fam, p = pair.family, pair.params
    if type(p) is not tuple or any(type(x) is not int for x in p) \
            or len(p) != _PARAM_COUNT.get(fam, 0):
        return f"{fam}{p}" if type(p) is tuple else f"{fam}({p!r})"
    if fam in _EXCEPTIONAL:
        g, g0, _, _ = _EXCEPTIONAL[fam]
        return f"({g}, {g0})"
    if fam == "sl_so":
        return f"(sl{p[0]}, so{p[0]})"
    if fam == "sl_gl":
        n, k = p
        return f"(sl{n}, sl{k}+sl{n-k}+t1)"
    if fam == "sl_sp":
        return f"(sl{2*p[0]}, sp{2*p[0]})"
    if fam == "so_so":
        return f"(so{p[0]+p[1]}, so{p[0]}+so{p[1]})"
    if fam == "so_gl":
        return f"(so{2*p[0]}, gl{p[0]})"
    if fam == "sp_sp":
        n, k = p
        return f"(sp{2*n}, sp{2*k}+sp{2*n-2*k})"
    if fam == "sp_gl":
        return f"(sp{2*p[0]}, gl{p[0]})"
    if fam.startswith("diag_"):
        base = fam[5:]
        if p:
            base += str(2 * p[0] if base == "sp" else p[0])
        return f"({base}+{base}, diag)"
    return fam


def r_type_label(pair: PairId) -> str | None:
    """Type of the centralizer of a Cartan subspace inside the even part,
    where known: toral of arrow-many dimensions when the diagram has no
    black nodes, the classical catalog values otherwise, None when unknown."""
    d = satake_of(pair)
    if d.is_n_regular():
        m = len(d.arrows)
        return "0" if m == 0 else f"t{m}"
    fam, p = pair.family, pair.params
    if fam == "sl_gl":
        n, k = p
        return f"sl{n - 2 * k}+t{k}"
    if fam == "sl_sp":
        return f"sl2^{p[0]}"
    if fam == "so_gl" and p[0] % 2:
        return f"sl2^{p[0] // 2}+t1"
    if fam == "so_so":
        return f"so{p[1] - p[0]}"
    if fam == "sp_sp":
        n, k = p
        return f"sl2^{k}" if n == 2 * k else f"sl2^{k}+sp{2 * (n - 2 * k)}"
    fixed = {"e6_f4": "so8", "e6_so10_t1": "sl4+t1", "f4_so9": "so7"}
    return fixed.get(fam)


_PAIR_TOKEN = re.compile(r"^(sl|so|sp|gl|e|f|g|t)(\d+)$")


def parse_pair_name(text: str) -> PairId:
    """Parse a command-line pair name like ``sl2,so2`` or ``sp4,sp2+sp2`` or
    ``sl3+sl3,diag``; the name a report prints, like ``(sl3+sl3, diag)`` or
    ``(sl6, sl1+sl5+t1)``, parses back to its pair."""
    compact = text.lower().replace(" ", "")
    if compact.startswith("(") and compact.endswith(")"):
        compact = compact[1:-1]
    if "," not in compact:
        raise UnsupportedPairError(f"pair name {text!r} needs the form '<g>,<g0>'")
    g, g0 = compact.split(",", 1)

    def parts(s: str) -> list[tuple[str, int]]:
        out = []
        for piece in s.split("+"):
            m = _PAIR_TOKEN.match(piece)
            if not m:
                raise UnsupportedPairError(f"cannot parse algebra name {piece!r}")
            out.append((m.group(1), int(m.group(2))))
        return out

    if g0 == "diag":
        h = parts(g)
        if len(h) != 2 or h[0] != h[1]:
            raise UnsupportedPairError("diagonal pairs need the form '<h>+<h>,diag'")
        name, n = h[0]
        if name == "sl":
            return PairId("diag_sl", (n,))
        if name == "so":
            return PairId("diag_so", (n,))
        if name == "sp":
            if n % 2:
                raise UnsupportedPairError("sp parameter must be even")
            return PairId("diag_sp", (n // 2,))
        if _exceptional_component(f"{name}{n}"):
            return PairId(f"diag_{name}{n}")
        raise UnsupportedPairError(f"unsupported diagonal type {name}{n}")

    for fam, names in _EXCEPTIONAL.items():
        if (g, g0) == names[:2]:
            return PairId(fam)

    gp = parts(g)
    if len(gp) != 1:
        raise UnsupportedPairError(f"cannot parse pair {text!r}")
    gname, gn = gp[0]
    g0p = parts(g0)
    if gname == "sl":
        if g0p == [("so", gn)]:
            return PairId("sl_so", (gn,))
        if g0p == [("sp", gn)]:
            if gn % 2:
                raise UnsupportedPairError("(sl_n, sp_n) needs even n")
            return PairId("sl_sp", (gn // 2,))
        if len(g0p) == 1 and g0p[0][0] == "gl":
            j = g0p[0][1]
            k = gn - j
            return PairId("sl_gl", (gn, k))
        if len(g0p) == 3 and g0p[2] == ("t", 1) and g0p[0][0] == g0p[1][0] == "sl" \
                and g0p[0][1] + g0p[1][1] == gn:
            return PairId("sl_gl", (gn, min(g0p[0][1], g0p[1][1])))
    if gname == "so":
        if len(g0p) == 1 and g0p[0][0] == "so" and g0p[0][1] == gn - 1:
            return PairId("so_so", (1, gn - 1))
        if len(g0p) == 1 and g0p[0][0] == "gl" and 2 * g0p[0][1] == gn:
            return PairId("so_gl", (g0p[0][1],))
        if len(g0p) == 2 and all(t == "so" for t, _ in g0p):
            pq = sorted(r for _, r in g0p)
            if pq[0] + pq[1] == gn:
                return PairId("so_so", tuple(pq))
    if gname == "sp":
        if gn % 2:
            raise UnsupportedPairError("sp parameter must be even")
        n = gn // 2
        if len(g0p) == 1 and g0p[0] == ("gl", n):
            return PairId("sp_gl", (n,))
        if len(g0p) == 2 and all(t == "sp" for t, _ in g0p):
            ks = sorted(r for _, r in g0p)
            if ks[0] + ks[1] == gn and ks[0] % 2 == 0:
                return PairId("sp_sp", (n, ks[0] // 2))
    raise UnsupportedPairError(f"pair {text!r} is not in the catalog")


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

class Classification(Value):
    """The classification record of a diagram; immutable.  ``satake`` is
    the canonical form that was classified: it is not part of the record's
    JSON, and equality ignores it."""

    _fields = ("family", "params", "rank", "codim3", "n_regular", "m", "satake")
    _compared = _fields[:-1]

    def __init__(self, family: str, params: tuple[int, ...], rank: int,
                 codim3: bool, n_regular: bool, m: int | None,
                 satake: SatakeDiagram | None = None):
        self.family = family
        self.params = params
        self.rank = rank
        self.codim3 = codim3
        self.n_regular = n_regular
        self.m = m
        self.satake = satake

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": list(self.params),
            "rank": self.rank,
            "codim3": self.codim3,
            "n_regular": self.n_regular,
            "m": self.m,
        }


def _candidate_pairs(d: SatakeDiagram) -> list[PairId]:
    """The catalog pairs whose diagram can be ``d``: the black-node count
    fixes the one parameter of each classical family that can match."""
    comps = d.graph.components
    out: list[PairId] = []
    if len(comps) == 2 and comps[0] == comps[1]:
        letter, rank = comps[0]
        if letter == "A":
            out.append(PairId("diag_sl", (rank + 1,)))
        elif letter == "B":
            out.append(PairId("diag_so", (2 * rank + 1,)))
        elif letter == "D":
            out.append(PairId("diag_so", (2 * rank,)))
        elif letter == "C":
            out.append(PairId("diag_sp", (rank,)))
        else:
            out.append(PairId(f"diag_{letter.lower()}{rank}"))
    if len(comps) != 1:
        return out
    letter, rank = comps[0]
    b = d.colors.count("b")
    if letter == "A":
        n = rank + 1
        out.append(PairId("sl_so", (n,)))
        out.append(PairId("sl_gl", (n, (n - 1 - b) // 2 if b else n // 2)))
        if n % 2 == 0 and n >= 4:
            out.append(PairId("sl_sp", (n // 2,)))
    elif letter in "BD":
        total = 2 * rank + (letter == "B")
        out.extend(PairId("so_so", (pp, total - pp))
                   for pp in ((rank - 1, rank) if b == 0 else (rank - b,)))
        if letter == "D" and rank >= 4:
            out.append(PairId("so_gl", (rank,)))
    elif letter == "C":
        out.append(PairId("sp_gl", (rank,)))
        out.append(PairId("sp_sp", (rank, rank - b)))
    else:
        out.extend(PairId(f) for f, (g, *_) in _EXCEPTIONAL.items()
                   if g == f"{letter.lower()}{rank}")
    return out


def classify(d: SatakeDiagram) -> Classification:
    """Classification record of a valid connected diagram."""
    d = d.canonical()
    family, params = "unrecognized", ()
    blacks = d.colors.count("b")
    for pair in _candidate_pairs(d):
        try:
            raw = _catalog_diagram(pair)
        except UnsupportedPairError:
            continue
        # both counts survive relabeling, so a mismatch rules the pair out
        # without a canonical form
        if raw.colors.count("b") != blacks or len(raw.arrows) != len(d.arrows):
            continue
        if raw.canonical() == d:
            family, params = pair.family, pair.params
            break
    nreg = d.is_n_regular()
    return Classification(
        family=family,
        params=params,
        rank=d.rank(),
        codim3=d.has_codim3(),
        n_regular=nreg,
        m=len(d.arrows) if nreg else None,
        satake=d,
    )


# ----------------------------------------------------------------------
# exhaustive enumeration of structurally valid diagrams
# ----------------------------------------------------------------------

def connected_dynkin_types(max_nodes: int) -> list[tuple[str, int]]:
    """Non-redundant list of connected Dynkin graphs with at most the given
    number of nodes: ``(letter, r)`` is kept when its own graph identifies
    as ``letter``, which drops C2 (= B2) and D3 (= A3)."""
    return [(letter, r) for letter in "ABCDEFG"
            for r in range(_MIN_RANK[letter],
                           min(_MAX_RANK.get(letter, max_nodes), max_nodes) + 1)
            if _identify_component(list(range(1, r + 1)),
                                   component_edges(letter, r))[0] == letter]


def _partial_matchings(items: list[int]):
    """All partial matchings (sets of disjoint unordered pairs) of items."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    # head unmatched
    for m in _partial_matchings(rest):
        yield m
    # head matched with each partner
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for m in _partial_matchings(remaining):
            yield [(head, other)] + m


def _own_maps(letter: str, r: int) -> list[tuple[int, ...]]:
    """The relabelings of the standard ``letter`` component of rank r onto
    itself."""
    return _template_maps(letter, list(range(1, r + 1)),
                          *_edge_index(range(1, r + 1), component_edges(letter, r)))


def _diagram_automorphisms(graph: DynkinGraph,
                           own_maps=None) -> list[tuple[int, ...]]:
    """The automorphism group of ``graph`` (equal components adjacent):
    permutations of equal components times each component's own
    relabelings onto itself (``_own_maps``; ``own_maps`` may hold them by
    component type, computed once for many graphs).  An element ``g`` puts
    the 0-based node ``g[p]`` at position ``p``."""
    comps, offsets = graph.components, graph.offsets()
    own = [own_maps[c] if own_maps else _own_maps(*c) for c in comps]
    blocks = [list(g) for _, g in itertools.groupby(range(len(comps)),
                                                   key=comps.__getitem__)]
    out = []
    for arrangement in itertools.product(*(itertools.permutations(b)
                                           for b in blocks)):
        order = [i for b in arrangement for i in b]
        for choice in itertools.product(*(own[i] for i in order)):
            out.append(tuple(offsets[i] + v - 1
                             for i, m in zip(order, choice) for v in m))
    return out


def _joins_all(arrows, comp_of: list[int], k: int) -> bool:
    """Whether ``arrows`` tie all ``k`` components together (union-find on
    component indices; ``comp_of[a]`` is the component of arrow end ``a``)."""
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    joined = 0
    for a, b in arrows:
        ra, rb = find(comp_of[a]), find(comp_of[b])
        if ra != rb:
            parent[ra] = rb
            joined += 1
    return joined == k - 1


def enumerate_valid_diagrams(max_nodes: int) -> Iterator[SatakeDiagram]:
    """Yield every structurally valid Satake diagram (up to isomorphism)
    whose underlying graph has at most ``max_nodes`` nodes and which is
    connected once arrows are counted as edges.

    Products of connected Dynkin graphs appear only when arrows tie the
    factors together; pure disjoint unions reduce to their components.

    Orderly generation: each isomorphism class is yielded once, as the
    lexicographically least ``(colors, arrows)`` in its orbit under the
    automorphism group of the component multiset.  That is the key
    ``canonical`` minimizes over the same relabelings, so every yielded
    diagram is its own canonical form, and no set of earlier diagrams is
    kept.  The order is by component multiset, then by coloring, then by
    matching: the flattening of ``_colorings``.
    """
    for graph, colors, matchings in _colorings(max_nodes):
        for arrows in matchings:
            yield SatakeDiagram(graph, colors, arrows)


def _colorings(max_nodes: int):
    """Yield ``(graph, colors, matchings)`` for every least coloring of every
    component multiset with at most ``max_nodes`` nodes that some matching
    makes a valid diagram, in the order of ``enumerate_valid_diagrams``:
    ``matchings`` lists those arrow tuples, each the least in its orbit
    under the coloring's stabilizer, so that whatever depends only on the
    graph and the coloring is computed once for all of them."""
    types = connected_dynkin_types(max_nodes)
    sizes = {t: t[1] for t in types}
    multisets: list[tuple[tuple[str, int], ...]] = []

    def extend(partial: list, remaining: int, pool: list):
        if partial:
            multisets.append(tuple(partial))
        for i, t in enumerate(pool):
            if sizes[t] <= remaining:
                extend(partial + [t], remaining - sizes[t], pool[i:])

    extend([], max_nodes, types)
    own_maps = {t: _own_maps(*t) for t in types}
    # per (k, component index of each white node): the partial matchings of
    # the white nodes whose arrows join all k components, as index pairs
    # into their sorted list, in the order of _partial_matchings
    patterns: dict[tuple[int, tuple[int, ...]], list[list[tuple[int, int]]]] = {}
    for comps in multisets:
        n, k = sum(r for _, r in comps), len(comps)
        if 2 * (k - 1) > n:  # k - 1 arrows cannot fit on n nodes
            continue
        graph = DynkinGraph(comps)
        identity = tuple(range(n))
        # every other automorphism as the map of a coloring onto its image,
        # and as a map from 1-based node to 1-based position
        others = []
        for g in _diagram_automorphisms(graph, own_maps):
            if g != identity:
                relabel = [0] * (n + 1)
                for p, v in enumerate(g, start=1):
                    relabel[v + 1] = p
                others.append((itemgetter(*g), relabel))
        comp_of = [0] + [i for i, (_, r) in enumerate(comps) for _ in range(r)]
        for bits in itertools.product("wb", repeat=n):
            colors = "".join(bits)
            # keep the least coloring of its orbit, and its stabilizer
            stab = []
            for image_of, relabel in others:
                image = "".join(image_of(colors))
                if image < colors:
                    break
                if image == colors:
                    stab.append(relabel)
            else:
                whites = [i + 1 for i, c in enumerate(colors) if c == "w"]
                key = (k, tuple([comp_of[w] for w in whites]))
                if key not in patterns:
                    patterns[key] = [p for p in _partial_matchings(list(range(len(whites))))
                                     if _joins_all(p, key[1], k)]
                matchings = []
                for pattern in patterns[key]:
                    arrows = tuple([(whites[i], whites[j]) for i, j in pattern])
                    for h in stab:
                        if tuple(sorted([(h[a], h[b]) if h[a] < h[b] else (h[b], h[a])
                                         for a, b in arrows])) < arrows:
                            break
                    else:
                        matchings.append(arrows)
                if matchings:
                    yield graph, colors, matchings
