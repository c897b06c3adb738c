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
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import DiagramSyntaxError, DiagramValidationError, UnsupportedPairError

# node ids are global and 1-based; components are numbered left to right,
# Bourbaki numbering inside each component.

Edge = tuple[int, int, int, int | None]  # (a, b, bond, arrow-target or None)

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


@dataclass(frozen=True)
class DynkinGraph:
    """A disjoint union of standard Dynkin components."""

    components: tuple[tuple[str, int], ...]

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


@dataclass(frozen=True)
class SatakeDiagram:
    graph: DynkinGraph
    colors: str
    arrows: tuple[tuple[int, int], ...]

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
        if any(c not in "wb" for c in self.colors):
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

    def neighbors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n_nodes + 1)}
        for a, b, _, _ in self.graph.edges():
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def rank(self) -> int:
        """Rank of the symmetric pair: white nodes minus arrows."""
        return len(self.white_nodes()) - len(self.arrows)

    def trivial_nodes(self) -> set[int]:
        """White nodes with no arrow attached and only white neighbors."""
        adj = self.neighbors()
        arrowed = self.arrowed_nodes()
        out = set()
        for v in self.white_nodes():
            if v in arrowed:
                continue
            if all(self.color(u) == "w" for u in adj[v]):
                out.add(v)
        return out

    def has_codim3(self) -> bool:
        return not self.trivial_nodes()

    def is_n_regular(self) -> bool:
        return "b" not in self.colors

    # -- connectivity ---------------------------------------------------
    def is_connected(self) -> bool:
        """Connectivity of the graph with arrows counted as edges."""
        pairs = self.graph.edges() + list(self.arrows)
        return len(_components(range(1, self.n_nodes + 1), pairs)) <= 1

    def decompose(self) -> list["SatakeDiagram"]:
        """Connected components (arrows included), each canonicalized."""
        pairs = self.graph.edges() + list(self.arrows)
        return [_canonical_from_raw(*self._restrict(comp))
                for comp in _components(range(1, self.n_nodes + 1), pairs)]

    # -- subdiagram calculus ---------------------------------------------
    # A removal unit is an arrow-free white node or an arrow pair.  Units
    # are disjoint, and removing one leaves every other unit removable and
    # creates none, so iterated one-step removals reach exactly the
    # diagrams left by removing some subset of the units.
    def _removals(self, sizes) -> list[list[int]]:
        """The sorted node lists left by removing ``r`` removal units, for
        each ``r`` in ``sizes``."""
        arrowed = self.arrowed_nodes()
        units = [{v} for v in self.white_nodes() if v not in arrowed]
        units += [set(p) for p in self.arrows]
        out = []
        for r in sizes:
            for chosen in itertools.combinations(units, r):
                gone = set().union(*chosen)
                out.append([v for v in range(1, self.n_nodes + 1) if v not in gone])
        return out

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
        computed through the subdiagram closure instead of locally."""
        edges = self.graph.edges()
        for keep in self._removals(range(self.n_nodes + 1)):
            whites = [v for v in keep if self.color(v) == "w"]
            if len(whites) != 1:
                continue
            w = whites[0]
            kept = set(keep)
            if any(a in kept and b in kept for a, b in self.arrows):
                continue
            if all(w not in (a, b) for a, b, _, _ in edges
                   if a in kept and b in kept):
                return True
        return False

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
# canonicalization of raw decorated graphs
# ----------------------------------------------------------------------

def _path_order(start: int, adj: dict[int, list[int]]) -> list[int]:
    order = [start]
    prev = None
    while True:
        nxt = [u for u in adj[order[-1]] if u != prev]
        if not nxt:
            return order
        prev = order[-1]
        order.append(nxt[0])


def _identify_component(nodes: list[int], edges: list[Edge]):
    """Type a connected decorated subgraph and list all relabelings onto the
    standard component (template position -> original node)."""
    n = len(nodes)
    if n == 1:
        return ("A", 1, [(nodes[0],)])
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    bond_of: dict[frozenset, int] = {}
    target_of: dict[frozenset, int | None] = {}
    for a, b, bond, tgt in edges:
        adj[a].append(b)
        adj[b].append(a)
        bond_of[frozenset((a, b))] = bond
        target_of[frozenset((a, b))] = tgt
    degs = {v: len(adj[v]) for v in nodes}
    maxbond = max(bond_of.values())
    if maxbond == 3:
        key = next(iter(bond_of))
        a, b = tuple(key)
        tgt = target_of[key]
        other = b if tgt == a else a
        return ("G", 2, [(tgt, other)])
    ends = [v for v in nodes if degs[v] == 1]
    branch = [v for v in nodes if degs[v] >= 3]
    if maxbond == 2:
        if branch or len(ends) != 2:
            raise DiagramValidationError("unrecognized multiply-laced component")
        results = []
        for start in ends:
            order = _path_order(start, adj)
            dbl = tgt = None
            for i in range(n - 1):
                key = frozenset((order[i], order[i + 1]))
                if bond_of[key] == 2:
                    dbl, tgt = i, target_of[key]
                    break
            if dbl == n - 2:
                letter = "B" if tgt == order[n - 1] else "C"
                results.append((letter, n, tuple(order)))
            elif n == 4 and dbl == 1 and tgt == order[2]:
                results.append(("F", 4, tuple(order)))
        if not results:
            raise DiagramValidationError("unrecognized multiply-laced component")
        letter = min(r[0] for r in results)
        maps = [r[2] for r in results if r[0] == letter]
        return (letter, n, maps)
    if not branch:
        orders = {tuple(_path_order(e, adj)) for e in ends}
        return ("A", n, sorted(orders))
    if len(branch) != 1 or degs[branch[0]] != 3:
        raise DiagramValidationError("unrecognized simply-laced component")
    center = branch[0]
    arms: list[list[int]] = []
    for nb in adj[center]:
        arm = [nb]
        prev = center
        while degs[arm[-1]] == 2:
            nxt = next(x for x in adj[arm[-1]] if x != prev)
            prev = arm[-1]
            arm.append(nxt)
        arms.append(arm)
    lengths = sorted(len(a) for a in arms)
    if lengths[0] == 1 and lengths[1] == 1:
        # type D: positions 1..n-3 run along the long arm toward the center
        maps = []
        short_arms = [a for a in arms if len(a) == 1]
        if n == 4:
            for long_arm in arms:
                rest = [a for a in arms if a is not long_arm]
                for p, q in itertools.permutations(rest):
                    maps.append((long_arm[0], center, p[0], q[0]))
        else:
            long_arm = max(arms, key=len)
            fork = [a[0] for a in short_arms]
            base = tuple(reversed(long_arm)) + (center,)
            for p, q in itertools.permutations(fork):
                maps.append(base + (p, q))
        return ("D", n, maps)
    if lengths[0] == 1 and lengths[1] == 2 and n in (6, 7, 8):
        arm1 = next(a for a in arms if len(a) == 1)
        arm2s = [a for a in arms if len(a) == 2]
        long = next((a for a in arms if len(a) == n - 4), None)
        maps = []
        if n == 6:
            for left, right in itertools.permutations(arm2s):
                maps.append((left[1], arm1[0], left[0], center, right[0], right[1]))
        else:
            if long is None or len(arm2s) < 1:
                raise DiagramValidationError("unrecognized simply-laced component")
            left = next(a for a in arm2s if a is not long)
            maps.append((left[1], arm1[0], left[0], center) + tuple(long))
        return ("E", n, maps)
    raise DiagramValidationError("unrecognized simply-laced component")


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
        comp_edges = [e for e in edges if e[0] in comp]
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

@dataclass(frozen=True)
class PairId:
    """A named symmetric pair: a catalog family plus its integer parameters."""

    family: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        return pair_display_name(self)


# families with structure-level matrix realizations
STRUCTURE_FAMILIES = {
    "sl_so", "sl_gl", "sl_sp", "so_so", "so_gl", "sp_sp", "sp_gl",
    "diag_sl", "diag_so", "diag_sp",
}

_EXCEPTIONAL = {
    # family: (components, colors, arrows, rank of g)
    "e6_f4": ((("E", 6),), "wbbbbw", (), 6),
    "e6_so10_t1": ((("E", 6),), "wwbbbw", ((1, 6),), 6),
    "e6_sl6_sl2": ((("E", 6),), "wwwwww", ((1, 6), (3, 5)), 6),
    "e6_sp8": ((("E", 6),), "wwwwww", (), 6),
    "e7_sl8": ((("E", 7),), "wwwwwww", (), 7),
    "e7_e6_t1": ((("E", 7),), "wbbbbww", (), 7),
    "e7_so12_sl2": ((("E", 7),), "wbwwbwb", (), 7),
    "e8_so16": ((("E", 8),), "wwwwwwww", (), 8),
    "e8_e7_sl2": ((("E", 8),), "wbbbbwww", (), 8),
    "f4_so9": ((("F", 4),), "wbbb", (), 4),
    "f4_sp6_sl2": ((("F", 4),), "wwww", (), 4),
    "g2_sl2_sl2": ((("G", 2),), "ww", (), 2),
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UnsupportedPairError(message)


def satake_of(pair: PairId) -> SatakeDiagram:
    """The catalog Satake diagram of a named pair, canonicalized."""
    fam, p = pair.family, pair.params
    if fam in _EXCEPTIONAL:
        comps, colors, arrows, _ = _EXCEPTIONAL[fam]
        return SatakeDiagram.make(comps, colors, arrows).canonical()
    if fam == "sl_so":
        (n,) = p
        _require(n >= 2, "sl_so needs n >= 2")
        return SatakeDiagram.make((("A", n - 1),), "w" * (n - 1), ()).canonical()
    if fam == "sl_gl":
        n, k = p
        _require(1 <= k <= n - k and n >= 2, "sl_gl needs 0 < k <= n-k")
        colors = "".join("w" if (i <= k or i >= n - k) else "b"
                         for i in range(1, n))
        arrows = tuple((i, n - i) for i in range(1, k + 1) if i != n - i)
        return SatakeDiagram.make((("A", n - 1),), colors, arrows).canonical()
    if fam == "sl_sp":
        (n,) = p
        _require(n >= 2, "sl_sp needs n >= 2")
        colors = "".join("b" if i % 2 else "w" for i in range(1, 2 * n))
        return SatakeDiagram.make((("A", 2 * n - 1),), colors, ()).canonical()
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
        return SatakeDiagram.make(((letter, l),), colors, arrows).canonical()
    if fam == "so_gl":
        (l,) = p
        _require(l >= 4, "so_gl needs l >= 4")
        colors = ["b" if i % 2 else "w" for i in range(1, l + 1)]
        arrows = ()
        if l % 2:
            colors[l - 1] = "w"
            arrows = ((l - 1, l),)
        return SatakeDiagram.make((("D", l),), "".join(colors), arrows).canonical()
    if fam == "sp_sp":
        n, k = p
        _require(n >= 2 and 1 <= k <= n - k, "sp_sp needs 1 <= k <= n-k")
        colors = "".join("w" if (i % 2 == 0 and i <= 2 * k) else "b"
                         for i in range(1, n + 1))
        return SatakeDiagram.make((("C", n),), colors, ()).canonical()
    if fam == "sp_gl":
        (n,) = p
        _require(n >= 2, "sp_gl needs n >= 2")
        return SatakeDiagram.make((("C", n),), "w" * n, ()).canonical()
    if fam.startswith("diag_"):
        letter, rank = _diag_component(fam, p)
        arrows = tuple((i, i + rank) for i in range(1, rank + 1))
        return SatakeDiagram.make(
            ((letter, rank), (letter, rank)), "w" * (2 * rank), arrows).canonical()
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
    fixed = {"diag_e6": ("E", 6), "diag_e7": ("E", 7), "diag_e8": ("E", 8),
             "diag_f4": ("F", 4), "diag_g2": ("G", 2)}
    if fam in fixed:
        _require(params == (), f"{fam} takes no parameters")
        return fixed[fam]
    raise UnsupportedPairError(f"unknown diagonal family {fam!r}")


def rank_of_g(pair: PairId) -> int:
    """Rank of the ambient semisimple algebra."""
    fam, p = pair.family, pair.params
    if fam in _EXCEPTIONAL:
        return _EXCEPTIONAL[fam][3]
    if fam in ("sl_so",):
        return p[0] - 1
    if fam == "sl_gl":
        return p[0] - 1
    if fam == "sl_sp":
        return 2 * p[0] - 1
    if fam == "so_so":
        return (p[0] + p[1]) // 2
    if fam == "so_gl":
        return p[0]
    if fam in ("sp_sp", "sp_gl"):
        return p[0]
    if fam.startswith("diag_"):
        return 2 * _diag_component(fam, p)[1]
    raise UnsupportedPairError(f"unknown family {fam!r}")


def pair_display_name(pair: PairId) -> str:
    fam, p = pair.family, pair.params
    names = {
        "e6_f4": "(e6, f4)", "e6_so10_t1": "(e6, so10+t1)",
        "e6_sl6_sl2": "(e6, sl6+sl2)", "e6_sp8": "(e6, sp8)",
        "e7_sl8": "(e7, sl8)", "e7_e6_t1": "(e7, e6+t1)",
        "e7_so12_sl2": "(e7, so12+sl2)", "e8_so16": "(e8, so16)",
        "e8_e7_sl2": "(e8, e7+sl2)", "f4_so9": "(f4, so9)",
        "f4_sp6_sl2": "(f4, sp6+sl2)", "g2_sl2_sl2": "(g2, sl2+sl2)",
    }
    if fam in names:
        return names[fam]
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
        base = {"diag_sl": f"sl{p[0]}" if p else "", "diag_so": f"so{p[0]}" if p else "",
                "diag_sp": f"sp{2*p[0]}" if p else "",
                "diag_e6": "e6", "diag_e7": "e7", "diag_e8": "e8",
                "diag_f4": "f4", "diag_g2": "g2"}[fam]
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
    ``sl3+sl3,diag``."""
    compact = text.lower().replace(" ", "")
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
                raise UnsupportedPairError("spparameter must be even")
            return PairId("diag_sp", (n // 2,))
        if (name, n) in (("e", 6), ("e", 7), ("e", 8)):
            return PairId(f"diag_e{n}")
        if (name, n) == ("f", 4):
            return PairId("diag_f4")
        if (name, n) == ("g", 2):
            return PairId("diag_g2")
        raise UnsupportedPairError(f"unsupported diagonal type {name}{n}")

    exceptional = {
        ("e6", "f4"): "e6_f4", ("e6", "so10+t1"): "e6_so10_t1",
        ("e6", "sl6+sl2"): "e6_sl6_sl2", ("e6", "sp8"): "e6_sp8",
        ("e7", "sl8"): "e7_sl8", ("e7", "e6+t1"): "e7_e6_t1",
        ("e7", "so12+sl2"): "e7_so12_sl2", ("e8", "so16"): "e8_so16",
        ("e8", "e7+sl2"): "e8_e7_sl2", ("f4", "so9"): "f4_so9",
        ("f4", "sp6+sl2"): "f4_sp6_sl2", ("g2", "sl2+sl2"): "g2_sl2_sl2",
    }
    if (g, g0) in exceptional:
        return PairId(exceptional[(g, g0)])

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

@dataclass(frozen=True)
class Classification:
    family: str
    params: tuple[int, ...]
    rank: int
    codim3: bool
    n_regular: bool
    m: int | None

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
        elif (letter, rank) in (("E", 6), ("E", 7), ("E", 8)):
            out.append(PairId(f"diag_e{rank}"))
        elif letter == "F":
            out.append(PairId("diag_f4"))
        elif letter == "G":
            out.append(PairId("diag_g2"))
    if len(comps) != 1:
        return out
    letter, rank = comps[0]
    if letter == "A":
        n = rank + 1
        out.append(PairId("sl_so", (n,)))
        out.extend(PairId("sl_gl", (n, k)) for k in range(1, n // 2 + 1))
        if n % 2 == 0 and n >= 4:
            out.append(PairId("sl_sp", (n // 2,)))
    elif letter == "B":
        total = 2 * rank + 1
        out.extend(PairId("so_so", (pp, total - pp))
                   for pp in range(1, rank + 1))
    elif letter == "D":
        total = 2 * rank
        out.extend(PairId("so_so", (pp, total - pp))
                   for pp in range(1, rank + 1))
        if rank >= 4:
            out.append(PairId("so_gl", (rank,)))
    elif letter == "C":
        out.append(PairId("sp_gl", (rank,)))
        out.extend(PairId("sp_sp", (rank, k)) for k in range(1, rank // 2 + 1))
    elif letter == "E":
        out.extend(PairId(f) for f in _EXCEPTIONAL
                   if _EXCEPTIONAL[f][0] == (("E", rank),))
    elif letter == "F":
        out.extend(PairId(f) for f in ("f4_so9", "f4_sp6_sl2"))
    elif letter == "G":
        out.append(PairId("g2_sl2_sl2"))
    return out


def classify(d: SatakeDiagram) -> Classification:
    """Classification record of a valid connected diagram."""
    d = d.canonical()
    family, params = "unrecognized", ()
    for pair in _candidate_pairs(d):
        try:
            if satake_of(pair) == d:
                family, params = pair.family, pair.params
                break
        except UnsupportedPairError:
            continue
    nreg = d.is_n_regular()
    return Classification(
        family=family,
        params=params,
        rank=d.rank(),
        codim3=d.has_codim3(),
        n_regular=nreg,
        m=len(d.arrows) if nreg else None,
    )


# ----------------------------------------------------------------------
# exhaustive enumeration of structurally valid diagrams
# ----------------------------------------------------------------------

def connected_dynkin_types(max_nodes: int) -> list[tuple[str, int]]:
    """Non-redundant list of connected Dynkin graphs with at most the given
    number of nodes (C starts at rank 3 and D at rank 4 to avoid the B2/C2
    and A3/D3 graph coincidences)."""
    out = [("A", n) for n in range(1, max_nodes + 1)]
    out += [("B", n) for n in range(2, max_nodes + 1)]
    out += [("C", n) for n in range(3, max_nodes + 1)]
    out += [("D", n) for n in range(4, max_nodes + 1)]
    out += [("E", n) for n in (6, 7, 8) if n <= max_nodes]
    if max_nodes >= 4:
        out.append(("F", 4))
    if max_nodes >= 2:
        out.append(("G", 2))
    return out


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


def enumerate_valid_diagrams(max_nodes: int):
    """Yield every structurally valid Satake diagram (up to isomorphism)
    whose underlying graph has at most ``max_nodes`` nodes and which is
    connected once arrows are counted as edges.

    Products of connected Dynkin graphs appear only when arrows tie the
    factors together; pure disjoint unions reduce to their components.
    """
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
    seen: set[SatakeDiagram] = set()
    for comps in multisets:
        n = sum(r for _, r in comps)
        for bits in itertools.product("wb", repeat=n):
            colors = "".join(bits)
            whites = [i + 1 for i, c in enumerate(colors) if c == "w"]
            for matching in _partial_matchings(whites):
                d = SatakeDiagram.make(comps, colors, matching)
                if not d.is_connected():
                    continue
                c = d.canonical()
                if c in seen:
                    continue
                seen.add(c)
                yield c
