"""Reference helpers that only the tests need: plain restatements of
definitions, used as oracles against what the package computes."""

from fractions import Fraction as Q

from z2poisson.diagram import SatakeDiagram, _components
from z2poisson.invariants import InvariantSet
from z2poisson.poly import Poly, coeff_num
from z2poisson.structure import LieAlgebra, PairRealization, _kernel_on, index


def linear(coords) -> Poly:
    """The linear form with the given coefficient vector."""
    coords = list(coords)
    p = Poly(len(coords))
    for i, c in enumerate(coords):
        c = coeff_num(c)
        if c != 0:
            exps = [0] * len(coords)
            exps[i] = 1
            p.terms[tuple(exps)] = c
    return p


def poly_eval(p: Poly, point) -> Q:
    """The value of ``p`` at a point, term by term."""
    point = [Q(x) for x in point]
    total = Q(0)
    for e, c in p.terms.items():
        v = c
        for i, k in enumerate(e):
            if k:
                v *= point[i] ** k
        total += v
    return total


def degrees(inv: InvariantSet) -> list[int]:
    return [p.degree() for p in inv.polys]


def trace_pair(a, b) -> Q:
    """tr(ab), summed over the nonzero entries of a."""
    return sum([x * b[k][i] for i, row in enumerate(a) for k, x in enumerate(row) if x],
               0)


def b_value(q: LieAlgebra) -> Q:
    """(dim + index)/2; integral for every algebra the package builds."""
    val = Q(q.dim + index(q), 2)
    if val.denominator != 1:
        raise ValueError("dim + index is odd")
    return val


def centralizer_of_cartan(pr: PairRealization) -> list[list[Q]]:
    """Basis of the centralizer of the Cartan subspace inside the even part."""
    even = pr.grading.even_idx
    rows = [{j: row[j] for j in even}
            for c in pr.cartan_subspace for row in pr.g.ad_matrix(c)]
    return _kernel_on(rows, even, pr.g.dim)


def is_connected(d: SatakeDiagram) -> bool:
    """Connectivity of the graph with arrows counted as edges."""
    pairs = d.graph.edges() + list(d.arrows)
    return len(_components(range(1, d.n_nodes + 1), pairs)) <= 1
