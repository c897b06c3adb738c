"""Reference helpers that only the tests need: plain restatements of
definitions, used as oracles against what the package computes."""

from fractions import Fraction as Q

from z2poisson import linalg
from z2poisson.diagram import SatakeDiagram, _components
from z2poisson.invariants import InvariantSet, _products_of_degree, top_component
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


def kirillov_at(q: LieAlgebra, xi) -> list[list[Q]]:
    """The matrix ``xi([e_i, e_j])``, summed in Fractions over every entry."""
    n = q.dim
    return [[sum((Q(c) * Q(xi[k]) for k, c in q.bracket_basis(i, j).items()), Q(0))
             for j in range(n)] for i in range(n)]


def bracket(q: LieAlgebra, x, y) -> list[Q]:
    """[x, y] in coordinates, summed over the basis brackets."""
    out = [Q(0)] * q.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                for k, c in q.bracket_basis(i, j).items():
                    out[k] += Q(a) * Q(b) * c
    return out


def ad_matrix(q: LieAlgebra, v) -> list[list[Q]]:
    """Matrix of ad(v): column j holds the coordinates of [v, e_j]."""
    cols = [bracket(q, v, [int(t == j) for t in range(q.dim)]) for j in range(q.dim)]
    return [[cols[j][i] for j in range(q.dim)] for i in range(q.dim)]


def graded_centralizer(pr: PairRealization, v) -> tuple[list[list[Q]], list[list[Q]]]:
    """Kernels of ad(v) restricted to the even and to the odd eigenspace."""
    ad = ad_matrix(pr.g, v)

    def restricted_kernel(idx):
        return _kernel_on([{j: row[j] for j in idx} for row in ad], idx, pr.g.dim)

    return restricted_kernel(pr.grading.even_idx), restricted_kernel(pr.grading.odd_idx)


def restricted_stabilizer(q: LieAlgebra, xi, basis) -> list[list[Q]]:
    """Kernel basis of the form ``xi([x, y])`` on the span of ``basis``, in
    q's coordinates: the stabilizer of xi in that subalgebra, from the Gram
    matrix of the form on the basis vectors, summed in Fractions."""
    gram = [{b: sum((Q(x) * c for x, c in zip(xi, bracket(q, u, v))), Q(0))
             for b, v in enumerate(basis)} for u in basis]
    return [[sum((c * Q(basis[b][j]) for b, c in v.items()), Q(0)) for j in range(q.dim)]
            for v in linalg.kernel(gram, range(len(basis)))]


def subalgebra(q: LieAlgebra, vectors) -> LieAlgebra:
    """The bracket-closed span of ``vectors`` in its own basis, each bracket
    solved in the span on its own."""
    sc = span_structure_constants(vectors, lambda a, b: bracket(q, vectors[a], vectors[b]))
    return LieAlgebra([f"t{i+1}" for i in range(len(vectors))], sc)


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
            for c in pr.cartan_subspace for row in ad_matrix(pr.g, c)]
    return _kernel_on(rows, even, pr.g.dim)


def is_connected(d: SatakeDiagram) -> bool:
    """Connectivity of the graph with arrows counted as edges."""
    pairs = d.graph.edges() + list(d.arrows)
    return len(_components(range(1, d.n_nodes + 1), pairs)) <= 1


def span_coordinates(vectors, v) -> list[Q] | None:
    """Coordinates of v in the span of the independent ``vectors``, from
    the reduced echelon form of the columns ``[vectors | v]``; None if v
    lies outside the span."""
    m = len(vectors)
    rows = [{j: u[i] for j, u in enumerate(list(vectors) + [v]) if u[i]}
            for i in range(len(v))]
    red, pivots = linalg.rref(rows)
    assert pivots[:m] == list(range(m)), "vectors are not independent"
    if len(pivots) > m:
        return None
    return [row.get(m, Q(0)) for row in red]


def span_structure_constants(vectors, bracket) -> dict:
    """Structure constants of the span of ``vectors``, with
    ``bracket(a, b)`` the bracket of members a and b: each bracket is
    solved in the span on its own."""
    sc = {}
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            coords = span_coordinates(vectors, bracket(a, b))
            assert coords is not None, f"not bracket-closed at ({a},{b})"
            entry = {k: x for k, x in enumerate(coords) if x}
            if entry:
                sc[(a, b)] = entry
    return sc


def dense_structure_constants(matrices) -> dict:
    """Structure constants of the span of the matrices, from dense
    commutators."""
    flat = lambda m: [x for row in m for x in row]
    return span_structure_constants(
        [flat(m) for m in matrices],
        lambda a, b: flat(linalg.commutator(matrices[a], matrices[b])))


def weight_echelon_tops(polys: list[Poly], grading) -> list[Poly]:
    """Weight-echelon tops by two eliminations per degree: the joint
    reduced echelon form of the products and the invariants, and the pivot
    columns of the products alone; the joint rows whose pivots the products
    do not have give the tops."""
    odd = set(grading.odd_idx)
    by_degree: dict[int, list[Poly]] = {}
    for p in polys:
        by_degree.setdefault(p.degree(), []).append(p)
    out: list[Poly] = []
    earlier: list[Poly] = []
    for d in sorted(by_degree):
        group = by_degree[d]
        prods = _products_of_degree(earlier, d)
        monomials = sorted({e for p in prods + group for e in p.terms},
                           key=lambda e: (-sum(e[i] for i in odd), e))
        column = {e: c for c, e in enumerate(monomials)}
        rows = [{column[e]: x for e, x in p.terms.items()} for p in prods + group]
        red, pivots = linalg.rref(rows)
        prod_pivots = set(linalg.rref(rows[:len(prods)])[1])
        for row, c in zip(red, pivots):
            if c not in prod_pivots:
                poly = Poly(group[0].nvars, {monomials[cc]: x for cc, x in row.items()})
                out.append(top_component(poly, grading))
        earlier.extend(group)
    return out
