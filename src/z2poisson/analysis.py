"""Orchestrated verification suites: each suite ties the diagram-level
predictions to exact structure-level computations and renders the outcome
as a report of (expected, computed) pairs.

Reports are deterministic under a fixed seed: identical inputs produce
identical bytes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as Q

from . import linalg
from .diagram import (PairId, SatakeDiagram, _colorings, _has_isolated_white,
                      _open_whites, _white_mask)
from .errors import BudgetError, GenericityError, UnsupportedPairError
from .invariants import (_check_witness_cap, classical_invariants,
                         contraction_invariants, noncommutativity_witness,
                         nreg_subalgebra, pointwise_invariants)
from .poisson import (certified_index, gradients, mf_family, pairwise_commuting,
                      poisson_bracket, trdeg_lower_bound)
from .poly import Poly
from .structure import (build_pair, check_regular_stabilizer_index,
                        even_stabilizer, kirillov_corank, sample_covector,
                        stabilizer)


class Check:
    """One (expected, computed) row of a report."""

    def __init__(self, name: str, expected: object, computed: object,
                 passed: bool, note: str = ""):
        self.name = name
        self.expected = expected
        self.computed = computed
        self.passed = passed
        self.note = note

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": _jsonable(self.expected),
            "computed": _jsonable(self.computed),
            "pass": self.passed,
            "note": self.note,
        }


def _jsonable(v):
    if isinstance(v, Q):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


class VerificationReport:
    """The checks of one suite run."""

    def __init__(self, suite: str, pair: str, seed: int):
        self.suite = suite
        self.pair = pair
        self.seed = seed
        self.checks: list[Check] = []

    def add(self, name, expected, computed, note: str = "") -> Check:
        c = Check(name, expected, computed, expected == computed, note)
        self.checks.append(c)
        return c

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "pair": self.pair,
            "seed": self.seed,
            "pass": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def to_markdown(self) -> str:
        lines = [
            f"# {self.suite} — {self.pair or 'diagrams'}",
            "",
            f"seed: {self.seed}  |  overall: {'PASS' if self.passed else 'FAIL'}",
            "",
            "| check | expected | computed | pass | note |",
            "|---|---|---|---|---|",
        ]
        for c in self.checks:
            lines.append(
                f"| {c.name} | {_jsonable(c.expected)} | {_jsonable(c.computed)} "
                f"| {'yes' if c.passed else 'NO'} | {c.note} |")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def verify_summary(pair: PairId, seed: int = 1) -> VerificationReport:
    """Index and degree-sum facts for one contraction: index equals the rank
    of the ambient algebra, b is preserved, and the central generator pool
    has the right degree sum when it is full.  The contraction's index is
    the one certified by its central generators, the tops of the classical
    invariants of g: their gradient rows at a sampled point bound it below
    and the Kirillov corank there bounds it above.  On a pair of kind sl,
    sp or so of maximal rank or of block type, the rows are read at the
    point with no polynomial built (``PointwiseInvariants``), and the tops
    are central by the equivariance certificate.  Everywhere else, and
    when those rows are not independent at the first point, the tops are
    polynomials (``contraction_invariants``), central by the same
    certificate, which the realization runs once.  For g of dimension at
    most 10, index(g) is certified the same way by the rows of the
    classical invariants of g, pointwise where the pair allows, at points
    sampled from the seed; elimination runs only if the two bounds do not
    meet.  At a generic Cartan point z, the odd-centralizer dimension is
    read from the even stabilizer g0^z of ``tr(Z .)``, and
    ``index(g0^z) = rk g - rk(g, g0)`` is certified from the contraction's
    index by Rais's identity, with no elimination
    (``check_regular_stabilizer_index``).
    """
    rep = VerificationReport("summary", str(pair), seed)
    pr = build_pair(pair)
    rk = pr.rank_g
    pointwise = pointwise_invariants(pr)
    meta = pointwise.certify_contraction(seed) if pointwise else None
    if meta is None:
        meta = contraction_invariants(pr, seed=seed).meta
    rep.add("index(k) = rk g", rk, meta["index"])
    rep.add("b(k) = b(g)", Q(pr.g.dim + rk, 2), Q(meta["b"]),
            note="b(g) from dim and rank")
    if pr.g.dim <= 10:
        rng = random.Random(seed)
        points = (sample_covector(pr.g.dim, rng) for _ in range(6))
        samples = (((mu, pointwise.rows(mu)) for mu in points) if pointwise
                   else gradients(classical_invariants(pr).polys, points))
        ind_g, _, _ = certified_index(pr.g, samples)
        rep.add("index(g) = rk g", rk, ind_g)
    rep.add("central generator count", rk, meta["count"])
    if meta["full"]:
        rep.add("sum of generator degrees = b(k)", meta["b"], meta["sum_degrees"])
        rep.add("generator Jacobian rank", meta["count"], meta["certified_rank"],
                note="full pool certified at the sampled point")
    else:
        rep.add("generator pool certified", True, False,
                note=f"achieved rank {meta['certified_rank']}")
    stab = check_regular_stabilizer_index(pr, meta["index"], seed=seed)
    rep.add("generic odd-centralizer dimension", stab["expected_dim_g1z"],
            stab["dim_g1z"])
    rep.add("index of the generic even centralizer", stab["expected_ind_g0z"],
            stab["ind_g0z"])
    return rep


def verify_main_combinatorics(max_nodes: int = 6,
                                      seed: int = 1) -> VerificationReport:
    """Exhaustive agreement of the local predicate (no trivial node) with the
    subdiagram-closure predicate on every structurally valid diagram.

    The diagrams come one coloring at a time from ``_colorings``.  The white
    mask and the open-white mask (``_open_whites``) are taken once per
    coloring; per matching, a trivial node exists when an open white node
    has no arrow, and the closure is ``_has_isolated_white``.  A diagram is
    built only to name an exception."""
    if max_nodes > 8:
        raise BudgetError("enumeration budget tops out at 8 nodes")
    rep = VerificationReport("main", f"diagrams up to {max_nodes} nodes", seed)
    total = 0
    codim3_count = 0
    exceptions = []
    for graph, colors, matchings in _colorings(max_nodes):
        nbr = graph.neighbor_masks
        white = _white_mask(colors)
        open_white = sum(1 << v for v in _open_whites(colors, graph.adjacency))
        total += len(matchings)
        for arrows in matchings:
            arrowed = 0
            for a, b in arrows:
                arrowed |= 1 << a - 1 | 1 << b - 1
            trivial = open_white & ~arrowed != 0
            if not trivial:
                codim3_count += 1
            if trivial != _has_isolated_white(nbr, white, arrows):
                exceptions.append(SatakeDiagram(graph, colors, arrows).serialize())
    rep.add("predicate equivalence exceptions", [], exceptions,
            note=f"{total} diagrams enumerated, {codim3_count} with codim-3")
    return rep


def verify_dim_stab(pair: PairId, samples: int = 20,
                    seed: int = 1) -> VerificationReport:
    """Stabilizer-dimension bookkeeping at random points eta = (alpha, beta):
    the kernel of the contraction's Kirillov form at eta must equal the orbit
    codimension of beta plus the stabilizer dimension of alpha restricted
    to the even stabilizer of beta, the kernel of ``alpha([x, y])`` on it."""
    rep = VerificationReport("dimstab", str(pair), seed)
    pr = build_pair(pair)
    k = pr.contraction
    rng = random.Random(seed)
    d0, d1 = pr.d0, pr.d1
    even = pr.grading.even_idx
    failures = []
    for s in range(samples):
        eta = sample_covector(k.dim, rng)
        beta = [eta[i] if i in pr.grading.odd_idx else 0 for i in range(k.dim)]
        alpha = [eta[i] if i in even else 0 for i in range(k.dim)]
        lhs = kirillov_corank(k, eta)
        g0b = even_stabilizer(pr, beta)
        codim_orbit = d1 - (d0 - len(g0b))
        rhs = codim_orbit + len(stabilizer(k, alpha, basis=g0b))
        if lhs != rhs:
            failures.append({"sample": s, "lhs": lhs, "rhs": rhs})
    rep.add("stabilizer dimension identity failures", [], failures,
            note=f"{samples} random points")
    # the degenerate slice beta = 0 reduces to the even Kirillov kernel
    alpha = sample_covector(k.dim, rng)
    alpha = [alpha[i] if i in even else 0 for i in range(k.dim)]
    lhs = kirillov_corank(k, alpha)
    g0 = [[int(t == i) for t in range(k.dim)] for i in even]
    rhs = d1 + len(stabilizer(k, alpha, basis=g0))
    rep.add("beta = 0 slice", lhs, rhs)
    return rep


def verify_nreg(pair: PairId, seed: int = 1,
                degree_bound: int | None = None) -> VerificationReport:
    """Construction of the abelian-ideal invariant subalgebra for a pair
    with no black nodes: generator count, certified rank, and absence of a
    noncommutativity witness up to the degree bound (by default 4 if
    dim g <= 8, else 2).  A pair with black nodes, and then a contraction
    over the witness search cap, is refused before any pool is built."""
    rep = VerificationReport("nreg", str(pair), seed)
    pr = build_pair(pair)
    if pr.satake.is_n_regular():        # else nreg_subalgebra refuses it
        _check_witness_cap(pr.contraction)
    inv = nreg_subalgebra(pr, seed=seed)
    m = len(pr.satake.arrows)
    rep.add("generator count = dim g1 + m", pr.d1 + m, inv.meta["count"])
    rep.add("generator count = b(k)", inv.meta["b"], inv.meta["count"])
    rep.add("certified Jacobian rank", inv.meta["b"], inv.meta["certified_rank"])
    rep.add("pairwise commuting", True, inv.meta["commuting"])
    if degree_bound is None:
        degree_bound = 4 if pr.g.dim <= 8 else 2
    witness = noncommutativity_witness(pr, degree_bound=degree_bound)
    shown = None
    if witness is not None:
        f, g, _ = witness
        labels = inv.algebra.labels
        shown = f"{{{f.to_text(labels)}, {g.to_text(labels)}}} != 0"
    rep.add("no noncommutativity witness", None, shown,
            note=f"odd-invariant search up to degree {degree_bound}")
    return rep


def demonstrate_nonmaximality(pair: PairId, seed: int = 1) -> VerificationReport:
    """For a maximal-rank pair: build the shift family at a regular odd
    direction and adjoin an odd coordinate outside it.  The enlarged set
    still commutes, so the family is not maximal.

    Non-membership is certified by degree filtration: the family's algebra
    is graded, so its degree-1 part is the linear span of its degree-1
    members, and the adjoined coordinate lies outside that span.
    """
    rep = VerificationReport("nonmax", str(pair), seed)
    pr = build_pair(pair)
    if not pr.maximal_rank:
        raise UnsupportedPairError(
            f"{pair} is not of maximal rank; the demonstration "
            "applies to all-white, arrow-free diagrams")
    k = pr.contraction
    inv = contraction_invariants(pr, seed=seed)
    if not inv.meta["full"]:
        raise GenericityError("central generator pool is not full")
    attempts = 40
    rng = random.Random(seed)
    xi = None
    for _ in range(attempts):
        cand = sample_covector(k.dim, rng)
        cand = [cand[i] if i in pr.grading.odd_idx else 0 for i in range(k.dim)]
        if kirillov_corank(k, cand) == inv.meta["index"]:
            xi = cand
            break
    if xi is None:
        raise GenericityError("no regular odd direction found within the budget")
    fam = mf_family(k, inv.polys, xi)
    polys = fam.polys()
    ok, witness = pairwise_commuting(k, polys)
    rep.add("shift family commutes", True, ok)
    deg1 = [p for p in polys if p.degree() == 1]
    span_rows = [{e.index(1): c for e, c in p.terms.items() if sum(e) == 1}
                 for p in deg1]
    base_rank = linalg.rank(span_rows)
    adjoined = None
    for i in pr.grading.odd_idx:
        if linalg.rank(span_rows + [{i: 1}]) > base_rank:
            adjoined = Poly.var(k.dim, i)
            break
    rep.add("an odd coordinate escapes the degree-1 span", True,
            adjoined is not None,
            note=f"degree-1 span dimension {base_rank}")
    if adjoined is not None:
        commutes = all(poisson_bracket(k, adjoined, p).is_zero() for p in polys)
        rep.add("adjoined coordinate commutes with the family", True, commutes)
        # a commutative subalgebra of S(k) has transcendence degree at most
        # b(k), so once both checks hold the first point of rank b settles it
        b = inv.meta["b"]
        rng2 = random.Random(seed + 1)
        got, _ = trdeg_lower_bound(
            polys + [adjoined], (sample_covector(k.dim, rng2) for _ in range(5)),
            stop=b if ok and commutes else None)
        rep.add("family rank stays at b", b, got,
                note="the enlargement adds no transcendence, only strictness")
    return rep


SUITES = {
    "summary": verify_summary,
    "main": verify_main_combinatorics,
    "dimstab": verify_dim_stab,
    "nreg": verify_nreg,
    "nonmax": demonstrate_nonmaximality,
}


def report_to_json_text(rep: VerificationReport) -> str:
    return json.dumps(rep.to_json(), indent=2) + "\n"
