"""Structure-constant Lie algebras for the classical symmetric pairs.

Every algebra is given by exact rational structure constants on an explicit
basis.  Symmetric pairs are realized as matrix algebras with the basis
already adapted to the involution (fixed vectors first, anti-fixed second),
so the involution matrix is diagonal and all eigenspace data is positional.

``index`` is the reference route to the index of an algebra: the Kirillov
matrix with entries in the polynomial ring over the dual coordinates is
reduced by deterministic fraction-free elimination, exploiting the zero block
that a contraction's abelian ideal creates.  The suites use it for ``g`` and
for centralizers; the index of a contraction is certified from its central
generators instead (``poisson.certified_index``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction as Q

from . import linalg
from .diagram import PairId, SatakeDiagram, satake_of, rank_of_g, STRUCTURE_FAMILIES
from .errors import AlgebraValidationError, GenericityError, UnsupportedPairError
from .linalg import ColumnSolver, Mat
from .poly import NAME_PATTERN, Poly, coeff_num

Covector = tuple[Q, ...]


class LieAlgebra:
    """Finite-dimensional Lie algebra with sparse rational structure
    constants ``[e_i, e_j] = sum_k c_ij^k e_k`` stored for i < j only."""

    def __init__(self, labels, sc, check: bool = True):
        self.labels: tuple[str, ...] = tuple(labels)
        for label in self.labels:
            if not (isinstance(label, str) and re.fullmatch(NAME_PATTERN, label)):
                raise ValueError(f"label {label!r} is not a variable name")
        if len(set(self.labels)) != self.dim:
            raise ValueError("labels are not distinct")
        self.sc: dict[tuple[int, int], dict[int, Q]] = {
            (i, j): {k: coeff_num(c) for k, c in entry.items() if c != 0}
            for (i, j), entry in sc.items()
        }
        self.sc = {key: entry for key, entry in self.sc.items() if entry}
        for (i, j), entry in self.sc.items():
            if not (i in range(self.dim) and j in range(self.dim) and i < j):
                raise ValueError(f"bad structure-constant key ({i},{j})")
            if any(k not in range(self.dim) for k in entry):
                raise ValueError(f"bad structure-constant target in ({i},{j})")
        if check:
            self.check_jacobi()

    @property
    def dim(self) -> int:
        return len(self.labels)

    # -- brackets ------------------------------------------------------
    def bracket_basis(self, i: int, j: int) -> dict[int, Q]:
        if i == j:
            return {}
        if i < j:
            return self.sc.get((i, j), {})
        return {k: -c for k, c in self.sc.get((j, i), {}).items()}

    def bracket(self, x, y) -> list[Q]:
        out = [Q(0)] * self.dim
        nz_x = [(i, Q(v)) for i, v in enumerate(x) if v != 0]
        nz_y = [(j, Q(v)) for j, v in enumerate(y) if v != 0]
        for i, xi in nz_x:
            for j, yj in nz_y:
                if i == j:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    out[k] += xi * yj * c
        return out

    def ad_matrix(self, v) -> Mat:
        """Matrix of ad(v): column j holds the coordinates of [v, e_j]."""
        cols = [self.bracket(v, [Q(1) if t == j else Q(0) for t in range(self.dim)])
                for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def check_jacobi(self) -> None:
        """Exhaustive on all basis triples."""
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if not self._jacobi_triple(i, j, k):
                        raise ValueError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})")

    def _jacobi_triple(self, i: int, j: int, k: int) -> bool:
        total = [Q(0)] * self.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = self.bracket_basis(a, b)
            for t, coeff in inner.items():
                for s, d in self.bracket_basis(t, c).items():
                    total[s] += coeff * d
        return all(x == 0 for x in total)

    # -- Kirillov form ---------------------------------------------------
    def kirillov_at(self, xi) -> Mat:
        xi = [Q(x) for x in xi]
        n = self.dim
        m = [[Q(0)] * n for _ in range(n)]
        for (i, j), entry in self.sc.items():
            v = sum((c * xi[k] for k, c in entry.items()), Q(0))
            m[i][j] = v
            m[j][i] = -v
        return m

    def kirillov_poly(self) -> list[list[Poly]]:
        n = self.dim
        zero = Poly.zero(n)
        m = [[zero] * n for _ in range(n)]
        for (i, j), entry in self.sc.items():
            p = Poly(n, {tuple(1 if t == k else 0 for t in range(n)): c
                         for k, c in entry.items()})
            m[i][j] = p
            m[j][i] = -p
        return m

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        rows = []
        for (i, j) in sorted(self.sc):
            entry = [[k + 1, str(c)] for k, c in sorted(self.sc[(i, j)].items())]
            rows.append([i + 1, j + 1, entry])
        return {"dim": self.dim, "labels": list(self.labels), "sc": rows}

    @staticmethod
    def from_json(data: dict) -> "LieAlgebra":
        """Inverse of ``to_json``; any malformed or non-Lie input raises
        :class:`AlgebraValidationError`."""
        try:
            labels = data["labels"]
            if len(labels) != data["dim"]:
                raise ValueError("label count does not match dim")
            sc = {(i - 1, j - 1): {k - 1: Q(c) for k, c in entry}
                  for i, j, entry in data["sc"]}
            return LieAlgebra(labels, sc)
        except KeyError as e:
            raise AlgebraValidationError(f"not a Lie algebra: missing {e}") from None
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise AlgebraValidationError(f"not a Lie algebra: {e}") from None


@dataclass(frozen=True)
class Involution:
    matrix: tuple[tuple[Q, ...], ...]

    def validate(self, algebra: LieAlgebra) -> None:
        n = algebra.dim
        m = [list(row) for row in self.matrix]
        sq = linalg.mat_mul(m, m)
        if sq != linalg.identity(n):
            raise ValueError("involution does not square to the identity")
        for i in range(n):
            for j in range(i + 1, n):
                lhs = algebra.bracket(m_col(m, i), m_col(m, j))
                rhs = [Q(0)] * n
                for k, c in algebra.bracket_basis(i, j).items():
                    for t in range(n):
                        rhs[t] += c * m[t][k]
                if lhs != rhs:
                    raise ValueError(
                        f"involution is not an automorphism on pair ({i},{j})")


def m_col(m: Mat, j: int) -> list[Q]:
    return [m[i][j] for i in range(len(m))]


@dataclass(frozen=True)
class Z2Grading:
    even_idx: tuple[int, ...]
    odd_idx: tuple[int, ...]

    def validate(self, algebra: LieAlgebra) -> None:
        n = algebra.dim
        if sorted(self.even_idx + self.odd_idx) != list(range(n)):
            raise ValueError("grading does not partition the basis")
        parity = self.parity()
        for (i, j), entry in algebra.sc.items():
            want = (parity[i] + parity[j]) % 2
            for k in entry:
                if parity[k] != want:
                    raise ValueError(
                        f"grading closure fails: [e_{i}, e_{j}] leaves its eigenspace")

    def parity(self) -> dict[int, int]:
        p = {i: 0 for i in self.even_idx}
        p.update({i: 1 for i in self.odd_idx})
        return p


@dataclass
class MatrixRealization:
    """A Lie algebra together with the matrices realizing its basis."""

    algebra: LieAlgebra
    matrices: list[Mat]
    kind: str                      # sl | so | sp | so_split | diag_<kind>
    size: int                      # matrix size of one factor
    form: Mat | None = None        # bilinear form for the split so realization
    cartan: list[int] = field(default_factory=list)  # Cartan basis positions


@dataclass
class PairRealization:
    pair: PairId
    g: LieAlgebra
    sigma: Involution
    grading: Z2Grading
    cartan_subspace: list[list[Q]]
    satake: SatakeDiagram
    realization: MatrixRealization
    rank_g: int

    @property
    def d0(self) -> int:
        return len(self.grading.even_idx)

    @property
    def d1(self) -> int:
        return len(self.grading.odd_idx)

    @property
    def rank_pair(self) -> int:
        return self.satake.rank()


# ----------------------------------------------------------------------
# matrix basics
# ----------------------------------------------------------------------

def _E(n: int, i: int, j: int) -> Mat:
    """Elementary matrix with a single 1 at 1-based (i, j)."""
    m = [[Q(0)] * n for _ in range(n)]
    m[i - 1][j - 1] = Q(1)
    return m


def _madd(*ms: Mat) -> Mat:
    n = len(ms[0])
    out = [[Q(0)] * n for _ in range(n)]
    for m in ms:
        for i in range(n):
            for j in range(n):
                out[i][j] += m[i][j]
    return out


def _mneg(m: Mat) -> Mat:
    return [[-x for x in row] for row in m]


def algebra_from_matrices(matrices: list[Mat], labels) -> LieAlgebra:
    """Structure constants of the span of the given matrices (must be a
    linearly independent, bracket-closed family)."""
    n = len(matrices[0])
    cols = [[m[i][j] for i in range(n) for j in range(n)] for m in matrices]
    solver = ColumnSolver(cols)
    sc: dict[tuple[int, int], dict[int, Q]] = {}
    for a in range(len(matrices)):
        for b in range(a + 1, len(matrices)):
            c = linalg.commutator(matrices[a], matrices[b])
            flat = [c[i][j] for i in range(n) for j in range(n)]
            coords = solver.solve(flat)
            if coords is None:
                raise ValueError(f"matrix family is not bracket-closed at ({a},{b})")
            entry = {k: v for k, v in enumerate(coords) if v != 0}
            if entry:
                sc[(a, b)] = entry
    return LieAlgebra(labels, sc)


# ----------------------------------------------------------------------
# plain classical algebras (used for invariant generators and the diagonal
# construction)
# ----------------------------------------------------------------------

def matrix_algebra(name: str, n: int) -> MatrixRealization:
    """sl_n, so_n (antisymmetric realization) or sp_n (n even), with a
    marked Cartan basis."""
    if name == "sl":
        if n < 2:
            raise UnsupportedPairError("sl_n needs n >= 2")
        mats, labels = [], []
        for i in range(1, n):
            mats.append(_madd(_E(n, i, i), _mneg(_E(n, i + 1, i + 1))))
            labels.append(f"h{i}")
        cartan = list(range(n - 1))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    mats.append(_E(n, i, j))
                    labels.append(f"e{i}_{j}")
        alg = algebra_from_matrices(mats, labels)
        return MatrixRealization(alg, mats, "sl", n, cartan=cartan)
    if name == "so":
        if n < 3:
            raise UnsupportedPairError("so_n needs n >= 3")
        mats, labels, cartan = [], [], []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if j == i + 1 and i % 2 == 1:
                    cartan.append(len(mats))
                mats.append(_madd(_E(n, i, j), _mneg(_E(n, j, i))))
                labels.append(f"a{i}_{j}")
        cartan = cartan[: n // 2]
        alg = algebra_from_matrices(mats, labels)
        return MatrixRealization(alg, mats, "so", n, cartan=cartan)
    if name == "sp":
        if n < 2 or n % 2:
            raise UnsupportedPairError("sp_n needs even n >= 2")
        half = n // 2
        mats, labels, cartan = [], [], []
        for i in range(1, half + 1):
            for j in range(1, half + 1):
                if i == j:
                    cartan.append(len(mats))
                mats.append(_madd(_E(n, i, j), _mneg(_E(n, half + j, half + i))))
                labels.append(f"p{i}_{j}")
        for i in range(1, half + 1):
            for j in range(i, half + 1):
                if i == j:
                    mats.append(_E(n, i, half + i))
                else:
                    mats.append(_madd(_E(n, i, half + j), _E(n, j, half + i)))
                labels.append(f"b{i}_{j}")
        for i in range(1, half + 1):
            for j in range(i, half + 1):
                if i == j:
                    mats.append(_E(n, half + i, i))
                else:
                    mats.append(_madd(_E(n, half + i, j), _E(n, half + j, i)))
                labels.append(f"c{i}_{j}")
        alg = algebra_from_matrices(mats, labels)
        return MatrixRealization(alg, mats, "sp", n, cartan=cartan)
    raise UnsupportedPairError(f"unknown classical type {name!r}")


# ----------------------------------------------------------------------
# symmetric-pair builders
# ----------------------------------------------------------------------

def build_pair(pair: PairId | str) -> PairRealization:
    """Matrix realization of a supported classical or diagonal pair, with
    the basis adapted to the involution."""
    if isinstance(pair, str):
        from .diagram import parse_pair_name
        pair = parse_pair_name(pair)
    if pair.family not in STRUCTURE_FAMILIES:
        raise UnsupportedPairError(
            f"{pair_name(pair)} has no structure-level realization")
    builder = _BUILDERS[pair.family]
    even, odd, even_labels, odd_labels, cartan_local = builder(pair)
    mats = even + odd
    labels = list(even_labels) + list(odd_labels)
    alg = algebra_from_matrices(mats, labels)
    d0, d1 = len(even), len(odd)
    grading = Z2Grading(tuple(range(d0)), tuple(range(d0, d0 + d1)))
    grading.validate(alg)
    sigma = Involution(tuple(
        tuple(Q(1 if (i == j and i < d0) else (-1 if i == j else 0))
              for j in range(d0 + d1)) for i in range(d0 + d1)))
    sigma.validate(alg)
    satake = satake_of(pair)
    cartan = [[Q(0)] * (d0 + d1) for _ in cartan_local]
    for row, positions in zip(cartan, cartan_local):
        for pos, coeff in positions:
            row[d0 + pos] = Q(coeff)
    _check_cartan(mats, grading, cartan, satake)
    kind, size, form = _REALIZATION_META[pair.family](pair)
    real = MatrixRealization(alg, mats, kind, size, form=form)
    return PairRealization(pair, alg, sigma, grading, cartan, satake, real,
                           rank_of_g(pair))


def pair_name(pair: PairId) -> str:
    from .diagram import pair_display_name
    return pair_display_name(pair)


def _check_cartan(mats, grading, cartan, satake) -> None:
    if len(cartan) != satake.rank():
        raise ValueError("Cartan subspace dimension does not match the diagram rank")
    as_mats = []
    for vec in cartan:
        m = None
        for i, c in enumerate(vec):
            if c == 0:
                continue
            if i not in grading.odd_idx:
                raise ValueError("Cartan subspace vector leaves the odd eigenspace")
            term = [[c * x for x in row] for row in mats[i]]
            m = term if m is None else _madd(m, term)
        as_mats.append(m)
    for i, a in enumerate(as_mats):
        if not linalg.min_poly_squarefree(a):
            raise ValueError("Cartan subspace vector is not semisimple")
        for b in as_mats[i + 1:]:
            if not linalg.is_zero_mat(linalg.commutator(a, b)):
                raise ValueError("Cartan subspace vectors do not commute")


# each builder returns (even_mats, odd_mats, even_labels, odd_labels,
# cartan) where cartan lists [(odd_position, coeff), ...] combinations.

def _build_sl_so(pair: PairId):
    (n,) = pair.params
    even, el = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            even.append(_madd(_E(n, i, j), _mneg(_E(n, j, i))))
            el.append(f"u{i}_{j}")
    odd, ol = [], []
    for i in range(1, n):
        odd.append(_madd(_E(n, i, i), _mneg(_E(n, i + 1, i + 1))))
        ol.append(f"v{i}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            odd.append(_madd(_E(n, i, j), _E(n, j, i)))
            ol.append(f"w{i}_{j}")
    if n == 2:
        el, ol = ["u"], ["v", "w"]
    cartan = [[(i, 1)] for i in range(n - 1)]
    return even, odd, el, ol, cartan


def _build_sl_gl(pair: PairId):
    n, k = pair.params
    blocks = lambda i: 0 if i <= k else 1
    even, el = [], []
    for i in range(1, n):
        even.append(_madd(_E(n, i, i), _mneg(_E(n, i + 1, i + 1))))
        el.append(f"d{i}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and blocks(i) == blocks(j):
                even.append(_E(n, i, j))
                el.append(f"a{i}_{j}")
    odd, ol = [], []
    odd_pos = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and blocks(i) != blocks(j):
                odd_pos[(i, j)] = len(odd)
                odd.append(_E(n, i, j))
                ol.append(f"b{i}_{j}")
    cartan = [[(odd_pos[(t, n + 1 - t)], 1), (odd_pos[(n + 1 - t, t)], 1)]
              for t in range(1, k + 1)]
    return even, odd, el, ol, cartan


def _build_sl_sp(pair: PairId):
    (n,) = pair.params
    N = 2 * n
    even, el = [], []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            even.append(_madd(_E(N, i, j), _mneg(_E(N, n + j, n + i))))
            el.append(f"p{i}_{j}")
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i == j:
                even.append(_E(N, i, n + i))
            else:
                even.append(_madd(_E(N, i, n + j), _E(N, j, n + i)))
            el.append(f"b{i}_{j}")
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i == j:
                even.append(_E(N, n + i, i))
            else:
                even.append(_madd(_E(N, n + i, j), _E(N, n + j, i)))
            el.append(f"c{i}_{j}")
    odd, ol = [], []
    cartan_pos = []
    for i in range(1, n):
        cartan_pos.append(len(odd))
        odd.append(_madd(_E(N, i, i), _E(N, n + i, n + i),
                         _mneg(_E(N, i + 1, i + 1)), _mneg(_E(N, n + i + 1, n + i + 1))))
        ol.append(f"q{i}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                odd.append(_madd(_E(N, i, j), _E(N, n + j, n + i)))
                ol.append(f"r{i}_{j}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            odd.append(_madd(_E(N, i, n + j), _mneg(_E(N, j, n + i))))
            ol.append(f"s{i}_{j}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            odd.append(_madd(_E(N, n + i, j), _mneg(_E(N, n + j, i))))
            ol.append(f"t{i}_{j}")
    cartan = [[(p, 1)] for p in cartan_pos]
    return even, odd, el, ol, cartan


def _build_so_so(pair: PairId):
    p, q = pair.params
    N = p + q
    even, el = [], []
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            even.append(_madd(_E(N, i, j), _mneg(_E(N, j, i))))
            el.append(f"a{i}_{j}")
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            even.append(_madd(_E(N, p + i, p + j), _mneg(_E(N, p + j, p + i))))
            el.append(f"c{i}_{j}")
    odd, ol = [], []
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            odd.append(_madd(_E(N, i, p + j), _mneg(_E(N, p + j, i))))
            ol.append(f"b{i}_{j}")
    cartan = [[((t - 1) * q + (t - 1), 1)] for t in range(1, min(p, q) + 1)]
    return even, odd, el, ol, cartan


def _build_sp_sp(pair: PairId):
    n, k = pair.params
    N = 2 * n
    cls = lambda i: 0 if i <= k else 1
    even, odd, el, ol = [], [], [], []
    odd_pos = {}

    def put(m, name, same_class):
        if same_class:
            even.append(m)
            el.append(name)
        else:
            odd_pos[name] = len(odd)
            odd.append(m)
            ol.append(name)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            put(_madd(_E(N, i, j), _mneg(_E(N, n + j, n + i))), f"p{i}_{j}",
                cls(i) == cls(j))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            m = _E(N, i, n + i) if i == j else _madd(_E(N, i, n + j), _E(N, j, n + i))
            put(m, f"b{i}_{j}", cls(i) == cls(j))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            m = _E(N, n + i, i) if i == j else _madd(_E(N, n + i, j), _E(N, n + j, i))
            put(m, f"c{i}_{j}", cls(i) == cls(j))
    cartan = [[(odd_pos[f"p{t}_{k+t}"], 1), (odd_pos[f"p{k+t}_{t}"], 1)]
              for t in range(1, k + 1)]
    return even, odd, el, ol, cartan


def _build_sp_gl(pair: PairId):
    (n,) = pair.params
    N = 2 * n
    even, el = [], []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            even.append(_madd(_E(N, i, j), _mneg(_E(N, n + j, n + i))))
            el.append(f"p{i}_{j}")
    odd, ol = [], []
    b_pos = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            b_pos[(i, j)] = len(odd)
            m = _E(N, i, n + i) if i == j else _madd(_E(N, i, n + j), _E(N, j, n + i))
            odd.append(m)
            ol.append(f"b{i}_{j}")
    c_pos = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            c_pos[(i, j)] = len(odd)
            m = _E(N, n + i, i) if i == j else _madd(_E(N, n + i, j), _E(N, n + j, i))
            odd.append(m)
            ol.append(f"c{i}_{j}")
    cartan = [[(b_pos[(t, t)], 1), (c_pos[(t, t)], 1)] for t in range(1, n + 1)]
    return even, odd, el, ol, cartan


def _build_so_gl(pair: PairId):
    (n,) = pair.params
    N = 2 * n
    even, el = [], []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            even.append(_madd(_E(N, i, j), _mneg(_E(N, n + j, n + i))))
            el.append(f"p{i}_{j}")
    odd, ol = [], []
    m_pos, n_pos = {}, {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m_pos[(i, j)] = len(odd)
            odd.append(_madd(_E(N, i, n + j), _mneg(_E(N, j, n + i))))
            ol.append(f"m{i}_{j}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            n_pos[(i, j)] = len(odd)
            odd.append(_madd(_E(N, n + i, j), _mneg(_E(N, n + j, i))))
            ol.append(f"n{i}_{j}")
    cartan = [[(m_pos[(2 * t - 1, 2 * t)], 1), (n_pos[(2 * t - 1, 2 * t)], 1)]
              for t in range(1, n // 2 + 1)]
    return even, odd, el, ol, cartan


def _block_diag(a: Mat, b: Mat) -> Mat:
    n, m = len(a), len(b)
    out = [[Q(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = b[i][j]
    return out


def _build_diag(pair: PairId):
    name = {"diag_sl": "sl", "diag_so": "so", "diag_sp": "sp"}[pair.family]
    (n,) = pair.params
    base = matrix_algebra(name, n if name != "sp" else 2 * n)
    even = [_block_diag(m, m) for m in base.matrices]
    odd = [_block_diag(m, _mneg(m)) for m in base.matrices]
    el = [f"y{i+1}" for i in range(len(even))]
    ol = [f"z{i+1}" for i in range(len(odd))]
    cartan = [[(pos, 1)] for pos in base.cartan]
    return even, odd, el, ol, cartan


_BUILDERS = {
    "sl_so": _build_sl_so,
    "sl_gl": _build_sl_gl,
    "sl_sp": _build_sl_sp,
    "so_so": _build_so_so,
    "so_gl": _build_so_gl,
    "sp_sp": _build_sp_sp,
    "sp_gl": _build_sp_gl,
    "diag_sl": _build_diag,
    "diag_so": _build_diag,
    "diag_sp": _build_diag,
}


def _split_so_form(pair: PairId) -> Mat:
    (n,) = pair.params
    N = 2 * n
    form = [[Q(0)] * N for _ in range(N)]
    for i in range(n):
        form[i][n + i] = Q(1)
        form[n + i][i] = Q(1)
    return form


_REALIZATION_META = {
    "sl_so": lambda p: ("sl", p.params[0], None),
    "sl_gl": lambda p: ("sl", p.params[0], None),
    "sl_sp": lambda p: ("sl", 2 * p.params[0], None),
    "so_so": lambda p: ("so", p.params[0] + p.params[1], None),
    "so_gl": lambda p: ("so_split", 2 * p.params[0], _split_so_form(p)),
    "sp_sp": lambda p: ("sp", 2 * p.params[0], None),
    "sp_gl": lambda p: ("sp", 2 * p.params[0], None),
    "diag_sl": lambda p: ("diag_sl", p.params[0], None),
    "diag_so": lambda p: ("diag_so", p.params[0], None),
    "diag_sp": lambda p: ("diag_sp", 2 * p.params[0], None),
}


# ----------------------------------------------------------------------
# contraction, index, stabilizers
# ----------------------------------------------------------------------

def contract(g: LieAlgebra, grading: Z2Grading) -> LieAlgebra:
    """The semidirect contraction: brackets between two odd basis vectors
    are set to zero, everything else is kept."""
    grading.validate(g)
    odd = set(grading.odd_idx)
    sc = {key: dict(entry) for key, entry in g.sc.items()
          if not (key[0] in odd and key[1] in odd)}
    return LieAlgebra(g.labels, sc)


def _greedy_zero_block(q: LieAlgebra) -> list[int]:
    """A large index set S with no structure constants inside S x S; for a
    contraction this finds the abelian ideal.  Any zero block is sound."""
    load = {i: 0 for i in range(q.dim)}
    for (i, j) in q.sc:
        load[i] += 1
        load[j] += 1
    members = set(range(q.dim))
    changed = True
    while changed:
        changed = False
        for (i, j) in q.sc:
            if i in members and j in members:
                drop = i if load[i] >= load[j] else j
                members.discard(drop)
                changed = True
    return sorted(members)


def index(q: LieAlgebra) -> int:
    """dim minus the rank of the Kirillov matrix over the rational function
    field, by exact fraction-free elimination."""
    n = q.dim
    if not q.sc:
        return n
    kp = q.kirillov_poly()
    zero = _greedy_zero_block(q)
    if len(zero) >= 2:
        others = [i for i in range(n) if i not in zero]
        a_block = [[kp[i][j] for j in others] for i in others]
        b_block = [[kp[i][j] for j in zero] for i in others]
        r = linalg.contraction_rank(a_block, b_block)
    else:
        r = linalg.poly_rank(kp)
    return n - r


def b_value(q: LieAlgebra) -> Q:
    """(dim + index)/2; integral for every algebra this artifact builds."""
    val = Q(q.dim + index(q), 2)
    if val.denominator != 1:
        raise ValueError("dim + index is odd")
    return val


def stabilizer(q: LieAlgebra, xi) -> list[list[Q]]:
    """Exact kernel basis of the Kirillov form at a point."""
    return linalg.kernel(q.kirillov_at(xi), ncols=q.dim)


def is_regular(q: LieAlgebra, xi) -> bool:
    return len(stabilizer(q, xi)) == index(q)


def graded_centralizer(pr: PairRealization, v) -> tuple[list[list[Q]], list[list[Q]]]:
    """Kernels of ad(v) restricted to the even and odd eigenspaces, for v in
    the odd eigenspace."""
    v = [Q(x) for x in v]
    for i, x in enumerate(v):
        if x != 0 and i not in pr.grading.odd_idx:
            raise ValueError("v must lie in the odd eigenspace")
    ad = pr.g.ad_matrix(v)
    dim = pr.g.dim

    def restricted_kernel(idx):
        cols = list(idx)
        rows = [[ad[i][j] for j in cols] for i in range(dim)]
        ker = linalg.kernel(rows, ncols=len(cols))
        out = []
        for kv in ker:
            full = [Q(0)] * dim
            for pos, c in zip(cols, kv):
                full[pos] = c
            out.append(full)
        return out

    return restricted_kernel(pr.grading.even_idx), restricted_kernel(pr.grading.odd_idx)


def subalgebra(q: LieAlgebra, vectors: list[list[Q]], labels=None) -> LieAlgebra:
    """Structure constants of a bracket-closed subspace in its own basis."""
    if not vectors:
        return LieAlgebra((), {})
    solver = ColumnSolver([list(map(Q, v)) for v in vectors])
    r = len(vectors)
    labels = labels or tuple(f"t{i+1}" for i in range(r))
    sc: dict[tuple[int, int], dict[int, Q]] = {}
    for a in range(r):
        for b in range(a + 1, r):
            coords = solver.solve(q.bracket(vectors[a], vectors[b]))
            if coords is None:
                raise ValueError("subspace is not bracket-closed")
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                sc[(a, b)] = entry
    return LieAlgebra(labels, sc)


def sample_covector(dim: int, rng: random.Random, bound: int = 10 ** 6) -> list[Q]:
    return [Q(rng.randint(-bound, bound)) for _ in range(dim)]


def centralizer_of_cartan(pr: PairRealization) -> list[list[Q]]:
    """Basis of the centralizer of the Cartan subspace inside the even part."""
    dim = pr.g.dim
    rows: list[list[Q]] = []
    cols = list(pr.grading.even_idx)
    for c in pr.cartan_subspace:
        ad = pr.g.ad_matrix(c)
        rows.extend([ad[i][j] for j in cols] for i in range(dim))
    if not rows:
        rows = [[Q(0)] * len(cols)]
    ker = linalg.kernel(rows, ncols=len(cols))
    out = []
    for kv in ker:
        full = [Q(0)] * dim
        for pos, c in zip(cols, kv):
            full[pos] = c
        out.append(full)
    return out


def check_regular_stabilizer_index(pr: PairRealization, seed: int = 1,
                                   attempts: int = 12, exact: bool = False) -> dict:
    """At a generic point z of the Cartan subspace: the odd centralizer has
    dimension rk(g, g0) and the even centralizer has index rk g - rk(g, g0).

    Returns a report dict with both numbers; retries sampling on genericity
    failure, with an optional symbolic cross-check of the generic
    odd-centralizer dimension.
    """
    rng = random.Random(seed)
    rk_pair = pr.rank_pair
    expected_ind = pr.rank_g - rk_pair
    dim = pr.g.dim
    for _ in range(attempts):
        coeffs = [Q(rng.randint(-10 ** 6, 10 ** 6)) for _ in pr.cartan_subspace]
        z = [sum((c * v[i] for c, v in zip(coeffs, pr.cartan_subspace)), Q(0))
             for i in range(dim)]
        even_c, odd_c = graded_centralizer(pr, z)
        if len(odd_c) != rk_pair:
            continue
        g0z = subalgebra(pr.g, even_c)
        got_ind = index(g0z)
        result = {
            "z_coeffs": [str(c) for c in coeffs],
            "dim_g1z": len(odd_c),
            "expected_dim_g1z": rk_pair,
            "ind_g0z": got_ind,
            "expected_ind_g0z": expected_ind,
            "pass": len(odd_c) == rk_pair and got_ind == expected_ind,
        }
        if exact:
            result["symbolic_dim_g1z"] = _symbolic_odd_centralizer_dim(pr)
        return result
    raise GenericityError(
        "no generic Cartan point found within the attempt budget")


def _symbolic_odd_centralizer_dim(pr: PairRealization) -> int:
    """Generic odd-centralizer dimension over the Cartan subspace, by
    symbolic rank in the Cartan coefficients."""
    r = len(pr.cartan_subspace)
    dim = pr.g.dim
    cols = list(pr.grading.odd_idx)
    rows = [[Poly.zero(r) for _ in cols] for _ in range(dim)]
    for t, vec in enumerate(pr.cartan_subspace):
        ad = pr.g.ad_matrix(vec)
        for i in range(dim):
            for jj, j in enumerate(cols):
                if ad[i][j] != 0:
                    rows[i][jj] = rows[i][jj] + Poly.var(r, t, ad[i][j])
    return len(cols) - linalg.poly_rank(rows)


def coadjoint_check(pr: PairRealization) -> bool:
    """Verifies on every basis pair that the coadjoint action of the
    contraction, computed from structure constants, matches the block
    formula obtained by identifying each eigenspace with its dual through
    the trace form.

    Convention: (x * xi)(y) = <xi, [y, x]>.
    """
    k = contract(pr.g, pr.grading)
    mats = pr.realization.matrices
    dim = k.dim
    tform = [[linalg.trace_pair(mats[i], mats[j]) for j in range(dim)]
             for i in range(dim)]
    red, pivots = linalg.rref([row[:] + [Q(1 if t == i else 0) for t in range(dim)]
                               for i, row in enumerate(tform)])
    if len(pivots) != dim or any(p >= dim for p in pivots):
        raise ValueError("trace form is degenerate")
    tinv = [[red[i][dim + j] for j in range(dim)] for i in range(dim)]
    parity = pr.grading.parity()
    even = set(pr.grading.even_idx)
    for m in range(dim):
        # xi = m-th dual basis vector; its trace-form partner as a matrix
        coeffs = [tinv[j][m] for j in range(dim)]
        big = [[sum(coeffs[t] * mats[t][i][j] for t in range(dim) if coeffs[t] != 0)
                for j in range(len(mats[0]))] for i in range(len(mats[0]))]
        big_even = [[sum(coeffs[t] * mats[t][i][j] for t in range(dim)
                         if coeffs[t] != 0 and t in even)
                     for j in range(len(mats[0]))] for i in range(len(mats[0]))]
        big_odd = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(big, big_even)]
        for a in range(dim):
            if parity[a] == 0:
                eta = linalg.commutator(mats[a], big)
            else:
                eta = linalg.commutator(mats[a], big_odd)
            rhs = [linalg.trace_pair(eta, mats[l]) for l in range(dim)]
            lhs = [Q(0)] * dim
            for l in range(dim):
                lhs[l] = k.bracket_basis(l, a).get(m, Q(0))
            if lhs != rhs:
                return False
    return True
