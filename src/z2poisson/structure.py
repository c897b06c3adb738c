"""Structure-constant Lie algebras for the classical symmetric pairs.

Every algebra is given by exact rational structure constants on an explicit
basis.  Symmetric pairs are realized as matrix algebras with the basis
already adapted to the involution (fixed vectors first, anti-fixed second),
so the involution is the grading itself, +1 on the even positions and -1 on
the odd ones, and all eigenspace data is positional.  Each standard basis of
sl_n, so_n and sp_n is written once (``_basis``); a pair's realization sorts
one of them into its even and odd parts by a parity rule (``_split``), or
doubles it along the diagonal, and finds its Cartan vectors by label.

``index`` is the reference route to the index of an algebra: the Kirillov
matrix with entries in the polynomial ring over the dual coordinates is
reduced by deterministic fraction-free elimination, exploiting the zero block
that a contraction's abelian ideal creates.  The suites use it for ``g``
only when the certificate from the gradient rows of its classical
invariants does not close (``poisson.certified_index``).  The index of a
contraction is certified from its central generators, and the index of the
even centralizer ``g0^z`` of a generic Cartan point from that one by Rais's
semidirect-product identity (``check_regular_stabilizer_index``); ``g0^z``
is the even stabilizer of a covector (``even_stabilizer``), as in the
``dimstab`` suite.

Realizations are integer matrices, built from their nonzero entries:
commutators touch only entries that can contribute, and run on ``int``.
The structure constants of a realization come from one elimination over
its members and all their brackets (``_span_algebra``).  Every algebra
built here is Lie by construction (``_span_algebra``, ``contract``), so the
exhaustive ``LieAlgebra.check_jacobi`` runs only on outside input, in
``LieAlgebra.from_json``.  A stabilizer inside a subalgebra needs no
algebra built: ``stabilizer(q, xi, basis)`` restricts the Kirillov form.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction as Q
from functools import cached_property

from . import linalg
from .diagram import PairId, SatakeDiagram, _catalog_diagram, parse_pair_name
from .errors import (AlgebraValidationError, BudgetError, GenericityError,
                     UnsupportedPairError)
from .linalg import Mat
from .poly import NAME_PATTERN, Poly, coeff_num
from .record import Value

Covector = tuple[Q, ...]


class LieAlgebra:
    """Finite-dimensional Lie algebra with sparse rational structure
    constants ``[e_i, e_j] = sum_k c_ij^k e_k`` stored for i < j only;
    the Jacobi identity is not checked here (``check_jacobi``)."""

    def __init__(self, labels, sc):
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

    @cached_property
    def bracket_rows(self) -> tuple[tuple[tuple[int, int, dict[int, Q]], ...], ...]:
        """For each coordinate i, its nonzero structure constants as
        ``(j, sign, entry)`` in ascending j, with
        ``[e_i, e_j] = sign * sum_k entry[k] e_k``: ``entry`` is the stored
        ``sc`` entry of the ordered pair, and sign is -1 for j < i."""
        rows: list[list] = [[] for _ in range(self.dim)]
        # lexicographic keys list (j, i) with j < i before (i, j) with j > i
        for (i, j), entry in sorted(self.sc.items()):
            rows[i].append((j, 1, entry))
            rows[j].append((i, -1, entry))
        return tuple(map(tuple, rows))

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """Basis indices whose iterated brackets span the algebra.

        Greedy over the basis in index order: an ``e_i`` outside the
        subalgebra generated so far joins the set, and the subalgebra is
        closed again by bracketing every new member of its basis with every
        earlier one.  One incremental sparse echelon (each row keyed by its
        least column) decides membership.  The pass over all basis vectors
        always ends at the whole algebra; an abelian algebra needs every
        index.
        """
        n = self.dim
        rows: dict[int, dict[int, Q]] = {}   # pivot -> row with row[pivot] == 1
        span: list[dict[int, Q]] = []        # the subalgebra's basis, unreduced
        pending: list[dict[int, Q]] = []

        def admit(v: dict[int, Q]) -> bool:
            v = dict(v)
            for p in sorted(rows):
                c = v.get(p)
                if c:
                    for col, x in rows[p].items():
                        s = v.get(col, 0) - c * x
                        if s:
                            v[col] = s
                        else:
                            del v[col]
            if not v:
                return False
            lead = Q(v[min(v)])
            rows[min(v)] = {col: x / lead for col, x in v.items()}
            return True

        def bracket(x: dict[int, Q], y: dict[int, Q]) -> dict[int, Q]:
            out: dict[int, Q] = {}
            for i, a in x.items():
                for j, b in y.items():
                    for k, c in self.bracket_basis(i, j).items():
                        out[k] = out.get(k, 0) + a * b * c
            return {k: c for k, c in out.items() if c}

        def close(v: dict[int, Q]) -> None:
            pending.extend(bracket(v, b) for b in span)
            span.append(v)

        gens = []
        for i in range(n):
            if len(rows) == n:
                break
            if not admit({i: 1}):
                continue
            gens.append(i)
            close({i: 1})
            while pending and len(rows) < n:
                v = pending.pop()
                if v and admit(v):
                    close(v)
            pending.clear()
        return tuple(gens)

    def check_jacobi(self) -> None:
        """Raise ``ValueError`` unless the Jacobi identity holds on every
        basis triple; ``from_json`` runs it on outside input."""
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if not self._jacobi_triple(i, j, k):
                        raise ValueError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})")

    def _jacobi_triple(self, i: int, j: int, k: int) -> bool:
        """Whether the cyclic sum of ``[[e_a, e_b], e_c]`` vanishes, summed
        only over the coordinates the double brackets touch."""
        total: dict[int, Q] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, coeff in self.bracket_basis(a, b).items():
                for s, d in self.bracket_basis(t, c).items():
                    total[s] = total.get(s, 0) + coeff * d
        return not any(total.values())

    # -- Kirillov form ---------------------------------------------------
    def kirillov_at(self, xi) -> Mat:
        """The matrix ``xi([e_i, e_j])``; ``int`` entries when xi and the
        structure constants are integers."""
        xi = [coeff_num(x) for x in xi]
        n = self.dim
        m = [[0] * n for _ in range(n)]
        for (i, j), entry in self.sc.items():
            v = sum([c * xi[k] for k, c in entry.items()], 0)
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
            alg = LieAlgebra(labels, sc)
            alg.check_jacobi()
            return alg
        except KeyError as e:
            raise AlgebraValidationError(f"not a Lie algebra: missing {e}") from None
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise AlgebraValidationError(f"not a Lie algebra: {e}") from None


class Z2Grading(Value):
    """The basis positions of the even and odd eigenspaces; immutable.  On
    that basis the involution is +1 on ``even_idx`` and -1 on ``odd_idx``,
    and ``validate`` checks that it is an automorphism."""

    _fields = ("even_idx", "odd_idx")

    def __init__(self, even_idx: tuple[int, ...], odd_idx: tuple[int, ...]):
        self.even_idx = even_idx
        self.odd_idx = odd_idx

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


class MatrixRealization:
    """A Lie algebra together with the integer matrices realizing its
    basis.  ``kind`` is sl, so, sp, so_split or diag_<kind>; ``size`` is
    the matrix size of one factor; ``form`` is the bilinear form of the
    split so realization; ``cartan`` lists Cartan basis positions."""

    def __init__(self, algebra: LieAlgebra, matrices: list[Mat], kind: str,
                 size: int, form: Mat | None = None,
                 cartan: list[int] | None = None):
        self.algebra = algebra
        self.matrices = matrices
        self.kind = kind
        self.size = size
        self.form = form
        self.cartan = [] if cartan is None else cartan


class PairRealization:
    """A symmetric pair realized on a basis adapted to its involution."""

    def __init__(self, pair: PairId, g: LieAlgebra, grading: Z2Grading,
                 cartan_subspace: list[list[Q]], satake: SatakeDiagram,
                 realization: MatrixRealization):
        self.pair = pair
        self.g = g
        self.grading = grading
        self.cartan_subspace = cartan_subspace
        self.satake = satake
        self.realization = realization

    @property
    def d0(self) -> int:
        return len(self.grading.even_idx)

    @property
    def d1(self) -> int:
        return len(self.grading.odd_idx)

    @property
    def rank_g(self) -> int:
        """Rank of g: the Satake diagram's graph is the Dynkin diagram of g."""
        return self.satake.n_nodes

    @property
    def rank_pair(self) -> int:
        return self.satake.rank()

    @property
    def maximal_rank(self) -> bool:
        """Whether a Cartan subalgebra of g lies in g1: rk(g, g0) = rk g, so
        the Cartan subspace that ``_check_cartan`` certifies when the pair
        is built (rk(g, g0) independent, commuting, semisimple odd vectors)
        is one.  Equivalently, the Satake diagram is all white and
        arrow-free."""
        return self.rank_pair == self.rank_g

    @cached_property
    def contraction(self) -> LieAlgebra:
        """The contraction ``k = g0 ⋉ g1``, built once per realization."""
        return contract(self.g, self.grading)


# ----------------------------------------------------------------------
# matrix basics
# ----------------------------------------------------------------------

def _mat(n: int, *entries: tuple[int, int, int]) -> Mat:
    """Integer n x n matrix with the given 1-based ``(i, j, value)``
    entries; a repeated position is set once, not summed."""
    m = [[0] * n for _ in range(n)]
    for i, j, x in entries:
        m[i - 1][j - 1] = x
    return m


def _madd(*ms: Mat) -> Mat:
    n = len(ms[0])
    out = [[0] * n for _ in range(n)]
    for m in ms:
        for i in range(n):
            for j in range(n):
                out[i][j] += m[i][j]
    return out


def _mneg(m: Mat) -> Mat:
    return [[-x for x in row] for row in m]


def _blocks(a: Mat, b: Mat, c: Mat, d: Mat) -> Mat:
    """The block matrix [[a, b], [c, d]] of four square blocks of one size."""
    return [x + y for x, y in zip(a, b)] + [x + y for x, y in zip(c, d)]


def _span_algebra(cols, bracket, labels) -> LieAlgebra:
    """Structure constants of the span of the m vectors ``cols``, with
    ``bracket(a, b)`` the bracket of members a and b in the columns'
    coordinates, by one Gauss-Jordan elimination whose columns are the
    members, then each bracket a < b in loop order.  The members must be
    the first m pivots (else they are dependent), and the first bracket
    that pivots is the first pair not closed (``ValueError`` either way);
    pivot row r holds the r-th coordinate of every bracket.  Jacobi needs
    no check: matrix commutators satisfy it by associativity, a closed
    subspace of a Lie algebra by restriction."""
    m = len(cols)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    rows: list[dict[int, Q]] = [{} for _ in range(len(cols[0]) if cols else 0)]
    for c, vec in enumerate(list(cols) + [bracket(a, b) for a, b in pairs]):
        for i, x in enumerate(vec):
            if x:
                rows[i][c] = x
    red, pivots = linalg.rref(rows)
    if pivots[:m] != list(range(m)):
        raise ValueError("columns are not linearly independent")
    if len(pivots) > m:
        a, b = pairs[pivots[m] - m]
        raise ValueError(f"family is not bracket-closed at ({a},{b})")
    sc: dict[tuple[int, int], dict[int, Q]] = {}
    for c, key in enumerate(pairs, m):
        entry = {r: row[c] for r, row in enumerate(red) if c in row}
        if entry:
            sc[key] = entry
    return LieAlgebra(labels, sc)


def algebra_from_matrices(matrices: list[Mat], labels) -> LieAlgebra:
    """Structure constants of the span of the given matrices (must be a
    linearly independent, bracket-closed family).

    Each commutator is formed from the nonzero entries of the two matrices:
    entry ``(i, k)`` of one factor meets only row ``k`` of the other.
    """
    n = len(matrices[0])
    # per matrix, per row: the (column, value) pairs of its nonzero entries
    rows = [[[(j, x) for j, x in enumerate(row) if x] for row in m] for m in matrices]

    def commutator(a: int, b: int) -> list[int]:
        flat = [0] * (n * n)
        for i, row in enumerate(rows[a]):
            for k, x in row:
                for j, y in rows[b][k]:
                    flat[i * n + j] += x * y
        for i, row in enumerate(rows[b]):
            for k, y in row:
                for j, x in rows[a][k]:
                    flat[i * n + j] -= y * x
        return flat

    cols = [[m[i][j] for i in range(n) for j in range(n)] for m in matrices]
    return _span_algebra(cols, commutator, labels)


# ----------------------------------------------------------------------
# the classical bases: every realization below is one of them, split by
# the involution or doubled along the diagonal
# ----------------------------------------------------------------------

def _basis(name: str, n: int) -> list[tuple[str, int, int, Mat]]:
    """The standard basis of sl_n, so_n (antisymmetric) or sp_n (n = 2m) as
    ``(letter, i, j, matrix)`` with 1-based i, j.

    sl: h_i = E_ii - E_{i+1,i+1} (with j = i + 1), then E_ij for i != j.
    so: a_ij = E_ij - E_ji for i < j.
    sp: p_ij = E_ij - E_{m+j,m+i}, then the symmetric off-diagonal blocks
    b_ij = E_{i,m+j} + E_{j,m+i} and c_ij = E_{m+i,j} + E_{m+j,i} for
    i <= j.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if name == "sl":
        return ([("h", i, i + 1, _mat(n, (i, i, 1), (i + 1, i + 1, -1)))
                 for i in range(1, n)]
                + [("e", i, j, _mat(n, (i, j, 1))) for i, j in pairs])
    if name == "so":
        return [("a", i, j, _mat(n, (i, j, 1), (j, i, -1))) for i, j in pairs if i < j]
    if name == "sp":
        m = n // 2
        upper = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
        return ([("p", i, j, _mat(n, (i, j, 1), (m + j, m + i, -1)))
                 for i in range(1, m + 1) for j in range(1, m + 1)]
                + [("b", i, j, _mat(n, (i, m + j, 1), (j, m + i, 1))) for i, j in upper]
                + [("c", i, j, _mat(n, (m + i, j, 1), (m + j, i, 1))) for i, j in upper])
    raise UnsupportedPairError(f"unknown classical type {name!r}")


def _label(letter: str, i: int, j: int) -> str:
    return f"h{i}" if letter == "h" else f"{letter}{i}_{j}"


def _is_cartan(letter: str, i: int, j: int) -> bool:
    """The marked Cartan basis: every h_i, a_{i,i+1} for odd i, every p_ii."""
    return letter == "h" or (letter == "a" and j == i + 1 and i % 2 == 1) \
        or (letter == "p" and i == j)


def _named(basis, label) -> tuple[list[Mat], list[str]]:
    """The matrices of a basis and their labels, in basis order."""
    return [m for *_, m in basis], [label(*b[:3]) for b in basis]


def _split(basis, is_even, label):
    """Even matrices, odd matrices, even labels, odd labels: the basis
    sorted by ``is_even(letter, i, j)``, each part in basis order."""
    even, el = _named([b for b in basis if is_even(*b[:3])], label)
    odd, ol = _named([b for b in basis if not is_even(*b[:3])], label)
    return even, odd, el, ol


def _skew_blocks(n: int, upper: str, lower: str) -> tuple[list[Mat], list[str]]:
    """The so_n basis a_ij placed in the upper right block of 2n x 2n
    matrices, then in the lower left one, labelled with the letters
    ``upper`` and ``lower``."""
    so, zero = _basis("so", n), _mat(n)
    mats = ([_blocks(zero, a, zero, zero) for *_, a in so]
            + [_blocks(zero, zero, a, zero) for *_, a in so])
    return mats, [f"{c}{i}_{j}" for c in (upper, lower) for _, i, j, _ in so]


def _cartan_at(labels: list[str], groups) -> list[list[tuple[int, int]]]:
    """Cartan vectors as sums of the odd basis vectors named in each group."""
    return [[(labels.index(name), 1) for name in group] for group in groups]


def matrix_algebra(name: str, n: int) -> MatrixRealization:
    """sl_n, so_n (antisymmetric realization) or sp_n (n even), with a
    marked Cartan basis."""
    if name == "sl" and n < 2:
        raise UnsupportedPairError("sl_n needs n >= 2")
    if name == "so" and n < 3:
        raise UnsupportedPairError("so_n needs n >= 3")
    if name == "sp" and (n < 2 or n % 2):
        raise UnsupportedPairError("sp_n needs even n >= 2")
    basis = _basis(name, n)
    mats, labels = _named(basis, _label)
    cartan = [pos for pos, b in enumerate(basis) if _is_cartan(*b[:3])]
    alg = algebra_from_matrices(mats, labels)
    return MatrixRealization(alg, mats, name, n, cartan=cartan)


# ----------------------------------------------------------------------
# symmetric-pair builders
# ----------------------------------------------------------------------

# dim g above which ``build_pair`` refuses a pair before building anything.
# Building alone took 3.0 s and 157 MiB at dim 323 (sl18,so18), 9.1 s and
# 476 MiB at dim 483 (sl22,so22) and 25.8 s and 1.2 GiB at dim 675
# (sl26,so26); the largest pair any suite is run on is sl10,so10 (dim 99).
PAIR_DIM_BUDGET = 400

# dim of the simple algebra of each classical Dynkin type, by rank
_SIMPLE_DIM = {"A": lambda r: r * (r + 2), "B": lambda r: r * (2 * r + 1),
               "C": lambda r: r * (2 * r + 1), "D": lambda r: r * (2 * r - 1)}


def build_pair(pair: PairId | str) -> PairRealization:
    """Matrix realization of a supported classical or diagonal pair, with
    the basis adapted to the involution.  A pair with ``dim g`` above
    ``PAIR_DIM_BUDGET`` raises :class:`BudgetError` before any matrix is
    built."""
    if isinstance(pair, str):
        pair = parse_pair_name(pair)
    if pair.family not in _BUILDERS:
        raise UnsupportedPairError(f"{pair} has no structure-level realization")
    catalog = _catalog_diagram(pair)        # checks the catalog parameters first
    dim = sum(_SIMPLE_DIM[letter](r) for letter, r in catalog.graph.components)
    if dim > PAIR_DIM_BUDGET:
        raise BudgetError(f"{pair} has dim g = {dim}, above the pair budget "
                          f"of {PAIR_DIM_BUDGET}")
    satake = catalog.canonical()
    even, odd, even_labels, odd_labels, cartan_local = _BUILDERS[pair.family](pair)
    mats = even + odd
    labels = list(even_labels) + list(odd_labels)
    alg = algebra_from_matrices(mats, labels)
    d0, d1 = len(even), len(odd)
    grading = Z2Grading(tuple(range(d0)), tuple(range(d0, d0 + d1)))
    grading.validate(alg)
    cartan = [[Q(0)] * (d0 + d1) for _ in cartan_local]
    for row, positions in zip(cartan, cartan_local):
        for pos, coeff in positions:
            row[d0 + pos] = Q(coeff)
    _check_cartan(mats, grading, cartan, satake)
    fam = pair.family
    if fam == "so_gl":
        real = MatrixRealization(alg, mats, "so_split", len(mats[0]),
                                 form=_split_so_form(pair))
    elif fam.startswith("diag_"):
        real = MatrixRealization(alg, mats, fam, len(mats[0]) // 2)
    else:
        real = MatrixRealization(alg, mats, fam[:2], len(mats[0]))
    return PairRealization(pair, alg, grading, cartan, satake, real)


def _check_cartan(mats, grading, cartan, satake) -> None:
    """Certify the Cartan subspace a: rk(g, g0) linearly independent odd
    vectors whose matrices are normal (so semisimple) and commute."""
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
            c = coeff_num(c)
            term = [[c * x for x in row] for row in mats[i]]
            m = term if m is None else _madd(m, term)
        as_mats.append(m)
    if linalg.rank([dict(enumerate(vec)) for vec in cartan]) < len(cartan):
        raise ValueError("Cartan subspace vectors are linearly dependent")
    for i, a in enumerate(as_mats):
        at = [list(col) for col in zip(*a)]
        if linalg.mat_mul(a, at) != linalg.mat_mul(at, a):
            raise ValueError("Cartan subspace vector is not a normal matrix")
        for b in as_mats[i + 1:]:
            if not linalg.is_zero_mat(linalg.commutator(a, b)):
                raise ValueError("Cartan subspace vectors do not commute")


# each builder returns (even_mats, odd_mats, even_labels, odd_labels,
# cartan) where cartan lists [(odd_position, coeff), ...] combinations.

def _build_sl_so(pair: PairId):
    # sigma(X) = -X^T: so_n is fixed, the symmetric traceless part is odd
    (n,) = pair.params
    so = _basis("so", n)
    even, el = _named(so, lambda _, i, j: f"u{i}_{j}")
    odd, ol = _named([b for b in _basis("sl", n) if b[0] == "h"], lambda _, i, j: f"v{i}")
    odd += [_mat(n, (i, j, 1), (j, i, 1)) for _, i, j, _ in so]
    ol += [f"w{i}_{j}" for _, i, j, _ in so]
    if n == 2:
        el, ol = ["u"], ["v", "w"]
    return even, odd, el, ol, [[(i, 1)] for i in range(n - 1)]


def _build_sl_gl(pair: PairId):
    # sigma = conjugation by diag(I_k, -I_{n-k}): E_ij is odd across the blocks
    n, k = pair.params
    same_block = lambda letter, i, j: letter == "h" or (i <= k) == (j <= k)

    def label(letter, i, j):
        if letter == "h":
            return f"d{i}"
        return f"{'a' if same_block(letter, i, j) else 'b'}{i}_{j}"

    even, odd, el, ol = _split(_basis("sl", n), same_block, label)
    cartan = _cartan_at(ol, [(f"b{t}_{n+1-t}", f"b{n+1-t}_{t}") for t in range(1, k + 1)])
    return even, odd, el, ol, cartan


def _build_sl_sp(pair: PairId):
    # sp_2n is fixed; the odd part holds diag(X, X^T) for X in sl_n and the
    # skew off-diagonal blocks
    (n,) = pair.params
    even, el = _named(_basis("sp", 2 * n), _label)
    odd, ol = _named(_basis("sl", n),
                     lambda letter, i, j: f"q{i}" if letter == "h" else f"r{i}_{j}")
    zero = _mat(n)
    odd = [_blocks(m, zero, zero, [list(col) for col in zip(*m)]) for m in odd]
    skew, skew_labels = _skew_blocks(n, "s", "t")
    return even, odd + skew, el, ol + skew_labels, [[(i, 1)] for i in range(n - 1)]


def _build_so_so(pair: PairId):
    # sigma = conjugation by diag(I_p, -I_q)
    p, q = pair.params
    same_side = lambda _, i, j: (i > p) == (j > p)

    def label(_, i, j):
        if j <= p:
            return f"a{i}_{j}"
        return f"c{i-p}_{j-p}" if i > p else f"b{i}_{j-p}"

    even, odd, el, ol = _split(_basis("so", p + q), same_side, label)
    return even, odd, el, ol, _cartan_at(ol, [[f"b{t}_{t}"]
                                              for t in range(1, min(p, q) + 1)])


def _build_sp_sp(pair: PairId):
    # sigma = conjugation by diag(I_k, -I_{n-k}, I_k, -I_{n-k})
    n, k = pair.params
    same_class = lambda _, i, j: (i <= k) == (j <= k)
    even, odd, el, ol = _split(_basis("sp", 2 * n), same_class, _label)
    cartan = _cartan_at(ol, [(f"p{t}_{k+t}", f"p{k+t}_{t}") for t in range(1, k + 1)])
    return even, odd, el, ol, cartan


def _build_sp_gl(pair: PairId):
    # sigma = conjugation by diag(I_n, -I_n): gl_n is the block p, and both
    # symmetric blocks are odd
    (n,) = pair.params
    in_gl = lambda letter, i, j: letter == "p"
    even, odd, el, ol = _split(_basis("sp", 2 * n), in_gl, _label)
    return even, odd, el, ol, _cartan_at(ol, [(f"b{t}_{t}", f"c{t}_{t}")
                                              for t in range(1, n + 1)])


def _build_so_gl(pair: PairId):
    # so_2n for the split form: gl_n is the same block p as in sp_2n, and the
    # skew off-diagonal blocks are odd
    (n,) = pair.params
    even, el = _named([b for b in _basis("sp", 2 * n) if b[0] == "p"], _label)
    odd, ol = _skew_blocks(n, "m", "n")
    cartan = _cartan_at(ol, [(f"m{2*t-1}_{2*t}", f"n{2*t-1}_{2*t}")
                             for t in range(1, n // 2 + 1)])
    return even, odd, el, ol, cartan


def _build_diag(pair: PairId):
    # g = h + h with the swap: diag(X, X) is even and diag(X, -X) is odd
    name = pair.family[5:]
    (n,) = pair.params
    size = n if name != "sp" else 2 * n
    base, zero = _basis(name, size), _mat(size)
    even = [_blocks(m, zero, zero, m) for *_, m in base]
    odd = [_blocks(m, zero, zero, _mneg(m)) for *_, m in base]
    el = [f"y{i+1}" for i in range(len(even))]
    ol = [f"z{i+1}" for i in range(len(odd))]
    cartan = [[(pos, 1)] for pos, b in enumerate(base) if _is_cartan(*b[:3])]
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
    return _mat(2 * n, *[(i, n + i, 1) for i in range(1, n + 1)],
                *[(n + i, i, 1) for i in range(1, n + 1)])


# ----------------------------------------------------------------------
# contraction, index, stabilizers
# ----------------------------------------------------------------------

def contract(g: LieAlgebra, grading: Z2Grading) -> LieAlgebra:
    """The semidirect contraction: brackets between two odd basis vectors
    are set to zero, everything else is kept.  ``validate`` is the proof
    that the result is the Lie algebra ``g0 ⋉ g1``."""
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
    field, by exact fraction-free elimination: ``contraction_rank`` of the
    matrix split along a greedy zero block."""
    n = q.dim
    if not q.sc:
        return n
    kp = q.kirillov_poly()
    zero = _greedy_zero_block(q)
    others = [i for i in range(n) if i not in zero]
    a_block = [[kp[i][j] for j in others] for i in others]
    b_block = [[kp[i][j] for j in zero] for i in others]
    return n - linalg.contraction_rank(a_block, b_block)


def _kernel_on(rows: list[dict[int, Q]], cols, dim: int) -> list[list[Q]]:
    """Kernel basis of rows keyed by the positions ``cols`` of a
    ``dim``-dimensional space, as full-length vectors."""
    zero = Q(0)
    return [[v.get(j, zero) for j in range(dim)] for v in linalg.kernel(rows, cols)]


def stabilizer(q: LieAlgebra, xi, basis=None) -> list[list[Q]]:
    """Exact kernel basis of the Kirillov form at a point.

    Given ``basis`` (vectors of q spanning a subalgebra), the kernel of the
    restricted form ``xi([x, y])`` for x and y in its span instead: the
    stabilizer of xi restricted to that subalgebra, in q's coordinates.
    The form is read on the span of the members as primitive integer rows."""
    if basis is None:
        rows = [dict(enumerate(row)) for row in q.kirillov_at(xi)]
        return _kernel_on(rows, range(q.dim), q.dim)
    xi = [coeff_num(x) for x in xi]
    support = [linalg._primitive(dict(enumerate(v))) for v in basis]
    span = sorted({i for s in support for i in s})
    form = {(i, j): sum([c * xi[k] for k, c in q.bracket_basis(i, j).items()], 0)
            for i in span for j in span}
    rows: list[dict[int, Q]] = [{} for _ in basis]
    for b, sb in enumerate(support):
        # xi([e_i, basis[b]]) on the support, then xi([basis[a], basis[b]])
        u = {i: sum([y * form[i, j] for j, y in sb.items()], 0) for i in span}
        for a, sa in enumerate(support):
            rows[a][b] = sum([x * u[i] for i, x in sa.items()], 0)
    return [[sum((c * support[b].get(j, 0) for b, c in v.items()), Q(0))
             for j in range(q.dim)] for v in linalg.kernel(rows, range(len(basis)))]


def kirillov_corank(q: LieAlgebra, xi) -> int:
    """dim q^xi, the corank of the Kirillov form at a point: counted from
    the rank of its integer echelon, with no kernel vector built."""
    return q.dim - linalg.rank(dict(enumerate(row)) for row in q.kirillov_at(xi))


def is_regular(q: LieAlgebra, xi) -> bool:
    return kirillov_corank(q, xi) == index(q)


def trace_covector(pr: PairRealization, v) -> list:
    """The covector ``tr(V .)`` on g's basis, V the matrix of v; the trace
    form is invariant and puts g0 and g1 orthogonal, so it vanishes on g0
    for odd v."""
    mats = pr.realization.matrices
    n = len(mats[0])
    vm = [[sum(coeff_num(x) * m[a][b] for x, m in zip(v, mats) if x) for b in range(n)]
          for a in range(n)]
    return [sum(vm[a][b] * m[b][a] for a in range(n) for b in range(n) if m[b][a])
            for m in mats]


def even_stabilizer(pr: PairRealization, beta) -> list[list[Q]]:
    """Basis of g0^beta, the stabilizer of an odd covector beta under the
    even part: the x in g0 with ``beta([x, y]) = 0`` for every odd y."""
    g = pr.g
    even = pr.grading.even_idx
    rows = [{x: sum([c * beta[kk] for kk, c in g.bracket_basis(j, x).items()], 0)
             for x in even} for j in pr.grading.odd_idx]
    return _kernel_on(rows, even, g.dim)


def sample_covector(dim: int, rng: random.Random, bound: int = 10 ** 6) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(dim)]


def check_regular_stabilizer_index(pr: PairRealization, index_k: int,
                                   seed: int = 1) -> dict:
    """At a generic point z of the Cartan subspace a: the odd centralizer
    has dimension rk(g, g0), and the index of the even centralizer ``g0^z``,
    certified from ``index_k``, the index of the contraction k.

    ``g0^z`` is the even stabilizer of the covector ``beta = tr(Z .)``
    (Kostant-Rallis), and ``dim g1^z = d1 - d0 + dim g0^z`` because ad(z)
    maps g0 to g1 and g1 to g0 with transposed matrices under the trace
    form.  a is abelian, so a lies in g1^z at every z in a, and
    ``_check_cartan`` certifies dim a = rk(g, g0); a point with
    dim g1^z = rk(g, g0) is therefore generic, and sampling retries until
    it finds one.  There, Rais's identity ``dim k^(alpha, beta) =
    dim g1^z + dim (g0^z)^alpha`` with ``dim k^xi >= index_k`` bounds
    ind g0^z below by ``index_k - dim g1^z``, and the stabilizer of a
    sampled even alpha in g0^z bounds it above; a point where the two do
    not meet is retried as well.  Returns a report dict with both numbers.
    """
    rng = random.Random(seed)
    rk_pair = pr.rank_pair
    for _ in range(12):
        coeffs = [rng.randint(-10 ** 6, 10 ** 6) for _ in pr.cartan_subspace]
        z = [sum(c * v[i] for c, v in zip(coeffs, pr.cartan_subspace))
             for i in range(pr.g.dim)]
        g0z = even_stabilizer(pr, trace_covector(pr, z))
        dim_g1z = pr.d1 - pr.d0 + len(g0z)
        if dim_g1z != rk_pair:
            continue
        alpha = sample_covector(pr.d0, rng) + [0] * pr.d1    # the even part is first
        lower = index_k - dim_g1z
        if lower != len(stabilizer(pr.contraction, alpha, basis=g0z)):
            continue
        expected_ind = pr.rank_g - rk_pair
        return {
            "z_coeffs": [str(c) for c in coeffs],
            "dim_g1z": dim_g1z,
            "expected_dim_g1z": rk_pair,
            "ind_g0z": lower,
            "expected_ind_g0z": expected_ind,
            "pass": lower == expected_ind,
        }
    raise GenericityError(
        "no generic Cartan point certified ind g0^z within the attempt budget")
