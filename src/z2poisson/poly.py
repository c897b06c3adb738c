"""Sparse multivariate polynomials over exact rationals.

A polynomial is a map from exponent vectors (tuples of length ``nvars``) to
nonzero Fraction coefficients.  Terms are kept in no particular order; the
canonical graded-lexicographic order is applied only when serializing, so
equality and arithmetic stay cheap.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import comb, lcm
from operator import add as _add

from .errors import PolyParseError

Exponents = tuple[int, ...]

# a variable name that ``Poly.parse`` reads as one token
NAME_PATTERN = r"[A-Za-z_][A-Za-z_0-9]*"

# the most terms one symbolic step may create or multiply together: a
# bracket, a shift expansion or an elimination product above it raises
# BudgetError before expanding
TERM_BUDGET = 1_000_000


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def coeff_num(value):
    """Normalize a coefficient: plain int when exact, Fraction otherwise.

    Integer coefficients dominate the elimination workloads, and native int
    arithmetic is several times faster than Fraction.
    """
    if isinstance(value, int):
        return value
    q = Q(value)
    return q.numerator if q.denominator == 1 else q


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Q] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, Q] = terms if terms is not None else {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        c = coeff_num(value)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int, coeff=1) -> "Poly":
        """The monomial ``coeff * x_i`` (0-based index)."""
        c = coeff_num(coeff)
        if c == 0:
            return cls(nvars)
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): c})

    def copy(self) -> "Poly":
        return Poly(self.nvars, dict(self.terms))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def weighted_degree(self, idx: set[int] | frozenset[int]) -> int:
        """Max total degree in the variables of ``idx``; -1 if zero."""
        if not self.terms:
            return -1
        return max(sum(e[i] for i in idx) for e in self.terms)

    def weight_component(self, idx, w: int) -> "Poly":
        """Terms whose total degree in the variables of ``idx`` equals w."""
        out = {e: c for e, c in self.terms.items() if sum(e[i] for i in idx) == w}
        return Poly(self.nvars, out)

    def leading(self) -> tuple[Exponents, Q]:
        """Leading term under graded lex; requires a nonzero polynomial."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return Poly.const(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = coeff_num(other)
            if c == 0:
                return Poly(self.nvars)
            return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")
        return Poly.sum_of_products(self.nvars, ((self, other),))

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, nvars: int, pairs) -> "Poly":
        """The sum of f*g over the (f, g) pairs, accumulated in one dict."""
        out: dict[Exponents, Q] = {}
        get = out.get
        for f, g in pairs:
            # iterate the smaller factor on the outside
            a, b = f.terms, g.terms
            if len(a) > len(b):
                a, b = b, a
            bitems = list(b.items())
            for ea, ca in a.items():
                for eb, cb in bitems:
                    e = tuple(map(_add, ea, eb))
                    s = get(e, 0) + ca * cb
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
        return cls(nvars, out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def div_exact(self, other: "Poly") -> "Poly":
        """Exact division: assumes ``other`` divides ``self``.

        Standard leading-term loop under graded lex; valid over an integral
        domain whenever the division is exact (as in Bareiss elimination).
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly(self.nvars)
        de, dc = other.leading()
        rem = self.copy()
        out: dict[Exponents, Q] = {}
        while rem.terms:
            re_, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re_, de))
            if any(x < 0 for x in qe):
                raise ArithmeticError("inexact polynomial division")
            if isinstance(rc, int) and isinstance(dc, int):
                qc, leftover = divmod(rc, dc)
                if leftover:
                    qc = Q(rc, dc)
            else:
                qc = rc / dc
            out[qe] = out.get(qe, 0) + qc
            rem = rem - Poly(self.nvars, {qe: qc}) * other
        return Poly(self.nvars, {e: c for e, c in out.items() if c != 0})

    # ------------------------------------------------------------------
    # calculus and evaluation
    # ------------------------------------------------------------------
    def partial(self, i: int) -> "Poly":
        out: dict[Exponents, Q] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return Poly(self.nvars, out)

    def grad_at(self, point) -> list[int | Q]:
        """The gradient at a point in one pass over the terms.

        The point is converted once, and each coordinate's powers are
        tabulated up to its largest exponent.  A term ``c x^e`` adds
        ``c e_i x^(e - u_i)`` to entry i for every i with ``e_i > 0``; the
        products of the other factors come from prefix and suffix products
        over the term's support.  The coefficients are scaled once by the lcm
        of their denominators, so at an integral point every product is an
        int product, and each entry is divided by that lcm once at the end;
        entries are ``int`` where they are integers (``coeff_num``).
        """
        point = [coeff_num(x) for x in point]
        den = lcm(*(c.denominator for c in self.terms.values()))
        top = [max(column) for column in zip(*self.terms)]
        powers = []
        for x, t in zip(point, top):
            row = [1]
            for _ in range(t):
                row.append(row[-1] * x)
            powers.append(row)
        grad = [0] * self.nvars
        for e, c in self.terms.items():
            support = [(i, p) for i, p in enumerate(e) if p]
            prefix = [c.numerator * (den // c.denominator)]
            for i, p in support:
                prefix.append(prefix[-1] * powers[i][p])
            suffix = 1
            for k in reversed(range(len(support))):
                i, p = support[k]
                grad[i] += prefix[k] * suffix * p * powers[i][p - 1]
                suffix *= powers[i][p]
        return [coeff_num(g if den == 1 else Q(g, den)) for g in grad]

    def shift_components(self, xi) -> list["Poly"]:
        """Coefficients of ``f(mu + a*xi)`` as a polynomial in ``a``.

        Returns the list indexed by the power of ``a``, from 0 through
        ``degree``.  Component 0 is ``f`` itself.
        """
        xi = [coeff_num(x) for x in xi]
        d = self.degree()
        if d < 0:
            return [Poly(self.nvars)]
        comps: list[dict[Exponents, Q]] = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            # expand prod_i (x_i + a xi_i)^{e_i}, collecting powers of a
            partial: list[tuple[Exponents, Q, int]] = [((0,) * self.nvars, c, 0)]
            for i, p in enumerate(e):
                if p == 0:
                    continue
                nxt: list[tuple[Exponents, Q, int]] = []
                top = p if xi[i] else 0     # a zero xi_i adds no power of a
                for base_e, base_c, base_j in partial:
                    for b in range(top + 1):
                        coef = base_c * comb(p, b) * (xi[i] ** b) if b else base_c
                        if coef == 0:
                            continue
                        e2 = list(base_e)
                        e2[i] += p - b
                        nxt.append((tuple(e2), coef, base_j + b))
                partial = nxt
            for te, tc, j in partial:
                bucket = comps[j]
                s = bucket.get(te, 0) + tc
                if s == 0:
                    bucket.pop(te, None)
                else:
                    bucket[te] = s
        return [Poly(self.nvars, t) for t in comps]

    # ------------------------------------------------------------------
    # text format
    # ------------------------------------------------------------------
    def to_text(self, labels: list[str] | tuple[str, ...] | None = None) -> str:
        if not self.terms:
            return "0"
        if labels is None:
            labels = [f"x{i+1}" for i in range(self.nvars)]
        pieces = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(labels[i])
                elif p > 1:
                    factors.append(f"{labels[i]}^{p}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += sign + body
        return out

    def __repr__(self) -> str:
        return f"Poly({self.to_text()})"

    @classmethod
    def parse(cls, text: str, labels: list[str] | tuple[str, ...]) -> "Poly":
        """Parse the sum-of-terms text format.

        Terms are ``coeff * name^power * ...`` joined by ``+``/``-``;
        coefficients are integers or fractions ``p/q``.  Variable names are
        the supplied labels; generic names ``x<i>`` are always accepted.
        """
        nvars = len(labels)
        index = {name: i for i, name in enumerate(labels)}
        for i in range(nvars):
            index.setdefault(f"x{i+1}", i)
        tokens = []
        pos = 0
        token_re = re.compile(
            rf"\s*(?:(\d+/\d+|\d+)|({NAME_PATTERN})|(\^)|(\*)|(\+)|(-)|(\S))")
        while pos < len(text):
            m = token_re.match(text, pos)
            if not m:
                break
            if m.group(7):
                raise PolyParseError(f"unexpected character {m.group(7)!r}", m.start(7))
            kind = ["num", "name", "pow", "mul", "plus", "minus"][
                [m.group(i) is not None for i in range(1, 7)].index(True)
            ]
            value = m.group(0).strip()
            tokens.append((kind, value, m.end() - len(value)))
            pos = m.end()
        if not tokens:
            raise PolyParseError("empty polynomial", 0)

        result = cls(nvars)
        i = 0
        first = True
        while i < len(tokens):
            sign = Q(1)
            while i < len(tokens) and tokens[i][0] in ("plus", "minus"):
                if tokens[i][0] == "minus":
                    sign = -sign
                i += 1
            if i >= len(tokens):
                raise PolyParseError("dangling sign", tokens[-1][2])
            if not first and sign == 1 and tokens[i - 1][0] not in ("plus", "minus"):
                raise PolyParseError("expected '+' or '-' between terms", tokens[i][2])
            coeff = sign
            exps = [0] * nvars
            expect_factor = True
            saw_factor = False
            while i < len(tokens):
                kind, val, at = tokens[i]
                if kind in ("plus", "minus"):
                    break
                if kind == "mul":
                    if expect_factor:
                        raise PolyParseError("unexpected '*'", at)
                    expect_factor = True
                    i += 1
                    continue
                if not expect_factor:
                    break
                if kind == "num":
                    try:
                        value = Q(val)
                    except ZeroDivisionError:
                        raise PolyParseError(f"zero denominator in {val!r}", at) from None
                    coeff *= coeff_num(value)
                    saw_factor = True
                    expect_factor = False
                    i += 1
                elif kind == "name":
                    if val not in index:
                        raise PolyParseError(f"unknown variable {val!r}", at)
                    power = 1
                    i += 1
                    if i < len(tokens) and tokens[i][0] == "pow":
                        i += 1
                        if i >= len(tokens) or tokens[i][0] != "num" or "/" in tokens[i][1]:
                            where = tokens[i][2] if i < len(tokens) else len(text)
                            raise PolyParseError("expected integer exponent after '^'", where)
                        power = int(tokens[i][1])
                        i += 1
                    exps[index[val]] += power
                    saw_factor = True
                    expect_factor = False
                else:
                    raise PolyParseError(f"unexpected token {val!r}", at)
            if not saw_factor:
                raise PolyParseError("empty term", tokens[i - 1][2] if i else 0)
            result = result + cls(nvars, {tuple(exps): coeff}) if coeff != 0 else result
            first = False
        return result
