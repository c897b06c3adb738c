import random
from fractions import Fraction as Q

import pytest

from z2poisson import Poly, PolyParseError

from oracles import poly_eval

LABELS = ("u", "v", "w")


def rand_poly(rng, nvars=3, max_deg=3, terms=4):
    p = Poly.zero(nvars)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        p = p + Poly(nvars, {exps: Q(rng.randint(-9, 9))})
    return p


def test_arithmetic_ring_axioms():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly.zero(3)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(5)
    p = rand_poly(rng, terms=3)
    assert p ** 0 == Poly.const(3, 1)
    assert p ** 3 == p * p * p


def test_degree_and_homogeneity():
    p = Poly.parse("v^2+w^2", LABELS)
    assert p.degree() == 2
    assert p.is_homogeneous()
    assert not Poly.parse("v^2+w", LABELS).is_homogeneous()
    assert Poly.zero(3).degree() == -1


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        Poly.var(3, 0) + Poly.var(4, 0)


def test_parse_round_trip():
    samples = ["v^2+w^2", "2*v", "-1/2*u*w+3", "u^3-2*u*v+7/5", "0"]
    for text in samples:
        p = Poly.parse(text, LABELS)
        assert Poly.parse(p.to_text(LABELS), LABELS) == p


def test_parse_generic_names():
    assert Poly.parse("x2^2+x3^2", LABELS) == Poly.parse("v^2+w^2", LABELS)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as e:
        Poly.parse("v^2 + q", LABELS)
    assert e.value.position == 6
    with pytest.raises(PolyParseError):
        Poly.parse("v^", LABELS)
    with pytest.raises(PolyParseError):
        Poly.parse("", LABELS)
    with pytest.raises(PolyParseError):
        Poly.parse("v w", LABELS)
    with pytest.raises(PolyParseError) as e:
        Poly.parse("u + 3/0*v", LABELS)
    assert e.value.position == 4


def test_partial_and_gradient():
    p = Poly.parse("v^2+w^2", LABELS)
    assert p.partial(1) == Poly.parse("2*v", LABELS)
    assert p.grad_at([0, 1, 0]) == [0, 2, 0]
    x = Poly.var(3, 2)
    assert x.grad_at([5, 7, 9]) == [0, 0, 1]


def _coefficient(rng, kind):
    if kind == "fraction":
        return Q(rng.randint(-9, 9), rng.randint(1, 7))
    # integral Fractions, as the weight-echelon tops hold them, next to
    # plain ints and proper fractions
    c = Q(rng.choice([-6, -1, 1, 2, 9]))
    if kind == "mixed":
        c = rng.choice([c, int(c), c / rng.randint(2, 5)])
    return c


def test_grad_at_matches_partials():
    rng = random.Random(11)
    for kind in ("fraction", "integral", "mixed"):
        for _ in range(60):
            nvars = rng.randint(1, 5)
            p = Poly.zero(nvars)
            for _ in range(rng.randint(0, 8)):
                exps = tuple(rng.randint(0, 4) for _ in range(nvars))
                p = p + Poly(nvars, {exps: _coefficient(rng, kind)})
            # zero and negative coordinates, integers and fractions
            pt = [rng.choice([0, -1, rng.randint(-5, 5), Q(rng.randint(-7, 7), 3)])
                  for _ in range(nvars)]
            got = p.grad_at(pt)
            assert got == [poly_eval(p.partial(i), pt) for i in range(nvars)]
            # int where an entry is an integer, Fraction only where it is not
            assert all(type(x) is (int if Q(x).denominator == 1 else Q) for x in got)


def test_eval():
    p = Poly.parse("u*v-2*w^2", LABELS)
    assert poly_eval(p, [2, 3, Q(1, 2)]) == 6 - Q(1, 2)


def test_shift_components_expand_exactly():
    # (v + a)^2 + w^2 = (v^2 + w^2) + 2v a + a^2
    p = Poly.parse("v^2+w^2", LABELS)
    comps = p.shift_components([0, 1, 0])
    assert comps[0] == p
    assert comps[1] == Poly.parse("2*v", LABELS)
    assert comps[2] == Poly.const(3, 1)


def rand_homog(rng, nvars=3, deg=3, terms=4):
    p = Poly.zero(nvars)
    for _ in range(terms):
        cuts = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
        p = p + Poly(nvars, {exps: Q(rng.randint(-9, 9))})
    return p


def test_shift_symmetry():
    # for homogeneous f of degree d, the j-th coefficient at mu in direction
    # xi equals the (d-j)-th at xi in direction mu
    rng = random.Random(23)
    done = 0
    while done < 100:
        p = rand_homog(rng, nvars=3, deg=rng.randint(1, 4), terms=3)
        if p.is_zero():
            continue
        done += 1
        d = p.degree()
        xi = [rng.randint(-5, 5) for _ in range(3)]
        mu = [rng.randint(-5, 5) for _ in range(3)]
        left = p.shift_components(xi)
        right = p.shift_components(mu)
        for j in range(d + 1):
            assert poly_eval(left[j], mu) == poly_eval(right[d - j], xi)


def test_div_exact_inverts_multiplication():
    rng = random.Random(7)
    for _ in range(40):
        f = rand_poly(rng, terms=3)
        g = rand_poly(rng, terms=3)
        if g.is_zero():
            continue
        assert (f * g).div_exact(g) == f


def test_weight_component():
    p = Poly.parse("u^2-v^2-w^2", LABELS)
    odd = {1, 2}
    assert p.weighted_degree(odd) == 2
    assert p.weight_component(odd, 2) == Poly.parse("-v^2-w^2", LABELS)
    assert p.weight_component(odd, 0) == Poly.parse("u^2", LABELS)
