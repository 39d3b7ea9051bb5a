import random

import pytest

from affhecke.laurent import (
    LaurentPoly,
    NotExpandable,
    Q_PARAM,
    ZeroEvaluationPoint,
)


def lp(terms):
    return LaurentPoly(terms)


def test_product_difference_of_squares():
    a = lp({1: 1, -1: 1})   # v + v^-1
    b = lp({1: -1, -1: 1})  # v^-1 - v
    assert a * b == lp({-2: 1, 2: -1})
    assert lp({1: 1, -1: 1}) * lp({-1: 1, 1: -1}) == lp({-2: 1, 2: -1})


def test_product_with_zero_and_expansion():
    a = lp({3: 5, -2: 7})
    assert LaurentPoly.zero() * a == LaurentPoly.zero()
    one_minus_q = lp({0: 1, 2: -1})
    assert one_minus_q * one_minus_q == lp({0: 1, 2: -2, 4: 1})


def test_bar_examples():
    assert lp({2: 1, 0: -1}).bar() == lp({-2: 1, 0: -1})
    assert Q_PARAM.bar() == -Q_PARAM
    rng = random.Random(0)
    for _ in range(25):
        a = lp({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(4)})
        assert a.bar().bar() == a


def test_bar_is_multiplicative():
    rng = random.Random(1)
    for _ in range(25):
        a = lp({rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(3)})
        b = lp({rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(3)})
        assert (a * b).bar() == a.bar() * b.bar()


def test_q_expand_examples():
    one_minus_q = lp({0: 1, 2: -1})
    from fractions import Fraction

    assert one_minus_q.q_expand(Fraction(1, 2)) == {1: 1}
    sq = lp({0: 1, 2: -2, 4: 1})
    assert sq.q_expand(1) == {2: 1}
    with pytest.raises(NotExpandable):
        lp({0: 1, 2: 1}).q_expand(Fraction(1, 2))


def test_q_expand_roundtrip():
    from fractions import Fraction

    rng = random.Random(2)
    for _ in range(40):
        coeffs = {k: rng.randint(-5, 5) for k in rng.sample(range(8), 3)}
        alpha = Fraction(rng.randint(-4, 4), 2)
        # exponents must share the parity of 2*alpha
        coeffs = {k: c for k, c in coeffs.items() if (k - 2 * alpha) % 2 == 0}
        f = LaurentPoly.from_q_expansion(coeffs, alpha)
        back = f.q_expand(alpha)
        assert back == {k: c for k, c in coeffs.items() if c}


def test_eval():
    f = lp({0: 1, 2: 1, 4: 1})  # 1 + q + q^2
    assert f.eval_at("v=1") == 3
    assert LaurentPoly.zero().eval_at("v=1") == 0
    assert LaurentPoly.zero().eval_at(7) == 0
    assert Q_PARAM.eval_at("v=1") == 0
    assert Q_PARAM.eval_at(1) == 0
    from fractions import Fraction

    assert lp({-1: 1}).eval_at(Fraction(1, 2)) == 2
    with pytest.raises(ZeroEvaluationPoint):
        lp({1: 1}).eval_at(0)


def test_encode_decode():
    f = lp({0: 1, 2: -2, 4: 1})
    assert f.encode() == "1*v^0+-2*v^2+1*v^4"
    assert LaurentPoly.decode(f.encode()) == f
    assert LaurentPoly.zero().encode() == "0"
    assert LaurentPoly.decode("0") is LaurentPoly.zero()
    assert LaurentPoly.decode("1*v^0") is LaurentPoly.one()
    g = lp({-3: -7, 5: 11})
    assert LaurentPoly.decode(g.encode()) == g


def test_canonical_form_no_zero_coefficients():
    f = lp({1: 0, 2: 3})
    assert f.terms == {2: 3}
    assert (f - f) == LaurentPoly.zero()
    assert not (f - f)


def test_big_coefficients_exact():
    import math

    f = lp({0: 1, 2: 1})
    g = f
    for _ in range(64):
        g = g * f
    # binomial coefficients of (1+q)^65; exactness matters
    assert g.q_coeff(32) == math.comb(65, 32)
    assert g.q_coeff(0) == 1 and g.q_coeff(65) == 1


def test_equal_polynomials_hash_equal():
    # built by constructor, arithmetic, decoding and shifting, equal
    # polynomials hash equal and find each other as dict keys
    a = lp({0: 1, 2: -2, 4: 1})
    b = lp({0: 1, 2: -1}) * lp({0: 1, 2: -1})
    c = LaurentPoly.decode("1*v^0+-2*v^2+1*v^4")
    d = (lp({-2: 1, 0: -2, 2: 1}) + lp({5: 3}) - lp({5: 3})).shift(2)
    assert a == b == c == d
    assert len({hash(p) for p in (a, b, c, d)}) == 1
    table = {a: "a"}
    assert table[b] == table[c] == table[d] == "a"
    assert {b: 1, c: 2, d: 3} == {a: 3}
    assert hash(LaurentPoly.zero()) == hash(lp({3: 0}))
