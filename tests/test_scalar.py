"""Exact arithmetic in Q(2cos(pi/L)): minimal polynomials, field ops, signs."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import divide, interval_sign, power
from weakorder.scalar import (
    AlgebraicScalar,
    MinimalPolynomial,
    build_ring,
    cyclotomic,
    embed_cos,
    euler_phi,
)


def phi_oracle(n):
    """Independent Euler phi: count of 1 <= k <= n coprime to n."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_euler_phi_against_counting_oracle():
    for n in range(1, 200):
        assert euler_phi(n) == phi_oracle(n)


def test_cyclotomic_known_values():
    # frozen reference coefficients, ascending degree
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(10) == (1, -1, 1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    assert cyclotomic(105)[7] == -2  # first index where a coefficient leaves {-1,0,1}


def test_cyclotomic_product_recovers_x_power_n_minus_1():
    # prod_{d | n} Phi_d(x) = x^n - 1, checked by direct polynomial multiply
    for n in (1, 2, 3, 4, 6, 8, 12, 15, 30):
        prod = [1]
        for d in range(1, n + 1):
            if n % d:
                continue
            factor = cyclotomic(d)
            out = [0] * (len(prod) + len(factor) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            prod = out
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_minimal_polynomial_known_coefficients():
    # frozen values, ascending degree, monic tail omitted from the check
    assert build_ring(3).coefficients == (-1, 1)          # c = 1
    assert build_ring(4).coefficients == (-2, 0, 1)       # c^2 = 2
    assert build_ring(5).coefficients == (-1, -1, 1)      # golden ratio
    assert build_ring(6).coefficients == (-3, 0, 1)       # c^2 = 3
    assert build_ring(7).coefficients == (1, -2, -1, 1)
    assert build_ring(12).coefficients == (1, 0, -4, 0, 1)


def test_minimal_polynomial_root_is_2cos_pi_over_L():
    for L in (2, 3, 4, 5, 6, 7, 9, 12, 15, 30, 45):
        ring = build_ring(L)
        x = 2.0 * math.cos(math.pi / L)
        value = 0.0
        for a in reversed(ring.coefficients):
            value = value * x + a
        assert abs(value) < 1e-7, (L, value)


def test_degree_law():
    for L in range(3, 61):
        assert build_ring(L).degree == euler_phi(2 * L) // 2


def test_isolating_interval_brackets_the_root_exclusively():
    for L in (3, 4, 5, 7, 12, 30, 59):
        ring = build_ring(L)
        lo, hi = ring.isolating_interval()
        target = Fraction(2) * Fraction(math.cos(math.pi / L))
        assert lo < target < hi or abs(float(lo - target)) < 1e-9
        # no other real root of psi_L inside [lo, hi]; the distinct roots
        # are 2cos(k*pi/L) for 1 <= k < L coprime to 2L
        for k in range(2, L):
            if math.gcd(k, 2 * L) == 1:
                other = 2.0 * math.cos(k * math.pi / L)
                assert not (float(lo) < other < float(hi)), (L, k)


def random_scalar(ring, rng, span=6):
    num = tuple(rng.randrange(-span, span + 1) for _ in range(ring.degree))
    den = rng.randrange(1, span)
    return AlgebraicScalar(ring, num, den)


def test_field_axioms_seeded_sample():
    rng = random.Random(20240815)
    for L in (3, 4, 5, 7, 12):
        ring = build_ring(L)
        zero = ring.zero()
        one = ring.one()
        for _ in range(200):
            a = random_scalar(ring, rng)
            b = random_scalar(ring, rng)
            c = random_scalar(ring, rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            assert a - a == zero
            if not a.is_zero():
                assert a * a.inverse() == one
                assert divide(one, a) * a == one


def test_generator_satisfies_its_minimal_polynomial():
    for L in (3, 4, 5, 6, 7, 12, 30):
        ring = build_ring(L)
        c = ring.generator()
        acc = ring.zero()
        power = ring.one()
        for a in ring.coefficients:
            acc = acc + power * a
            power = power * c
        assert acc.is_zero()


def test_sign_matches_float_on_random_values():
    rng = random.Random(99)
    for L in (3, 5, 7, 12, 30):
        ring = build_ring(L)
        for _ in range(300):
            a = random_scalar(ring, rng, span=9)
            f = a.to_float()
            if abs(f) > 1e-6:
                assert a.sign() == (1 if f > 0 else -1), (L, a)
            if a.is_zero():
                assert a.sign() == 0


def test_sign_separates_close_algebraic_values():
    # 2cos(pi/5) - phi = 0 exactly; nudges by tiny rationals flip the sign
    ring = build_ring(5)
    c = ring.generator()
    golden = c  # c itself: c^2 = c + 1
    assert (golden * golden - golden - 1).sign() == 0
    eps = Fraction(1, 10**30)
    assert (golden * golden - golden - 1 + eps).sign() == 1
    assert (golden * golden - golden - 1 - eps).sign() == -1


def test_embed_cos_values():
    for L in (6, 12, 30, 60):
        ring = build_ring(L)
        for m in (1, 2, 3, 5, 6):
            if L % m:
                continue
            value = embed_cos(m, ring)
            assert value.to_float() == pytest.approx(2.0 * math.cos(math.pi / m), abs=1e-12)
    ring = build_ring(4)
    assert embed_cos(1, ring).to_float() == -2.0
    assert embed_cos(2, ring).to_float() == 0.0
    assert embed_cos(4, ring).sign() == 1


def test_embed_cos_three_is_one_in_every_ring():
    for L in (1, 2, 3, 4, 5, 7):
        assert embed_cos(3, build_ring(L)) == build_ring(L).one()


def test_embed_cos_rejects_non_divisors():
    ring = build_ring(6)
    with pytest.raises(ValueError):
        embed_cos(4, ring)


def test_rational_coercions_and_comparisons():
    ring = build_ring(5)
    a = ring.from_rational(Fraction(3, 2))
    assert a + 1 == ring.from_rational(Fraction(5, 2))
    assert (a * 2).coeffs == (Fraction(3), Fraction(0))
    assert (a - Fraction(3, 2)).is_zero()
    assert a.render() == "3/2"


def test_pow():
    ring = build_ring(5)
    c = ring.generator()
    assert power(c, 0) == ring.one()
    assert power(c, 1) == c
    assert power(c, 2) == c + 1          # golden-ratio relation
    assert power(c, 5) == (c + 1) * (c + 1) * c


def test_make_field_backends_agree_numerically():
    # the exact field against an independent float64 evaluation of 2cos(pi/m)
    for L in (3, 4, 5, 7, 12):
        ring = build_ring(L)
        for m in (1, 2, L):
            assert embed_cos(m, ring).to_float() == pytest.approx(
                2.0 * math.cos(math.pi / m), abs=1e-12
            )
        assert ring.from_rational(Fraction(2, 3)).to_float() == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        build_ring(0)


def test_interval_refinement_narrows():
    ring = build_ring(7)
    lo, hi = ring.isolating_interval()
    for _ in range(8):
        lo2, hi2 = ring.refine_interval()
    assert lo <= lo2 < hi2 <= hi
    assert (hi2 - lo2) <= (hi - lo) / 100


def near_zero_powers(ring):
    """(c - 2)^k and k, for the first k with |(c - 2)^k| < 2^-70 * max |coefficient|.

    -1 < c - 2 < 0 when L >= 4: the powers shrink and alternate in sign
    while their coefficients grow.
    """
    u = ring.generator() - 2
    power, k = u, 1
    while interval_sign(power * (-1) ** k * 2**70 - max(map(abs, power.num))) >= 0:
        power, k = power * u, k + 1
    return power, k


@pytest.mark.parametrize("L", [5, 12, 59, 64, 100])
def test_batched_signs_match_the_interval_oracle(L):
    shared = build_ring(L)
    # a fresh ring, so its isolating interval starts unrefined
    ring = MinimalPolynomial(L, shared.coefficients)
    d = ring.degree
    rng = random.Random(L)
    tiny, k = near_zero_powers(shared)
    assert interval_sign(tiny) == (-1) ** k
    u = shared.generator() - 2
    rows = [[0] * d for _ in range(3)]
    rows += [[rng.randint(-9, 9) for _ in range(d)] for _ in range(10)]
    rows += [[rng.randint(-(2**70), 2**70) for _ in range(d)] for _ in range(10)]
    rows += [list(v.num) for v in (tiny, -tiny, tiny * u, -(tiny * u), tiny * (1 + u))]
    rng.shuffle(rows)
    expected = [interval_sign(AlgebraicScalar(shared, tuple(r), 1)) for r in rows]
    lo, hi = ring.isolating_interval()
    assert hi - lo > Fraction(1, 1 << 64)
    assert ring.signs(np.array(rows, dtype=object)).tolist() == expected
    # the near-zero rows were left open at 2^64 and decided after refining
    lo, hi = ring.isolating_interval()
    assert hi - lo < Fraction(1, 1 << 64)
