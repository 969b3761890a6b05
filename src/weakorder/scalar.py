"""Exact arithmetic in the real cyclotomic subfield Q(c), c = 2*cos(pi/L).

Every coordinate that appears in a finite root system for a Coxeter graph
with edge labels dividing L lives in Q(c).  We represent a scalar as a
polynomial in c of degree < deg(psi_L), reduced modulo the minimal
polynomial psi_L of c, with rational coefficients stored as an integer
vector over a single positive denominator.  Reduction keeps arithmetic in
plain Python integers; equality of canonical forms is tuple equality.

psi_L is computed from the cyclotomic polynomial Phi_{2L}: writing
Phi_{2L}(z) = z^(d/2) * psi_L(z + 1/z) and expanding in the symmetric
basis z^j + z^(-j) gives a monic integer polynomial with psi_L(c) = 0 and
deg(psi_L) = phi(2L)/2 for L >= 2.

>>> build_ring(5).coefficients     # x^2 - x - 1, the golden-ratio field
(-1, -1, 1)
>>> embed_cos(4, build_ring(4)).sign()
1

The ring also works on whole arrays of values, each an integer vector of
coefficients over 1, c, ..., c^(d-1): times() gives their multiplication
matrices and signs() their signs.  signs() is the only sign algorithm;
AlgebraicScalar.sign is a batch of one.  It never touches floating point:
an isolating rational interval for c (seeded from a double, then verified
and refined by exact bisection on psi_L) bounds the powers of c by
integers at a scale of 2^bits, and bits doubles until every sign is
decided.  This is the only scalar layer: every root coordinate, sign and
verdict is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

_SIGN_BITS_CAP = 1 << 15  # signs() gives up past this precision

RationalLike = Union[int, Fraction]


def euler_phi(n: int) -> int:
    """Euler's totient.

    >>> [euler_phi(k) for k in (1, 2, 6, 10, 24)]
    [1, 1, 2, 4, 8]
    """
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials (ascending coefficients), den monic-leading.

    Division must be exact in the integers for the uses below (cyclotomic
    factor removal); the remainder is returned for the caller to check.
    """
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - dn, 0)
    for k in range(len(num) - 1, dn - 1, -1):
        if num[k] == 0:
            continue
        if num[k] % lead:
            raise ArithmeticError("integer polynomial division is not exact")
        q = num[k] // lead
        quot[k - dn] = q
        for j in range(dn + 1):
            num[k - dn + j] -= q * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial.

    >>> cyclotomic(1), cyclotomic(2), cyclotomic(12)
    ((-1, 1), (1, 1), (1, 0, -1, 0, 1))
    """
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _int_poly_divmod(poly, list(cyclotomic(d)))
            if rem != [0]:
                raise ArithmeticError(f"cyclotomic({d}) does not divide x^{n} - 1")
    return tuple(poly)


def _symmetric_rewrite(pal: Sequence[int]) -> tuple[int, ...]:
    """Rewrite a palindromic polynomial P of even degree 2e as z^e * q(z + 1/z).

    Expands P(z)/z^e in the basis {1, z^j + z^(-j)} and converts each basis
    element with the recursion V_0 = 2, V_1 = y, V_{j+1} = y*V_j - V_{j-1}.
    """
    deg = len(pal) - 1
    if deg % 2:
        raise ArithmeticError("polynomial has odd degree")
    e = deg // 2
    if list(pal) != list(reversed(pal)):
        raise ArithmeticError("polynomial is not palindromic")
    out = [0] * (e + 1)
    out[0] = pal[e]
    v_prev = [2]  # V_0
    v_cur = [0, 1]  # V_1
    for j in range(1, e + 1):
        cj = pal[e + j]
        if cj:
            for i, vi in enumerate(v_cur):
                out[i] += cj * vi
        if j < e:
            v_next = [0] + v_cur
            for i, vi in enumerate(v_prev):
                v_next[i] -= vi
            v_prev, v_cur = v_cur, v_next
    if out[-1] != 1:
        raise ArithmeticError("rewritten polynomial is not monic")
    return tuple(out)


class MinimalPolynomial:
    """The ring tag for Q(2*cos(pi/L)): psi_L, scalar constructors, array ops.

    The instance owns a monotonically shrinking rational isolating interval
    for c (the largest real root of psi_L), shared by all sign computations
    in this ring, and the table of c^(a + j) mod psi that times() reads.
    """

    def __init__(self, L: int, coefficients: tuple[int, ...]):
        self.L = L
        self.coefficients = coefficients
        self.degree = d = len(coefficients) - 1
        self._approx = 2.0 * math.cos(math.pi / L)
        self._interval: tuple[Fraction, Fraction] | None = None
        self._bounds: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        powers = [[int(j == k) for j in range(d)] for k in range(d)]
        for _ in range(d - 1):
            powers.append(self.times_c(powers[-1]))
        # shift[a, j] = c^(a + j) mod psi
        self._shift = np.array([powers[a:a + d] for a in range(d)], dtype=object)

    def __repr__(self) -> str:
        return f"MinimalPolynomial(L={self.L}, coefficients={self.coefficients})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MinimalPolynomial)
            and self.L == other.L
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.L, self.coefficients))

    # -- scalar constructors ------------------------------------------------

    def zero(self) -> "AlgebraicScalar":
        return AlgebraicScalar(self, (0,) * self.degree, 1)

    def one(self) -> "AlgebraicScalar":
        return self.from_rational(1)

    def generator(self) -> "AlgebraicScalar":
        """The scalar c = 2*cos(pi/L)."""
        if self.degree == 1:
            # c is rational: the root of the linear psi_L.
            return self.from_rational(Fraction(-self.coefficients[0], 1))
        num = [0] * self.degree
        num[1] = 1
        return AlgebraicScalar(self, tuple(num), 1)

    def from_rational(self, q: RationalLike) -> "AlgebraicScalar":
        q = Fraction(q)
        num = [0] * self.degree
        num[0] = q.numerator
        return AlgebraicScalar(self, tuple(num), q.denominator)

    def times_c(self, coeffs: Sequence[int]) -> list[int]:
        """Power-basis coefficients of c * x, reduced mod psi, from those of x."""
        top = coeffs[-1]
        return [a - top * b for a, b in zip([0, *coeffs[:-1]], self.coefficients)]

    # -- coefficient arrays -------------------------------------------------

    def times(self, x: np.ndarray) -> np.ndarray:
        """(..., d, d) matrices of multiplication by the values of a (..., d) array.

        A value is its d integer coefficients over 1, c, ..., c^(d-1); the
        matrix M of x has x * c^a in column a, so M @ y holds x * y.
        """
        shift = self._shift.astype(x.dtype)
        return np.tensordot(x, shift, axes=(-1, 0)).swapaxes(-1, -2)

    def signs(self, x: np.ndarray) -> np.ndarray:
        """Exact signs (-1, 0, 1) of the values in an (m, d) integer coefficient array.

        With lo < c < hi the isolating interval, c^t * 2^bits lies between
        floor(lo^t * 2^bits) and ceil(hi^t * 2^bits) (c > 0 when d > 1), so
        two integer dot products bound each value.  bits starts at 64; the
        rows whose bounds straddle zero are tried again with bits doubled,
        over the interval bisected until narrower than 2^-bits.  A nonzero
        value does not vanish at c (psi is its minimal polynomial), so its
        bounds close in on its sign.

        >>> ring = build_ring(5)          # c^2 = c + 1
        >>> tiny = [7778742049, -4807526976]        # (c - 2)^24, about 1e-10
        >>> ring.signs(np.array([[0, 0], [1, -1], tiny], dtype=object)).tolist()
        [0, -1, 1]
        """
        values = np.asarray(x, dtype=object)
        sign = np.zeros(values.shape[0], dtype=np.int8)
        rows = np.arange(values.shape[0])
        bits = 64
        while True:
            low, high = self._power_bounds(bits)
            pos = np.where(values > 0, values, 0)
            neg = values - pos
            lower = pos @ low + neg @ high
            upper = pos @ high + neg @ low
            sign[rows] = (lower > 0).astype(np.int8) - (upper < 0)
            # lower == upper only for a zero value, whose sign 0 is decided
            undecided = (lower < upper) & (lower <= 0) & (upper >= 0)
            if not undecided.any():
                return sign
            rows, values = rows[undecided], values[undecided]
            bits *= 2
            if bits > _SIGN_BITS_CAP:
                raise ArithmeticError("sign determination failed to converge")
            lo, hi = self.isolating_interval()
            while hi - lo >= Fraction(1, 1 << bits):
                lo, hi = self.refine_interval()

    def _power_bounds(self, bits: int) -> tuple[np.ndarray, np.ndarray]:
        """floor(lo^t * 2^bits) and ceil(hi^t * 2^bits) for t < d, kept per bits."""
        if bits not in self._bounds:
            lo, hi = self.isolating_interval()
            scale, powers = 1 << bits, range(self.degree)
            self._bounds[bits] = (
                np.array([math.floor(lo**t * scale) for t in powers], dtype=object),
                np.array([math.ceil(hi**t * scale) for t in powers], dtype=object),
            )
        return self._bounds[bits]

    # -- exact evaluation of psi_L ------------------------------------------

    def eval_at(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for coef in reversed(self.coefficients):
            acc = acc * x + coef
        return acc

    def isolating_interval(self) -> tuple[Fraction, Fraction]:
        """A rational interval (lo, hi) with psi(lo) < 0 < psi(hi) containing c.

        c is the largest real root of the monic psi_L, so psi is negative
        just below c and positive above.  The seed comes from a double but
        the bracket is verified exactly before use.
        """
        if self._interval is not None:
            return self._interval
        seed = Fraction(self._approx)
        delta = Fraction(1, 1 << 40)
        for _ in range(80):
            lo, hi = seed - delta, seed + delta
            if self.eval_at(lo) < 0 < self.eval_at(hi):
                self._interval = (lo, hi)
                return self._interval
            delta *= 2
        raise ArithmeticError(f"failed to bracket 2cos(pi/{self.L})")

    def refine_interval(self) -> tuple[Fraction, Fraction]:
        lo, hi = self.isolating_interval()
        mid = (lo + hi) / 2
        v = self.eval_at(mid)
        # psi has no rational root when degree >= 2, and degree-1 rings
        # never reach interval arithmetic, so v == 0 cannot occur here.
        if v == 0:
            raise ArithmeticError(f"psi_{self.L} has a rational root")
        self._interval = (lo, mid) if v > 0 else (mid, hi)
        self._bounds.clear()
        return self._interval


@lru_cache(maxsize=None)
def build_ring(L: int) -> MinimalPolynomial:
    """Minimal polynomial of 2*cos(pi/L) as a ring tag for scalars.

    >>> build_ring(1).coefficients    # c = -2
    (2, 1)
    >>> build_ring(2).coefficients    # c = 0
    (0, 1)
    >>> build_ring(3).coefficients    # c = 1
    (-1, 1)
    >>> build_ring(12).coefficients
    (1, 0, -4, 0, 1)
    """
    if L < 1:
        raise ValueError("L must be a positive integer")
    if L == 1:
        return MinimalPolynomial(1, (2, 1))
    psi = _symmetric_rewrite(cyclotomic(2 * L))
    if len(psi) - 1 != euler_phi(2 * L) // 2:
        raise ArithmeticError(f"psi_{L} does not have degree phi(2L)/2")
    return MinimalPolynomial(L, psi)


def embed_cos(m: int, ring: MinimalPolynomial) -> "AlgebraicScalar":
    """The scalar 2*cos(pi/m) inside Q(2*cos(pi/L)).

    Uses the recursion p_0 = 2, p_1 = c, p_{k+1} = c*p_k - p_{k-1}, which
    yields p_k = 2*cos(k*pi/L); the wanted value is p_{L/m}.  m = 1, 2 and
    3 are exact rationals (-2, 0 and 1) available in every ring; any other
    m must divide L.

    >>> embed_cos(3, build_ring(3)).coeffs
    (Fraction(1, 1),)
    """
    if m == 1:
        return ring.from_rational(-2)
    if m == 2:
        return ring.zero()
    if m == 3:
        return ring.one()
    if ring.L % m != 0:
        raise ValueError(f"m={m} does not divide the ring parameter L={ring.L}")
    k = ring.L // m
    c = ring.generator()
    p_prev = ring.from_rational(2)
    p_cur = c
    for _ in range(k - 1):
        p_prev, p_cur = p_cur, c * p_cur - p_prev
    return p_cur


@dataclass(frozen=True)
class AlgebraicScalar:
    """Canonical element of Q(c): integer numerator vector over one denominator.

    Instances are immutable; all operations return new scalars.  Mixing
    scalars from different rings raises.
    """

    ring: MinimalPolynomial
    num: tuple[int, ...]
    den: int

    # -- normalization -------------------------------------------------------

    def __post_init__(self) -> None:
        """Reduce to lowest terms with a positive denominator.

        Keeping every instance canonical makes the generated equality and
        hash agree with algebraic equality.
        """
        if self.den == 0:
            raise ZeroDivisionError("scalar denominator is zero")
        if len(self.num) != self.ring.degree:
            raise ValueError("coefficient vector length does not match the ring")
        g = math.gcd(self.den, *(abs(x) for x in self.num))
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "num", tuple(x // g for x in self.num))
            object.__setattr__(self, "den", self.den // g)

    def _check_ring(self, other: "AlgebraicScalar") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("cannot combine scalars from different rings")

    def _coerce(self, other: object) -> "AlgebraicScalar | None":
        if isinstance(other, AlgebraicScalar):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_rational(other)
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: object) -> "AlgebraicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = tuple(
            a * o.den + b * self.den for a, b in zip(self.num, o.num)
        )
        return AlgebraicScalar(self.ring, num, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraicScalar":
        return AlgebraicScalar(self.ring, tuple(-a for a in self.num), self.den)

    def __sub__(self, other: object) -> "AlgebraicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "AlgebraicScalar":
        return (-self) + other

    def __mul__(self, other: object) -> "AlgebraicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.ring.degree
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(o.num):
                    if b:
                        prod[i + j] += a * b
        psi = self.ring.coefficients
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(d):
                    prod[k - d + j] -= c * psi[j]
        return AlgebraicScalar(
            self.ring, tuple(prod[:d]), self.den * o.den
        )

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        """Multiplicative inverse, in integer arithmetic only.

        num * y = 1 is the linear system N y = e_0, where column k of the
        integer matrix N holds num * c^k mod psi.  Fraction-free Gauss-Jordan
        elimination (Bareiss) turns [N | e_0] into [D*I | D*y], D = +-det N,
        dividing exactly at every step; the inverse is den * y.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero scalar")
        d = self.ring.degree
        columns = [list(self.num)]
        for _ in range(d - 1):
            columns.append(self.ring.times_c(columns[-1]))
        rows = [[col[r] for col in columns] + [int(r == 0)] for r in range(d)]
        prev = 1
        for k in range(d):
            # psi is irreducible, so N is invertible and a pivot exists
            pivot = next(r for r in range(k, d) if rows[r][k])
            rows[k], rows[pivot] = rows[pivot], rows[k]
            top = rows[k]
            for r in range(d):
                if r != k:
                    row = rows[r]
                    rows[r] = [
                        (top[k] * a - row[k] * b) // prev for a, b in zip(row, top)
                    ]
            prev = top[k]
        result = AlgebraicScalar(
            self.ring, tuple(self.den * row[d] for row in rows), prev
        )
        if not (result * self) == self.ring.one():
            raise ArithmeticError("elimination returned a wrong inverse")
        return result

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def sign(self) -> int:
        """Exact sign: 0 iff the canonical form is zero, else +/-1 (den > 0)."""
        return int(self.ring.signs(np.array([self.num], dtype=object))[0])

    # -- conversion / rendering ----------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    def to_float(self) -> float:
        c = self.ring._approx
        acc = 0.0
        for a in reversed(self.num):
            acc = acc * c + a
        return acc / self.den

    def render(self) -> str:
        """Human form as a polynomial in c, e.g. '(c^2 - 1)/2'."""
        terms = []
        for k, a in enumerate(self.num):
            if a == 0:
                continue
            if k == 0:
                terms.append(f"{a}")
            else:
                mag = "" if abs(a) == 1 else f"{abs(a)}*"
                var = "c" if k == 1 else f"c^{k}"
                terms.append(f"{'-' if a < 0 else ''}{mag}{var}")
        if not terms:
            return "0"
        body = terms[0]
        for t in terms[1:]:
            body += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        if self.den == 1:
            return body
        if len(terms) > 1:
            return f"({body})/{self.den}"
        return f"{body}/{self.den}"

    def __repr__(self) -> str:
        return f"<{self.render()} ~ {self.to_float():.6f}>"

