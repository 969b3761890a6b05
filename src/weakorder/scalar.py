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

Sign determination never touches floating point: an isolating rational
interval for c (seeded from a double, then verified and refined by exact
bisection on psi_L) is evaluated with interval arithmetic until the sign
is decided.  This is the only scalar layer: every root coordinate, sign
and verdict is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

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
    """The ring tag for Q(2*cos(pi/L)): psi_L plus scalar construction helpers.

    The instance owns a monotonically shrinking rational isolating interval
    for c (the largest real root of psi_L), shared by all sign computations
    on scalars of this ring.
    """

    def __init__(self, L: int, coefficients: tuple[int, ...]):
        self.L = L
        self.coefficients = coefficients
        self.degree = len(coefficients) - 1
        self._approx = 2.0 * math.cos(math.pi / L)
        self._interval: tuple[Fraction, Fraction] | None = None

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

    def scalar(self, coeffs: Sequence[RationalLike]) -> "AlgebraicScalar":
        """Scalar from rational coefficients in the power basis 1, c, c^2, ..."""
        fracs = [Fraction(x) for x in coeffs]
        if len(fracs) > self.degree:
            raise ValueError("coefficient vector longer than the ring degree")
        fracs += [Fraction(0)] * (self.degree - len(fracs))
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = tuple(int(f * den) for f in fracs)
        return AlgebraicScalar(self, num, den)

    def times_c(self, coeffs: Sequence[int]) -> list[int]:
        """Power-basis coefficients of c * x, reduced mod psi, from those of x."""
        top = coeffs[-1]
        return [a - top * b for a, b in zip([0, *coeffs[:-1]], self.coefficients)]

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
        delta = Fraction(1, 10**12)
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
    yields p_k = 2*cos(k*pi/L); the wanted value is p_{L/m}.  m = 1 and
    m = 2 are exact rationals (-2 and 0) available in every ring; any other
    m must divide L.

    >>> embed_cos(3, build_ring(3)).coeffs
    (Fraction(1, 1),)
    """
    if m == 1:
        return ring.from_rational(-2)
    if m == 2:
        return ring.zero()
    if ring.L % m != 0:
        raise ValueError(f"m={m} does not divide the ring parameter L={ring.L}")
    k = ring.L // m
    c = ring.generator()
    p_prev = ring.from_rational(2)
    p_cur = c
    for _ in range(k - 1):
        p_prev, p_cur = p_cur, c * p_cur - p_prev
    return p_cur


def _interval_eval(
    coeffs: Sequence[int], lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation of an integer polynomial on [lo, hi]."""
    rlo = rhi = Fraction(coeffs[-1])
    for coef in reversed(coeffs[:-1]):
        products = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
        rlo = min(products) + coef
        rhi = max(products) + coef
    return rlo, rhi


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

    def __truediv__(self, other: object) -> "AlgebraicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k: int) -> "AlgebraicScalar":
        if k < 0:
            return self.inverse() ** (-k)
        acc = self.ring.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def sign(self) -> int:
        """Exact sign: 0 iff the canonical form is zero, else +/-1.

        Decided by interval arithmetic over a shrinking exact isolating
        interval for c; terminates because a nonzero residue cannot vanish
        at c (psi is its minimal polynomial).
        """
        if self.is_zero():
            return 0
        if self.ring.degree == 1:
            # the ring is Q itself: the single coefficient decides (den > 0)
            return 1 if self.num[0] > 0 else -1
        lo, hi = self.ring.isolating_interval()
        for _ in range(20000):
            vlo, vhi = _interval_eval(self.num, lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            lo, hi = self.ring.refine_interval()
        raise ArithmeticError("sign determination failed to converge")

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

