"""Exact arithmetic in Q_p and its unramified quadratic extension at finite precision.

Elements are stored as p^v * u with the unit u tracked modulo p^M, so every
operation knows exactly which digits of the result are trustworthy.  Additive
character values are kept as exact roots of unity (rationals mod 1) until a
caller explicitly complexifies them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DiscriminantMismatch, PrecisionError, SizeGuard

# Sign of the additive character: psi(x) = e^(2*pi*i * PSI_SIGN * frac_p(x)).
# Only this module reads it, at call time (psi, psi_of_rational,
# psi_numerator), so a flip conjugates every phase; tests/test_psi_flip.py
# runs the invariant suites with it flipped.
PSI_SIGN = -1

# Overflow guard for unit enumerations (desk scale).
ENUMERATION_BOUND = 10**7

_INF = math.inf


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization [(p, e), ...] of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or factorize(p) != [(p, 1)]:
        raise ValueError(f"p must be an odd prime, got {p}")


def is_square_mod_p(a: int, p: int) -> bool:
    """Euler criterion for the unit residue a mod the odd prime p."""
    a %= p
    if a == 0:
        raise ValueError("a must be a unit mod p")
    return pow(a, (p - 1) // 2, p) == 1


@dataclass(frozen=True)
class LocalElement:
    """A truncated element of Q_p: the value p^v * u, with u known mod p^M.

    v = +inf (math.inf) encodes the exact zero; u is then 0 by convention.
    """

    p: int
    v: float  # integer valuation, or math.inf for exact zero
    u: int    # unit residue in (Z/p^M)^x, canonical nonnegative representative
    M: int    # tracked unit precision (element known mod p^(v+M))

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("precision M must be >= 1")
        if self.v is _INF or self.v == _INF:
            object.__setattr__(self, "u", 0)
        else:
            object.__setattr__(self, "v", int(self.v))
            u = self.u % self.p**self.M
            if u % self.p == 0:
                raise ValueError("unit part must be invertible mod p")
            object.__setattr__(self, "u", u)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, p: int, M: int) -> "LocalElement":
        return cls(p, _INF, 0, M)

    @classmethod
    def one(cls, p: int, M: int) -> "LocalElement":
        return cls(p, 0, 1, M)

    @classmethod
    def from_int(cls, p: int, k: int, M: int) -> "LocalElement":
        if k == 0:
            return cls.zero(p, M)
        v = 0
        while k % p == 0:
            k //= p
            v += 1
        return cls(p, v, k % p**M, M)

    @classmethod
    def from_rational(cls, p: int, x: Fraction | int, M: int) -> "LocalElement":
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, M)
        num, den = x.numerator, x.denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        u = num * pow(den, -1, p**M) % p**M
        return cls(p, v, u, M)

    # -- basic queries ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.v == _INF

    def is_unit(self) -> bool:
        return self.v == 0

    def is_integral(self) -> bool:
        return self.v >= 0

    def in_ideal(self, r: int) -> bool:
        """Whether the element lies in p^r * o, to tracked precision."""
        if self.is_zero:
            return True
        if self.v + self.M < r:
            raise PrecisionError(f"membership in p^{r} undetermined at precision {self.M}")
        return self.v >= r

    def residue(self, m: int) -> int:
        """The value mod p^m as a canonical integer; requires integrality."""
        if self.is_zero:
            return 0
        if self.v < 0:
            raise ValueError("residue of a non-integral element")
        if self.v + self.M < m:
            raise PrecisionError(f"residue mod p^{m} undetermined")
        if self.v >= m:
            return 0
        return self.u * self.p**self.v % self.p**m

    def frac_part(self) -> Fraction:
        """The fractional part: the class of the element in F / o, as a rational in [0,1)."""
        if self.is_zero or self.v >= 0:
            return Fraction(0)
        if self.v + self.M < 0:
            raise PrecisionError("fractional part undetermined at tracked precision")
        den = self.p ** (-self.v)
        return Fraction(self.u % den, den)

    # -- arithmetic -------------------------------------------------------
    def _check(self, other: "LocalElement") -> None:
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __mul__(self, other: "LocalElement") -> "LocalElement":
        self._check(other)
        if self.is_zero or other.is_zero:
            return LocalElement.zero(self.p, min(self.M, other.M))
        M = min(self.M, other.M)
        return LocalElement(self.p, self.v + other.v, self.u * other.u % self.p**M, M)

    def inverse(self) -> "LocalElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return LocalElement(self.p, -self.v, pow(self.u, -1, self.p**self.M), self.M)

    def __truediv__(self, other: "LocalElement") -> "LocalElement":
        return self * other.inverse()

    def __neg__(self) -> "LocalElement":
        if self.is_zero:
            return self
        return LocalElement(self.p, self.v, -self.u % self.p**self.M, self.M)

    def __add__(self, other: "LocalElement") -> "LocalElement":
        self._check(other)
        if self.is_zero:
            return other if other.M <= self.M else LocalElement(other.p, other.v, other.u, self.M)
        if other.is_zero:
            return self if self.M <= other.M else LocalElement(self.p, self.v, self.u, other.M)
        a, b = (self, other) if self.v <= other.v else (other, self)
        d = b.v - a.v
        # digits of the sum are known mod p^(a.v + Mk)
        Mk = min(a.M, d + b.M)
        raw = (a.u + b.u * a.p**d) % a.p**Mk
        if raw == 0:
            # cancellation below tracked precision: indistinguishable from zero
            return LocalElement.zero(a.p, max(1, Mk))
        k = 0
        while raw % a.p == 0:
            raw //= a.p
            k += 1
        if Mk - k < 1:
            raise PrecisionError("additive cancellation consumed all tracked digits")
        return LocalElement(a.p, a.v + k, raw, Mk - k)

    def __sub__(self, other: "LocalElement") -> "LocalElement":
        return self + (-other)

    def scale_by_power(self, k: int) -> "LocalElement":
        """Multiply by p^k (exact)."""
        if self.is_zero:
            return self
        return LocalElement(self.p, self.v + k, self.u, self.M)

    def agrees_with(self, other: "LocalElement") -> bool:
        """Equality to the common tracked precision."""
        self._check(other)
        diff = self - other
        return diff.is_zero

    def __repr__(self):
        if self.is_zero:
            return f"Local({self.p}; 0)"
        return f"Local({self.p}; {self.p}^{self.v}*{self.u} mod {self.p}^{self.v + self.M})"


@dataclass(frozen=True)
class UnitRoot:
    """An exact root of unity e^(2*pi*i*r), r a rational mod 1."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r) % 1)

    @classmethod
    def one(cls) -> "UnitRoot":
        return cls(Fraction(0))

    def __mul__(self, other: "UnitRoot") -> "UnitRoot":
        return UnitRoot(self.r + other.r)

    def __truediv__(self, other: "UnitRoot") -> "UnitRoot":
        return UnitRoot(self.r - other.r)

    def inverse(self) -> "UnitRoot":
        return UnitRoot(-self.r)

    def conjugate(self) -> "UnitRoot":
        return UnitRoot(-self.r)

    def __pow__(self, k: int) -> "UnitRoot":
        return UnitRoot(self.r * k)

    @property
    def is_one(self) -> bool:
        return self.r == 0

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.r))

    def __repr__(self):
        return f"UnitRoot({self.r})"


@dataclass(frozen=True)
class QuadElement:
    """An element a + b*sqrt(delta) of the unramified quadratic extension E.

    delta is a unit non-square of F, carried as an integer tag; combining
    elements with different tags is an error.
    """

    a: LocalElement
    b: LocalElement
    delta: int

    def __post_init__(self):
        if self.a.p != self.b.p:
            raise ValueError("mixed primes in quadratic element")
        if self.delta % self.a.p == 0 or is_square_mod_p(self.delta, self.a.p):
            raise ValueError("delta must be a unit non-square mod p")

    @property
    def p(self) -> int:
        return self.a.p

    @classmethod
    def from_pair(cls, p: int, a: int | Fraction, b: int | Fraction, delta: int, M: int) -> "QuadElement":
        return cls(LocalElement.from_rational(p, Fraction(a), M),
                   LocalElement.from_rational(p, Fraction(b), M), delta)

    def _check(self, other: "QuadElement") -> None:
        if self.delta % self.p != other.delta % self.p or self.p != other.p:
            raise DiscriminantMismatch("incompatible quadratic elements")

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def conjugate(self) -> "QuadElement":
        return QuadElement(self.a, -self.b, self.delta)

    def trace(self) -> LocalElement:
        return self.a + self.a

    def norm(self) -> LocalElement:
        d = LocalElement.from_int(self.p, self.delta, max(self.a.M, self.b.M))
        return self.a * self.a - d * self.b * self.b

    def valuation(self) -> float:
        return min(self.a.v, self.b.v)

    def __add__(self, other: "QuadElement") -> "QuadElement":
        self._check(other)
        return QuadElement(self.a + other.a, self.b + other.b, self.delta)

    def __neg__(self) -> "QuadElement":
        return QuadElement(-self.a, -self.b, self.delta)

    def __sub__(self, other: "QuadElement") -> "QuadElement":
        return self + (-other)

    def __mul__(self, other: "QuadElement") -> "QuadElement":
        self._check(other)
        d = LocalElement.from_int(self.p, self.delta, max(self.a.M, self.b.M))
        return QuadElement(self.a * other.a + d * self.b * other.b,
                           self.a * other.b + self.b * other.a, self.delta)

    def inverse(self) -> "QuadElement":
        n = self.norm().inverse()
        c = self.conjugate()
        return QuadElement(c.a * n, c.b * n, self.delta)

    def scale(self, c: LocalElement) -> "QuadElement":
        return QuadElement(self.a * c, self.b * c, self.delta)


def psi(x: LocalElement) -> UnitRoot:
    """The fixed additive character of F: trivial on o, nontrivial on p^-1 o."""
    return UnitRoot(PSI_SIGN * x.frac_part())


def psi_of_rational(p: int, x: Fraction) -> UnitRoot:
    """psi evaluated at an exact rational viewed inside Q_p."""
    den = x.denominator
    pk = 1
    while den % p == 0:
        den //= p
        pk *= p
    if pk == 1:
        return UnitRoot.one()
    # x = num / (den * pk); p-fractional part is (num * den^-1 mod pk) / pk
    frac = Fraction(x.numerator * pow(den, -1, pk) % pk, pk)
    return UnitRoot(PSI_SIGN * frac)


def psi_numerator(k):
    """The numerator of psi's phase at k/d: psi(k/d) = e(psi_numerator(k)/d) for
    a p-power d and an integer (or integer array) k; the caller reduces mod d."""
    return PSI_SIGN * k


def psi_E(z: QuadElement) -> UnitRoot:
    """The additive character of E obtained by composing psi with the trace."""
    return psi(z.trace())


def unit_enumeration(p: int, m: int, quadratic: bool = False,
                     delta: int | None = None) -> list:
    """All units of o/p^m (ints) or o_E/p^m (pairs (a, b) meaning a + b*sqrt(delta))."""
    _require_odd_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    if p ** (2 * m if quadratic else m) > ENUMERATION_BOUND:
        raise SizeGuard(f"unit enumeration for p={p}, m={m} exceeds configured bound")
    pm = p**m
    if not quadratic:
        return [a for a in range(pm) if a % p != 0]
    return [(a, b) for a in range(pm) for b in range(pm)
            if a % p != 0 or b % p != 0]
