"""Exact arithmetic in Q_p at finite precision.

Elements are stored as p^v * u with the unit u tracked modulo p^M, so every
operation knows exactly which digits of the result are trustworthy.  The
additive character psi has two routes, psi on elements and psi_numerator on
integer numerators; its values are kept as exact roots of unity (rationals
mod 1) until a caller explicitly complexifies them.

The unramified quadratic extension E has no element type: its units mod p^m
are the integer codes x*p^m + y of characters.quad_unit_presentation, and
the torus factor of matgroups.decompose_B1T is the pair (x, y).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError, SizeGuard

# Sign of the additive character: psi(x) = e^(2*pi*i * PSI_SIGN * frac_p(x)).
# Only this module reads it, at call time: every phase in the library goes
# through psi (exact elements) or psi_numerator (integer numerators, also as
# arrays), so a flip conjugates every phase; tests/test_psi_flip.py runs the
# invariant suites with it flipped.
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
        if M < 1:
            raise ValueError("precision M must be >= 1")
        return _trusted(p, _INF, 0, M)

    @classmethod
    def one(cls, p: int, M: int) -> "LocalElement":
        return cls(p, 0, 1, M)

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
        M = min(self.M, other.M)
        if self.v == _INF or other.v == _INF:
            return _trusted(self.p, _INF, 0, M)
        return _trusted(self.p, self.v + other.v, self.u * other.u % self.p**M, M)

    def inverse(self) -> "LocalElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return _trusted(self.p, -self.v, pow(self.u, -1, self.p**self.M), self.M)

    def __neg__(self) -> "LocalElement":
        if self.is_zero:
            return self
        return _trusted(self.p, self.v, -self.u % self.p**self.M, self.M)

    def __add__(self, other: "LocalElement") -> "LocalElement":
        self._check(other)
        if self.v == _INF:
            return other if other.M <= self.M else other._truncate(self.M)
        if other.v == _INF:
            return self if self.M <= other.M else self._truncate(other.M)
        a, b = (self, other) if self.v <= other.v else (other, self)
        d = b.v - a.v
        # digits of the sum are known mod p^(a.v + Mk)
        Mk = min(a.M, d + b.M)
        raw = (a.u + b.u * a.p**d) % a.p**Mk
        if raw == 0:
            # cancellation below tracked precision: indistinguishable from zero
            return _trusted(a.p, _INF, 0, Mk)
        k = 0
        while raw % a.p == 0:
            raw //= a.p
            k += 1
        if Mk - k < 1:
            raise PrecisionError("additive cancellation consumed all tracked digits")
        return _trusted(a.p, a.v + k, raw, Mk - k)

    def __sub__(self, other: "LocalElement") -> "LocalElement":
        return self + (-other)

    def scale_by_power(self, k: int) -> "LocalElement":
        """Multiply by p^k (exact)."""
        if self.is_zero:
            return self
        return _trusted(self.p, self.v + k, self.u, self.M)

    def _truncate(self, M: int) -> "LocalElement":
        """The same element known only mod p^(v+M), for 1 <= M <= self.M."""
        return _trusted(self.p, self.v, self.u % self.p**M, M)

    def __repr__(self):
        if self.is_zero:
            return f"Local({self.p}; 0)"
        return f"Local({self.p}; {self.p}^{self.v}*{self.u} mod {self.p}^{self.v + self.M})"


_new = object.__new__


def _trusted(p: int, v, u: int, M: int) -> LocalElement:
    """A LocalElement built without __post_init__, for arithmetic whose result
    already meets its invariants: M >= 1 and v an int with u a unit in
    [0, p^M), or v = inf with u = 0."""
    e = _new(LocalElement)
    e.__dict__.update(p=p, v=v, u=u, M=M)
    return e


@dataclass(frozen=True)
class UnitRoot:
    """An exact root of unity e^(2*pi*i*r), r a rational mod 1."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r) % 1)

    @classmethod
    def one(cls) -> "UnitRoot":
        return cls(Fraction(0))

    @classmethod
    def exact(cls, num: int, den: int) -> "UnitRoot":
        """e(num/den) for integers num and den >= 1: num is reduced mod den in
        integers, then made one Fraction."""
        return _root(Fraction(num % den, den))

    def __mul__(self, other: "UnitRoot") -> "UnitRoot":
        # r and other.r lie in [0, 1), so one step of 1 brings the sum back
        r = self.r + other.r
        return _root(r - 1 if r >= 1 else r)

    def __truediv__(self, other: "UnitRoot") -> "UnitRoot":
        return UnitRoot(self.r - other.r)

    def inverse(self) -> "UnitRoot":
        return UnitRoot(-self.r)

    @property
    def is_one(self) -> bool:
        return self.r == 0

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.r))

    def __repr__(self):
        return f"UnitRoot({self.r})"


def _root(r: Fraction) -> UnitRoot:
    """A UnitRoot built without __post_init__, for r already a Fraction in [0, 1)."""
    z = _new(UnitRoot)
    z.__dict__["r"] = r
    return z


def psi(x: LocalElement) -> UnitRoot:
    """The fixed additive character of F: trivial on o, nontrivial on p^-1 o."""
    f = x.frac_part()
    return UnitRoot.exact(psi_numerator(f.numerator), f.denominator)


def psi_numerator(k):
    """The numerator of psi's phase at k/d: psi(k/d) = e(psi_numerator(k)/d) for
    a p-power d and an integer (or integer array) k; the caller reduces mod d."""
    return PSI_SIGN * k


def unit_enumeration(p: int, m: int) -> list[int]:
    """All units of o/p^m."""
    _require_odd_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    if p**m > ENUMERATION_BOUND:
        raise SizeGuard(f"unit enumeration for p={p}, m={m} exceeds configured bound")
    return [a for a in range(p**m) if a % p != 0]
