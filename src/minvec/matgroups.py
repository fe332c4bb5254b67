"""2x2 matrix groups over truncated p-adics: inert tori, congruence subgroups,
and the upper-triangular/torus factorizations used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DiscriminantMismatch
from .residues import LocalElement, QuadElement, is_square_mod_p

_INF = math.inf


def canonical_alpha(p: int) -> int:
    """Smallest positive unit residue alpha with -alpha a non-square mod p."""
    for a in range(1, p):
        if not is_square_mod_p(-a % p, p):
            return a
    raise AssertionError("unreachable: -1..-(p-1) cover all classes")


@dataclass(frozen=True)
class TorusSpec:
    """The canonical inert torus T_{alpha,0,1} at level n over Q_p."""

    p: int
    n: int
    alpha: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("level n must be >= 1")
        if self.alpha is None:
            object.__setattr__(self, "alpha", canonical_alpha(self.p))
        if self.alpha % self.p == 0 or is_square_mod_p(-self.alpha % self.p, self.p):
            raise ValueError("-alpha must be a non-square unit mod p")

    @property
    def delta(self) -> int:
        return -self.alpha

    @property
    def precision(self) -> int:
        """Default working precision for level-n computations."""
        return 2 * self.n + 4

    def quad(self, a, b, M: int | None = None) -> QuadElement:
        return QuadElement.from_pair(self.p, a, b, self.delta, M or self.precision)


@dataclass(frozen=True)
class Mat2Local:
    """2x2 matrix with truncated p-adic entries."""

    a: LocalElement
    b: LocalElement
    c: LocalElement
    d: LocalElement

    @property
    def p(self) -> int:
        return self.a.p

    @cached_property
    def det(self) -> LocalElement:
        """ad - bc, computed on first read; not a field, so == and hash ignore it."""
        return self.a * self.d - self.b * self.c

    @classmethod
    def from_rationals(cls, p: int, entries, M: int) -> "Mat2Local":
        a, b, c, d = (LocalElement.from_rational(p, Fraction(e), M) for e in entries)
        return cls(a, b, c, d)

    @classmethod
    def identity(cls, p: int, M: int) -> "Mat2Local":
        one, zero = LocalElement.one(p, M), LocalElement.zero(p, M)
        return cls(one, zero, zero, one)

    @classmethod
    def upper(cls, p: int, y, x, M: int) -> "Mat2Local":
        """The matrix [[y, x], [0, 1]]."""
        return cls.from_rationals(p, (y, x, 0, 1), M)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, o: "Mat2Local") -> "Mat2Local":
        return Mat2Local(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                         self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inverse(self) -> "Mat2Local":
        di = self.det.inverse()
        return Mat2Local(self.d * di, -self.b * di, -self.c * di, self.a * di)

    def scale(self, t: LocalElement) -> "Mat2Local":
        return Mat2Local(self.a * t, self.b * t, self.c * t, self.d * t)

    def scale_by_power(self, k: int) -> "Mat2Local":
        return Mat2Local(*(e.scale_by_power(k) for e in self.entries()))

    def agrees_with(self, o: "Mat2Local") -> bool:
        return all(x.agrees_with(y) for x, y in zip(self.entries(), o.entries()))

    def transpose(self) -> "Mat2Local":
        return Mat2Local(self.a, self.c, self.b, self.d)


def a_mat(y: LocalElement) -> Mat2Local:
    one, zero = LocalElement.one(y.p, y.M), LocalElement.zero(y.p, y.M)
    return Mat2Local(y, zero, zero, one)


def n_mat(x: LocalElement) -> Mat2Local:
    one, zero = LocalElement.one(x.p, x.M), LocalElement.zero(x.p, x.M)
    return Mat2Local(one, x, zero, one)


def w_alpha(spec: TorusSpec, M: int | None = None) -> Mat2Local:
    """The matrix [[0, 1], [-alpha, 0]], image of sqrt(-alpha)."""
    return Mat2Local.from_rationals(spec.p, (0, 1, -spec.alpha, 0), M or spec.precision)


def torus_embed(z: QuadElement, spec: TorusSpec) -> Mat2Local:
    """x + y*sqrt(-alpha) |-> [[x, y], [-alpha*y, x]]."""
    if z.is_zero:
        raise ValueError("cannot embed zero")
    if z.delta % spec.p != (-spec.alpha) % spec.p:
        raise DiscriminantMismatch("quadratic element does not match the torus discriminant")
    alpha = LocalElement.from_int(spec.p, spec.alpha, max(z.a.M, z.b.M))
    return Mat2Local(z.a, z.b, -(alpha * z.b), z.a)


def torus_extract(t: Mat2Local, spec: TorusSpec) -> QuadElement:
    """Inverse of torus_embed; validates the torus shape to tracked precision."""
    alpha = LocalElement.from_int(spec.p, spec.alpha, t.a.M)
    if not t.d.agrees_with(t.a) or not t.c.agrees_with(-(alpha * t.b)):
        raise ValueError("matrix is not in the canonical torus")
    return QuadElement(t.a, t.b, spec.delta)


def subgroup_member(g: Mat2Local, which: str, spec: TorusSpec, r: int | None = None) -> bool:
    """Membership predicate for K and its congruence subgroups, at tracked precision.

    which: one of "K", "K(r)", "K1(r)", "B1(r)", "KT(r)", "ZKT(r)".
    """
    p = spec.p
    if which == "K":
        return all(e.is_integral() for e in g.entries()) and not g.det.is_zero and g.det.v == 0
    if r is None:
        raise ValueError(f"subgroup {which} requires the parameter r")
    one = LocalElement.one(p, min(e.M for e in g.entries() if not e.is_zero))
    if which == "K(r)":
        return (subgroup_member(g, "K", spec)
                and (g.a - one).in_ideal(r) and (g.d - one).in_ideal(r)
                and g.b.in_ideal(r) and g.c.in_ideal(r))
    if which == "K1(r)":
        return (subgroup_member(g, "K", spec)
                and (g.a - one).in_ideal(r) and g.c.in_ideal(r))
    if which == "B1(r)":
        return (subgroup_member(g, "K", spec)
                and (g.a - one).in_ideal(r) and g.b.in_ideal(r)
                and g.c.is_zero and (g.d - one).is_zero)
    if which == "KT(r)":
        alpha = LocalElement.from_int(p, spec.alpha, g.a.M if not g.a.is_zero else 4)
        return (subgroup_member(g, "K", spec)
                and (g.a - g.d).in_ideal(r)
                and (g.c + alpha * g.b).in_ideal(r))
    if which == "ZKT(r)":
        if g.det.is_zero:
            return False
        s2 = g.det.v
        if s2 % 2 != 0:
            return False
        return subgroup_member(g.scale_by_power(-s2 // 2), "KT(r)", spec, r)
    raise ValueError(f"unknown subgroup {which!r}")


def decompose_B1T(g: Mat2Local, spec: TorusSpec, side: str = "left"):
    """Factor g through the canonical inert torus.

    side="left":  g = [[u, m], [0, 1]] * t
    side="right": g = t * [[u, m], [0, 1]]
    with t in the torus.  Returns (u, m, t).  Always succeeds for invertible g:
    -alpha is a non-square, so neither c^2 + alpha*d^2 nor alpha*a^2 + c^2 can
    cancel (when the two terms share a valuation, the leading digit is
    u^2 + alpha*w^2, nonzero mod p).
    """
    a, b, c, d = g.entries()
    p = g.p
    alpha = _alpha_for(g, spec)
    det = g.det
    if det.is_zero:
        raise ValueError("matrix is not invertible")
    if side == "right":
        den = alpha * a * a + c * c
        u1 = alpha * det / den
        m1 = -((a * b * alpha + c * d) / den)
        bmat = Mat2Local(u1, m1, LocalElement.zero(p, u1.M), LocalElement.one(p, u1.M))
        t = g * bmat
        u = u1.inverse()
        m = -(m1 * u)
        return u, m, t
    if side == "left":
        den = alpha * det
        num, den2 = _left_terms(g, alpha)
        u2 = den2 / den
        m2 = -(num / den)
        bmat = Mat2Local(u2, m2, LocalElement.zero(p, u2.M), LocalElement.one(p, u2.M))
        t = bmat * g
        u = u2.inverse()
        m = -(m2 * u)
        return u, m, t
    raise ValueError("side must be 'left' or 'right'")


def _alpha_for(g: Mat2Local, spec: TorusSpec) -> LocalElement:
    return LocalElement.from_int(g.p, spec.alpha, max(e.M for e in g.entries() if not e.is_zero))


def _left_terms(g: Mat2Local, alpha: LocalElement) -> tuple[LocalElement, LocalElement]:
    """(ac + alpha bd, c^2 + alpha d^2): their quotient is m of the left factorization."""
    a, b, c, d = g.entries()
    return a * c + alpha * b * d, c * c + d * d * alpha


def left_m_valuation(g: Mat2Local, spec: TorusSpec) -> float:
    """v(m) of decompose_B1T(g, spec, side="left") for invertible g, math.inf
    when m = 0, read off the two valuations of _left_terms without factoring g."""
    num, den2 = _left_terms(g, _alpha_for(g, spec))
    return _INF if num.is_zero else num.v - den2.v


def reassemble_B1T(u: LocalElement, m: LocalElement, t: Mat2Local, side: str = "left") -> Mat2Local:
    bmat = Mat2Local(u, m, LocalElement.zero(u.p, u.M), LocalElement.one(u.p, u.M))
    return bmat * t if side == "left" else t * bmat


def hensel_sqrt(r: LocalElement) -> LocalElement:
    """Square root of a unit square by Hensel lifting (p odd)."""
    if r.is_zero or r.v != 0:
        raise ValueError("hensel_sqrt expects a unit")
    p, M = r.p, r.M
    r0 = r.u % p
    x = next((x for x in range(1, p) if x * x % p == r0), None)
    if x is None:
        raise ValueError("not a square mod p")
    pM = p**M
    for _ in range(max(1, math.ceil(math.log2(M))) + 1):
        x = (x + r.u * pow(x, -1, pM)) * pow(2, -1, pM) % pM
    assert x * x % pM == r.u
    return LocalElement(p, 0, x, M)


def canonicalize_torus(alpha: Fraction | int, beta: Fraction | int, gamma: Fraction | int,
                       p: int, M: int = 8):
    """Conjugate the inert torus of the symmetric matrix S_{alpha,beta,gamma}
    into canonical form.

    Requires delta = beta^2 - 4*alpha*gamma to be a unit non-square.  Returns
    (g, alpha_prime) with g * T_S * g^-1 = T_{alpha_prime,0,1}.
    """
    al = LocalElement.from_rational(p, Fraction(alpha), M)
    be = LocalElement.from_rational(p, Fraction(beta), M)
    ga = LocalElement.from_rational(p, Fraction(gamma), M)
    delta = be * be - LocalElement.from_int(p, 4, M) * al * ga
    if delta.is_zero or delta.v != 0 or is_square_mod_p(delta.u, p):
        raise ValueError("delta must be a unit non-square (inert, desk scope)")
    target = canonical_alpha(p)
    if (be.is_zero or be.v >= M) and ga.agrees_with(LocalElement.one(p, ga.M)):
        # already canonical: leave it alone up to the allowed diagonal freedom
        return Mat2Local.identity(p, M), al.u % p**M
    # gamma is forced to be a unit: gamma = 0 mod p would make delta a square mod p
    if ga.is_zero or ga.v != 0:
        raise ValueError("gamma must be a unit when delta is a unit non-square")
    two_inv = LocalElement.from_rational(p, Fraction(1, 2), M)
    # h kills the cross term: t(h) S h = diag(-delta/(4 gamma), gamma)
    h = Mat2Local(LocalElement.one(p, M), LocalElement.zero(p, M),
                  -(be * two_inv / ga), LocalElement.one(p, M))
    lam1 = -(delta / (LocalElement.from_int(p, 4, M) * ga))
    lam2 = ga
    ratio = lam1 / lam2
    # ratio / target is a unit square: both have non-square negatives
    nsq = ratio / LocalElement.from_int(p, target, M)
    nroot = hensel_sqrt(nsq)
    k = h * a_mat(nroot.inverse())
    return k.inverse(), target


def torus_conjugation_matrix(alpha1: int, alpha2: int, p: int, M: int = 8) -> Mat2Local:
    """Diagonal a(y), y a unit, conjugating T_{alpha2,0,1} into T_{alpha1,0,1}."""
    r = LocalElement.from_rational(p, Fraction(alpha2, alpha1), M)
    y = hensel_sqrt(r)
    return a_mat(y)
