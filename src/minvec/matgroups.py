"""2x2 matrix groups over truncated p-adics: the canonical inert torus, its
congruence subgroup K_T(p^r), and the left factorization g = [[y, x], [0, 1]] t
through the torus that the characters and Whittaker functions are read from.

The torus is read as pairs, as the array route reads it: x + y*sqrt(-alpha),
the matrix [[x, y], [-alpha*y, x]], is the pair (x, y) that decompose_B1T
returns for its torus factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .residues import LocalElement, _require_odd_prime, is_square_mod_p


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
    alpha: int = field(init=False)       # canonical_alpha(p)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("level n must be >= 1")
        _require_odd_prime(self.p)
        object.__setattr__(self, "alpha", canonical_alpha(self.p))

    @property
    def delta(self) -> int:
        return -self.alpha

    @property
    def precision(self) -> int:
        """Default working precision for level-n computations."""
        return 2 * self.n + 4


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
        """ad - bc, computed on first read unless the matrix was built carrying
        it (scale_by_power, left_translate); not a field, so == and hash ignore it."""
        return self.a * self.d - self.b * self.c

    def _carrying(self, det: LocalElement) -> "Mat2Local":
        """This matrix with its det already read as `det`, a value of ad - bc."""
        self.__dict__["det"] = det
        return self

    @classmethod
    def from_rationals(cls, p: int, entries, M: int) -> "Mat2Local":
        a, b, c, d = (LocalElement.from_rational(p, Fraction(e), M) for e in entries)
        return cls(a, b, c, d)

    @classmethod
    def identity(cls, p: int, M: int) -> "Mat2Local":
        one, zero = LocalElement.one(p, M), LocalElement.zero(p, M)
        return cls(one, zero, zero, one)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, o: "Mat2Local") -> "Mat2Local":
        return Mat2Local(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                         self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def scale_by_power(self, k: int) -> "Mat2Local":
        """p^k times the matrix.  A det already read is carried as p^(2k) det:
        each product of two scaled entries shifts by 2k and keeps its unit and
        precision, so that is exactly ad - bc of the scaled entries."""
        out = Mat2Local(*(e.scale_by_power(k) for e in self.entries()))
        det = self.__dict__.get("det")
        return out if det is None else out._carrying(det.scale_by_power(2 * k))

    def left_translate(self, y: LocalElement, x: LocalElement) -> "Mat2Local":
        """a(y) n(x) times this matrix, for y and x known to one precision M,
        read from its entries and carrying det = y det:

            [[y (a + x c), y (b + x d)], [c, d]].

        Each entry has the valuation, unit and precision of the same entry of
        a_mat(y) * n_mat(x) * self: there the top row is y a + (y x) c, and
        the bottom row is 0 a + 1 c (and 0 b + 1 d), whose zero term caps
        its precision at min(M, a.M, c.M)."""
        a, b, c, d = self.entries()
        M = y.M
        return Mat2Local(y * (a + x * c), y * (b + x * d), c._truncate(min(M, a.M, c.M)),
                         d._truncate(min(M, b.M, d.M)))._carrying(y * self.det)


def a_mat(y: LocalElement) -> Mat2Local:
    one, zero = LocalElement.one(y.p, y.M), LocalElement.zero(y.p, y.M)
    return Mat2Local(y, zero, zero, one)


def n_mat(x: LocalElement) -> Mat2Local:
    one, zero = LocalElement.one(x.p, x.M), LocalElement.zero(x.p, x.M)
    return Mat2Local(one, x, zero, one)


def subgroup_member(g: Mat2Local, spec: TorusSpec, r: int) -> bool:
    """Whether g lies in K_T(p^r): integral with unit determinant, a = d and
    c = -alpha*b mod p^r, read on the entries' residues mod p^r as the array
    route (cosets.kt_membership_mask) reads them.  PrecisionError when an
    entry is not known mod p^r."""
    if not all(e.is_integral() for e in g.entries()) or g.det.is_zero or g.det.v != 0:
        return False
    a, b, c, d = (e.residue(r) for e in g.entries())
    return a == d and (c + spec.alpha * b) % spec.p**r == 0


def decompose_B1T(g: Mat2Local, spec: TorusSpec, side: str = "left"):
    """Factor g = [[u, m], [0, 1]] * t with t in the canonical inert torus.

    Returns (u, m, t) with t as its pair (x, y), read in closed form: with
    q = c^2 + alpha d^2,

        t = (d, -c/alpha) = [[d, -c/alpha], [c, d]],
        u = alpha det / q,  m = (ac + alpha bd) / q,

    and [[u, m], [0, 1]] t gives back the top row (a, b):
        ud + mc = a (alpha d^2 + c^2) / q = a,
        -uc/alpha + md = b (c^2 + alpha d^2) / q = b.
    Always succeeds for invertible g: -alpha is a non-square, so q cannot
    cancel (when c^2 and alpha d^2 share a valuation, the leading digit of
    q is x^2 + alpha y^2 for units x, y, nonzero mod p).  The left
    factorization is the only one; side accepts nothing but "left".
    """
    if side != "left":
        raise ValueError(f"side must be 'left', got {side!r}")
    det = g.det
    if det.is_zero:
        raise ValueError("matrix is not invertible")
    a, b, c, d = g.entries()
    alpha = _alpha_for(g, spec)
    q_inv = (c * c + d * d * alpha).inverse()
    return alpha * det * q_inv, (a * c + alpha * b * d) * q_inv, (d, -(c * alpha.inverse()))


def _alpha_for(g: Mat2Local, spec: TorusSpec) -> LocalElement:
    return LocalElement(g.p, 0, spec.alpha, max(e.M for e in g.entries() if not e.is_zero))


def reassemble_B1T(u: LocalElement, m: LocalElement, t: tuple[LocalElement, LocalElement],
                   spec: TorusSpec) -> Mat2Local:
    """[[u, m], [0, 1]] [[x, y], [-alpha*y, x]] for the pair t = (x, y): the
    product that decompose_B1T factors."""
    x, y = t
    alpha = LocalElement(y.p, 0, spec.alpha, y.M)
    return (Mat2Local(u, m, LocalElement.zero(u.p, u.M), LocalElement.one(u.p, u.M))
            * Mat2Local(x, y, -(alpha * y), x))
