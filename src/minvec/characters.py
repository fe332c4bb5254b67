"""Characters of the quadratic unit group, the invariant a_theta, and the
character chi of the compact-mod-center group that pins down a minimal vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cosets import all_distinct, inverse_table, mod
from .errors import NoSolution, NotInSupport, SizeGuard
from .matgroups import Mat2Local, TorusSpec, decompose_B1T, subgroup_member
from .residues import (ENUMERATION_BOUND, LocalElement, UnitRoot, factorize, psi_numerator,
                       unit_enumeration)

STRUCTURE_BOUND = 10**5


# -- the quadratic unit group and its characters ----------------------------

@dataclass
class AbelianPresentation:
    """The unit group of o_E/p^m as Z/d1 x Z/d2, with x + y*sqrt(delta) coded
    as x*p^m + y: the orders d1 and d2 of its two generators, and the
    discrete log indexed by code (rows of -1 at non-units), which every
    reader looks up."""

    modulus: int                 # p^m
    orders: list[int]
    log_table: np.ndarray = field(repr=False, compare=False)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders)


def _mul(z, w, delta: int, mod: int) -> np.ndarray:
    """Products of x + y*sqrt(delta) mod `mod`, the pairs (x, y) stacked on axis 0."""
    return np.stack([(z[0] * w[0] + delta * z[1] * w[1]) % mod,
                     (z[0] * w[1] + z[1] * w[0]) % mod])


def _pow(z, e, delta: int, mod: int) -> np.ndarray:
    """z**e by square-and-multiply over the bits of the exponent (array) e."""
    e = np.asarray(e)
    shape = np.broadcast_shapes(np.shape(z)[1:], e.shape)
    out = np.stack([np.ones(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)])
    while e.any():
        out = np.where(e & 1, _mul(out, z, delta, mod), out)
        z, e = _mul(z, z, delta, mod), e >> 1
    return out


def quad_unit_presentation(p: int, m: int, delta: int) -> AbelianPresentation:
    """Structure of the unit group G of o_E/p^m, o_E = Z_p[sqrt(delta)] for a
    non-square delta, read from its known decomposition: G is mu_(p^2-1)
    times the 1-units, which are free over Z/q (q = p^(m-1)) on 1 + p and
    1 + p*sqrt(delta).  The generators are those of the invariant-factor
    search over the ascending unit codes: g1 is the least unit of the largest
    order (p^2 - 1) q, x the least unit whose coset generates G/<g1>
    (cyclic of order q), and g2 = x g1^(-k) with x^q = g1^(qk), so
    G = <g1> x <g2> = Z/((p^2 - 1) q) x Z/q.  Raises NoSolution if delta is
    a square mod p."""
    if p ** (2 * m) > ENUMERATION_BOUND:
        raise SizeGuard(f"unit enumeration for p={p}, m={m} exceeds configured bound")
    P, q, pm = p * p - 1, p ** (m - 1), p**m
    if P * q * q > STRUCTURE_BOUND:
        raise SizeGuard(f"group of order {P * q * q} exceeds the structure bound")
    # the q-th powers of the units are the Teichmueller roots mu_P; t is the
    # first of them that generates mu_P (with none, the bijection check fails)
    roots = _pow(np.stack(np.divmod(np.arange(1, P + 1), p)), q, delta, pm)
    generates = np.ones(P, dtype=bool)
    for ell, _ in factorize(P):
        r = _pow(roots, P // ell, delta, pm)
        generates &= (r[0] != 1) | (r[1] != 0)
    t = roots[:, np.argmax(generates)]
    # codes[a, b, c] = t^a (1 + p)^b (1 + p sqrt(delta))^c, a bijection onto G
    ts = _pow(t, np.arange(P), delta, pm)
    ones = _mul(_pow(np.array([1 + p, 0]), np.arange(q), delta, pm)[:, :, None],
                _pow(np.array([1, p]), np.arange(q), delta, pm)[:, None, :], delta, pm)
    coords = _mul(ts[:, :, None, None], ones[:, None], delta, pm)
    codes = coords[0] * pm + coords[1]
    index = np.full(pm * pm, -1)
    index[codes.ravel()] = np.arange(codes.size)
    unit = np.arange(pm) % p != 0
    if not np.array_equal(index >= 0, (unit[:, None] | unit[None, :]).ravel()):
        raise NoSolution(f"the unit coordinates mod {p}^{m} are not a bijection "
                         f"(is delta={delta} a square mod p?)")
    A, B, C = np.ogrid[:P, :q, :q]
    g1 = codes[(np.gcd(A, P) == 1) & (np.gcd(np.gcd(B, C), q) == 1)].min()
    a1, b1, c1 = np.unravel_index(index[g1], codes.shape)
    # the cosets of <g1> are the levels of c1 b - b1 c mod q, each named by its least unit
    names = np.full(q, pm * pm)
    np.minimum.at(names, np.broadcast_to((c1 * B - b1 * C) % q, codes.shape).ravel(),
                  codes.ravel())
    x = names[np.gcd(np.arange(q), q) == 1].min()
    ax, bx, cx = np.unravel_index(index[x], codes.shape)
    k = ax * pow(int(a1), -1, P) % P
    b2, c2 = (bx - k * b1) % q, (cx - k * c1) % q
    e1, e2 = np.divmod(np.arange(P * q * q), q)
    elements = codes[e1 * a1 % P, (e1 * b1 + e2 * b2) % q, (e1 * c1 + e2 * c2) % q]
    if not all_distinct(elements):
        raise NoSolution(f"the generators failed to span the units mod {p}^{m}")
    log_table = np.full((pm * pm, 2), -1, dtype=np.int64)
    log_table[elements] = np.stack([e1, e2], axis=1)
    return AbelianPresentation(pm, [P * q, q], log_table)


@dataclass(frozen=True)
class ThetaChar:
    """A character of the quadratic unit group mod p^{2n}, given by its weights
    against the invariant-factor generators.  Equality compares the weights
    alone, so it means something only within one torus's presentation."""

    weights: tuple[int, ...]
    presentation: AbelianPresentation = field(compare=False, hash=False)

    def value(self, z: tuple[int, int]) -> UnitRoot:
        """theta at the unit z = (x, y), x + y*sqrt(delta), read from its own
        log_table row (k_i): e(sum_i w_i k_i / d_i), summed in integers over the
        exponent E as sum_i w_i k_i (E / d_i) mod E.  The array route, table,
        is never read here, so the two stay independent."""
        pres = self.presentation
        e = pres.log_table[z[0] * pres.modulus + z[1]].tolist()
        if e[0] < 0:
            raise ValueError(f"{z} is not a unit mod {pres.modulus}")
        E = pres.exponent
        return UnitRoot.exact(sum(w * k * (E // d) for w, k, d in
                                  zip(self.weights, e, pres.orders)), E)

    def table(self, L: int) -> np.ndarray:
        """theta as exponents in Z/L, for L a multiple of the presentation's
        exponent, indexed by unit code x*p^m + y; -1 at non-units."""
        pres = self.presentation
        # theta(z) = e(sum_i w_i k_i / d_i) for log(z) = (k_i): one integer product
        steps = np.array([w * (L // d) for w, d in zip(self.weights, pres.orders)],
                         dtype=np.int64)
        return np.where(pres.log_table[:, 0] < 0, -1, pres.log_table @ steps % L)

    def label(self) -> str:
        return ":".join(str(w) for w in self.weights)


def enumerate_theta(spec: TorusSpec) -> list[ThetaChar]:
    """All characters of the quadratic unit group mod p^{2n} that are trivial on
    the scalar units and have exact depth 2n (nontrivial one level up), in
    the lexicographic order of their weights."""
    p, m = spec.p, 2 * spec.n
    pres = quad_unit_presentation(p, m, spec.delta)
    (d1, d2), pm = pres.orders, pres.modulus
    # the least primitive root mod p^m generates the scalar units (their
    # codes are x*p^m), and (1, p^(m-1)) probes the depth
    scalars = np.flatnonzero(np.arange(pm) % p) * pm
    k1, k2 = pres.log_table[scalars].T
    order = np.lcm(d1 // np.gcd(k1, d1), d2 // np.gcd(k2, d2))
    probes = pres.log_table[[scalars[np.argmax(order == pm - pm // p)], pm + p ** (m - 1)]]
    # theta(z) = e((w1 k1 + w2 k2 d1/d2) / d1) over the whole weight grid
    w1, w2 = np.divmod(np.arange(d1 * d2), d2)
    phases = np.stack([w1, w2 * (d1 // d2)], axis=1) @ probes.T % d1
    keep = (phases[:, 0] == 0) & (phases[:, 1] != 0)
    return [ThetaChar(w, pres) for w in zip(w1[keep].tolist(), w2[keep].tolist())]


# -- a_theta and the minimal-vector character -------------------------------

def verify_a_theta(theta: ThetaChar, a, spec: TorusSpec):
    """Exhaustively check the defining identity of a_theta over o_E/p^n:
    psi(Tr z) = theta(1 + p^n u) at z = p^{-n} * a*sqrt(delta) * u for every
    u = u0 + u1*sqrt(delta), whose trace is 2*a*u1*delta / p^n.  a is one
    candidate or an array of them, and the answer has its shape."""
    p, n = spec.p, spec.n
    pn, pm = p**n, p ** (2 * n)
    u0, u1 = np.divmod(np.arange(pn * pn), pn)
    L = math.lcm(theta.presentation.exponent, pn)
    rhs = theta.table(L)[(1 + pn * u0) * pm + pn * u1]
    lhs = psi_numerator(2 * np.multiply.outer(a, u1) * spec.delta) % pn * (L // pn)
    return (lhs == rhs).all(axis=-1)


def solve_a_theta(theta: ThetaChar, spec: TorusSpec) -> int:
    """The unit a mod p^n matching theta on the depth-n filtration step.

    Brute force over all unit candidates, checking the full identity; raises
    if the solution is not unique.
    """
    candidates = np.array(unit_enumeration(spec.p, spec.n))
    sols = candidates[verify_a_theta(theta, candidates, spec)]
    if len(sols) != 1:
        raise NoSolution(f"expected a unique a_theta, found {len(sols)}")
    return int(sols[0])


@dataclass(frozen=True)
class MinimalVectorSpec:
    """All local data pinning down a minimal vector: the torus, the character
    theta of its units, and the resolved invariant a_theta."""

    torus: TorusSpec
    theta: ThetaChar
    a_theta: int

    @classmethod
    def build(cls, spec: TorusSpec, theta: ThetaChar) -> "MinimalVectorSpec":
        return cls(spec, theta, solve_a_theta(theta, spec))

    @property
    def p(self) -> int:
        return self.torus.p

    @property
    def n(self) -> int:
        return self.torus.n

    @property
    def conductor_exponent(self) -> int:
        return 4 * self.n

    @property
    def magnitude_squared(self) -> int:
        """phi(p^n) = (p - 1) p^(n - 1): |W(a(y))|^2 on the Whittaker
        function's support, and so |lambda'|^2 on the progression."""
        p, n = self.p, self.n
        return (p - 1) * p ** (n - 1)

    def support_unit(self) -> int:
        """The unit class a mod p^n indexing the diagonal support of the
        Whittaker function: -a_theta * alpha."""
        p, n = self.p, self.n
        return (-self.a_theta * self.torus.alpha) % p**n

    def theta_at(self, t: tuple[LocalElement, LocalElement]) -> UnitRoot:
        """theta at the torus element t = (x, y), x + y*sqrt(-alpha), as
        decompose_B1T returns it, read mod p^{2n}."""
        x, y = t
        m = 2 * self.n
        return self.theta.value((x.residue(m), y.residue(m)))

    @cached_property
    def chi_evaluator(self) -> "ChiEvaluator":
        """The vectorized chi of this spec, built on first use and kept on the spec."""
        return ChiEvaluator.build(self)


def chi_value(mv: MinimalVectorSpec, g: Mat2Local) -> UnitRoot:
    """chi on its group: scalars times the depth-n torus-congruence subgroup.

    Raises NotInSupport outside.  Normalized with trivial value on the scalar
    p and on unit scalars.  On the subgroup, chi is theta at the torus pair t
    of g0 = [[u, m], [0, 1]] t (decompose_B1T) times a psi phase of m.  The
    determinant is read once, on g (carried when g has one): g0 =
    p^(-v(det)/2) g carries p^(-v(det)) det, which subgroup_member and
    decompose_B1T then read.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    det = g.det
    if det.is_zero or det.v % 2 != 0:
        raise NotInSupport("determinant valuation is odd or undetermined")
    g0 = g.scale_by_power(-int(det.v) // 2)
    if not subgroup_member(g0, spec, n):
        raise NotInSupport("not in the torus-congruence subgroup at depth n")
    u, m, t = decompose_B1T(g0, spec)
    tval = mv.theta_at(t)
    m_res = m.residue(2 * n)
    assert m_res % p**n == 0
    bd = m_res // p**n
    return tval * UnitRoot.exact(psi_numerator(-mv.a_theta * spec.alpha * bd), p**n)


@dataclass
class ChiEvaluator:
    """Vectorized chi on integer matrices mod p^{2n}, read from its closed form.

    For g = [[a, b], [c, d]] the left factorization g = [[u, m], [0, 1]] t
    (decompose_B1T) has torus factor t = (x, y) = (d, -c/alpha),
    u = alpha det / q and m = (ac + alpha bd) / q with q = c^2 + alpha d^2;
    the product gives back the top row (a, b):
        ud + mc = a (alpha d^2 + c^2) / q = a,
        -uc/alpha + md = b (c^2 + alpha d^2) / q = b.
    So on the support chi(g) = theta(d, -c/alpha) psi(-a_theta alpha m / p^n):
    one lookup in tables over the pair (c, d), indexed by c*pm + d, and one
    over m."""

    mv: MinimalVectorSpec
    L: int
    theta_cd: np.ndarray   # theta(d, -c/alpha) in Z/L at c*pm + d; -1 where p | c, d
    m_a: np.ndarray        # m = a*m_a + b*m_b mod pm: m_a = c/q, m_b = alpha d/q
    m_b: np.ndarray        # (0 where q is not a unit)
    psi_m: np.ndarray      # psi(-a_theta alpha m / p^n) in Z/L at m, for p^n | m

    @classmethod
    def build(cls, mv: MinimalVectorSpec) -> "ChiEvaluator":
        p, n, alpha = mv.p, mv.n, mv.torus.alpha
        pm, pn = p ** (2 * n), p**n
        L = math.lcm(mv.theta.presentation.exponent, pn)
        c, d = np.divmod(np.arange(pm * pm, dtype=np.int64), pm)
        y = -c * pow(alpha, -1, pm) % pm
        q_inv = inverse_table(pm, p)[(c * c + alpha * d * d) % pm]
        # residues mod pm < 2^15, as p^(4n) <= ENUMERATION_BOUND for every
        # enumerated unit group mod p^(2n), so int16 holds m_a and m_b
        m_a, m_b = (v * q_inv % pm for v in (c, alpha * d))
        bd = np.arange(pm) // pn
        psi_m = psi_numerator(-mv.a_theta * alpha * bd) % pn * (L // pn)
        return cls(mv, L, mv.theta.table(L)[d * pm + y].astype(np.int32),
                   m_a.astype(np.int16), m_b.astype(np.int16), psi_m.astype(np.int32))

    def exponents(self, a, b, c, d) -> np.ndarray:
        """chi as an exponent in Z/L at the matrices [[a, b], [c, d]], given as
        entry columns: a an array with one row per matrix, in whose dtype
        (int32 or int64) the exponents come, and b, c, d integer arrays or
        ints that broadcast against it, as mul_mod takes them.  The entries
        must be residues in [0, p^(2n)), as those of every support array and
        mul_mod product are.  Only valid on support rows; every lookup stays
        in range on any such matrix."""
        pm = self.mv.p ** (2 * self.mv.n)
        cd = c * pm + d
        # a*m_a + b*m_b < 2 pm^2 = 2 p^(4n) <= 2 ENUMERATION_BOUND: int32 holds it
        m = mod(a * self.m_a.take(cd) + b * self.m_b.take(cd), pm)
        out = mod(self.theta_cd.take(cd) + self.psi_m.take(m), self.L)
        return out.astype(a.dtype, copy=False)


def character_table_rows(mv: MinimalVectorSpec):
    """Rows (x, y, exponent numerator, exponent denominator) of theta over the
    quadratic unit group mod p^{2n}, sorted."""
    pres = mv.theta.presentation
    E = pres.exponent
    table = mv.theta.table(E)
    codes = np.flatnonzero(table >= 0)
    num = table[codes]
    g = np.gcd(num, E)
    x, y = np.divmod(codes, pres.modulus)
    return list(zip(x.tolist(), y.tolist(), (num // g).tolist(), (E // g).tolist()))
