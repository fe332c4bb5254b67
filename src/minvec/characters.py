"""Characters of the quadratic unit group, the invariant a_theta, and the
character chi of the compact-mod-center group that pins down a minimal vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NoSolution, NotInSupport, SizeGuard
from .matgroups import Mat2Local, TorusSpec, decompose_B1T, subgroup_member, torus_extract
from .residues import UnitRoot, factorize, psi_numerator, unit_enumeration

STRUCTURE_BOUND = 10**5


# -- generic finite abelian groups ------------------------------------------

@dataclass
class AbelianPresentation:
    """Invariant-factor presentation of a finite abelian group with a full
    discrete-log table (element -> exponent tuple)."""

    generators: list
    orders: list[int]
    dlog: dict

    @property
    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        import math
        e = 1
        for d in self.orders:
            e = math.lcm(e, d)
        return e


def _group_pow(g, k, mul, one):
    out, base = one, g
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def _element_order(g, mul, one, n: int, primes: list[int]) -> int:
    e = n
    for p in primes:
        while e % p == 0 and _group_pow(g, e // p, mul, one) == one:
            e //= p
    return e


def _structure_gens(elements, mul, one):
    n = len(elements)
    if n == 1:
        return [], []
    primes = [q for q, _ in factorize(n)]
    best, best_ord = None, 0
    for g in elements:
        o = _element_order(g, mul, one, n, primes)
        if o > best_ord or (o == best_ord and g < best):
            best, best_ord = g, o
    g1, d1 = best, best_ord
    powers = [one]
    for _ in range(d1 - 1):
        powers.append(mul(powers[-1], g1))
    pow_index = {g: k for k, g in enumerate(powers)}
    # quotient by <g1>, cosets named by their minimal representative
    rep = {}
    for x in elements:
        rep[x] = min(mul(x, pk) for pk in powers)
    q_elements = sorted(set(rep.values()))
    q_mul = lambda a, b: rep[mul(a, b)]
    q_gens, q_orders = _structure_gens(q_elements, q_mul, rep[one])
    gens, orders = [g1], [d1]
    for x, d in zip(q_gens, q_orders):
        c = pow_index[_group_pow(x, d, mul, one)]
        assert c % d == 0  # d1 is the group exponent, forcing divisibility
        adjust = _group_pow(g1, (-(c // d)) % d1, mul, one)
        gens.append(mul(x, adjust))
        orders.append(d)
    return gens, orders


def abelian_structure(elements, mul, one, bound: int = STRUCTURE_BOUND) -> AbelianPresentation:
    """Invariant factors, generators, and a complete dlog table."""
    if len(elements) > bound:
        raise SizeGuard(f"group of order {len(elements)} exceeds the structure bound")
    n = len(elements)
    gens, orders = _structure_gens(sorted(elements), mul, one)
    dlog = {one: tuple(0 for _ in gens)}
    frontier = {one: tuple(0 for _ in gens)}
    for i, (g, d) in enumerate(zip(gens, orders)):
        new = dict(frontier)
        for x, e in frontier.items():
            cur = x
            for k in range(1, d):
                cur = mul(cur, g)
                ee = list(e)
                ee[i] = k
                new[cur] = tuple(ee)
        frontier = new
    if len(frontier) != n:
        raise NoSolution("generators failed to span the group")
    return AbelianPresentation(gens, orders, frontier)


# -- the quadratic unit group and its characters ----------------------------

def quad_unit_mul(p: int, m: int, delta: int):
    pm = p**m

    def mul(z, w):
        return ((z[0] * w[0] + delta * z[1] * w[1]) % pm,
                (z[0] * w[1] + z[1] * w[0]) % pm)

    return mul


def quad_unit_presentation(p: int, m: int, delta: int) -> AbelianPresentation:
    """Structure of the unit group of the quadratic extension's residue ring mod p^m."""
    elements = unit_enumeration(p, m, quadratic=True, delta=delta)
    return abelian_structure(elements, quad_unit_mul(p, m, delta), (1, 0))


@dataclass(frozen=True)
class ThetaChar:
    """A character of the quadratic unit group mod p^{2n}, given by its weights
    against the invariant-factor generators."""

    p: int
    m: int          # modulus exponent: elements live mod p^m, m = 2n
    delta: int
    weights: tuple[int, ...]
    presentation: AbelianPresentation = field(compare=False, hash=False)

    def value(self, z: tuple[int, int]) -> UnitRoot:
        e = self.presentation.dlog[z]
        r = sum(Fraction(w * k, d) for w, k, d in
                zip(self.weights, e, self.presentation.orders))
        return UnitRoot(r)

    def exponent_of(self, z: tuple[int, int], L: int) -> int:
        """value as an integer exponent in Z/L (L a multiple of the order)."""
        r = self.value(z).r * L
        assert r.denominator == 1
        return int(r) % L

    def is_trivial_on(self, z: tuple[int, int]) -> bool:
        return self.value(z).is_one

    def label(self) -> str:
        return ":".join(str(w) for w in self.weights)


def enumerate_theta(spec: TorusSpec, presentation: AbelianPresentation | None = None) -> list[ThetaChar]:
    """All characters of the quadratic unit group mod p^{2n} that are trivial on
    the scalar units and have exact depth 2n (nontrivial one level up)."""
    p, n = spec.p, spec.n
    m = 2 * n
    pres = presentation or quad_unit_presentation(p, m, spec.delta)
    pm = p**m
    # a generator of the cyclic scalar unit group (odd prime power modulus)
    gen0 = _primitive_root_mod_ppow(p, m)
    probe_scalar = (gen0, 0)
    probe_depth = (1 % pm, p ** (m - 1) % pm)
    out = []
    for w in itertools.product(*(range(d) for d in pres.orders)):
        th = ThetaChar(p, m, spec.delta, tuple(w), pres)
        if th.is_trivial_on(probe_scalar) and not th.is_trivial_on(probe_depth):
            out.append(th)
    return out


def _primitive_root_mod_ppow(p: int, m: int) -> int:
    pm = p**m
    order = pm - pm // p
    primes = [q for q, _ in factorize(order)]
    for g in range(2, pm):
        if g % p == 0:
            continue
        if all(pow(g, order // q, pm) != 1 for q in primes):
            return g
    raise NoSolution("no primitive root found")


# -- a_theta and the minimal-vector character -------------------------------

def _pairing_root(spec: TorusSpec, a: int, u0: int, u1: int) -> UnitRoot:
    """psi_E of p^{-n} * a*sqrt(delta) * (u0 + u1*sqrt(delta)):
    the trace is 2*a*u1*delta / p^n."""
    p, n = spec.p, spec.n
    return UnitRoot(Fraction(psi_numerator(2 * a * u1 * spec.delta) % p**n, p**n))


def verify_a_theta(theta: ThetaChar, a: int, spec: TorusSpec) -> bool:
    """Exhaustively check the defining identity of a_theta over o_E/p^n."""
    p, n = spec.p, spec.n
    pn, pm = p**n, p ** (2 * n)
    for u0 in range(pn):
        for u1 in range(pn):
            lhs = _pairing_root(spec, a, u0, u1)
            rhs = theta.value(((1 + pn * u0) % pm, (pn * u1) % pm))
            if lhs.r != rhs.r:
                return False
    return True


def solve_a_theta(theta: ThetaChar, spec: TorusSpec) -> int:
    """The unit a mod p^n matching theta on the depth-n filtration step.

    Brute force over all unit candidates, checking the full identity; raises
    if the solution is not unique.
    """
    sols = [a for a in unit_enumeration(spec.p, spec.n) if verify_a_theta(theta, a, spec)]
    if len(sols) != 1:
        raise NoSolution(f"expected a unique a_theta, found {len(sols)}")
    return sols[0]


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

    def support_unit(self) -> int:
        """The unit class a mod p^n indexing the diagonal support of the
        Whittaker function: -a_theta * alpha."""
        p, n = self.p, self.n
        return (-self.a_theta * self.torus.alpha) % p**n


def chi_value(mv: MinimalVectorSpec, g: Mat2Local) -> UnitRoot:
    """chi on its group: scalars times the depth-n torus-congruence subgroup.

    Raises NotInSupport outside.  Normalized with trivial value on the scalar
    p and on unit scalars.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    if g.det.is_zero or g.det.v % 2 != 0:
        raise NotInSupport("determinant valuation is odd or undetermined")
    g0 = g.scale_by_power(-int(g.det.v) // 2)
    if not subgroup_member(g0, "KT(r)", spec, n):
        raise NotInSupport("not in the torus-congruence subgroup at depth n")
    u, m, t = decompose_B1T(g0, spec, side="left")
    z = torus_extract(t, spec)
    pm = p ** (2 * n)
    tval = mv.theta.value((z.a.residue(2 * n), z.b.residue(2 * n)))
    m_res = m.residue(2 * n)
    assert m_res % p**n == 0
    bd = m_res // p**n
    psi_part = UnitRoot(Fraction(psi_numerator(-mv.a_theta * spec.alpha * bd) % p**n, p**n))
    return tval * psi_part


@dataclass
class ChiEvaluator:
    """Vectorized chi on integer matrices mod p^{2n} (assumed in GL2)."""

    mv: MinimalVectorSpec
    L: int
    theta_table: np.ndarray   # exponent in Z/L indexed by x*pm + y; -1 for non-units
    inv: np.ndarray

    @classmethod
    def build(cls, mv: MinimalVectorSpec) -> "ChiEvaluator":
        from .cosets import inverse_table
        import math
        p, n = mv.p, mv.n
        pm = p ** (2 * n)
        pres = mv.theta.presentation
        L = math.lcm(pres.exponent, p**n)
        # theta(z) = e(sum_i w_i k_i / d_i) for dlog(z) = (k_i): one integer product
        zs = np.array(list(pres.dlog), dtype=np.int64).reshape(-1, 2)
        ks = np.array(list(pres.dlog.values()), dtype=np.int64).reshape(len(zs), len(pres.orders))
        steps = np.array([w * (L // d) for w, d in zip(mv.theta.weights, pres.orders)],
                         dtype=np.int64)
        table = np.full(pm * pm, -1, dtype=np.int64)
        table[zs[:, 0] * pm + zs[:, 1]] = ks @ steps % L
        return cls(mv, L, table, inverse_table(pm, p))

    def support_mask(self, mats: np.ndarray) -> np.ndarray:
        from .cosets import kt_membership_mask
        return kt_membership_mask(mats, self.mv.torus)

    def exponents(self, mats: np.ndarray) -> np.ndarray:
        """chi as an exponent in Z/L.  Only valid on support rows."""
        p, n = self.mv.p, self.mv.n
        alpha = self.mv.torus.alpha
        pm, pn = p ** (2 * n), p**n
        a, b = mats[:, 0, 0] % pm, mats[:, 0, 1] % pm
        c, d = mats[:, 1, 0] % pm, mats[:, 1, 1] % pm
        det = (a * d - b * c) % pm
        den_inv = self.inv[(alpha * det) % pm]
        u2 = (c * c + alpha * d * d) % pm * den_inv % pm
        m2 = (-(a * c + alpha * b * d)) % pm * den_inv % pm
        x = (u2 * a + m2 * c) % pm
        y = (u2 * b + m2 * d) % pm
        m = (-m2) % pm * self.inv[u2] % pm
        bd = m // pn       # support rows have m divisible by p^n
        th = self.theta_table[x * pm + y]
        psi_e = psi_numerator(-self.mv.a_theta * alpha * bd) % pn * (self.L // pn)
        return (th + psi_e) % self.L


def character_table_rows(mv: MinimalVectorSpec):
    """Rows (x, y, exponent numerator, exponent denominator) of theta over the
    quadratic unit group mod p^{2n}, sorted."""
    rows = []
    for z in sorted(mv.theta.presentation.dlog):
        r = mv.theta.value(z).r
        rows.append((z[0], z[1], r.numerator, r.denominator))
    return rows
