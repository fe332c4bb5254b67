"""The distinguished matrix coefficient, its convolution idempotency, and the
Whittaker function of a minimal vector: closed form plus an independent
integral-transform oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import ChiEvaluator, MinimalVectorSpec, chi_value
from .cosets import gl2_order, kt_support, mat_keys, random_kt_elements
from .errors import NotInSupport
from .matgroups import Mat2Local, a_mat, decompose_B1T, n_mat
from .residues import LocalElement, UnitRoot, psi


def matrix_coefficient(mv: MinimalVectorSpec, g: Mat2Local) -> complex:
    """Phi_0(g): chi(g) on the compact-mod-center group, zero elsewhere.

    Normalized so Phi_0(1) = 1.
    """
    try:
        return chi_value(mv, g).to_complex()
    except NotInSupport:
        return 0.0


def coefficient_density(mv: MinimalVectorSpec) -> Fraction:
    """vol of the support inside the maximal compact: exact index computation."""
    p, n = mv.p, mv.n
    supp_size = (p ** (4 * n) - p ** (4 * n - 2)) * p ** (2 * n)  # torus units x block
    return Fraction(supp_size, gl2_order(p, 2 * n))


@dataclass
class ConvolutionReport:
    density: Fraction
    pairs_checked: int
    closure_violations: int
    multiplicativity_violations: int
    norm_square: Fraction  # integral of |Phi_0|^2 over the maximal compact

    @property
    def ok(self) -> bool:
        return self.closure_violations == 0 and self.multiplicativity_violations == 0


def convolution_check(mv: MinimalVectorSpec, mode: str = "exhaustive",
                      pairs: int = 10**5, seed: int = 0,
                      chunk: int = 256) -> ConvolutionReport:
    """Verify the idempotent law (Phi_0 * Phi_0)(h) = delta * Phi_0(h):
    the support is closed under products and chi-exponents add, which makes
    every term of the convolution sum equal, so the law holds with the exact
    density delta = [support : maximal compact].
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    pm = p ** (2 * n)
    ev = ChiEvaluator.build(mv)
    delta = coefficient_density(mv)
    closure_bad = 0
    mult_bad = 0
    if mode == "exhaustive":
        supp = kt_support(spec)
        exps = ev.exponents(supp)
        key_to_exp = np.full(pm**4, -1, dtype=np.int64)
        key_to_exp[mat_keys(supp, pm)] = exps
        S = len(supp)
        checked = 0
        for lo in range(0, S, chunk):
            left = supp[lo:lo + chunk]
            prod = np.einsum("aij,bjk->abik", left, supp) % pm
            pk = key_to_exp[mat_keys(prod, pm)].reshape(len(left), S)
            closure_bad += int((pk < 0).sum())
            want = (exps[lo:lo + chunk, None] + exps[None, :]) % ev.L
            mult_bad += int(((pk != want) & (pk >= 0)).sum())
            checked += len(left) * S
    elif mode == "random":
        rng = np.random.default_rng(seed)
        g1 = random_kt_elements(spec, pairs, rng)
        g2 = random_kt_elements(spec, pairs, rng)
        prod = np.einsum("sij,sjk->sik", g1, g2) % pm
        in_supp = ev.support_mask(prod)
        closure_bad = int((~in_supp).sum())
        want = (ev.exponents(g1) + ev.exponents(g2)) % ev.L
        got = ev.exponents(prod)
        mult_bad = int((got[in_supp] != want[in_supp]).sum())
        checked = pairs
    else:
        raise ValueError("mode must be 'exhaustive' or 'random'")
    # |chi| = 1 on the support, so the L2 mass equals the support volume
    return ConvolutionReport(delta, checked, closure_bad, mult_bad, delta)


# -- Whittaker function ------------------------------------------------------

@dataclass
class WhittakerValue:
    in_support: bool
    magnitude: float
    phase: UnitRoot | None

    def to_complex(self) -> complex:
        if not self.in_support:
            return 0.0
        return self.magnitude * self.phase.to_complex()


def whittaker_closed(mv: MinimalVectorSpec, g: Mat2Local) -> WhittakerValue:
    """Closed form: factor g = [[y, x], [0, 1]] t with t in the torus; the value
    is sqrt((q-1) q^(n-1)) psi(x) theta(t) when y lies in the single coset
    p^(-2n) * b * (1 + p^n) with b = -a_theta * alpha, and zero otherwise.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    y, x, t = decompose_B1T(g, spec, side="left")
    mag = math.sqrt((p - 1) * p ** (n - 1))
    ys = y.scale_by_power(2 * n)
    if not (ys.is_unit() and y.v == -2 * n):
        return WhittakerValue(False, 0.0, None)
    if (ys.residue(n) - mv.support_unit()) % p**n != 0:
        return WhittakerValue(False, 0.0, None)
    from .matgroups import torus_extract
    z = torus_extract(t, spec)
    phase = psi(x) * mv.theta.value((z.a.residue(2 * n), z.b.residue(2 * n)))
    return WhittakerValue(True, mag, phase)


def whittaker_oracle(mv: MinimalVectorSpec, g: Mat2Local,
                     level: int | None = None, low: int | None = None) -> complex:
    """Independent route: the additive-twist transform of the matrix coefficient,

        W(g) = sum over x in p^(-low) o / p^L o of  p^(-L) Phi_0(a(c) n(x) g) psi(-x),

    with c = p^(2n) / (support unit), computed at truncation `level` L.
    The integrand has compact support in x, so the value is exact once the
    window [p^(-low), p^L] covers it; `low` defaults to a window derived from
    the valuation of the upper-triangular part of g (a truncation hint only —
    the value itself still comes from the transform).
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    L = level if level is not None else n + 2
    if low is None:
        low = n
        try:
            _, m, _ = decompose_B1T(g, spec, side="left")
            if not m.is_zero and m.v < -n:
                low = -int(m.v)
        except Exception:
            pass
    # generous working precision: products and cancellations inside the
    # decomposition must still determine residues mod p^(2n)
    M = max(spec.precision, 2 * n + L + low + 6)
    c = LocalElement.from_rational(p, Fraction(p ** (2 * n), mv.support_unit()), M)
    ac = a_mat(c)
    total = 0.0 + 0.0j
    weight = float(Fraction(1, p**L))
    for xi in range(p ** (L + low)):
        x = LocalElement.from_rational(p, Fraction(xi, p**low), M)
        h = ac * n_mat(x) * g
        val = matrix_coefficient(mv, h)
        if val != 0.0:
            total += weight * val * psi(-x).to_complex()
    return total


def support_profile(mv: MinimalVectorSpec, k: Mat2Local):
    """For a maximal-compact element k, the diagonal support of y -> W(a(y) k):
    the single unit class b mod p^n (at valuation -2n) where it is nonzero.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    z, m, t = decompose_B1T(k, spec, side="left")
    zs = z
    if not zs.is_unit():
        # k in the maximal compact always yields a unit here
        raise NotInSupport("unexpected non-unit leading factor")
    b = mv.support_unit() * pow(zs.residue(n), -1, p**n) % p**n
    return b


def whittaker_support_scan(mv: MinimalVectorSpec, k: Mat2Local, level: int | None = None):
    """Oracle for support_profile: sweep all unit classes y = p^(-2n) u and
    report which have a nonzero closed-form Whittaker value at a(y) k."""
    p, n = mv.p, mv.n
    M = mv.torus.precision + 2 * n
    hits = []
    for u in range(1, p**n):
        if u % p == 0:
            continue
        y = LocalElement(p, -2 * n, u, M)
        w = whittaker_closed(mv, a_mat(y) * k)
        if w.in_support:
            hits.append(u)
    return hits
