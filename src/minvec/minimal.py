"""The distinguished matrix coefficient, its convolution idempotency, and the
Whittaker function of a minimal vector: closed form plus an independent
integral-transform oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import MinimalVectorSpec, chi_value
from .cosets import (entry_columns, gl2_order, kt_membership_mask, kt_support, mat_keys, mod,
                     mul_mod, product_keys, random_kt_elements)
from .errors import (ConfigError, NotInSupport, NumericalError, PrecisionError, SizeGuard,
                     require_int)
from .matgroups import Mat2Local, a_mat, decompose_B1T
from .residues import ENUMERATION_BOUND, LocalElement, UnitRoot, psi, psi_numerator


# bytes of one (block, S) temporary in the exhaustive pair scan, and of one
# block's arrays in the random scan: under 128 bytes a pair (draws, products,
# exponents and their temporaries)
PAIR_BLOCK_BYTES = 1 << 21
RANDOM_PAIR_BLOCK = PAIR_BLOCK_BYTES // 128


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


def exhaustive_fits(p: int, n: int) -> bool:
    """Whether the exhaustive pair scan fits: it keys matrices mod p^(2n) by
    their base-p^(2n) digits, p^(8n) keys (about the order of GL2(Z/p^(2n)))."""
    return p ** (8 * n) <= ENUMERATION_BOUND


def convolution_check(mv: MinimalVectorSpec, mode: str = "exhaustive",
                      pairs: int = 10**5, seed: int = 0) -> ConvolutionReport:
    """Verify the idempotent law (Phi_0 * Phi_0)(h) = delta * Phi_0(h):
    the support is closed under products and chi-exponents add, which makes
    every term of the convolution sum equal, so the law holds with the exact
    density delta = [support : maximal compact].

    The exhaustive mode checks every ordered pair of the support, one block of
    left factors at a time (PAIR_BLOCK_BYTES per temporary); it raises
    SizeGuard unless exhaustive_fits(p, n).  The random mode checks `pairs`
    pairs of independent uniform support elements drawn from `seed`,
    RANDOM_PAIR_BLOCK pairs at a time: a block draws its left factors, then its
    right ones, each as one bounded draw of support indices
    (random_kt_elements), so memory does not grow with `pairs`.
    ConfigError, before any table or draw, for an unknown mode, or a `pairs`
    or `seed` that is not an integer >= 1 or >= 0.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    pm = p ** (2 * n)
    if mode not in ("exhaustive", "random"):
        raise ConfigError(f"mode must be 'exhaustive' or 'random', got {mode!r}")
    if mode == "random":
        pairs = require_int("random pair count", pairs, 1)
        seed = require_int("random pair seed", seed, 0)
    if mode == "exhaustive" and not exhaustive_fits(p, n):
        raise SizeGuard(f"exhaustive pair scan for (p, n) = ({p}, {n}) needs p^{8 * n} keys, "
                        "beyond the enumeration bound")
    ev = mv.chi_evaluator
    delta = coefficient_density(mv)
    if mode == "exhaustive":
        supp = kt_support(spec)
        exps = ev.exponents(*entry_columns(supp))
        # exhaustive_fits makes p^(8n) <= ENUMERATION_BOUND < 2^31, so int32
        # holds every key; L divides the order of the unit group mod p^(2n),
        # below p^(4n) < 2^12, so int16 holds every sum of two exponents
        key_to_exp = np.full(pm**4, -1, dtype=np.int16)
        key_to_exp[mat_keys(supp, pm)] = exps
        exps = exps.astype(np.int16)
        S = len(supp)
        block = max(1, PAIR_BLOCK_BYTES // (S * supp.itemsize))
        closure_bad = mismatched = 0
        for lo in range(0, S, block):
            got = key_to_exp[product_keys(supp[lo:lo + block], supp, pm)]
            want = mod(exps[lo:lo + block, None] + exps[None, :], ev.L)
            closure_bad += int(np.count_nonzero(got < 0))
            mismatched += int(np.count_nonzero(got != want))
        # a product outside the support (-1) never equals an exponent in Z/L
        mult_bad = mismatched - closure_bad
        checked = S * S
    else:
        rng = np.random.default_rng(seed)
        closure_bad = mult_bad = 0
        for lo in range(0, pairs, RANDOM_PAIR_BLOCK):
            size = min(RANDOM_PAIR_BLOCK, pairs - lo)
            g1 = entry_columns(random_kt_elements(spec, size, rng))
            g2 = entry_columns(random_kt_elements(spec, size, rng))
            prod = mul_mod(g1, g2, pm)
            in_supp = kt_membership_mask(spec, *prod)
            closure_bad += size - int(np.count_nonzero(in_supp))
            want = mod(ev.exponents(*g1) + ev.exponents(*g2), ev.L)
            mult_bad += int(np.count_nonzero((ev.exponents(*prod) != want) & in_supp))
        checked = pairs
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
    """Closed form: factor g = [[y, x], [0, 1]] t with t the torus pair of
    decompose_B1T; the value is sqrt(phi(p^n)) psi(x) theta(t)
    (mv.magnitude_squared) when y lies in the single coset
    p^(-2n) * b * (1 + p^n) with b = -a_theta * alpha, and zero otherwise.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    y, x, t = decompose_B1T(g, spec)
    mag = math.sqrt(mv.magnitude_squared)
    if y.v != -2 * n or (y.scale_by_power(2 * n).residue(n) - mv.support_unit()) % p**n:
        return WhittakerValue(False, 0.0, None)
    phase = psi(x) * mv.theta_at(t)
    return WhittakerValue(True, mag, phase)


def oracle_window(mv: MinimalVectorSpec, g: Mat2Local) -> int:
    """The default window exponent `low` of whittaker_oracle: -v(m) when the
    left factorization g = [[u, m], [0, 1]] t has v(m) < -n, and n otherwise
    (m = 0 included), with m read from decompose_B1T."""
    _, m, _ = decompose_B1T(g, mv.torus)
    return -m.v if m.v < -mv.n else mv.n


def whittaker_oracle(mv: MinimalVectorSpec, g: Mat2Local,
                     level: int | None = None, low: int | None = None) -> complex:
    """Independent route: the additive-twist transform of the matrix coefficient,

        W(g) = sum over x in p^(-low) o / p^L o of  p^(-L) Phi_0(a(c) n(x) g) psi(-x),

    with c = p^(2n) / (support unit), computed at truncation `level` L.
    The integrand has compact support in x, so the value is exact once the
    window [p^(-low), p^L] covers it; `low` defaults to a window derived from
    the valuation of the upper-triangular part of g (a truncation hint only —
    the value itself still comes from the transform).

    The window x = xi / p^low, 0 <= xi < p^(L+low), is one integer pass:
    det(a(c) n(x) g) = c det g fixes s = v(det) / 2 for every x, and each entry
    of h0 = p^(-s) a(c) n(x) g is affine in xi.  Scaled by p^E to integral
    coefficients, the entries are known mod p^(E+2n), which decides
    integrality and gives h0 mod p^(2n), as the top row's columns and the
    bottom row's two ints, for kt_membership_mask and ChiEvaluator.

    At the first support point x0 the exponent is checked against the scalar
    matrix_coefficient; a mismatch raises NumericalError.  The scalar route
    gets a(c) n(x0) g built from its entries, [[c (a + x0 c_g), c (b + x0 d_g)],
    [c_g, d_g]], carrying det = c det g (Mat2Local.left_translate), so
    chi_value reads no determinant from entries.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    if g.det.is_zero:
        return 0j
    L = level if level is not None else n + 2
    if low is None:
        low = oracle_window(mv, g)
    v_det = 2 * n + int(g.det.v)
    if v_det % 2:
        return 0j
    s = v_det // 2
    # (entry of g, power of p, times the unit part of c) for A0, A1, B0, B1, C, D in
    # h0 = [[A0 + A1 xi, B0 + B1 xi], [C, D]]
    terms = [(g.a, 2 * n - s, True), (g.c, 2 * n - s - low, True),
             (g.b, 2 * n - s, True), (g.d, 2 * n - s - low, True),
             (g.c, -s, False), (g.d, -s, False)]
    for e, k, _ in terms:
        if not e.is_zero and e.v + k + e.M < 2 * n:
            raise PrecisionError(f"h0 mod p^{2 * n} undetermined: a term of h0 is known "
                                 f"only mod p^{e.v + k + e.M}")
    E = max([0] + [-(e.v + k) for e, k, _ in terms if not e.is_zero])
    pE, pm, pl = p**E, p ** (2 * n), p**low
    P = pE * pm
    window = p ** (L + low)
    if window > ENUMERATION_BOUND or P * window >= 2**62:
        raise SizeGuard(f"oracle window p^{L + low} at modulus p^{E + 2 * n} exceeds "
                        "the enumeration bound or int64 range")
    cu = pow(mv.support_unit(), -1, P)
    a0, a1, b0, b1, c0, d0 = (0 if e.is_zero else
                              p ** (E + e.v + k) * e.u * (cu if scaled else 1) % P
                              for e, k, scaled in terms)
    if c0 % pE or d0 % pE:
        return 0j
    xi = np.arange(window, dtype=np.int64)
    A, B = (a0 + a1 * xi) % P, (b0 + b1 * xi) % P
    keep = np.flatnonzero((A % pE == 0) & (B % pE == 0))
    # h0 mod p^(2n) as entry columns: its bottom row (C, D) is the same at every x
    A, B, C, D = A[keep] // pE, B[keep] // pE, c0 // pE, d0 // pE
    ev = mv.chi_evaluator
    in_kt = kt_membership_mask(spec, A, B, C, D)
    keep, A, B = keep[in_kt], A[in_kt], B[in_kt]
    if not len(keep):
        return 0j
    exps = ev.exponents(A, B, C, D)
    # spot check against the scalar route at the first support point
    M = max(spec.precision, 2 * n + L + low + 6)
    c = LocalElement.from_rational(p, Fraction(p ** (2 * n), mv.support_unit()), M)
    x0 = LocalElement.from_rational(p, Fraction(int(keep[0]), pl), M)
    scalar = matrix_coefficient(mv, g.left_translate(c, x0))
    if abs(scalar - np.exp(2j * np.pi * exps[0] / ev.L)) > 1e-9:
        raise NumericalError(f"vectorized chi exponent {exps[0]}/{ev.L} disagrees with the "
                             f"scalar matrix coefficient {scalar} at x = {x0}")
    Lt = math.lcm(ev.L, pl)
    # Lt = lcm(L, p^low) is not bounded by p^(4n), so the phases are int64
    phase = (exps.astype(np.int64) * (Lt // ev.L)
             + psi_numerator((-keep) % pl) * (Lt // pl)) % Lt
    return float(Fraction(1, p**L)) * complex(np.exp(2j * np.pi * phase / Lt).sum())


def support_profile(mv: MinimalVectorSpec, k: Mat2Local):
    """For a maximal-compact element k, the diagonal support of y -> W(a(y) k):
    the single unit class b mod p^n (at valuation -2n) where it is nonzero.
    """
    p, n = mv.p, mv.n
    z, _, _ = decompose_B1T(k, mv.torus)
    if not z.is_unit():
        # k in the maximal compact always yields a unit here
        raise NotInSupport("unexpected non-unit leading factor")
    return mv.support_unit() * pow(z.residue(n), -1, p**n) % p**n


def whittaker_unit_sweep(mv: MinimalVectorSpec, k: Mat2Local) -> list[tuple[int, WhittakerValue]]:
    """The closed-form Whittaker value at a(y) k for every unit class
    y = p^(-2n) u, 0 < u < p^n, as (u, value) pairs in ascending u."""
    p, n = mv.p, mv.n
    M = mv.torus.precision + 2 * n
    return [(u, whittaker_closed(mv, a_mat(LocalElement(p, -2 * n, u, M)) * k))
            for u in range(1, p**n) if u % p != 0]


def whittaker_support_scan(mv: MinimalVectorSpec, k: Mat2Local) -> list[int]:
    """Oracle for support_profile: the unit classes u of whittaker_unit_sweep
    with a nonzero closed-form value at a(p^(-2n) u) k."""
    return [u for u, w in whittaker_unit_sweep(mv, k) if w.in_support]
