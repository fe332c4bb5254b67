"""Global side: archimedean kernels, Hecke-like coefficient sources, the
ramified progression data, Fourier-expansion evaluation, sup-norm scans over
the generating domain, and the classical congruence-group translation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bessel import bessel_K_imag, bessel_K_imag_row
from .characters import MinimalVectorSpec, chi_value
from .errors import ConfigError, NumericalError
from .matgroups import Mat2Local, a_mat, decompose_B1T, torus_extract
from .minimal import support_profile, whittaker_closed
from .residues import LocalElement, UnitRoot, factorize, psi_numerator

ZETA2 = math.pi**2 / 6
# The adjoint L-value in the normalization sqrt(2 zeta(2) / L(1, Ad)) of phi,
# and that normalization; the model coefficients fix L(1, Ad) = 1.
ADJOINT_VALUE = 1.0
PREF = math.sqrt(2 * ZETA2 / ADJOINT_VALUE)


# -- archimedean parameters ---------------------------------------------------

@dataclass(frozen=True)
class ArchParams:
    """Archimedean data: either a holomorphic form of even weight k, or an even
    Maass form with spectral parameter t."""

    case: str                   # "holomorphic" | "maass"
    k: int | None = None
    t: float | None = None

    def __post_init__(self):
        if self.case == "holomorphic":
            if self.k is None or self.k < 2 or self.k % 2 != 0:
                raise ConfigError("holomorphic case needs even weight k >= 2")
        elif self.case == "maass":
            if self.t is None:
                raise ConfigError("maass case needs spectral parameter t")
        else:
            raise ConfigError(f"unknown archimedean case {self.case!r}")

    @property
    def T(self) -> float:
        return float(self.k) if self.case == "holomorphic" else 1.0 + abs(self.t)

    @property
    def h_value(self) -> float:
        """The expected sup-norm size contribution: k^{1/4} or T^{1/6}."""
        if self.case == "holomorphic":
            return self.k**0.25
        return self.T ** (1.0 / 6.0)


def log_kappa(y: float, arch: ArchParams) -> float:
    """log |kappa(y) / c_inf| at one y > 0: the scalar route of the normalized
    kernel, in math only.

    Holomorphic: (k/2) log y - 2 pi y - log c_inf, which neither overflows nor
    underflows at any weight.  Maass: (1/2) log y + log |K_{it}(2 pi y)| -
    log c_inf, or -inf where the Bessel value is 0.  log c_inf comes first, so
    its NumericalError precedes any Bessel quadrature.
    """
    if y <= 0:
        raise ValueError("y must be positive")
    lc = log_c_infty(arch)
    if arch.case == "holomorphic":
        return 0.5 * arch.k * math.log(y) - 2.0 * math.pi * y - lc
    b = bessel_K_imag(arch.t, 2.0 * math.pi * y)
    if b == 0.0:
        return -math.inf
    return 0.5 * math.log(y) + math.log(abs(b)) - lc


def kappa(y: np.ndarray, arch: ArchParams) -> np.ndarray:
    """The L2-normalized kernel kappa(y) / c_inf at an array of y > 0: the
    array route, cross-checked against exp(log_kappa) in the tests.

    Holomorphic: exp((k/2) log y - 2 pi y - log c_inf), one log-space
    expression, finite at every weight.  Maass: sqrt(y) K_{it}(2 pi y) / c_inf,
    with the whole array in one bessel_K_imag_row call (each value equal to
    bessel_K_imag's); c_inf comes first, so its NumericalError precedes any
    quadrature.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0):
        raise ValueError("y must be positive")
    if arch.case == "holomorphic":
        return np.exp(0.5 * arch.k * np.log(y) - 2.0 * math.pi * y - log_c_infty(arch))
    c = c_infty(arch)
    return np.sqrt(y) * bessel_K_imag_row(arch.t, 2.0 * math.pi * y) / c


def c_infty(arch: ArchParams) -> float:
    """L2 normalization of the kernel: (integral of kappa^2 dy/y)^{1/2}, both
    cases in closed form.

    Holomorphic: the exp of log_c_infty's formula; raises NumericalError where
    it overflows (k >= 522).
    Maass: the two-sided sqrt(pi / (4 cosh pi t)), from int_0^inf K_{it}(x)^2 dx
    = pi^2 / (4 cosh pi t) (Gradshteyn-Ryzhik 6.576.4), evaluated in log space
    so that cosh cannot overflow.  Raises NumericalError once the value
    underflows the normal floats (|t| above about 450).
    """
    if arch.case == "holomorphic":
        try:
            return math.exp(log_c_infty(arch))
        except OverflowError:
            raise NumericalError(f"archimedean normalization at k = {arch.k} overflows "
                                 f"double precision (log c_inf = {log_c_infty(arch):.1f})") from None
    a = math.pi * abs(arch.t)
    c = math.exp(0.5 * (math.log(math.pi / 2) - a - math.log1p(math.exp(-2 * a))))
    if not c >= sys.float_info.min:
        raise NumericalError(f"archimedean normalization at t = {arch.t:g} underflows "
                             f"double precision ({c:.3e})")
    return c


def _bessel_support_bound(t: float) -> float:
    # K_{it}(2 pi y) is negligible once 2 pi y > ~50 + |t|
    return (50.0 + abs(t)) / (2 * math.pi)


def log_c_infty(arch: ArchParams) -> float:
    """log c_inf: holomorphic, the exact log-space formula
    log((4 pi)^{-k/2} Gamma(k)^{1/2}); Maass, the log of c_infty's closed form."""
    if arch.case == "holomorphic":
        return 0.5 * math.lgamma(arch.k) - 0.5 * arch.k * math.log(4 * math.pi)
    return math.log(c_infty(arch))


def kernel_peak_ratio(arch: ArchParams) -> float:
    """sup_y |kappa(y) / c_inf|, the computational shadow of h(pi_inf)."""
    if arch.case == "holomorphic":
        return math.exp(log_kappa(arch.k / (4 * math.pi), arch))
    ys = np.exp(np.linspace(math.log(1e-3), math.log(_bessel_support_bound(arch.t) + 1), 400))
    return float(np.max(np.abs(kappa(ys, arch))))


# -- Hecke-like coefficient sources ------------------------------------------

def _ramanujan_bound(m: int, delta: float) -> float:
    """d(m) m^delta, with the divisor count d(m) = prod (e + 1) over m = prod p^e."""
    return math.prod(e + 1 for _, e in factorize(m)) * m**delta


@dataclass
class CoefficientSource:
    """Multiplicative coefficients lambda(m), Ramanujan-bounded by d(m) m^delta."""

    kind: str
    delta: float
    prime_values: dict = field(default_factory=dict)   # p -> lambda(p)
    explicit: dict = field(default_factory=dict)       # m -> lambda(m) (file kind)
    seed: int | None = None                            # Sato-Tate stream (sato-tate kind)

    @classmethod
    def all_ones(cls, delta: float = 0.0) -> "CoefficientSource":
        return cls("all-ones", delta)

    @classmethod
    def sato_tate(cls, seed: int, delta: float = 0.0) -> "CoefficientSource":
        return cls(f"sato-tate({seed})", delta, seed=seed)

    @classmethod
    def from_file(cls, path: str) -> "CoefficientSource":
        """Plain records 'm <tab> lambda', header line '# delta <value>'."""
        delta = 0.0
        explicit = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    parts = line[1:].split()
                    if parts and parts[0] == "delta":
                        delta = float(parts[1])
                    continue
                ms, ls = line.split("\t")
                if int(ms) < 1:
                    raise ConfigError(f"coefficient index m={ms} is not positive")
                explicit[int(ms)] = float(ls)
        src = cls("file", delta, explicit=explicit)
        for m, lam in explicit.items():
            if abs(lam) > _ramanujan_bound(m, delta) * (1 + 1e-12):
                raise ConfigError(f"coefficient at m={m} violates the Ramanujan bound")
        return src

    def _lambda_p(self, p: int) -> float:
        if self.kind == "all-ones":
            return 1.0
        if p not in self.prime_values:
            self._draw([p])
        return self.prime_values[p]

    def _draw(self, primes: list[int]) -> None:
        """Draw the Sato-Tate lambda(p) = 2 cos theta_p of every p in primes
        into prime_values.

        theta ~ (2/pi) sin^2 by inverse-CDF bisection: each u comes from the
        prime's own deterministic stream, and one 60-step bisection of [0, pi]
        runs over the whole u array.  The expressions are those of a one-prime
        math loop, elementwise, so every value equals that loop's bit for bit
        (the loop is the reference in the tests).
        """
        u = np.array([np.random.default_rng(self.seed * 1_000_003 + p).uniform()
                      for p in primes])
        lo, hi = np.zeros(len(u)), np.full(len(u), math.pi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            # CDF of the (2/pi) sin^2(theta) density on [0, pi]
            below = (mid - 0.5 * np.sin(2 * mid)) / math.pi < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        self.prime_values.update(zip(primes, (2.0 * np.cos(0.5 * (lo + hi))).tolist()))

    def _lambda_ppow(self, p: int, e: int) -> float:
        lam = self._lambda_p(p)
        if self.kind == "all-ones":
            return 1.0
        a, b = 1.0, lam            # lambda(p^0), lambda(p^1)
        for _ in range(e - 1):
            a, b = b, lam * b - a  # Hecke recursion at unramified p
        return b if e >= 1 else a

    def value(self, m: int) -> float:
        m = abs(m)
        if m == 0:
            raise ValueError("lambda(0) undefined")
        if self.kind == "file":
            if m not in self.explicit:
                raise ConfigError(f"coefficient file does not cover m={m}")
            return self.explicit[m]
        if self.kind == "all-ones":
            return 1.0
        out = 1.0
        for p, e in factorize(m):
            out *= self._lambda_ppow(p, e)
        return out

    def values_upto(self, limit: int) -> np.ndarray:
        """lambda(1..limit) by a multiplicative sieve; index 0 unused.

        The primes p <= limit are walked in descending order, and lambda(p^e)
        multiplies the multiples of p^e that p^(e+1) does not divide.  So
        lambda(m) for m = p1^e1 ... pk^ek (p1 < ... < pk) is the float product
        lambda(p1^e1) (lambda(p2^e2) (... lambda(pk^ek))).  A Sato-Tate
        source first draws every prime p <= limit not yet in prime_values in
        one array pass (_draw).
        """
        if self.kind == "all-ones":
            return np.ones(limit + 1)
        out = np.ones(limit + 1)
        if self.kind == "file":
            for m in range(1, limit + 1):
                out[m] = self.value(m)
            return out
        is_prime = np.ones(limit + 1, dtype=bool)
        is_prime[:2] = False
        for q in range(2, math.isqrt(limit) + 1):
            if is_prime[q]:
                is_prime[q * q::q] = False
        primes = np.flatnonzero(is_prime).tolist()
        self._draw([p for p in primes if p not in self.prime_values])
        for p in primes[::-1]:
            # f[j] = lambda(p^e) for the multiple (j + 1) p, exactly divisible by p^e
            f = np.full(limit // p, self._lambda_ppow(p, 1))
            e, step = 2, p
            while step * p <= limit:
                f[step - 1::step] = self._lambda_ppow(p, e)
                e, step = e + 1, step * p
            out[p::p] *= f
        return out

    def check_ramanujan(self, limit: int = 200) -> bool:
        vals = self.values_upto(limit)
        return all(abs(vals[m]) <= _ramanujan_bound(m, self.delta) + 1e-9
                   for m in range(1, limit + 1))


# -- ramified data and the progression-supported expansion -------------------

@dataclass
class LocalRamifiedFactor:
    mv: MinimalVectorSpec
    coset: Mat2Local            # k_p in the maximal compact
    theta_phase: UnitRoot       # theta(t_p) from the coset decomposition
    x_residue: int              # upper-triangular part of k_p mod p^{2n}
    cofactor_sq_inv: int        # ((N/p^n)^2)^{-1} mod p^{2n}


@dataclass
class RamifiedData:
    """Everything the global expansion needs from the finite places: the
    modulus N, the progression residue b mod N, amplitude sqrt(phi(N)), and
    per-prime phase data."""

    N: int
    b: int
    amplitude: float
    locals: list[LocalRamifiedFactor]

    @classmethod
    def build(cls, mvs: list[MinimalVectorSpec], cosets: list[Mat2Local] | None = None) -> "RamifiedData":
        primes = [mv.p for mv in mvs]
        if len(set(primes)) != len(primes):
            raise ConfigError("one minimal vector per prime")
        if cosets is None:
            cosets = [Mat2Local.identity(mv.p, mv.torus.precision + 2) for mv in mvs]
        N = 1
        for mv in mvs:
            N *= mv.p**mv.n
        factors = []
        residues = []
        moduli = []
        amp = 1.0
        for mv, k in zip(mvs, cosets):
            p, n = mv.p, mv.n
            pn, pm = p**n, p ** (2 * n)
            _, x, t = decompose_B1T(k, mv.torus, side="left")
            zq = torus_extract(t, mv.torus)
            theta_ph = mv.theta.value((zq.a.residue(2 * n), zq.b.residue(2 * n)))
            b_local = support_profile(mv, k)
            cof = N // pn
            b_adj = b_local * pow(cof % pn, 2, pn) % pn
            factors.append(LocalRamifiedFactor(
                mv, k, theta_ph, x.residue(2 * n), pow(cof % pm, -2, pm)))
            residues.append(b_adj)
            moduli.append(pn)
            amp *= math.sqrt((p - 1) * p ** (n - 1))
        b = _crt(residues, moduli)
        return cls(N, b, amp, factors)

    @classmethod
    def unramified(cls) -> "RamifiedData":
        return cls(1, 0, 1.0, [])


def _crt(residues, moduli):
    x, mod = 0, 1
    for r, m in zip(residues, moduli):
        x += mod * ((r - x) * pow(mod, -1, m) % m)
        mod *= m
    return x % mod


def lambda_prime(m: int, ram: RamifiedData) -> complex:
    """Exact product of the local Whittaker values at a(m/N^2) k_p.

    Supported exactly on m == b (mod N) with magnitude sqrt(phi(N)).
    """
    if ram.N == 1:
        return 1.0 + 0.0j
    out = 1.0 + 0.0j
    for f in ram.locals:
        mv = f.mv
        p, n = mv.p, mv.n
        M = mv.torus.precision + 2 * n + 2
        y = LocalElement.from_rational(p, Fraction(m, ram.N**2), M)
        if y.is_zero:
            return 0.0
        w = whittaker_closed(mv, a_mat(y) * f.coset)
        if not w.in_support:
            return 0.0
        out *= w.to_complex()
    return out


def lambda_prime_fast(ms: np.ndarray, ram: RamifiedData) -> np.ndarray:
    """Vectorized lambda', cross-checked against lambda_prime in the tests:
    amplitude on the progression, with per-prime unit-root phases."""
    if ram.N == 1:
        return np.ones(len(ms), dtype=complex)
    mask = (ms % ram.N) == ram.b
    out = np.zeros(len(ms), dtype=complex)
    phases = np.zeros(len(ms))
    for f in ram.locals:
        p, n = f.mv.p, f.mv.n
        pm = p ** (2 * n)
        # psi_p(m * x_p / N^2): p-part of the fractional part
        num = (ms % pm) * (f.x_residue * f.cofactor_sq_inv % pm) % pm
        phases = phases + psi_numerator(num) / pm + float(f.theta_phase.r)
    out[mask] = ram.amplitude * np.exp(2j * np.pi * phases[mask])
    return out


# -- evaluation and the sup-norm scan ----------------------------------------

_MAX_CUTOFF = 10**7


def _cutoff(N: int, arch: ArchParams, y: float, eps: float = 0.1) -> int:
    """Tail cutoff: the asymptotic shape N^{2+eps}(T + T^{1/3})/(2 pi y),
    extended until the first omitted term of the normalized kernel is below
    e^{-30} (the decay is exponential past the kernel peak, but the asymptotic
    constant matters at desk-scale weights).
    Raises NumericalError rather than pass _MAX_CUTOFF terms."""
    T = arch.T
    R = max(8, math.ceil(N ** (2 + eps) * (T + T ** (1.0 / 3.0)) / (2 * math.pi * y)))

    def log_term(m: int) -> float:
        return log_kappa(m * y / N**2, arch) - 0.5 * math.log(m)

    while True:
        if R > _MAX_CUTOFF:
            raise NumericalError(f"tail cutoff would pass {_MAX_CUTOFF} terms at y = {y:g}; "
                                 f"log of the omitted term is {log_term(R):.1f}, not yet -30")
        if log_term(R) <= -30.0:
            return R
        R = math.ceil(1.3 * R)


def evaluate_phi(x: float, y: float, ram: RamifiedData, coeffs: CoefficientSource,
                 arch: ArchParams, cutoff: int | None = None,
                 check_stability: bool = False) -> complex:
    """The form at n(x) a(y): the progression-supported Fourier expansion

    PREF c_inf^{-1} sum_{m = b (N), 0<|m|<=R}
        |m|^{-1/2} e(m x / N^2) kappa(m y / N^2) lambda(m) lambda'(m).

    The lambda(m) come from coeffs.values_upto, so a file source must cover
    every m in 1..R (1..2R with check_stability), as scan_supnorm requires.
    Raises NumericalError where the sum cancels into rounding noise: |phi|
    below eps sqrt(#terms) sum |c_m| (strictly, so an all-zero sum gives 0).
    """
    if y <= 0:
        raise ConfigError("y must be positive")
    R = cutoff if cutoff is not None else _cutoff(ram.N, arch, y)
    cutoffs = (R, 2 * R) if check_stability else (R,)
    lam_all = coeffs.values_upto(cutoffs[-1])
    vals = []
    for Rc in cutoffs:
        ms = _signed_progression(ram, Rc, arch.case == "holomorphic")
        c = _row_coefficients(ms, y, ram, arch, lam_all, *_progression_factors(ms, ram))
        vals.append(complex(np.sum(c * np.exp(2j * np.pi * x * ms / ram.N**2))))
    val = vals[-1]
    floor = float(np.abs(c).sum()) * np.finfo(float).eps * math.sqrt(len(c))
    if abs(val) < floor:
        raise NumericalError(f"cancellation: |phi| = {abs(val):.1e} is below the rounding "
                             f"floor {floor:.1e} of its {len(c)} terms")
    scale = max(abs(vals[0]), abs(val), 1e-300)
    if abs(val - vals[0]) / scale > 1e-8:
        raise NumericalError(f"tail instability: doubling the cutoff {R} moved the value "
                             f"by {abs(val - vals[0]) / scale:.1e} (relative)")
    return val


def _signed_progression(ram: RamifiedData, R: int, holomorphic: bool) -> np.ndarray:
    """All m with m == b (mod N), 0 < |m| <= R (positive only if holomorphic),
    ascending."""
    N, b = ram.N, ram.b % ram.N
    start = (b or N) if holomorphic else -R + (b + R) % N
    ms = np.arange(start, R + 1, N)
    return ms if b else ms[ms != 0]


def _progression_factors(ms: np.ndarray, ram: RamifiedData) -> tuple[np.ndarray, np.ndarray]:
    """The row-invariant factors of the coefficients on a progression ms:
    lambda'(m) and sqrt|m|.  Both are elementwise in m, so the factors of a
    contiguous slice of ms are the same slice of these arrays."""
    return lambda_prime_fast(ms, ram), np.sqrt(np.abs(ms))


def _row_coefficients(ms: np.ndarray, y: float, ram: RamifiedData, arch: ArchParams,
                      lam_all: np.ndarray, lp: np.ndarray, root: np.ndarray) -> np.ndarray:
    """The Fourier coefficients of phi on the row y, one per m in ms:

    PREF lambda(m) lambda'(m) kappa(|m| y / N^2) / (c_inf |m|^{1/2}),

    with lambda read from the sieve lam_all (indexed by |m|), lp and root
    the _progression_factors of ms, and the normalized kernel from one array
    call.  The sieve read comes first, so a row past the sieve raises
    IndexError before anything else is evaluated.
    """
    am = np.abs(ms)
    return PREF * lam_all[am] * lp * kappa(am * y / ram.N**2, arch) / root


@dataclass
class ScanReport:
    N: int
    arch: ArchParams
    sup: float
    argmax: tuple[float, float]         # (x, y)
    witness: float                      # best single-term magnitude
    witness_m: int
    conductor: int                      # C = N^4
    ratio: float                        # sup / (C^{1/8} h)
    witness_ratio: float                # witness / (C^{1/8} h)
    rows: list = field(default_factory=list)   # (y, row sup, row witness)
    terms: int = 0                      # Fourier terms summed, over all rows
    fft_points: int = 0                 # transform points computed, over all rows

    def as_dict(self):
        return {
            "N": self.N, "case": self.arch.case,
            "k": self.arch.k, "t": self.arch.t,
            "sup": self.sup, "argmax": list(self.argmax),
            "witness": self.witness, "witness_m": self.witness_m,
            "conductor": self.conductor, "ratio": self.ratio,
            "witness_ratio": self.witness_ratio,
            "terms": self.terms, "fft_points": self.fft_points,
        }


# The scan grid: rows from the bottom Y_MIN of the generating domain, at
# least X_STEPS_PER_PERIOD points per unit of x.
Y_MIN = math.sqrt(3) / 2.0
X_STEPS_PER_PERIOD = 64


def scan_supnorm(ram: RamifiedData, coeffs: CoefficientSource, arch: ArchParams,
                 rows_per_decade: int = 256, keep_rows: bool = False) -> ScanReport:
    """Grid maximum of |phi| over the generating domain: x over one period
    [0, N^2), y log-spaced from Y_MIN to max(2, N^2 T).

    Each row scans the grid x = j N^2 / X, j < X, with X = X_STEPS_PER_PERIOD
    N^2 2^i the first such length above 2R + 1 for the row cutoff R.  The
    terms sit on m = b + N j' (0 <= b < N), so

        sum_m c_m e(m j / X) = e(b j / X) G[j mod X/N],

    where G is the unscaled inverse transform, of length X/N, of the c_m
    placed at j' mod X/N (distinct, as X > 2R + 1).  So |phi| on the row has
    period N in x, every grid point keeps its exact modulus, and the row sup
    and its first argmax come from |G| alone.  The unscaled transform keeps
    each row sup at or above its largest single term (discrete Parseval).
    """
    N = ram.N
    N2 = N * N
    y_max = max(2.0, N2 * arch.T)
    n_rows = max(2, int(rows_per_decade * math.log10(y_max / Y_MIN)) + 1)
    ys = np.exp(np.linspace(math.log(Y_MIN), math.log(y_max), n_rows))
    holo = arch.case == "holomorphic"
    base_X = X_STEPS_PER_PERIOD * max(N2, 1)

    # lambda, lambda' and sqrt|m| once per scan, on the progression at the
    # cutoff of the bottom row.  Each row's progression is a contiguous slice
    # of it (a prefix if holomorphic), so a row takes slices of the factors.
    # R_global >= N > b, so ms_global is never empty.
    R_global = _cutoff(N, arch, Y_MIN)
    lam_all = coeffs.values_upto(R_global)
    ms_global = _signed_progression(ram, R_global, holo)
    lp_global, root_global = _progression_factors(ms_global, ram)

    sup, argmax = -1.0, (0.0, ys[0])
    witness, witness_m = -1.0, 0
    rows = []
    terms = fft_points = 0
    for yv in ys:
        R = _cutoff(N, arch, float(yv))
        ms = _signed_progression(ram, R, holo)
        if len(ms) == 0:
            continue
        i = (ms[0] - ms_global[0]) // N
        sl = slice(i, i + len(ms))
        c = _row_coefficients(ms, yv, ram, arch, lam_all, lp_global[sl], root_global[sl])
        # row witness: best single Fourier coefficient magnitude
        mags = np.abs(c)
        j = int(np.argmax(mags))
        if mags[j] > witness:
            witness, witness_m = float(mags[j]), int(ms[j])
        X = base_X
        while X <= 2 * R + 1:
            X *= 2
        L = X // N
        F = np.zeros(L, dtype=complex)
        F[(ms // N) % L] = c        # m = b + N j' puts c_m at j' mod L
        av = np.abs(np.fft.ifft(F, norm="forward"))    # |phi| at x = jx N^2 / X, jx mod L
        jx = int(np.argmax(av))
        row_sup = float(av[jx])
        if row_sup > sup:
            sup, argmax = row_sup, (jx * N2 / X, float(yv))
        if keep_rows:
            rows.append((float(yv), row_sup, float(mags[j])))
        terms += len(ms)
        fft_points += L
    C = max(N, 1) ** 4
    scale = C ** (1.0 / 8.0) * arch.h_value
    return ScanReport(N, arch, sup, argmax, witness, witness_m, C,
                      sup / scale, witness / scale, rows,
                      terms=terms, fft_points=fft_points)


# -- classical congruence group ----------------------------------------------

def build_D(mvs: list[MinimalVectorSpec]) -> int:
    """CRT lift of the local alpha's: D = alpha_p mod p^{n_p}."""
    residues = [mv.torus.alpha % mv.p**mv.n for mv in mvs]
    moduli = [mv.p**mv.n for mv in mvs]
    return _crt(residues, moduli)


def gamma_TD(gamma, mvs: list[MinimalVectorSpec], N: int | None = None,
             D: int | None = None):
    """Classical congruence test and character: gamma integral with det 1 is a
    member iff a == d and c == -b D (mod N); the character is the product of
    the inverse local chi's.  Returns (member, chi or None).
    """
    a, b, c, d = (int(v) for v in np.asarray(gamma).ravel())
    if a * d - b * c != 1:
        raise ConfigError("gamma must have determinant 1")
    if N is None:
        N = 1
        for mv in mvs:
            N *= mv.p**mv.n
    if D is None:
        D = build_D(mvs)
    if (a - d) % N != 0 or (c + b * D) % N != 0:
        return False, None
    chi = UnitRoot.one()
    for mv in mvs:
        g = Mat2Local.from_rationals(mv.p, (a, b, c, d), mv.torus.precision)
        chi = chi * chi_value(mv, g).inverse()
    return True, chi
