"""Global side: archimedean kernels, Hecke-like coefficient sources, the
ramified progression data, Fourier-expansion evaluation, sup-norm scans over
the generating domain, and the classical congruence-group translation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

import numpy as np

from .bessel import bessel_K_imag, bessel_K_imag_row
from .characters import MinimalVectorSpec, chi_value
from .errors import ConfigError, NumericalError, require_int
from .matgroups import Mat2Local, a_mat
from .minimal import whittaker_closed
from .residues import LocalElement, UnitRoot, factorize

ZETA2 = math.pi**2 / 6
# The adjoint L-value in the normalization sqrt(2 zeta(2) / L(1, Ad)) of phi,
# and that normalization; the model coefficients fix L(1, Ad) = 1.
ADJOINT_VALUE = 1.0
PREF = math.sqrt(2 * ZETA2 / ADJOINT_VALUE)


# -- archimedean parameters ---------------------------------------------------

@dataclass(frozen=True)
class ArchParams:
    """Archimedean data: either a holomorphic form of even weight k, or an even
    Maass form with spectral parameter t.  Raises ConfigError unless the
    weight is an even integer >= 2 (read through operator.index), or the
    spectral parameter is finite."""

    case: str                   # "holomorphic" | "maass"
    k: int | None = None
    t: float | None = None

    def __post_init__(self):
        if self.case == "holomorphic":
            if self.k is None or require_int("weight k", self.k, 2) % 2 != 0:
                raise ConfigError("holomorphic case needs even weight k >= 2")
        elif self.case == "maass":
            if self.t is None or not math.isfinite(self.t):
                raise ConfigError(f"maass case needs spectral parameter t, got {self.t}")
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
    with the whole array in one bessel_K_imag_row call, whose value at each y
    depends on that y alone (and is bessel_K_imag's up to rounding); c_inf
    comes first, so its NumericalError precedes any quadrature.
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

_M32, _M64 = 2**32 - 1, 2**64 - 1
# NumPy's SeedSequence hash and mix constants (uint32), and the PCG64 multiplier
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _mul_add_128(a: list, c: int, d: list) -> list:
    """(a c + d) mod 2^128 for a constant c, on four 32-bit limbs (uint64
    arrays, least significant first).  Each limb sums the low halves of its
    products and the high halves of the limb below; no sum passes 2^36."""
    out, carry, high = [], 0, [0] * 4
    for k in range(4):
        acc = carry + d[k] + high[k]
        for i in range(k + 1):
            prod = a[i] * ((c >> 32 * (k - i)) & _M32)
            acc = acc + (prod & _M32)
            if k < 3:
                high[k + 1] = high[k + 1] + (prod >> 32)
        out.append(acc & _M32)
        carry = acc >> 32
    return out


def _first_uniforms(words: list[np.ndarray]) -> np.ndarray:
    """np.random.default_rng(e).uniform() for many entropies e < 2^128, each
    given as its four uint32 words (arrays, least significant first).

    SeedSequence(e) hashes the words into a pool of four (a word e lacks is
    a zero word, as NumPy pads the pool), mixes every pool word into every
    other, and expands the pool to eight words: the PCG64 state seed and its
    stream.  PCG64 seeds with two LCG steps, the first draw takes one more,
    and its XSL-RR output x gives the uniform (x >> 11) 2^-53.  All of it is
    uint32 and 128-bit arithmetic, elementwise over the arrays.
    """
    h = _SS_INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _SS_MULT_A & _M32
        v = v * h
        return v ^ (v >> 16)

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                r = _SS_MIX_L * pool[dst] - _SS_MIX_R * hashmix(pool[src])
                pool[dst] = r ^ (r >> 16)
    state, h = [], _SS_INIT_B
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * _SS_MULT_B & _M32
        v = v * h
        state.append((v ^ (v >> 16)).astype(np.uint64))
    # the eight words are the uint64s (s_hi, s_lo, i_hi, i_lo) of the 128-bit
    # seed s and stream i; the increment is 2 i + 1
    seed = state[2:4] + state[0:2]
    stream = state[6:8] + state[4:6]
    inc = [((stream[k] << 1) | (stream[k - 1] >> 31 if k else 1)) & _M32 for k in range(4)]
    x = _mul_add_128(inc, 1, seed)           # the step from state 0 is inc; add s
    for _ in range(2):                       # the second seeding step, the draw's step
        x = _mul_add_128(x, _PCG64_MULT, inc)
    hi, lo = x[2] | (x[3] << 32), x[0] | (x[1] << 32)
    rot = x[3] >> 26
    out = (hi ^ lo) >> rot | (hi ^ lo) << ((64 - rot) & 63)
    return (out >> 11).astype(float) * 2.0**-53


# A prime set smaller than this is drawn one prime at a time: below it one
# default_rng per prime costs less than the fixed cost of the array pass (the
# SeedSequence hash on uint32 arrays and the 60-step array bisection).
_ARRAY_DRAW_PRIMES = 35

_TWO_PI = 2 * math.pi


def _sato_tate_lambda(u: float) -> float:
    """2 cos theta, theta ~ (2/pi) sin^2 on [0, pi], at the uniform u: a
    60-step inverse-CDF bisection in math.  The CDF at mid = s/2, s = lo + hi,
    is (s - sin s) / (2 pi), the bits of (mid - sin(2 mid)/2) / pi: halving is
    exact here (s >= pi 2^-59) and 2 * math.pi is exactly twice math.pi."""
    lo, hi = 0.0, math.pi
    for _ in range(60):
        s = lo + hi
        if (s - math.sin(s)) / _TWO_PI < u:
            lo = 0.5 * s
        else:
            hi = 0.5 * s
    return 2.0 * math.cos(0.5 * (lo + hi))


def _sato_tate_lambdas(u: np.ndarray) -> np.ndarray:
    """_sato_tate_lambda elementwise: one bisection over an array of u."""
    lo, hi = np.zeros(len(u)), np.full(len(u), math.pi)
    for _ in range(60):
        s = lo + hi
        below = (s - np.sin(s)) / _TWO_PI < u
        s *= 0.5
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
    return 2.0 * np.cos(0.5 * (lo + hi))


def _ramanujan_bound(m: int, delta: float) -> float:
    """d(m) m^delta, with the divisor count d(m) = prod (e + 1) over m = prod p^e."""
    return math.prod(e + 1 for _, e in factorize(m)) * m**delta


@dataclass
class CoefficientSource:
    """Multiplicative coefficients lambda(m), Ramanujan-bounded by d(m) m^delta."""

    kind: str
    delta: float
    prime_values: dict = field(default_factory=dict, init=False)  # p -> lambda(p), drawn
    explicit: dict = field(default_factory=dict)       # m -> lambda(m) (file kind)
    seed: int | None = None                            # Sato-Tate stream (sato-tate kind)

    @classmethod
    def all_ones(cls) -> "CoefficientSource":
        return cls("all-ones", 0.0)

    @classmethod
    def sato_tate(cls, seed: int) -> "CoefficientSource":
        """lambda(p) drawn from the stream np.random.default_rng(seed 1_000_003 + p);
        the seed must be a non-negative integer, as the stream's entropy is."""
        seed = require_int("Sato-Tate seed", seed, 0)
        return cls(f"sato-tate({seed})", 0.0, seed=seed)

    @classmethod
    def from_file(cls, path: str) -> "CoefficientSource":
        """Plain records 'm <tab> lambda', header line '# delta <value>'.  ConfigError
        names the line of a malformed record or delta line, a non-finite value
        or an index m < 1; and a lambda(m) past the Ramanujan bound."""
        delta, explicit = 0.0, {}
        with open(path) as fh:
            for i, line in enumerate(fh, 1):
                line, where = line.strip(), f"{path}, line {i}"
                header = line.startswith("#")
                fields = line[1:].split() if header else line.split("\t")
                if not line or header and fields[:1] != ["delta"]:
                    continue
                try:
                    key, text = fields
                    m, value = (0 if header else int(key)), float(text)
                except ValueError:
                    raise ConfigError(f"{where}: malformed line {line!r}") from None
                if not math.isfinite(value):
                    raise ConfigError(f"{where}: {text} is not finite")
                if header:
                    delta = value
                elif m < 1:
                    raise ConfigError(f"{where}: coefficient index m={m} is not positive")
                else:
                    explicit[m] = value
        for m, lam in explicit.items():
            if abs(lam) > _ramanujan_bound(m, delta) * (1 + 1e-12):
                raise ConfigError(f"coefficient at m={m} violates the Ramanujan bound")
        return cls("file", delta, explicit=explicit)

    def _draw(self, primes: list[int]) -> np.ndarray:
        """Draw the Sato-Tate lambda(p) of the primes, from the first uniform
        of default_rng(seed 1_000_003 + p), into prime_values; return them.
        Fewer than _ARRAY_DRAW_PRIMES primes, or an entropy past 2^128, are
        drawn one at a time, others in one array pass: both give the bits of
        the one-prime default_rng loop the tests keep as the reference."""
        base = self.seed * 1_000_003
        if len(primes) < _ARRAY_DRAW_PRIMES or (base + max(primes)) >> 128:
            lams = np.array([_sato_tate_lambda(np.random.default_rng(base + p).uniform())
                             for p in primes])
        else:
            # the entropy base + p as two uint64 halves, carrying out of the low one
            ps = np.array(primes, dtype=np.uint64)
            lo = np.uint64(base & _M64) + ps
            hi = np.uint64(base >> 64) + (lo < ps)
            lams = _sato_tate_lambdas(_first_uniforms([(half >> shift & _M32).astype(np.uint32)
                                                       for half in (lo, hi) for shift in (0, 32)]))
        self.prime_values.update(zip(primes, lams.tolist()))
        return lams

    def _lambda_ppow(self, p: int, e: int) -> float:
        """lambda(p^e), e >= 1, from a drawn lambda(p)."""
        lam = self.prime_values[p]
        a, b = 1.0, lam            # lambda(p^0), lambda(p^1)
        for _ in range(e - 1):
            a, b = b, lam * b - a  # Hecke recursion at unramified p
        return b

    def value(self, m: int) -> float:
        m = abs(require_int("coefficient index m", m, None))
        if m == 0:
            raise ValueError("lambda(0) undefined")
        if self.kind == "file":
            if m not in self.explicit:
                raise ConfigError(f"coefficient file does not cover m={m}")
            return self.explicit[m]
        if self.kind == "all-ones":
            return 1.0
        factors = factorize(m)
        self._draw([p for p, _ in factors if p not in self.prime_values])
        out = 1.0
        for p, e in factors:
            out *= self._lambda_ppow(p, e)
        return out

    def values_upto(self, limit: int, modulus: int = 1, residues: tuple = (0,)) -> np.ndarray:
        """lambda(1..limit) by a multiplicative sieve; index 0 unused.  Only
        the residue classes mod modulus (all by default) are read: a file
        source looks up just the read indices, a Sato-Tate source draws just
        the new primes that divide one, and the others enter as NaN, so a
        read index has the full sieve's bits and any other may be NaN.
        limit >= 0, modulus >= 1 and the residues (taken mod modulus) must be
        integers (ConfigError).

        The primes are walked in descending order, and lambda(p^e) multiplies
        the multiples of p^e that p^(e+1) does not divide: lambda(m) is the
        float product lambda(p1^e1) (... lambda(pk^ek)) over p1 < ... < pk.
        The primes above isqrt(limit) touch only m with pk = p, ek = 1, so one
        scatter writes their lambda(p), and such a p is read iff a target is.
        """
        limit = require_int("sieve limit", limit, 0)
        modulus = require_int("modulus", modulus, 1)
        classes = {require_int("residue", r, None) % modulus for r in residues}
        if self.kind == "all-ones":
            return np.ones(limit + 1)
        out = np.ones(limit + 1)
        read = np.zeros(limit + 1, dtype=bool)
        for r in classes:
            read[r::modulus] = True
        if self.kind == "file":
            out[1:] = math.nan
            for m in (np.flatnonzero(read[1:]) + 1).tolist():
                out[m] = self.value(m)
            return out
        is_prime = np.ones(limit + 1, dtype=bool)
        is_prime[:2] = False
        root = math.isqrt(limit)
        for q in range(2, root + 1):
            if is_prime[q]:
                is_prime[q * q::q] = False
        primes = np.flatnonzero(is_prime)
        small = int(np.searchsorted(primes, root, side="right"))
        big = primes[small:]
        counts = limit // big
        firsts = np.cumsum(counts) - counts
        p_of = np.repeat(big, counts)
        targets = p_of * (np.arange(len(p_of)) - np.repeat(firsts, counts) + 1)
        wanted = np.concatenate([np.array([read[p::p].any() for p in primes[:small].tolist()],
                                          dtype=bool), np.logical_or.reduceat(read[targets], firsts)])
        lam = np.full(len(primes), math.nan)
        if self.prime_values:
            lam = np.fromiter(map(self.prime_values.get, primes.tolist(), repeat(math.nan)),
                              dtype=float, count=len(primes))
        new = np.flatnonzero(wanted & np.isnan(lam))
        if new.size:
            lam[new] = self._draw(primes[new].tolist())
        out[targets] = np.repeat(lam[small:], counts)
        for p, lp in zip(primes[:small].tolist()[::-1], lam[:small].tolist()[::-1]):
            # f[j] = lambda(p^e) for the multiple (j + 1) p, exactly divisible
            # by p^e, by _lambda_ppow's recursion
            f = np.full(limit // p, lp)
            prev, cur, step = 1.0, lp, p
            while step * p <= limit:
                prev, cur = cur, lp * cur - prev
                f[step - 1::step] = cur
                step *= p
            out[p::p] *= f
        return out

    def check_ramanujan(self, limit: int = 200) -> bool:
        vals = self.values_upto(limit)
        return all(abs(vals[m]) <= _ramanujan_bound(m, self.delta) + 1e-9
                   for m in range(1, limit + 1))


# -- ramified data and the progression-supported expansion -------------------

@dataclass
class RamifiedData:
    """Everything the global expansion needs from the finite places: the
    modulus N, the progression residue b mod N, the amplitude sqrt(phi(N)),
    and the local minimal vectors behind them (read by lambda_prime alone).

    The form is read at the identity translate, where each local Whittaker
    function W(a(y)) is supported on one unit class of y with constant value
    sqrt(phi(p^n)): so lambda'(m) is the amplitude on m == b (mod N) and 0
    elsewhere.  N >= 1 and b must be integers (ConfigError).  Any integer b
    names its class: it is reduced mod N here, once, so that every reader
    (a translate built by dataclasses.replace included) sees 0 <= b < N.
    """

    N: int
    b: int
    amplitude: float
    mvs: list[MinimalVectorSpec]

    def __post_init__(self):
        self.N = require_int("modulus N", self.N, 1)
        self.b = require_int("progression residue b", self.b, None) % self.N

    @classmethod
    def build(cls, mvs: list[MinimalVectorSpec]) -> "RamifiedData":
        primes = [mv.p for mv in mvs]
        if len(set(primes)) != len(primes):
            raise ConfigError("one minimal vector per prime")
        N = _level(mvs)
        residues, moduli, amp = [], [], 1.0
        for mv in mvs:
            pn = mv.p**mv.n
            # W(a(y)) is supported on y = p^(-2n) b (1 + p^n o) with b the
            # support unit, so y = m / N^2 lies there iff m = b (N/p^n)^2 mod p^n
            residues.append(mv.support_unit() * pow(N // pn % pn, 2, pn) % pn)
            moduli.append(pn)
            amp *= math.sqrt(mv.magnitude_squared)
        return cls(N, _crt(residues, moduli), amp, list(mvs))

    @classmethod
    def unramified(cls) -> "RamifiedData":
        return cls(1, 0, 1.0, [])


def _level(mvs: list[MinimalVectorSpec]) -> int:
    """N = prod p^{n_p} over the local minimal vectors."""
    return math.prod(mv.p**mv.n for mv in mvs)


def _crt(residues, moduli):
    x, mod = 0, 1
    for r, m in zip(residues, moduli):
        x += mod * ((r - x) * pow(mod, -1, m) % m)
        mod *= m
    return x % mod


def lambda_prime(m: int, ram: RamifiedData) -> complex:
    """Exact product of the local Whittaker values at a(m/N^2).

    Supported exactly on m == b (mod N) with value sqrt(phi(N)).  It reads
    the minimal vectors at the identity translate, so it raises ConfigError
    for any ram whose (N, b) is not the one RamifiedData.build gives them.
    """
    identity = RamifiedData.build(ram.mvs)
    if (ram.N, ram.b) != (identity.N, identity.b):
        raise ConfigError(f"lambda_prime reads the identity translate (N, b) = "
                          f"({identity.N}, {identity.b}) of its minimal vectors, "
                          f"not ({ram.N}, {ram.b})")
    out = 1.0 + 0.0j
    for mv in ram.mvs:
        p, n = mv.p, mv.n
        M = mv.torus.precision + 2 * n + 2
        y = LocalElement.from_rational(p, Fraction(m, ram.N**2), M)
        if y.is_zero:
            return 0.0
        w = whittaker_closed(mv, a_mat(y))
        if not w.in_support:
            return 0.0
        out *= w.to_complex()
    return out


def lambda_prime_fast(ms: np.ndarray, ram: RamifiedData) -> np.ndarray:
    """Vectorized lambda', cross-checked against lambda_prime in the tests:
    the real amplitude on m == b (mod N) and 0 elsewhere, as float64."""
    out = np.zeros(len(ms))
    out[ms % ram.N == ram.b] = ram.amplitude
    return out


# -- evaluation and the sup-norm scan ----------------------------------------

_MAX_CUTOFF = 10**7
_CUTOFF_EPS = 0.1
# _cutoffs decides a probe within this distance of -30 by the scalar
# _log_term, as np.log and math.log may differ in the last ulp.
_GUARD = 1e-6
_LOOK_AHEAD = 8


def _start_cutoff(N: int, arch: ArchParams, y):
    """The asymptotic shape N^{2+eps}(T + T^{1/3})/(2 pi y), eps = _CUTOFF_EPS,
    before its ceil: at one y or, elementwise, at an array of them."""
    T = arch.T
    return N ** (2 + _CUTOFF_EPS) * (T + T ** (1.0 / 3.0)) / (2 * math.pi * y)


def _log_term(N: int, arch: ArchParams, y: float, m: int) -> float:
    """log of the normalized term at m on the row y, without its lambda's."""
    return log_kappa(m * y / N**2, arch) - 0.5 * math.log(m)


def _cap_error(N: int, arch: ArchParams, y: float, R: int, R0: int) -> NumericalError:
    """The error of the row y whose cutoff, from R0, has grown to R > _MAX_CUTOFF."""
    lt = _log_term(N, arch, y, R)
    if lt > -30.0:
        why = f"log of the omitted term is {lt:.1f}, not yet -30"
    elif R == R0:
        why = f"the starting cutoff R = {R} itself passes it"
    else:
        why = f"the tail needs R = {R}"
    return NumericalError(f"tail cutoff would pass {_MAX_CUTOFF} terms at y = {y:g}; {why}")


def _cutoff(N: int, arch: ArchParams, y: float) -> int:
    """Tail cutoff: the asymptotic shape (_start_cutoff, at least 8), extended
    by steps R -> ceil(1.3 R) until the first omitted term of the normalized
    kernel is below e^{-30} (the decay is exponential past the kernel peak, but
    the asymptotic constant matters at desk-scale weights).
    Raises NumericalError rather than pass _MAX_CUTOFF terms."""
    R = R0 = max(8, math.ceil(_start_cutoff(N, arch, y)))
    while True:
        if R > _MAX_CUTOFF:
            raise _cap_error(N, arch, y, R, R0)
        if _log_term(N, arch, y, R) <= -30.0:
            return R
        R = math.ceil(1.3 * R)


def _cutoffs(N: int, arch: ArchParams, ys: np.ndarray) -> np.ndarray:
    """[_cutoff(N, arch, y) for y in ys] in a few array passes: the same
    starts and ceil(1.3 R) steps, each probe as log|kappa(R y / N^2)| -
    log(R) / 2.  The first kappa call probes every row at its start; each
    later call probes the next _LOOK_AHEAD steps of every still-open row
    (those up to _MAX_CUTOFF), and a row takes the first of them that
    passes.  A probe's value depends on its own R and y alone, so the
    probes past a row's first pass change nothing.  A probe within _GUARD of
    -30 is decided by the scalar _log_term, so every R equals _cutoff's.
    Past _MAX_CUTOFF, raises _cutoff's NumericalError for the first such
    row."""
    R0 = np.maximum(8, np.ceil(_start_cutoff(N, arch, ys))).astype(np.int64)
    R = R0.copy()
    open_ = np.flatnonzero(R <= _MAX_CUTOFF)
    width = 1
    while open_.size:
        # each open row's next width + 1 steps; the first width are probed
        # up to the cap, and the first one not probed is where a miss goes on
        steps = np.empty((open_.size, width + 1), dtype=np.int64)
        steps[:, 0] = R[open_]
        for j in range(width):
            steps[:, j + 1] = np.ceil(1.3 * steps[:, j])
        probe = steps[:, :width] <= _MAX_CUTOFF
        rows, cols = np.nonzero(probe)
        Rp, yp = steps[rows, cols], ys[open_[rows]]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lt = np.log(np.abs(kappa(Rp * yp / N**2, arch))) - 0.5 * np.log(Rp)
        passed = lt <= -30.0
        for i in np.flatnonzero(np.abs(lt + 30.0) <= _GUARD).tolist():
            passed[i] = _log_term(N, arch, float(yp[i]), int(Rp[i])) <= -30.0
        done = np.zeros(probe.shape, dtype=bool)
        done[rows, cols] = passed
        hit = done.any(axis=1)
        # the probed steps are a prefix of each row, so a miss goes on at
        # its first unprobed step: the next window, or past the cap
        go_on = np.where(hit, np.argmax(done, axis=1), probe.sum(axis=1))
        R[open_] = steps[np.arange(open_.size), go_on]
        open_ = open_[~hit & (R[open_] <= _MAX_CUTOFF)]
        width = _LOOK_AHEAD
    capped = np.flatnonzero(R > _MAX_CUTOFF)     # a finished row is never past the cap
    if capped.size:
        i = capped[0]
        raise _cap_error(N, arch, float(ys[i]), int(R[i]), int(R0[i]))
    return R


def evaluate_phi(x: float, y: float, ram: RamifiedData, coeffs: CoefficientSource,
                 arch: ArchParams, cutoff: int | None = None) -> complex:
    """The form at n(x) a(y): the progression-supported Fourier expansion

    PREF c_inf^{-1} sum_{m = b (N), 0<|m|<=R}
        |m|^{-1/2} e(m x / N^2) kappa(m y / N^2) lambda(m) lambda'(m).

    The lambda(m) come from coeffs.values_upto on _read_classes, so a file
    source must cover the m in 1..R that the terms read, those with m = b or
    -b (mod N); scan_supnorm needs them up to its plan's largest cutoff.
    y must be positive and finite, and a given cutoff R a positive integer
    (ConfigError otherwise).
    Raises NumericalError where the sum cancels into rounding noise: |phi|
    below eps sqrt(#terms) sum |c_m| (strictly, so an all-zero sum gives 0).
    """
    if not (math.isfinite(y) and y > 0):
        raise ConfigError(f"y must be positive and finite, got {y}")
    R = require_int("cutoff", cutoff, 1) if cutoff is not None else _cutoff(ram.N, arch, y)
    lam_all = coeffs.values_upto(R, *_read_classes(ram, arch))
    ms = _row_progressions(ram, arch, *_row_spans(ram, arch, np.array([R])))[0]
    c = _row_coefficients(ms, y, ram, arch, lam_all)
    val = complex(np.sum(c * np.exp(2j * np.pi * x * ms / ram.N**2)))
    floor = float(np.abs(c).sum()) * np.finfo(float).eps * math.sqrt(len(c))
    if abs(val) < floor:
        raise NumericalError(f"cancellation: |phi| = {abs(val):.1e} is below the rounding "
                             f"floor {floor:.1e} of its {len(c)} terms")
    return val


def _row_spans(ram: RamifiedData, arch: ArchParams, R: np.ndarray):
    """The first term and the term count of each row's progression: all m with
    m == b (mod N), 0 < |m| <= R (positive only if holomorphic), for an int
    array of cutoffs R.  A holomorphic row starts at b or N, a Maass row at
    -R + (b + R) % N and counts m = 0 out where b is 0 (_row_progressions
    steps over it); a row may have no terms."""
    N, b = ram.N, ram.b
    holo = arch.case == "holomorphic"
    start = np.full(len(R), b or N) if holo else -R + (b + R) % N
    return start, (R - start) // N + (holo or b != 0)


def _read_classes(ram: RamifiedData, arch: ArchParams):
    """values_upto's (modulus, residues) of _row_spans' terms: |m| = b, and -b if Maass."""
    return ram.N, (ram.b,) if arch.case == "holomorphic" else (ram.b, -ram.b)


def _row_progressions(ram: RamifiedData, arch: ArchParams, start: np.ndarray,
                      lens: np.ndarray):
    """The progressions of rows (first m, terms; _row_spans) end to end,
    ascending in each row: each m, its row, its column in the row, and each
    row's first position.  A row is m = start + N col, stepping over m = 0
    where the Maass b is 0."""
    starts = np.cumsum(lens) - lens
    row = np.repeat(np.arange(len(lens)), lens)
    col = np.arange(len(row)) - starts[row]
    ms = start[row] + ram.N * col
    if arch.case != "holomorphic" and ram.b == 0:
        ms[ms >= 0] += ram.N
    return ms, row, col, starts


def _row_coefficients(ms: np.ndarray, y, ram: RamifiedData, arch: ArchParams,
                      lam_all: np.ndarray) -> np.ndarray:
    """The Fourier coefficients of phi at the terms ms, on the row y (one y,
    or one per m: evaluate_phi's row, or a whole scan chunk of rows):

    PREF lambda(m) lambda'(m) kappa(|m| y / N^2) / (c_inf |m|^{1/2}),

    with lambda read from the sieve lam_all (indexed by |m|), lambda' from
    lambda_prime_fast and the normalized kernel from one array call.  Every
    factor is real, so the coefficients are float64, and elementwise in m, so
    a term's value does not depend on the other terms of the call (or on
    how a scan cuts its rows into chunks).
    """
    am = np.abs(ms)
    return (PREF * lam_all[am] * lambda_prime_fast(ms, ram) * kappa(am * y / ram.N**2, arch)
            / np.sqrt(am))


@dataclass
class ScanReport:
    N: int
    arch: ArchParams
    sup: float
    argmax: tuple[float, float]         # (x, y), the first maximum, 0 <= x <= N/2
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
# The most elements of a transform block's real (rows, L) array, and twice
# the most terms of a chunk of rows assembled together (scan_supnorm).
_SCAN_BLOCK_ELEMENTS = 2**14


def scan_supnorm(ram: RamifiedData, coeffs: CoefficientSource, arch: ArchParams,
                 rows_per_decade: int = 256, keep_rows: bool = False) -> ScanReport:
    """Grid maximum of |phi| over the generating domain: x over one period
    [0, N^2), y log-spaced from Y_MIN to max(2, N^2 T).  rows_per_decade
    must be a positive integer (ConfigError otherwise).

    Each row scans the grid x = j N^2 / X, j < X, with X = X_STEPS_PER_PERIOD
    N^2 2^i the first such length above 2R + 1 for the row cutoff R.  The
    terms sit on m = b + N j' (0 <= b < N), so

        sum_m c_m e(m j / X) = e(b j / X) G[j mod X/N],

    where G is the unscaled inverse transform, of length L = X/N, of the c_m
    placed at j' mod L (distinct, as X > 2R + 1).  So |phi| on the row has
    period N in x, every grid point keeps its exact modulus, and the row sup
    and its first argmax come from |G| alone.  The unscaled transform keeps
    each row sup at or above its largest single term (discrete Parseval).
    Every c_m is real, so G[j] is the conjugate of the real-input forward
    transform at j, and |G[L - j]| = |G[j]|: the mirror |phi(x)| = |phi(N - x)|.
    Each row's sup and first argmax are therefore read from j = 0..L/2 of one
    rfft, and the argmax x lies in [0, N/2].  A row of one term m has
    |phi| = |c_m| at every x, so its sup is exactly its witness, first
    reached at x = 0, with no transform.  For m = b (every holomorphic
    one-term row: b is a unit at N > 1, and R >= 8 gives an N = 1 row 8
    terms) that is the rfft's result bit for bit, as the one-hot row at
    column 0 transforms to c_m at every frequency; a Maass row of m = b - N
    alone sits at column L - 1, where the rfft reads |c_m| only to rounding.

    The rows are planned before any is scanned (_row_blocks: all cutoffs
    from one _cutoffs probe, and each row's first m and term count from
    _row_spans, as in evaluate_phi).  lambda is then sieved once per scan,
    up to the plan's largest cutoff, on the classes the terms read
    (_read_classes).

    The plan is walked in chunks of consecutive rows holding at most
    _SCAN_BLOCK_ELEMENTS // 2 terms (at least one row).  A chunk builds its
    rows' progressions end to end (_row_progressions), takes their
    coefficients from one _row_coefficients call (evaluate_phi's assembly, one
    kappa call) and each row's witness, its largest |c_m| and the first m that
    reaches it, from one maximum.reduceat.  Within the chunk, each run of rows
    of more than one term that share X/N is cut into blocks of at most
    _SCAN_BLOCK_ELEMENTS elements (or one row), and a block only scatters its
    coefficients into one real (rows, X/N) array and takes one rfft along its
    rows.  Every coefficient is elementwise (a Maass kernel value depends on
    its x alone) and each row's rfft does not depend on its block, so every
    row equals the one-row assembly bit for bit.  The scan's sup and witness are the first maxima
    over all rows, as a row-by-row strict > would keep them.
    """
    rows_per_decade = require_int("rows_per_decade", rows_per_decade, 1)
    N, N2 = ram.N, ram.N**2
    y_max = max(2.0, N2 * arch.T)
    n_rows = max(2, int(rows_per_decade * math.log10(y_max / Y_MIN)) + 1)
    ys = np.exp(np.linspace(math.log(Y_MIN), math.log(y_max), n_rows))
    yp, R, start, lens, L = _row_blocks(ram, arch, ys)
    lam_all = coeffs.values_upto(int(R.max(initial=0)), *_read_classes(ram, arch))
    # a one-term row has |phi| = |c_m| at every x: its sup is its witness,
    # first reached at x = 0, and it takes no transform (length 0 in Lt)
    Lt = np.where(lens > 1, L, 0)
    n = len(yp)
    row_sup, row_w = np.empty(n), np.empty(n)
    jx, row_m = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    ends = np.cumsum(lens)
    lo = 0
    while lo < n:
        # the chunk: rows lo..hi-1, at most _SCAN_BLOCK_ELEMENTS // 2 terms or one row
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _SCAN_BLOCK_ELEMENTS // 2, "right")))
        ms, row, col, starts = _row_progressions(ram, arch, start[lo:hi], lens[lo:hi])
        c = _row_coefficients(ms, yp[lo:hi][row], ram, arch, lam_all)
        mag = np.abs(c)
        w = np.maximum.reduceat(mag, starts)
        # each row's first column at its maximum: the row's other columns
        # are filled with len(mag), past every column
        j = np.minimum.reduceat(np.where(mag < w[row], len(mag), col), starts)
        row_w[lo:hi], row_m[lo:hi] = w, ms[starts + j]
        row_sup[lo:hi], jx[lo:hi] = w, 0      # kept by the one-term rows
        jc = ms // N                     # m = b + N j' puts c_m at j' mod L
        bounds = np.append(starts, len(ms))
        runs = np.flatnonzero(np.diff(Lt[lo:hi], prepend=0, append=0)).tolist()
        for r0, r1 in zip(runs, runs[1:]):       # chunk rows of one L
            Lr = int(Lt[lo + r0])
            if not Lr:
                continue
            size = max(1, _SCAN_BLOCK_ELEMENTS // Lr)
            for b0 in range(r0, r1, size):
                b1 = min(b0 + size, r1)
                t = slice(bounds[b0], bounds[b1])
                F = np.zeros((b1 - b0, Lr))
                F[row[t] - b0, jc[t] % Lr] = c[t]
                av = np.abs(np.fft.rfft(F, axis=1))  # |phi| at x = jx N^2 / X, jx <= L/2
                jb = np.argmax(av, axis=1)
                jx[lo + b0:lo + b1], row_sup[lo + b0:lo + b1] = jb, av[np.arange(b1 - b0), jb]
        lo = hi
    sup, argmax = -1.0, (0.0, ys[0])
    witness, witness_m = -1.0, 0
    if n:
        r = int(np.argmax(row_w))
        witness, witness_m = float(row_w[r]), int(row_m[r])
        r = int(np.argmax(row_sup))
        sup, argmax = float(row_sup[r]), (int(jx[r]) * N2 / (int(L[r]) * N), float(yp[r]))
    rows = list(zip(yp.tolist(), row_sup.tolist(), row_w.tolist())) if keep_rows else []
    C = max(N, 1) ** 4
    scale = C ** (1.0 / 8.0) * arch.h_value
    return ScanReport(N, arch, sup, argmax, witness, witness_m, C,
                      sup / scale, witness / scale, rows,
                      terms=int(lens.sum()), fft_points=int(Lt.sum()))


def _row_blocks(ram: RamifiedData, arch: ArchParams, ys: np.ndarray):
    """The scan plan: the rows with a nonempty progression, as arrays
    (y, R, first m, terms, L = X/N).  scan_supnorm sieves lambda up to the
    largest R and cuts the plan into chunks of rows for assembly and blocks
    of one L for the transform.

    The cutoffs R of all rows are probed at once (_cutoffs, equal to the
    scalar _cutoff at each y), and each row's progression is _row_spans' at
    its R.  X is the first X_STEPS_PER_PERIOD N^2 2^i above 2R + 1, by array
    doubling."""
    N = ram.N
    R = _cutoffs(N, arch, ys)
    start, lens = _row_spans(ram, arch, R)
    keep = lens > 0
    R, start, lens = R[keep], start[keep], lens[keep]
    X = np.full(len(R), X_STEPS_PER_PERIOD * N * N)
    while (short := X <= 2 * R + 1).any():
        X[short] *= 2
    return ys[keep], R, start, lens, X // N


# -- classical congruence group ----------------------------------------------

def build_D(mvs: list[MinimalVectorSpec]) -> int:
    """CRT lift of the local alpha's: D = alpha_p mod p^{n_p}."""
    return _crt([mv.torus.alpha % mv.p**mv.n for mv in mvs], [mv.p**mv.n for mv in mvs])


def gamma_TD(gamma, mvs: list[MinimalVectorSpec]):
    """Classical congruence test and character: gamma integral with det 1 is a
    member iff a == d and c == -b D (mod N), with N = prod p^{n_p} and
    D = build_D(mvs); the character is the product of the inverse local chi's.
    Returns (member, chi or None).
    """
    a, b, c, d = (int(v) for v in np.asarray(gamma).ravel())
    if a * d - b * c != 1:
        raise ConfigError("gamma must have determinant 1")
    N, D = _level(mvs), build_D(mvs)
    if (a - d) % N != 0 or (c + b * D) % N != 0:
        return False, None
    chi = UnitRoot.one()
    for mv in mvs:
        g = Mat2Local.from_rationals(mv.p, (a, b, c, d), mv.torus.precision)
        chi = chi * chi_value(mv, g).inverse()
    return True, chi
