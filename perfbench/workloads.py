"""The four benchmark workloads.

Each workload has a set-up step (the specs it needs, timed as ``setup_s``)
and a list of jobs built from the seed.  A job is one call into the public
minvec API, the same call the CLI or the acceptance suite makes, plus a check
of its answer that runs outside the timed region.  Library functions are
looked up through their modules at call time, so the traced run sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from minvec import characters, global_whittaker, matgroups, minimal
from minvec.residues import LocalElement

RATIO_TOL = 1e-9          # oracle/closed ratio spread, as in the acceptance suite
ARGMAX_REL_TOL = 1e-6     # |evaluate_phi| at the scan argmax against the scan sup

# pair-scan: (p, n, mode, pairs).  (5,1) runs in random mode: its exhaustive
# scan (15000^2 pairs) takes about 90 s, longer than a whole benchmark run.
PAIR_JOBS = [(3, 1, "exhaustive", 0), (5, 1, "random", 500_000), (3, 2, "random", 100_000)]

# whittaker-dual: samples per (p, n) and per oracle window `low`.  Fixed
# quotas keep the cost mix the same on every seed; the totals give about
# equal oracle time per (p, n).  One pass (206 samples) takes about 26 s, so
# that run-to-run noise of the shared machine averages out within a pass.
WINDOW_QUOTAS = {(3, 1): {1: 60, 2: 120}, (5, 1): {1: 6, 2: 10}, (3, 2): {2: 2, 3: 2, 4: 6}}
SAMPLE_PRECISION = 16

# Scan grid density, rows per decade of y.  The CLI scans at 256; a quarter
# of that keeps the y range, the transform lengths, the cost per row and both
# known Maass failures, and brings one pass from about 13 s to 4 s (holo-scan)
# and from 22 s to 8 s (maass-scan), so a run repeats every scan and times it
# by the median of its repeats.
SCAN_ROWS_PER_DECADE = 64

HOLO_LEVELS = (1, 3, 5, 15, 21)
HOLO_WEIGHTS = (12, 40, 120)
MAASS_JOBS = [(1, 2.0), (3, 2.0), (5, 5.0), (3, 5.0), (1, 10.0)]

# the minimal vectors (theta index 0, as the CLI builds them) behind each level
LEVEL_PRIMES = {1: [], 3: [(3, 1)], 5: [(5, 1)], 15: [(3, 1), (5, 1)], 21: [(3, 1), (7, 1)]}


class WrongAnswer(Exception):
    """A job returned an answer that fails its check."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]        # the timed operation
    check: Callable[[object], int]   # work units of a verified answer; raises WrongAnswer


@dataclass
class Workload:
    unit: str                                    # what one unit of work is
    setup: Callable[[], dict]                    # builds the specs
    jobs: Callable[[dict, int], list[Job]]       # (specs, seed) -> one pass


def build_mv(p: int, n: int):
    spec = matgroups.TorusSpec(p, n)
    return characters.MinimalVectorSpec.build(spec, characters.enumerate_theta(spec)[0])


def build_mvs(pns) -> dict:
    return {pn: build_mv(*pn) for pn in pns}


def _derived_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(count)]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# -- pair-scan ----------------------------------------------------------------

def _pair_setup() -> dict:
    return build_mvs([(p, n) for p, n, _, _ in PAIR_JOBS])


def _pair_jobs(mvs: dict, seed: int) -> list[Job]:
    jobs = []
    for (p, n, mode, pairs), job_seed in zip(PAIR_JOBS, _derived_seeds(seed, len(PAIR_JOBS))):
        mv = mvs[(p, n)]
        support = (p ** (4 * n) - p ** (4 * n - 2)) * p ** (2 * n)
        expected_pairs = support**2 if mode == "exhaustive" else pairs
        density = Fraction(p, (p - 1) * p ** (2 * n))

        def run(mv=mv, mode=mode, pairs=pairs, job_seed=job_seed):
            return minimal.convolution_check(mv, mode=mode, pairs=pairs, seed=job_seed)

        def check(rep, expected_pairs=expected_pairs, density=density):
            _expect(rep.closure_violations == 0, f"{rep.closure_violations} closure violations")
            _expect(rep.multiplicativity_violations == 0,
                    f"{rep.multiplicativity_violations} multiplicativity violations")
            _expect(rep.pairs_checked == expected_pairs,
                    f"{rep.pairs_checked} pairs checked, expected {expected_pairs}")
            _expect(rep.density == density and rep.norm_square == density,
                    f"density {rep.density}, expected {density}")
            return rep.pairs_checked

        jobs.append(Job(f"({p},{n}) {mode}", run, check))
    return jobs


# -- whittaker-dual -----------------------------------------------------------

def oracle_window(mv, g) -> int:
    """The x-window exponent `low` that whittaker_oracle picks by default."""
    _, m, _ = matgroups.decompose_B1T(g, mv.torus, side="left")
    if not m.is_zero and m.v < -mv.n:
        return -int(m.v)
    return mv.n


def whittaker_samples(mv, quotas: dict[int, int], rng: random.Random) -> list[tuple[int, object]]:
    """Criterion-4 samples g = n(x) a(y) k at (p, n), filled per oracle window.

    k has unit determinant and entries below p^(2n+1); y lies in the support
    class of k at valuation -2n; x has denominator p^0, p^1 or p^2 in turn.
    """
    p, n = mv.p, mv.n
    M = SAMPLE_PRECISION
    left = dict(quotas)
    out = []
    draws = 0
    while any(left.values()):
        k = matgroups.Mat2Local.from_rationals(
            p, [rng.randrange(p ** (2 * n + 1)) for _ in range(4)], M)
        if k.det.is_zero or k.det.v != 0:
            continue
        b = minimal.support_profile(mv, k)
        y = LocalElement(p, -2 * n, (b + p**n * rng.randrange(p**n)) % p ** (2 * n), M)
        x = LocalElement.from_rational(p, Fraction(rng.randint(-15, 15), p ** (draws % 3)), M)
        draws += 1
        g = matgroups.n_mat(x) * matgroups.a_mat(y) * k
        low = oracle_window(mv, g)
        if left.get(low, 0) > 0:
            left[low] -= 1
            out.append((low, g))
    return out


def _whittaker_setup() -> dict:
    return build_mvs(WINDOW_QUOTAS)


def _whittaker_jobs(mvs: dict, seed: int) -> list[Job]:
    rng = random.Random(seed)
    reference = {}    # (p, n) -> the first checked oracle/closed ratio
    jobs = []
    for pn, quotas in WINDOW_QUOTAS.items():
        mv = mvs[pn]
        for i, (low, g) in enumerate(whittaker_samples(mv, quotas, rng)):
            def run(mv=mv, g=g):
                return minimal.whittaker_closed(mv, g), minimal.whittaker_oracle(mv, g)

            def check(answer, pn=pn):
                closed, oracle = answer
                _expect(closed.in_support, "sample outside the closed-form support")
                ratio = oracle / closed.to_complex()
                r0 = reference.setdefault(pn, ratio)
                _expect(abs(ratio) > 0 and abs(ratio / r0 - 1) < RATIO_TOL,
                        f"oracle/closed ratio {ratio} against {r0}")
                return 1

            jobs.append(Job(f"{pn} sample {i} low={low}", run, check))
    return jobs


# -- the two sup-norm scans ---------------------------------------------------

def _ramified(mvs: dict, N: int):
    if N == 1:
        return global_whittaker.RamifiedData.unramified()
    return global_whittaker.RamifiedData.build([mvs[pn] for pn in LEVEL_PRIMES[N]])


def _scan_setup(levels) -> dict:
    mvs = build_mvs(sorted({pn for N in levels for pn in LEVEL_PRIMES[N]}))
    return {N: _ramified(mvs, N) for N in levels}


def _coefficients(kind: str, seed: int):
    if kind == "all-ones":
        return global_whittaker.CoefficientSource.all_ones()
    return global_whittaker.CoefficientSource.sato_tate(seed)


def _scan_job(name: str, ram, arch, kind: str, seed: int) -> Job:
    verified = set()   # a repeat answer identical to a verified one needs no new evaluate_phi

    def run():
        # a fresh coefficient source per operation, as each CLI run builds one
        return global_whittaker.scan_supnorm(ram, _coefficients(kind, seed), arch, keep_rows=True,
                                             rows_per_decade=SCAN_ROWS_PER_DECADE)

    def check(rep):
        key = (rep.sup, rep.argmax, rep.witness, rep.witness_m, tuple(rep.rows))
        if key in verified:
            return len(rep.rows)
        _expect(rep.sup >= rep.witness > 0, f"sup {rep.sup} below witness {rep.witness}")
        x, y = rep.argmax
        direct = abs(global_whittaker.evaluate_phi(x, y, ram, _coefficients(kind, seed), arch))
        _expect(abs(direct - rep.sup) <= ARGMAX_REL_TOL * rep.sup,
                f"|phi| at the argmax is {direct}, scan sup {rep.sup}")
        verified.add(key)
        return len(rep.rows)

    return Job(name, run, check)


def _holo_jobs(rams: dict, seed: int) -> list[Job]:
    return [_scan_job(f"N={N} k={k} {kind}", rams[N],
                      global_whittaker.ArchParams("holomorphic", k=k), kind, seed)
            for N in HOLO_LEVELS for k in HOLO_WEIGHTS for kind in ("sato-tate", "all-ones")]


def _maass_jobs(rams: dict, seed: int) -> list[Job]:
    return [_scan_job(f"N={N} t={t:g}", rams[N],
                      global_whittaker.ArchParams("maass", t=t), "sato-tate", seed)
            for N, t in MAASS_JOBS]


WORKLOADS = {
    "pair-scan": Workload("pairs", _pair_setup, _pair_jobs),
    "whittaker-dual": Workload("samples", _whittaker_setup, _whittaker_jobs),
    "holo-scan": Workload("rows", lambda: _scan_setup(HOLO_LEVELS), _holo_jobs),
    "maass-scan": Workload("rows", lambda: _scan_setup(sorted({N for N, _ in MAASS_JOBS})),
                           _maass_jobs),
}
