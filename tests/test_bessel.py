import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from minvec import bessel
from minvec.bessel import bessel_K_imag, bessel_K_imag_row
from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.errors import NoSolution
from minvec.global_whittaker import (Y_MIN, ArchParams, RamifiedData, _cutoff,
                                     _signed_progression)
from minvec.matgroups import TorusSpec

# the t's of the bit-identity checks: real order, the scan jobs, and t = 10,
# where convergence sits at the rounding floor
IDENTITY_T = (0.0, 0.5, 2.0, 5.0, 10.0)


def reference_K_imag(t: float, x: float, rel_tol: float = 1e-12) -> float:
    """The per-x refinement as it ran before the row route: np.linspace nodes
    and fresh Simpson weights at every level.  The bit-identity reference of
    bessel_K_imag and bessel_K_imag_row."""
    if x <= 0:
        raise ValueError("x must be positive")
    U = math.acosh(bessel._TAIL_EXPONENT / x + 1.0)
    n = 64
    min_n = max(64, int(16 * abs(t) * U / (2 * math.pi)) * 2)
    while n < min_n:
        n *= 2
    prev, change = None, math.inf
    scale = math.exp(-x) if x < 700 else 0.0
    while n <= bessel._MAX_NODES:
        u = np.linspace(0.0, U, n + 1)
        f = np.exp(-x * (np.cosh(u) - 1.0)) * np.cos(t * u)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        val = (U / n) / 3.0 * float(w @ f)
        if prev is not None:
            change = abs(val - prev) / max(abs(val), 1e-300)
            if change <= rel_tol:
                return scale * val
        prev = val
        n *= 2
    raise NoSolution(f"Bessel quadrature for K_i{t:g}({x:g}) did not converge within "
                     f"{bessel._MAX_NODES} intervals: last relative change {change:.3g}")


def reference_row(t: float, xs) -> np.ndarray:
    """The old per-x loop over a row: stops at the first x that fails."""
    return np.array([reference_K_imag(t, x) for x in np.asarray(xs, dtype=float).tolist()])


def _outcome(fn, *args):
    """The value, or the message of the NoSolution raised."""
    try:
        return fn(*args)
    except NoSolution as err:
        return str(err)


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a, b)


def _asymptotic(t: float, x: float) -> float:
    """Large-argument series sqrt(pi/2x) e^{-x} (1 + a1/(8x) + a2/(2(8x)^2))
    with a_j built from nu^2 = -t^2."""
    nu2 = -t * t
    a1 = 4 * nu2 - 1
    a2 = (4 * nu2 - 1) * (4 * nu2 - 9)
    return math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1 + a1 / (8 * x) + a2 / (2 * (8 * x) ** 2))


def test_refinement_oracle():
    # double-resolution quadrature as an independent oracle
    for (t, x) in [(0.0, 1.0), (1.0, 0.5), (3.0, 2.0), (5.0, 10.0)]:
        v = bessel_K_imag(t, x, rel_tol=1e-12)
        w = bessel_K_imag(t, x, rel_tol=1e-15)
        assert abs(v - w) <= 1e-10 * abs(w)


def test_real_order_zero_matches_scipy():
    from scipy.special import kv
    for x in (0.1, 0.7, 3.0, 15.0):
        assert bessel_K_imag(0.0, x) == pytest.approx(float(kv(0, x)), rel=1e-12)


def test_asymptotic_at_40():
    for t in (0.0, 0.5, 1.0):
        ratio = bessel_K_imag(t, 40.0) / _asymptotic(t, 40.0)
        assert abs(ratio - 1) < 1e-3


def test_evenness_in_t():
    for (t, x) in [(2.5, 1.3), (0.7, 4.0)]:
        assert bessel_K_imag(t, x) == pytest.approx(bessel_K_imag(-t, x), rel=1e-12, abs=1e-300)


def test_imaginary_order_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for (t, x) in [(1.0, 0.5), (3.0, 2.0), (7.0, 1.0), (0.25, 10.0)]:
        ref = complex(mpmath.besselk(1j * t, x)).real
        assert bessel_K_imag(t, x) == pytest.approx(ref, rel=1e-10)


def test_positive_x_required():
    with pytest.raises(ValueError):
        bessel_K_imag(1.0, 0.0)


def test_nonconvergence_raises_within_node_cap(tmp_path):
    # K_{25i} cancels below the quadrature's reach in a scan row (the first
    # failure, K_{25i}(21.77), stops at a relative change of 1e-9, about
    # 1000 rel_tol); the node cap must turn that into NoSolution (CLI exit 1),
    # not an unbounded allocation
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "minvec.cli", "scan-supnorm", "--N", "1", "--t", "25"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          preexec_fn=cap_address_space, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "Bessel quadrature" in proc.stderr and "did not converge" in proc.stderr


# -- the row route against the per-x reference ---------------------------------

@pytest.fixture(scope="module")
def scan_rows():
    """{(N, t): the x's of every row of the 64-rows-per-decade scan grid}, as
    kappa receives them: 2 pi |m| y / N^2 over the signed progression up to
    the row cutoff."""
    rams = {1: RamifiedData.unramified()}
    for p in (3, 5):
        spec = TorusSpec(p, 1)
        rams[p] = RamifiedData.build([MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])])
    out = {}
    for N, ram in rams.items():
        for t in IDENTITY_T:
            arch = ArchParams("maass", t=t)
            y_max = max(2.0, N * N * arch.T)
            n_rows = max(2, int(64 * math.log10(y_max / Y_MIN)) + 1)
            rows = []
            for y in np.exp(np.linspace(math.log(Y_MIN), math.log(y_max), n_rows)):
                ms = _signed_progression(ram, _cutoff(N, arch, float(y)), False)
                rows.append(2.0 * math.pi * (np.abs(ms) * y / N**2))
            out[N, t] = rows
    return out


@pytest.mark.parametrize("t", IDENTITY_T)
def test_row_is_bit_identical_on_scan_rows(scan_rows, t):
    failed = 0
    for N in (1, 3, 5):
        for xs in scan_rows[N, t]:
            expected = _outcome(reference_row, t, xs)
            assert _same(_outcome(bessel_K_imag_row, t, xs), expected), (N, xs[:3])
            failed += isinstance(expected, str)
    # t = 10 fails on the low rows of N = 3 and 5; the lower t's never do
    assert (failed > 0) == (t == 10.0)


@pytest.mark.parametrize("t", IDENTITY_T)
def test_row_and_scalar_are_bit_identical_on_a_log_grid(t):
    xs = np.exp(np.linspace(math.log(0.05), math.log(200.0), 60))
    per_x = [_outcome(reference_K_imag, t, x) for x in xs.tolist()]
    assert [_outcome(bessel_K_imag, t, x) for x in xs.tolist()] == per_x
    assert _same(_outcome(bessel_K_imag_row, t, xs), _outcome(reference_row, t, xs))
    # the x's that converge, as one row
    converged = [not isinstance(v, str) for v in per_x]
    assert np.array_equal(bessel_K_imag_row(t, xs[converged]),
                          np.array([v for v, ok in zip(per_x, converged) if ok]))


def test_row_edge_cases(monkeypatch):
    assert bessel_K_imag_row(2.0, []).shape == (0,)
    assert bessel_K_imag_row(2.0, np.empty(0)).dtype == float

    def no_quadrature(*args):
        raise AssertionError("x was checked after the quadrature started")
    monkeypatch.setattr(bessel, "_integrand_scaled", no_quadrature)
    for xs in ([1.0, 0.0], [-1.0, 2.0], [3.0, 2.0, -0.5], [math.nan]):
        with pytest.raises(ValueError):
            bessel_K_imag_row(2.0, xs)
    for x in (0.0, -1.0):
        with pytest.raises(ValueError):
            bessel_K_imag(2.0, x)


def test_row_names_the_first_x_that_fails(monkeypatch):
    # 0.3 and 0.2 both fail at t = 10; 6 and 8 converge on either side
    xs = [6.0, 0.3, 8.0, 0.2]
    with pytest.raises(NoSolution, match=r"K_i10\(0\.3\)") as err:
        bessel_K_imag_row(10.0, xs)
    assert str(err.value) == _outcome(reference_row, 10.0, xs)
    # also when a budget of one byte refines every x alone
    monkeypatch.setattr(bessel, "ROW_BLOCK_BYTES", 1)
    with pytest.raises(NoSolution, match=r"K_i10\(0\.3\)"):
        bessel_K_imag_row(10.0, xs)


@pytest.mark.parametrize("budget", [1 << 18, 1 << 16])
def test_row_batches_stay_within_the_budget(monkeypatch, budget):
    # 200 x's whose levels outgrow the budget: the values stay bit-identical,
    # the row takes more integrand passes, and the traced peak stays within
    # the budget plus the per-x bookkeeping (a few Python floats per x)
    xs = np.exp(np.linspace(math.log(0.3), math.log(60.0), 200))
    passes = []
    integrand = bessel._integrand_scaled

    def counting(u, t, x):
        passes.append(u.shape)
        return integrand(u, t, x)
    monkeypatch.setattr(bessel, "_integrand_scaled", counting)
    expected = bessel_K_imag_row(5.0, xs)
    whole = len(passes)
    monkeypatch.setattr(bessel, "ROW_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        got = bessel_K_imag_row(5.0, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert len(passes) > 2 * whole
    assert peak <= budget + 256 * len(xs)


def test_row_batches_are_bit_identical_to_the_reference(monkeypatch):
    xs = np.exp(np.linspace(math.log(0.5), math.log(60.0), 40))
    for budget in (1 << 12, 1):
        monkeypatch.setattr(bessel, "ROW_BLOCK_BYTES", budget)
        assert np.array_equal(bessel_K_imag_row(5.0, xs), reference_row(5.0, xs))


def test_row_at_the_node_cap_raises_within_the_address_space(tmp_path):
    # 64 copies of the first failing x of `scan-supnorm --N 1 --t 25`, each
    # refined to the 2^20-node cap: together they would need gigabytes, so
    # the row must refine them in batches and stop at the first NoSolution
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = ("import numpy as np\n"
            "from minvec.bessel import bessel_K_imag_row\n"
            "bessel_K_imag_row(25.0, np.full(64, 21.7656))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
                          text=True, preexec_fn=cap_address_space, timeout=300)
    assert proc.returncode == 1
    assert ("NoSolution: Bessel quadrature for K_i25(21.7656) did not converge"
            in proc.stderr), proc.stderr
    assert "last relative change" in proc.stderr and "MemoryError" not in proc.stderr
