import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minvec import bessel
from minvec.bessel import bessel_K_imag, bessel_K_imag_row
from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.errors import NoSolution
from minvec.global_whittaker import Y_MIN, ArchParams, RamifiedData, _cutoff
from minvec.matgroups import TorusSpec

# the t's of the cross-checks: real order, the scan jobs, and t = 10, where
# the Simpson reference sits at its rounding floor
CHECK_T = (0.0, 0.5, 2.0, 5.0, 10.0)
MPMATH_T = (0.0, 0.5, 2.0, 5.0, 10.0, 20.0, 30.0)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def signed_progression(N: int, b: int, R: int, holomorphic: bool) -> np.ndarray:
    """All m with m == b (mod N), 0 < |m| <= R (positive only if holomorphic),
    ascending: the reference for the library's progression builder, by a
    filter over arange, for any integer b."""
    all_m = np.arange(1, R + 1) if holomorphic else np.arange(-R, R + 1)
    return all_m[(all_m != 0) & (all_m % N == b % N)]


def reference_K_imag(t: float, x: float, rel_tol: float = 1e-12) -> float:
    """The second route: composite Simpson on the real axis, doubling the
    node count until two levels agree.  Its integrand e^{-x cosh u} cos(tu)
    is O(1) while K_{it}(x) is about e^{-pi t/2}, so it converges only where
    that cancellation leaves digits (x >= t/2 up to t = 10)."""
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
    """reference_K_imag over a row: stops at the first x that fails."""
    return np.array([reference_K_imag(t, x) for x in np.asarray(xs, dtype=float).tolist()])


def oscillation_floor(t: float, x):
    """e^{-pi t/2} / sqrt(x), the size of K_{it}(x) where it oscillates: the
    floor of the relative checks, so that the zeros of K_{it} do not count."""
    return math.exp(-math.pi * abs(t) / 2) / np.sqrt(x)


def _run_capped(args: list[str], cwd) -> subprocess.CompletedProcess:
    """Python with args, under a 1 GiB address space."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, preexec_fn=cap_address_space,
                          timeout=300)


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


@pytest.mark.parametrize("t, x", [(0.0, 1e-306), (2.0, 1e-306), (10.0, 1e-306), (10.0, 5e-324)])
def test_tiny_x_is_a_value_or_no_solution(t, x):
    # where 45/(x cos a) overflows, sinh overflows on the path before its tail
    # decays: NoSolution, never OverflowError, ZeroDivisionError or NaN, and
    # neither route lets a RuntimeWarning out
    if t < 10:
        mpmath = pytest.importorskip("mpmath")
        ref = float(mpmath.besselk(1j * t, x).real)
        tol = 1e-12 * max(abs(ref), oscillation_floor(t, x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(bessel_K_imag(t, x) - ref) <= tol
            assert abs(bessel_K_imag_row(t, [1.0, x])[1] - ref) <= tol
        return
    for call in (lambda: bessel_K_imag(t, x), lambda: bessel_K_imag_row(t, [1.0, x])):
        with warnings.catch_warnings(), pytest.raises(NoSolution, match="where sinh overflows") as exc:
            warnings.simplefilter("error")
            call()
        assert "nan" not in str(exc.value)


@pytest.mark.parametrize("t", MPMATH_T)
def test_matches_mpmath_on_a_grid(t):
    mpmath = pytest.importorskip("mpmath")
    # x = t is the turning point of K_{it} (none at t = 0)
    xs = np.array([0.01, 0.5, 5.4, t, 20.0, 40.0, 200.0])
    xs = xs[xs > 0]
    ref = np.array([float(mpmath.besselk(1j * t, x).real) for x in xs.tolist()])
    scale = np.maximum(np.abs(ref), oscillation_floor(t, xs))
    row = bessel_K_imag_row(t, xs)
    assert np.all(np.abs(row - ref) <= 1e-12 * scale), (xs, (row - ref) / scale)
    one = np.array([bessel_K_imag(t, x) for x in xs.tolist()])
    assert np.all(np.abs(one - ref) <= 1e-12 * scale), (xs, (one - ref) / scale)


def test_nonconvergence_raises_within_node_cap(tmp_path):
    # K_{25i} is within reach on the whole CLI grid: the scan completes in a
    # 1 GiB address space
    proc = _run_capped(["-m", "minvec.cli", "scan-supnorm", "--N", "1", "--t", "25"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("scan-supnorm: sup=") and (tmp_path / "report.json").exists()
    # a node cap too low for the first scan row turns into NoSolution (CLI
    # exit 1), not an unbounded allocation
    code = ("import sys\n"
            "from minvec import bessel, cli\n"
            "bessel._MAX_NODES = 64\n"
            "sys.exit(cli.main(['scan-supnorm', '--N', '1', '--t', '25']))\n")
    proc = _run_capped(["-c", code], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Bessel quadrature for K_i25(" in proc.stderr
    assert "did not converge within 64 intervals: last relative change" in proc.stderr


# -- the row route against the one-x route and the Simpson reference ---------

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
        for t in CHECK_T:
            arch = ArchParams("maass", t=t)
            y_max = max(2.0, N * N * arch.T)
            n_rows = max(2, int(64 * math.log10(y_max / Y_MIN)) + 1)
            rows = []
            for y in np.exp(np.linspace(math.log(Y_MIN), math.log(y_max), n_rows)):
                ms = signed_progression(N, ram.b, _cutoff(N, arch, float(y)), False)
                rows.append(2.0 * math.pi * (np.abs(ms) * y / N**2))
            out[N, t] = rows
    return out


@pytest.mark.parametrize("t", CHECK_T)
def test_row_matches_one_x_on_scan_rows(scan_rows, t):
    # both routes refine each x from its own starting count with the same
    # node sums; the row route takes the contour (a, U, floor, prefactor) in
    # NumPy and the one-x route in math, so the values differ only in rounding
    for N in (1, 3, 5):
        for xs in scan_rows[N, t]:
            row = bessel_K_imag_row(t, xs)
            one = np.array([bessel_K_imag(t, x) for x in xs.tolist()])
            scale = np.maximum(np.abs(one), oscillation_floor(t, xs))
            assert np.all(np.abs(row - one) <= 1e-14 * scale), (N, xs[:3])


@pytest.mark.parametrize("t", CHECK_T)
def test_row_matches_reference_on_a_log_grid(t):
    # the Simpson reference converges on the whole grid from x = t/2 on
    xs = np.exp(np.linspace(math.log(0.05), math.log(200.0), 60))
    xs = xs[xs >= t / 2]
    ref = reference_row(t, xs)
    scale = np.maximum(np.abs(ref), oscillation_floor(t, xs))
    assert np.all(np.abs(bessel_K_imag_row(t, xs) - ref) <= 1e-10 * scale)


def test_row_evaluates_each_distinct_x_once(monkeypatch):
    # at N = 1 every |m| of a scan row comes twice; the contours of the
    # distinct x's are taken in one array pass, in first-appearance order
    xs = np.array([3.0, 0.5, 3.0, 7.0, 0.5, 3.0])
    calls = []
    contour = bessel._contour

    def counting(t, xs):
        calls.append(xs.tolist())
        return contour(t, xs)
    monkeypatch.setattr(bessel, "_contour", counting)
    got = bessel_K_imag_row(2.0, xs)
    assert calls == [[3.0, 0.5, 7.0]]
    assert np.array_equal(got, bessel_K_imag_row(2.0, [3.0, 0.5, 7.0])[[0, 1, 0, 2, 1, 0]])
    assert bessel_K_imag_row(2.0, xs.reshape(2, 3)).shape == (2, 3)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(t=st.floats(0.0, 40.0),
       logs=st.lists(st.floats(math.log(1e-2), math.log(300.0)), min_size=1, max_size=12),
       data=st.data())
def test_row_values_do_not_depend_on_the_batch(t, logs, data):
    # the value at an x is the same bits alone, among other x's, and in any order
    xs = np.exp(logs)
    row = bessel_K_imag_row(t, xs)
    alone = np.array([bessel_K_imag_row(t, [x])[0] for x in xs.tolist()])
    assert np.array_equal(row, alone)
    perm = np.array(data.draw(st.permutations(range(len(xs)))))
    assert np.array_equal(bessel_K_imag_row(t, xs[perm]), row[perm])
    part = perm[:data.draw(st.integers(1, len(xs)))]
    assert np.array_equal(bessel_K_imag_row(t, xs[part]), row[part])


def test_row_edge_cases(monkeypatch):
    assert bessel_K_imag_row(2.0, []).shape == (0,)
    assert bessel_K_imag_row(2.0, np.empty(0)).dtype == float

    def no_quadrature(*args):
        raise AssertionError("x was checked after the quadrature started")
    monkeypatch.setattr(bessel, "_node_sums", no_quadrature)
    for xs in ([1.0, 0.0], [-1.0, 2.0], [3.0, 2.0, -0.5], [math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError):
            bessel_K_imag_row(2.0, xs)
    for x in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            bessel_K_imag(2.0, x)


def test_row_names_the_first_x_that_fails(monkeypatch):
    # at t = 10, 6 and 8 converge within 256 intervals, 0.3 and 0.2 do not
    monkeypatch.setattr(bessel, "_MAX_NODES", 256)
    xs = [6.0, 0.3, 8.0, 0.2]
    with pytest.raises(NoSolution, match=r"K_i10\(0\.3\) did not converge within 256 "
                                         r"intervals: last relative change \d") as err:
        bessel_K_imag_row(10.0, xs)
    with pytest.raises(NoSolution) as one:
        bessel_K_imag(10.0, 0.3)
    assert str(err.value) == str(one.value)
    assert np.all(np.isfinite(bessel_K_imag_row(10.0, [6.0, 8.0])))
    with pytest.raises(NoSolution, match=r"K_i10\(0\.2\)"):
        bessel_K_imag_row(10.0, xs[::-1])


@pytest.mark.parametrize("elements", [1 << 12, 1 << 8])
def test_row_passes_stay_within_the_element_cap(monkeypatch, elements):
    # 200 x's whose levels outgrow the cap: the row takes more integrand
    # passes, the values move only in rounding, and the traced peak stays
    # within a few arrays of the cap plus the per-x bookkeeping
    xs = np.exp(np.linspace(math.log(0.3), math.log(60.0), 200))
    shapes = []
    sinh = np.sinh

    def counting(u):
        shapes.append(u.shape)
        return sinh(u)
    monkeypatch.setattr(bessel.np, "sinh", counting)
    expected = bessel_K_imag_row(5.0, xs)
    whole = len(shapes)
    monkeypatch.setattr(bessel, "_PASS_ELEMENTS", elements)
    tracemalloc.start()
    try:
        got = bessel_K_imag_row(5.0, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))
    assert len(shapes) > 2 * whole
    assert max(rows * nodes for rows, nodes in shapes[whole:]) <= elements
    assert peak <= 8 * 8 * elements + 512 * len(xs)


def test_row_at_the_node_cap_raises_within_the_address_space(tmp_path):
    # 4096 x's at the costliest point in reach, t = 400 (c_inf underflows
    # from about 450 on) and x = 1e-3: 2^15 nodes each, 1 GiB per integrand
    # array if the row were one pass.  Split into passes it fits in a 1 GiB
    # address space; with a node cap below its first level it stops at the
    # first x with NoSolution, not MemoryError
    code = ("import numpy as np\n"
            "from minvec import bessel\n"
            "xs = 1e-3 * (1 + 1e-6 * np.arange(4096))\n"
            "assert np.all(bessel.bessel_K_imag_row(400.0, xs) != 0)\n"
            "bessel._MAX_NODES = 1 << 14\n"
            "bessel.bessel_K_imag_row(400.0, xs)\n")
    proc = _run_capped(["-c", code], tmp_path)
    assert proc.returncode == 1
    assert ("NoSolution: Bessel quadrature for K_i400(0.001) did not converge within 16384"
            in proc.stderr), proc.stderr
    assert "last relative change" in proc.stderr and "MemoryError" not in proc.stderr
