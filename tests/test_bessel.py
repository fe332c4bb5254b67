import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minvec.bessel import bessel_K_imag


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
