"""Flip invariance of the additive character's sign: with residues.PSI_SIGN
negated at run time, every phase in the library is conjugated and the
invariant suites still pass.  They run in a subprocess, so the flip cannot
leak into this one.  tests/conftest.py starts it as soon as collection
finishes, so it runs beside the rest of the session, and the test waits on
it.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SUITES = ["tests/test_residues.py", "tests/test_characters.py", "tests/test_minimal.py",
          "tests/test_global.py", "tests/test_que.py", "tests/test_acceptance.py"]
# The Maass c_infty is the closed form sqrt(pi / (4 cosh pi t)), which reads
# neither PSI_SIGN nor residues, so its mpmath oracle (about 23 s) runs once,
# in the normal suite.
SIGN_FREE_ORACLE = "tests/test_global.py::test_c_infty_maass_matches_mpmath"

FLIPPED_PYTEST = """
import sys
from fractions import Fraction

import pytest

from minvec import residues

third = residues.LocalElement.from_rational(3, Fraction(1, 3), 4)
before = residues.psi(third)
residues.PSI_SIGN = -residues.PSI_SIGN
after = residues.psi(third)
assert after != before and after == before.inverse(), (before, after)
sys.exit(pytest.main(sys.argv[1:]))
"""


# the running flipped suite: (process, stdout file, stderr file, start time)
_flipped = None


def start_flipped_suite():
    """Start the flipped-sign suites in a subprocess, once; its output goes
    to temporary files, so a long report cannot fill a pipe."""
    global _flipped
    if _flipped is not None:
        return
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    args = ["-q", "-p", "no:cacheprovider", *SUITES, "--deselect", SIGN_FREE_ORACLE]
    out, err = tempfile.TemporaryFile("w+"), tempfile.TemporaryFile("w+")
    proc = subprocess.Popen([sys.executable, "-c", FLIPPED_PYTEST, *args], cwd=ROOT, env=env,
                            stdout=out, stderr=err, text=True)
    _flipped = (proc, out, err, time.monotonic())


def stop_flipped_suite():
    """Kill the flipped suite if it is still running, and close its output
    files."""
    if _flipped is not None:
        proc, out, err, _ = _flipped
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        out.close()
        err.close()


def test_invariant_suites_pass_with_psi_sign_flipped():
    start_flipped_suite()
    proc, out, err, started = _flipped
    try:
        # 600 s from the start of the subprocess
        proc.wait(timeout=max(0.0, started + 600 - time.monotonic()))
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    finally:
        stop_flipped_suite()
    assert proc.returncode == 0, stdout[-3000:] + stderr[-2000:]
