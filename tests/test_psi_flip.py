"""Flip invariance of the additive character's sign: with residues.PSI_SIGN
negated at run time, every phase in the library is conjugated and the
invariant suites still pass.  They run in a subprocess, so the flip cannot
leak into this one.
"""

import os
import subprocess
import sys
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

before = residues.psi_of_rational(3, Fraction(1, 3))
residues.PSI_SIGN = -residues.PSI_SIGN
after = residues.psi_of_rational(3, Fraction(1, 3))
assert after != before and after == before.conjugate(), (before, after)
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_invariant_suites_pass_with_psi_sign_flipped():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    args = ["-q", "-p", "no:cacheprovider", *SUITES, "--deselect", SIGN_FREE_ORACLE]
    proc = subprocess.run([sys.executable, "-c", FLIPPED_PYTEST, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
