"""Desk-scale laboratory for minimal vectors in depth-n supercuspidal
representations of GL(2) over p-adic fields, and the global sup-norm and
QUE-period experiments they drive.
"""

from .residues import LocalElement, UnitRoot, psi
from .matgroups import Mat2Local, TorusSpec, canonical_alpha, decompose_B1T
from .characters import (MinimalVectorSpec, ThetaChar, chi_value, enumerate_theta,
                         solve_a_theta)
from .minimal import (convolution_check, matrix_coefficient, support_profile,
                      whittaker_closed, whittaker_oracle)
from .que import conductor_pair, distinguished, que_period
from .bessel import bessel_K_imag
from .global_whittaker import (ArchParams, CoefficientSource, RamifiedData,
                               c_infty, evaluate_phi, gamma_TD, kappa,
                               lambda_prime, scan_supnorm)

__version__ = "0.1.0"
