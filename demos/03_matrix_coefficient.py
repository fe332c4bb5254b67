"""The distinguished matrix coefficient Phi_0 and its convolution law.

Phi_0 equals the character chi on a compact-mod-center group and vanishes
elsewhere; convolving it with itself reproduces Phi_0 times the exact support
density delta.  The check below verifies this on every pair of support
elements, in exact root-of-unity arithmetic.
"""

from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.matgroups import Mat2Local, TorusSpec
from minvec.minimal import (coefficient_density, convolution_check,
                            matrix_coefficient)

spec = TorusSpec(3, 1)
mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])

print("value at the identity:", matrix_coefficient(mv, Mat2Local.identity(3, 8)))
g = Mat2Local.from_rationals(3, (1, 1, 0, 1), 8)
print("value off the support:", matrix_coefficient(mv, g))
print("support density delta =", coefficient_density(mv))

rep = convolution_check(mv, "exhaustive")
print(f"\nexhaustive pair scan: {rep.pairs_checked} products")
print("  closure violations        :", rep.closure_violations)
print("  multiplicativity failures :", rep.multiplicativity_violations)
print("  L2 mass = delta exactly   :", rep.norm_square == rep.density)
print("  q^(2n) * delta            :", rep.density * 9, "(= q/(q-1))")
