"""The Whittaker function of a minimal vector, two ways.

Closed form: supported on a single unit class at one diagonal valuation, with
constant magnitude.  Oracle: the additive-twist transform of the matrix
coefficient.  They agree up to one global scalar.
"""

from fractions import Fraction

from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.matgroups import Mat2Local, TorusSpec, a_mat, n_mat
from minvec.minimal import (support_profile, whittaker_closed,
                            whittaker_oracle, whittaker_support_scan)
from minvec.residues import LocalElement

spec = TorusSpec(3, 1)
mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
M = 14
b = mv.support_unit()

print("diagonal restriction y -> W(a(y)):")
for v in (-3, -2, -1, 0):
    for u in (1, 2):
        w = whittaker_closed(mv, a_mat(LocalElement(3, v, u, M)))
        tag = f"|W| = {w.magnitude:.4f}" if w.in_support else "0"
        print(f"  y = 3^{v} * {u}:  {tag}")

print(f"\nsupport: valuation -2, unit class {b} mod 3; magnitude^2 = q - 1 = 2")

g = n_mat(LocalElement.from_rational(3, Fraction(2, 9), M)) * a_mat(
    LocalElement(3, -2, b, M))
wc = whittaker_closed(mv, g).to_complex()
wo = whittaker_oracle(mv, g)
print("\nclosed form :", wc)
print("oracle      :", wo)
print("ratio       :", wo / wc, " (the constant 3/sqrt(2) = %.6f)" % (3 / 2**0.5))

print("\nsupport class as the coset k varies:")
for entries in [(1, 0, 0, 1), (0, 1, 2, 0), (1, 1, 1, 2)]:
    k = Mat2Local.from_rationals(3, entries, M)
    print(f"  k = {entries}: class {support_profile(mv, k)} "
          f"(scan agrees: {whittaker_support_scan(mv, k)})")
