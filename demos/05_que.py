"""The local equidistribution period and its conductor normalization.

For a spherical test vector the period H equals the volume of the depth-n
torus-congruence subgroup, so q^(2n) * H = q/(q-1) exactly -- the period decays
like the inverse square root of the pair conductor q^(4n).
"""

from minvec.matgroups import TorusSpec
from minvec.que import conductor_pair, distinguished, que_period

print(f"{'p':>3} {'n':>3} {'cond':>8} {'vol':>12} {'q^2n * H':>10}")
for p in (3, 5, 7):
    for n in (1, 2):
        rep = que_period(TorusSpec(p, n))
        print(f"{p:>3} {n:>3} {conductor_pair(p, n):>8} "
              f"{str(rep.vol_KT):>12} {rep.normalized:>10.6f}")

print("\nparity predicate for the third conductor exponent a3:")
for a3 in (0, 1, 2):
    print(f"  a3 = {a3}: distinguished = {distinguished(a3, n=1)}")
