"""Exact thresholds: sigma(alpha), beta_0, and the example catalogue.

All arithmetic is exact rational; beta0() returns the closed form of the
minimum, which the test suite checks against golden-section
minimization of sigma (tests/helpers.numeric_beta0).
"""

from fractions import Fraction as F

from quanthom import beta0, catalogue, exponent, sigma

print("== sigma(alpha) for M0 = M1 = 2 ==")
for a in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
    print(f"  sigma({a}) = {sigma(a, 2, [2])}")

print("\n== closed-form thresholds ==")
for M0, Ms in ((2, [2]), (4, [2]), (2, []), (4, [4])):
    b, a = beta0(M0, Ms)
    print(f"  M0={M0}, Mi={Ms}: beta0 = {b} at alpha* = {a}")

print("\n== the example catalogue ==")
hdr = f"{'structure':14s} {'N':>2} {'L':>2} {'beta0':>6} {'exponent':>9} {'evaluable':>9}"
print(hdr)
print("-" * len(hdr))
for name, entry in sorted(catalogue().items()):
    r = entry.report
    b = str(r.published_beta0) if r.published_beta0 is not None else "-"
    print(f"{name:14s} {r.N:>2} {r.L:>2} {b:>6} "
          f"{str(r.exponent_numerator) + '/beta':>9} {str(entry.evaluable):>9}")

print("\n== exponents at the thresholds ==")
print(f"  Hopf n=1 at beta = 3/4:        (N+L)/beta = {exponent(3, 1, F(3, 4))}")
print(f"  sphere product at beta = 3/4:  (N+L)/beta = {exponent(3, 1, F(3, 4))}")
print(f"  projective plane at beta = 5/6: (N+L)/beta = {exponent(5, 1, F(5, 6))}")
