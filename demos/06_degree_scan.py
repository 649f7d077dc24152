"""The sqrt law behind quadratic fast-forwarding.

e^{-T(1-x)} and e^{-beta x^2} admit Chebyshev approximants whose minimal
degree grows like the square root of the parameter (times log factors).
Each approximant is the truncated Chebyshev series, whose coefficients are
scaled Bessel values; all of them take the sign of T_k at one point, so the
sup error is exactly the tail of the series, and that tail certifies the
degree.  The scan below fits the power law empirically; this degree is
exactly what the QSVT-based solvers pay per run.
"""

from ffode import approx_gaussian_integral, certified_degree_scan

for target in ("exp-shifted", "gaussian", "gaussian-integral"):
    scan = certified_degree_scan(target, [16, 64, 256, 1024], 1e-6)
    print(f"target {target!r} at eps = 1e-6")
    for param, degree in scan.rows():
        print(f"  parameter {param:7.0f} -> minimal certified degree {degree}")
    print(f"  fitted exponent: {scan.fitted_exponent:.3f} "
          "(sqrt law predicts 0.5)")
    print()

p = approx_gaussian_integral(400.0, 1e-8)
print("integrated gaussian at beta = 400: degree", p.degree(),
      "with certified sup error", f"{p.achieved_error:.2e}")
print("evenness: largest odd Chebyshev coefficient =",
      f"{max(abs(c) for c in p.coefficients[1::2]):.1e}")
