"""The quadrature oracle and what it certifies.

Every closed form in the package is validated against direct numerical
integration of explicit kernels. This demo runs the identity suite (the
same table as `oscent verify`) and then reconstructs a reduced excited
state matrix by brute force to show the bound chain on a real spectrum.
"""

import math

import numpy as np

import oscent as oc

print("=== identity suite ===")
rows = oc.verify_report(tolerance=1e-8)
width = max(len(r.name) for r in rows)
for row in rows:
    status = "pass" if row.passed else "FAIL"
    print(f"  {row.name:<{width}}  worst {row.worst:.3e}  tol {row.tolerance:.1e}  {status}")

print("\n=== gaussian kernel spectra ===")
kernel = oc.GaussKernel(sigma=-0.6)
print("kappa =", kernel.kappa)
for n in range(4):
    residual, xi = oc.kernel_eigenpair_residual(kernel, n)
    print(f"  eigenvalue xi_{n} = {xi:+.10f}   quadrature residual {residual:.2e}")

print("\n=== moment integrals against closed forms ===")
for n in (0, 3):
    quad = oc.kernel_moments(kernel, n)
    form = oc.kernel_moment_formulas(kernel, n)
    print(f"  n={n}: quadrature {np.round(quad, 10)}")
    print(f"        closed     {np.round(form, 10)}")

print("\n=== brute-force reconstruction of a reduced excited state ===")
lattice = oc.build_box(1, [3])
h = oc.assemble_anderson(lattice, [1.5, 0.4, 2.0])
region = oc.make_region(lattice, [(0,), (1,)])
data = oc.eigensystem(h)
blocks = oc.partition_blocks(oc.spd_sqrt(data), region)
spectrum = oc.symplectic_spectrum(blocks)
weights = oc.excitation_profile(data, blocks, spectrum, 2)  # excitation 2's weight row

box = [(i, j) for i in range(5) for j in range(5)]
matrix = np.zeros((len(box), len(box)))
for a, bra in enumerate(box):
    for b in range(a, len(box)):
        value = oc.bruteforce_reduced_matrix_element(h, region, [0, 1, 0], bra, box[b])
        matrix[a, b] = matrix[b, a] = value
eigenvalues = np.linalg.eigvalsh(matrix)
positive = eigenvalues[eigenvalues > 1e-14]
half_renyi = 2.0 * math.log(np.sum(np.sqrt(positive)))
computed, theorem = oc.excited_half_renyi_bounds(weights, spectrum)

print("trace of reconstruction:", round(matrix.trace(), 10))
print("largest eigenvalues:", np.round(np.sort(eigenvalues)[::-1][:4], 6))
print(f"actual 1/2-Renyi entropy {half_renyi:.6f}")
print(f"  <= computed bound      {computed:.6f}")
print(f"  <= theorem bound       {theorem:.6f}")
