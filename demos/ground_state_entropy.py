"""Ground-state entanglement of coupled oscillators, from scratch.

Walks the full pipeline on the smallest nontrivial system (two coupled
oscillators) and then on a disordered chain: coupling matrix -> square root
-> bipartition blocks -> symplectic eigenvalues -> Renyi entropies, with a
quadrature cross-check of the reduced-state eigenvalues at the end.
"""

import numpy as np

import oscent as oc

print("=== two coupled oscillators, unit springs ===")
lattice = oc.build_box(1, [2])
h = oc.assemble_anderson(lattice, [1.0, 1.0])
print("coupling matrix:\n", h.matrix)

data = oc.eigensystem(h)
print("frequencies:", data.frequencies)

region = oc.make_region(lattice, [(0,)])
blocks = oc.partition_blocks(oc.spd_sqrt(data), region)
print("square-root blocks: a=%.6f c=%.6f schur=%.6f"
      % (blocks.a[0, 0], blocks.c[0, 0], blocks.schur[0, 0]))

spectrum = oc.symplectic_spectrum(blocks)
print("symplectic eigenvalue mu =", spectrum.mu[0])

for eps in (0.5, 0.75, 0.99, 1.0):
    print(f"  eps={eps:<5g} renyi entropy = {oc.ground_state_renyi(spectrum, eps):.12f}")
print("log negativity        =", oc.log_negativity(spectrum))

# the oracle's own covariance matrix gives the same mu by an independent route
print("mu via covariance     =", oc.oracle.symplectic_eigenvalues(h, region)[0])

# quadrature oracle: reduced-state eigenvalues are (2/(1+mu)) ((mu-1)/(mu+1))^n
print("\nreduced-state eigenvalues, formula vs direct quadrature:")
mu = spectrum.mu[0]
for n in range(4):
    formula = 2.0 / (1.0 + mu) * ((mu - 1.0) / (mu + 1.0)) ** n
    brute = oc.bruteforce_reduced_diagonal(h, region, [0, 0], [n])
    print(f"  n={n}: {formula:.12e}  vs  {brute:.12e}")

print("\n=== disordered chain, 40 sites, window of 6 ===")
chain = oc.build_box(1, [40])
model = oc.DisorderModel(k_max=8.0, seed=2024)
springs = oc.sample_springs(model, chain, realization_index=0)
h_chain = oc.assemble_anderson(chain, springs)
report = oc.validate_coupling(h_chain, oc.anderson_norm_bound(1, 8.0))
print("positive definite:", report.is_positive_definite,
      " |h^(1/2)| =", round(report.hsqrt_norm, 4), " bound ok:", report.bound_satisfied)

window = oc.box_region(chain, (17,), (6,))
chain_blocks = oc.partition_blocks(oc.spd_sqrt(h_chain), window)
chain_spectrum = oc.symplectic_spectrum(chain_blocks)
print("window mu:", np.round(chain_spectrum.mu, 6))
print("entropies:")
for eps in (0.5, 0.75, 1.0):
    print(f"  eps={eps:<5g} -> {oc.ground_state_renyi(chain_spectrum, eps):.6f}")

table = oc.correlator_table(h_chain)
bound = oc.ground_state_correlator_bound(table, window, p=1.0,
                                         bound=oc.anderson_norm_bound(1, 8.0))
print("correlator bound (p=1):", round(bound, 6),
      ">= E_1/2:", round(oc.ground_state_renyi(chain_spectrum, 0.5), 6))
