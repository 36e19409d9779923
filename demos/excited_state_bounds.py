"""Entanglement bounds for single-excitation eigenstates.

Excited eigenstates of coupled oscillators are not gaussian, so their
reduced states have no closed-form spectrum. What is available in closed
form: the diagonal matrix elements in the ground-state mode basis, driven
by per-excitation weights Q_{k,j}. Those give a computable upper bound on
the 1/2-Renyi entropy, dominated in turn by 2 N(ground) + 4 log(region).
"""

import numpy as np

import oscent as oc

chain = oc.build_box(1, [24])
model = oc.DisorderModel(k_max=8.0, seed=11)
h = oc.assemble_anderson(chain, oc.sample_springs(model, chain, 0))
region = oc.box_region(chain, (9,), (5,))

data = oc.eigensystem(h)
blocks = oc.partition_blocks(oc.spd_sqrt(data), region)
spectrum = oc.symplectic_spectrum(blocks)

print("region size:", region.size, " symplectic mu:", np.round(spectrum.mu, 5))

weights = oc.excitation_weights(data, blocks, spectrum)
print("\nweight matrix Q (one row per excitation):")
print("  row sums  <= 2:", np.round(weights.sum(axis=1).max(), 10))
print("  column sums = 2:", np.round(weights.sum(axis=0), 10))

# localized chains concentrate an excitation's weight on few modes
localized = weights.max(axis=1) / np.maximum(weights.sum(axis=1), 1e-300)
print("  weight concentration (max/total per excitation), median:",
      round(float(np.median(localized)), 3))

print("\nper-excitation bounds on the 1/2-Renyi entanglement entropy:")
theorem = None
print("  mode   freq      computed   theorem")
for k, row in enumerate(weights[:8]):
    computed, theorem = oc.excited_half_renyi_bounds(row, spectrum)
    print(f"  {k + 1:>4} {data.frequencies[k]:8.4f} {computed:10.5f} {theorem:9.5f}")
print("  ... theorem bound is mode-independent:",
      round(2 * oc.log_negativity(spectrum) + 4 * np.log(region.size), 5))

# diagonal elements sum to one over occupations (factorized truncated sum)
trace = oc.excited_diagonal_trace(weights[0], spectrum)
print("\ntrace of the reduced excited state over the occupation box:", trace)

# a few diagonal elements of the first excitation
n_zero = np.zeros(region.size, dtype=int)
print("diagonal at n=0:", oc.excited_diagonal_element(weights[0], spectrum, n_zero))
one = n_zero.copy()
one[0] = 1
print("diagonal at n=e_1:", oc.excited_diagonal_element(weights[0], spectrum, one))

# the uniform one-excitation ensemble obeys log(3) + 2 E_1/2(ground)
if region.size**2 <= chain.size:
    print("\nensemble bound:", oc.single_excitation_ensemble_bound(
        spectrum, chain.size, region.size))
else:
    print("\nensemble bound skipped: region^2 exceeds lattice size")
