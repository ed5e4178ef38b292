"""Latent-class mixtures: certificates, impossibility, and exact recovery.

Walk through the core workflow on finite mixtures of product distributions:
check when parameters are identifiable, see a classical non-identifiable
configuration, and recover parameters from an exact joint table.
"""

import tempfile
from pathlib import Path

import numpy as np

from latentid import (
    align_permutation,
    clump_tensor,
    decompose3,
    joint_distribution,
    khatri_rao,
    kruskal_certificate,
    load_model,
    min_variables_bound,
    param_dimension,
    recover_latent_class,
    save_model,
    tripartition_search,
    unclump,
)
from latentid.sampling import random_latent_class, trial_rng

print("=" * 72)
print("1. Exact-matrix certificate for a 3-variable model")
print("=" * 72)
model = random_latent_class(trial_rng(0, 0), 3, (3, 3, 3))
cert = kruskal_certificate(model)
print(f"Kruskal ranks of the three conditional matrices: {cert.kruskal_ranks}")
print(f"rank sum {sum(cert.kruskal_ranks)} vs threshold 2r+2 = {cert.threshold}")
print(f"identifiable up to label swapping: {cert.holds}")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)  # the file format `latentid certify-lc --model` reads
    loaded = load_model(path)
print(f"read back from a JSON model file, same certificate: {kruskal_certificate(loaded) == cert}")

print()
print("=" * 72)
print("2. A classical negative case: 3 classes, four binary variables")
print("=" * 72)
cert = tripartition_search(3, (2, 2, 2, 2))
L, K = param_dimension(3, (2, 2, 2, 2))
print(f"parameter count L = {L}, joint table size K = {K}")
print(f"best tripartition {cert.witness.blocks} reaches only "
      f"{sum(cert.kruskal_ranks)} < {cert.threshold}")
print(f"status: {cert.status}")

print()
print("=" * 72)
print("3. How many binary variables suffice for r classes?")
print("=" * 72)
print(" r | bound 2*ceil(log2 r)+1")
for r in range(2, 9):
    print(f" {r} | {min_variables_bound(r, 2)}")

print()
print("=" * 72)
print("4. Recovery from the exact joint distribution (p = 3)")
print("=" * 72)
model = random_latent_class(trial_rng(0, 1), 3, (4, 4, 3))
T = joint_distribution(model)
rec = decompose3(T, model.r, seed=0)
align = align_permutation((rec.pi, rec.factors), (model.pi, list(model.emissions)))
print(f"reconstruction residual: {rec.residual:.2e}")
print(f"parameter error after relabeling: {align.max_abs_error:.2e}")
print(f"true pi: {np.round(model.pi, 6)}")
print(f"recovered (reordered): {np.round(rec.pi[align.permutation], 6)}")

print()
print("=" * 72)
print("5. Many variables: clump, decompose, de-clump")
print("=" * 72)
model = random_latent_class(trial_rng(0, 2), 2, (2, 2, 2, 2, 2))
T = joint_distribution(model)
blocks = [(0, 1), (2, 3), (4,)]
pi_hat, emissions = recover_latent_class(T, 2, blocks, seed=0)
align = align_permutation((pi_hat, emissions), (model.pi, list(model.emissions)))
print(f"five binary variables, blocks (0,1)/(2,3)/(4)")
print(f"parameter error after relabeling: {align.max_abs_error:.2e}")
# block (0, 1) acts as one 4-state variable: its factor in the clumped
# decomposition is the row tensor product of the two recovered matrices, and
# de-clumping it gives them back
clumped = decompose3(clump_tensor(T, blocks), 2, seed=0).factors[0]
gap = np.abs(clumped - khatri_rao(emissions[:2])).max()
print(f"block (0,1) factor vs khatri_rao of its recovered matrices: {gap:.2e}")
parts = unclump(clumped, [2, 2])
gap = max(np.abs(a - b).max() for a, b in zip(parts, emissions[:2]))
print(f"unclump of that factor vs the recovered matrices: {gap:.2e}")
