"""Hidden Markov models: window bounds, embeddings, and parameter recovery.

The marginal law of a short window of consecutive observations is enough to
pin down a generic HMM.  This script shows the window-length bound, the
embedding of a window into a three-variable mixture, and full recovery of
(A, B, pi) from the exact window law.
"""

import numpy as np

from latentid import (
    align_hmm,
    conditional_blocks,
    hmm_certificate,
    min_window,
    recover_hmm,
    stationary_distribution,
    triple_product,
    window_tensor,
)
from latentid.sampling import random_hmm, trial_rng

print("=" * 72)
print("1. How long a window is needed?")
print("=" * 72)
print(" hidden states r | kappa=2 | kappa=3 | kappa=4")
for r in range(2, 7):
    row = [2 * min_window(r, kappa) + 1 for kappa in (2, 3, 4)]
    print(f"       {r}         |    {row[0]}    |    {row[1]}    |    {row[2]}")
print("(binary observations need 2r-1 symbols; larger alphabets need fewer)")

print()
print("=" * 72)
print("2. The window embedding at half-window k")
print("=" * 72)
model = random_hmm(trial_rng(1, 0), 2, 2)
k = min_window(2, 2)
B1, B2 = conditional_blocks(model, k)
print(f"r = 2, kappa = 2, k = {k}: window of {2 * k + 1} observations")
print(f"past block B1 (reversed-chain transitions):\n{np.round(B1, 4)}")
print(f"future block B2:\n{np.round(B2, 4)}")
print(f"time-reversed transition matrix:\n{np.round(model.A_rev, 4)}")
cert = hmm_certificate(model, k)
print(f"certificate ranks {cert.kruskal_ranks}, holds: {cert.holds}")

print()
print("=" * 72)
print("3. Recovery from the exact window law")
print("=" * 72)
T = window_tensor(model, k)
print(f"window tensor shape {T.shape}, total mass {T.sum():.12f}")
mixture = triple_product(model.pi[:, None] * B1, B2, model.B)
print(f"it is the mixture of the blocks, (pi * B1, B2, B): {np.array_equal(T, mixture)}")
A_hat, B_hat, pi_hat = recover_hmm(T, 2, 2, k, seed=0, tol=1e-6)
align = align_hmm((A_hat, B_hat, pi_hat), (model.A, model.B, model.pi))
print(f"parameter error after state relabeling: {align.max_abs_error:.2e}")
print(f"true A:\n{np.round(model.A, 6)}")
perm = align.permutation
print(f"recovered A (reordered):\n{np.round(A_hat[np.ix_(perm, perm)], 6)}")
print(f"recovered pi is the stationary law of recovered A: "
      f"{np.allclose(stationary_distribution(A_hat), pi_hat)}")

print()
print("=" * 72)
print("4. A slowly mixing chain still round-trips")
print("=" * 72)
from latentid import HiddenMarkovModel

slow = HiddenMarkovModel(
    A=np.array([[0.99, 0.01], [0.01, 0.99]]),
    B=np.array([[0.8, 0.2], [0.3, 0.7]]),
)
print(f"stationary law: {slow.pi}")
print(f"reversal of a symmetric chain is itself: "
      f"{np.allclose(slow.A_rev, slow.A)}")
T = window_tensor(slow, 1)
A_hat, B_hat, pi_hat = recover_hmm(T, 2, 2, 1, seed=0, tol=1e-6)
align = align_hmm((A_hat, B_hat, pi_hat), (slow.A, slow.B, slow.pi))
print(f"parameter error: {align.max_abs_error:.2e}")
