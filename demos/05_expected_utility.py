"""Expected list utility at every size, and the size that maximizes it.

Given calibrated probabilities in ranking order, the expected NDCG / PDCG /
F1 / TP of the top-k list has a closed computational form for every
k = 1..K at once. ``expected_curves_batch`` builds every measure's curve
for a block of users in one call, one row per user; a single user is a
block of one row. The estimator stops the count sum at a tail-certified
bound under the cap M and reuses one count distribution for all ranks.
Acceptance criteria 2 and 3 (``tests/test_acceptance.py``) check what that
trades: a leave-one-out reference without either shortcut matches
brute-force enumeration, and its gap to this estimator shrinks as candidate
sets grow.
"""

import numpy as np

from persize.utility import Measure, expected_curves_batch

rng = np.random.default_rng(1)
probs = np.sort(rng.uniform(0, 0.8, 40))[::-1]  # ranking order

rows = expected_curves_batch(probs[None, :], list(Measure), M=100, K=10)
curves = {m: rows[m][0] for m in Measure}  # the block's one row
print("expected utility by size k (first 10 sizes):")
print("  k  " + "  ".join(f"{m.value:>7s}" for m in Measure))
for k in range(1, 11):
    row = "  ".join(f"{curves[m][k - 1]:7.4f}" for m in Measure)
    print(f" {k:2d}  {row}")
for m in Measure:
    best = int(np.argmax(curves[m])) + 1
    print(f"best size for {m.value}: {best}")
