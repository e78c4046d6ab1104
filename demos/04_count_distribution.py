"""The distribution of how many candidates a user will actually like.

Each candidate interacts independently with its calibrated probability, so
the total count follows a Poisson-Binomial distribution. It is computed
exactly by convolution: a recurrence within 32-item chunks, then an FFT
merge tree across chunks. The engine `distribution_batch` takes a
(users, n) block, one row per user, and returns (mass, tail) with one row
of each per user: a single user is a block of one row. A truncation bound M
caps the cost for huge candidate sets, dropping (and recording) the
far-tail mass instead of renormalizing.
"""

import numpy as np

from persize.poibin import distribution_batch

# tiny case, checkable by hand: P(count=1) = .1*.8*.7 + .9*.2*.7 + .9*.8*.3
(mass,), _ = distribution_batch([[0.1, 0.2, 0.3]], M=3)
print("probs [0.1 0.2 0.3]:", np.round(mass, 4), "| P(count=1) =", mass[1])

# a zero-probability candidate adds nothing to the count, so setting one to 0
# removes it exactly (curve blocks pad their shorter users with zeros)
(loo,), _ = distribution_batch([np.delete([0.1, 0.2, 0.3], 2)], M=2)
(zeroed,), _ = distribution_batch([[0.1, 0.2, 0.0]], M=2)
print("without the 0.3 item:", np.round(loo, 4),
      "| with it set to 0:", np.round(zeroed, 4))

# a realistic user: 5000 candidates with small probabilities
rng = np.random.default_rng(0)
probs = rng.uniform(0, 0.05, 5000)
(full,), _ = distribution_batch([probs], M=5000)
mean = float(np.arange(len(full)) @ full)
print(f"\n5000 candidates: expected count {mean:.2f} "
      f"(sum of probabilities {probs.sum():.2f})")

# truncation keeps the retained entries exact and records the dropped tail
(trunc,), (tail,) = distribution_batch([probs], M=150)
print(f"truncated at M=150: kept mass {trunc.sum():.6f}, tail {tail:.6f}")
print(f"retained entries match the full run: "
      f"{bool(np.allclose(trunc, full[:151], atol=1e-12))}")
