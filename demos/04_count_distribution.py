"""The distribution of how many candidates a user will actually like.

Each candidate interacts independently with its calibrated probability, so
the total count follows a Poisson-Binomial distribution. It is computed
exactly by convolution: a recurrence within 32-item chunks, then an FFT
merge tree across chunks. `distribution` is one user's row of the batched
engine `distribution_batch`. A truncation bound M caps the cost for huge
candidate sets, dropping (and recording) the far-tail mass instead of
renormalizing.
"""

import numpy as np

from persize.poibin import distribution

# tiny case, checkable by hand: P(count=1) = .1*.8*.7 + .9*.2*.7 + .9*.8*.3
d = distribution([0.1, 0.2, 0.3], M=3)
print("probs [0.1 0.2 0.3]:", np.round(d.mass, 4), "| P(count=1) =", d.mass[1])

# a zero-probability candidate adds nothing to the count, so setting one to 0
# removes it exactly (curve blocks pad their shorter users with zeros)
loo = distribution(np.delete([0.1, 0.2, 0.3], 2), M=2)
zeroed = distribution([0.1, 0.2, 0.0], M=2)
print("without the 0.3 item:", np.round(loo.mass, 4),
      "| with it set to 0:", np.round(zeroed.mass, 4))

# a realistic user: 5000 candidates with small probabilities
rng = np.random.default_rng(0)
probs = rng.uniform(0, 0.05, 5000)
full = distribution(probs, M=5000)
mean = float(np.arange(len(full.mass)) @ full.mass)
print(f"\n5000 candidates: expected count {mean:.2f} "
      f"(sum of probabilities {probs.sum():.2f})")

# truncation keeps the retained entries exact and records the dropped tail
trunc = distribution(probs, M=150)
print(f"truncated at M=150: kept mass {trunc.mass.sum():.6f}, "
      f"tail {trunc.truncated_tail:.6f}")
print(f"retained entries match the full run: "
      f"{bool(np.allclose(trunc.mass, full.mass[:151], atol=1e-12))}")
