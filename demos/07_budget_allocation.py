"""Split a fixed number of recommendation slots across domains.

One screen shows items from several domains; with N total slots and one
expected-utility curve per domain, the best per-domain sizes solve a small
bounded-knapsack problem. The dynamic program is exact: acceptance
criterion 8 checks it against brute-force search, ties included. The three
domains' curves come from one ``expected_curves_batch`` call, one row per
domain.
"""

import numpy as np

from persize.multidomain import DomainCurves, allocate
from persize.utility import Measure, expected_curves_batch

rng = np.random.default_rng(2)

# one user, three domains of very different quality
names, probs = [], []
for name, hi in (("books", 0.8), ("music", 0.45), ("games", 0.15)):
    names.append(name)
    probs.append(np.sort(rng.uniform(0, hi, 60))[::-1])
rows = expected_curves_batch(np.array(probs), [Measure.F1], M=100, K=8)[Measure.F1]
domains = dict(zip(names, rows))

curves = DomainCurves(user=0, curves=domains)
for budget in (3, 6, 12, 24):
    out = allocate(curves, N=budget, K=8)
    sizes = ", ".join(f"{d}={k}" for d, k in sorted(out.sizes.items()))
    print(f"budget {budget:2d}: {sizes}  (total {out.total}, "
          f"objective {out.objective:.4f})")
