"""End to end: choose each user's list size and score it against held-out
test interactions, next to the baselines.

The validation positives leave the score table first
(`ScoreTable.without`). The personalized sizer, `selection.recommend_block`,
ranks a whole block of users' remaining candidates with one sort, calibrates
the scores, builds the block's expected-utility curves with one batched
call, and cuts every list at its argmax with one block argmax per measure
(the same `_row_argmax` that picks the validation and oracle sizes); a
single user is a block of one. Its result is arrays, one row per user:
the rankings cut to K, and per measure the sizes and the curves.
`selection.recommend_users` runs it on every served user, block by block;
the `recommend` stage calls it once and writes the sizes to `recs.tsv`.
`selection.evaluate` runs no PerK of its own: it scores the sizes it is
given (the CLI reads them from `recs.tsv`), so the sizes scored below are
the ones `recommend` emits, and it reports their mean expected utility
next to the realized one.
Baselines pick a global constant, a random size, the best size on
validation labels, or (as an upper bound) the best size on test labels, all
on the same ranking.
"""

from pathlib import Path

import numpy as np

from persize import calibrate, dataset, scorer, selection
from persize.utility import Measure

root = Path(__file__).resolve().parent.parent
iset, _ = dataset.load_interactions(root / "data" / "synth200" / "interactions.tsv")
dense, _, _ = dataset.compact(dataset.kcore_filter(iset, 20))
split = dataset.split(dense, seed=0)

model = scorer.train_bpr(
    split.train, scorer.BPRConfig(d=16, epochs=10, learning_rate=0.05, seed=0)
)
table = scorer.build_score_table(model, split.train)

labels = calibrate.calibration_labels(split, table)  # 1.0 for each validation positive
params, _ = calibrate.fit_all_users(table, labels)

shown = table.without(split.val.pairs)  # validation positives are not shown again
users = selection.served_users(shown, params)  # with candidates and Platt parameters
recs = selection.recommend_users(shown, params, list(Measure), K=20, M=200)
perk = recs.perk()  # user -> {measure: (size, expected utility there)}

report = selection.evaluate(split, table, perk, K=20, seed=0)
print(f"average realized utility over {report.n_users} users (K=20):")
header = "  ".join(f"{m.value:>7s}" for m in Measure)
print(f"{'method':>8s}  {header}")
for method in selection.default_methods(20):
    row = "  ".join(f"{report.averages[method][m.value]:7.4f}" for m in Measure)
    print(f"{method:>8s}  {row}")

sizes = sorted(k for _, m, meas, k, _ in report.per_user if m == "perk" and meas == "f1")
print(f"\npersonalized F1 sizes: min {sizes[0]}, median {sizes[len(sizes) // 2]}, "
      f"max {sizes[-1]} (a fixed size cannot serve all of these at once)")
promised = "  ".join(f"{m.value} {report.perk_expected[m.value]:.4f}" for m in Measure)
print(f"perk promised (mean expected utility at its sizes): {promised}")

blocks = selection.user_blocks(users, shown)  # by candidate count, <= 64 users each
perk_f1 = {u: k for u, m, meas, k, _ in report.per_user if m == "perk" and meas == "f1"}
assert all(perk[u][Measure.F1][0] == k for u, k in perk_f1.items())
print(f"\n{len(users)} users in {len(blocks)} blocks; evaluate scored the sizes "
      f"of its {len(perk_f1)} users")

user = users[0]
one = selection.recommend_block([user], shown, params, [Measure.F1], K=20, M=200)
k = int(one.sizes[Measure.F1][0])
print(f"user {one.users[0]} alone: emit {k} items (evaluate scored size "
      f"{perk_f1.get(user)}), expected F1 {one.curves[Measure.F1][0, k - 1]:.4f}, "
      f"items {one.rankings[0, :k].tolist()}")
