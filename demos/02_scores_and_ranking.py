"""Train the built-in pairwise matrix factorization and rank candidates.

The trainer is deliberately minimal: seeded SGD on
-log sigmoid(score(u, i+) - score(u, i-)) with one uniform negative per
positive. Any external recommender can replace it by exporting a
`user<TAB>item<TAB>score` file and importing it back.

A score table holds each user's items in rising order, so one stable sort
on the negated scores ranks the candidates, ties to the lower item id: the
ranking rule `recommend` and `evaluate` apply to whole blocks of users.
"""

import tempfile
from pathlib import Path

import numpy as np

from persize import dataset, scorer

data = Path(__file__).resolve().parent.parent / "data" / "synth200" / "interactions.tsv"
iset, _ = dataset.load_interactions(data)
dense, _, _ = dataset.compact(dataset.kcore_filter(iset, 20))
split = dataset.split(dense, seed=0)

config = scorer.BPRConfig(d=16, epochs=10, learning_rate=0.05, seed=0)
model = scorer.train_bpr(split.train, config)
print(f"trained d={config.d} model; epoch loss {model.epoch_losses[0]:.4f} -> "
      f"{model.epoch_losses[-1]:.4f}")

table = scorer.build_score_table(model, split.train)  # every user's candidates
u = 0
# validation positives were calibration labels: the table drops them first
items, scores = table.without(split.val.pairs).get(u)
assert (np.diff(items) > 0).all()  # each user's items rise in the table
order = np.argsort(-scores, kind="stable")
items, scores = items[order], scores[order]
print(f"user {u} top-10 of {len(items)} candidates:")
for rank, (item, s) in enumerate(zip(items[:10], scores[:10]), start=1):
    hit = "test-positive" if item in split.test.items_of(u) else ""
    print(f"  {rank:2d}. item {item:3d}  score {s:+.4f}  {hit}")

# scores round-trip through the exchange format at full precision
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "scores.tsv"
    scorer.export_scores(table, out)
    back = scorer.import_scores(out)
items, vals = back.get(u)
assert (vals == table.get(u)[1]).all()
print(f"export/import round-trip exact for {len(items)} scores")
