"""Ingest an interaction log, filter it, and split it per user.

Walks the data-preparation path: raw `user<TAB>item` lines become dense
integer ids, light users/items are pruned to the 20-core, and each user's
interactions are partitioned 60/20/20 into train/validation/test with
largest-remainder rounding. The same seed always yields the same split.
"""

from pathlib import Path

import numpy as np

from persize import dataset

data = Path(__file__).resolve().parent.parent / "data" / "synth200" / "interactions.tsv"

iset, id_map = dataset.load_interactions(data)
print(f"loaded: {len(iset.users)} users, {len(iset.items)} items, "
      f"{iset.n_interactions} interactions")

filtered = dataset.kcore_filter(iset, 20)
dense, kept_users, kept_items = dataset.compact(filtered)
print(f"20-core: {len(dense.users)} users, {len(dense.items)} items survive")

split = dataset.split(dense, seed=0)
sizes = np.array([
    [len(part.items_of(u)) for part in (split.train, split.val, split.test)]
    for u in dense.users
])
print(f"per-user part sizes (train/val/test): mean {sizes.mean(axis=0).round(1)}, "
      f"min {sizes.min(axis=0)}")

# a user's candidates are everything outside their train items; at
# recommendation time the ranking also drops the validation positives
u = int(dense.users[0])
cand = np.setdiff1d(split.items, split.train.items_of(u))
n_eval = int((~np.isin(cand, split.val.items_of(u))).sum())
print(f"user {u}: {len(cand)} candidates, {n_eval} after removing "
      f"validation positives (used at recommendation time)")
