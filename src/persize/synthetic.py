"""Seeded synthetic data: a small interaction log for end-to-end runs and a
known-probability world for benchmarking size selection.

The interaction generator produces a log dense enough to survive 20-core
filtering, so the full pipeline can run on it in seconds. The world
generator exposes the ground-truth interaction probabilities directly,
which real data never does; it exists to measure how close calibrated
size selection gets to what the truth would dictate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -z))


def generate_interactions(
    n_users: int = 200,
    n_items: int = 120,
    min_per_user: int = 26,
    max_per_user: int = 60,
    seed: int = 1234,
) -> list[tuple[str, str]]:
    """Draw a user-item log with mildly skewed item popularity.

    Returns (user_label, item_label) rows, deduplicated, in generation
    order. Defaults target a log where every user and item keeps at least
    20 interactions, so 20-core filtering is survivable.
    """
    rng = np.random.default_rng(seed)
    popularity = 1.0 + rng.pareto(2.5, size=n_items)
    popularity /= popularity.sum()
    rows = []
    seen = set()
    for u in range(n_users):
        n_draws = int(rng.integers(min_per_user, max_per_user + 1))
        items = rng.choice(n_items, size=min(n_draws, n_items), replace=False, p=popularity)
        for i in items.tolist():
            if (u, i) not in seen:
                seen.add((u, i))
                rows.append((f"u{u:04d}", f"i{i:04d}"))
    return rows


def write_interactions(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, i in rows:
            fh.write(f"{u}\t{i}\n")


@dataclass(frozen=True)
class SyntheticWorld:
    """Candidate universe with known per-pair interaction probabilities.

    ``true_probs[u, i]`` is the actual Bernoulli parameter behind both
    label draws. ``scores`` are a noisy monotone transform of the log-odds,
    standing in for an arbitrary recommender's output. ``val_labels`` are
    the calibration draw, ``test_labels`` the evaluation draw.
    """

    true_probs: np.ndarray
    scores: np.ndarray
    val_labels: np.ndarray
    test_labels: np.ndarray

    @property
    def n_users(self) -> int:
        return self.true_probs.shape[0]

    @property
    def n_items(self) -> int:
        return self.true_probs.shape[1]


def generate_world(
    n_users: int = 500,
    n_items: int = 2000,
    base_logit_range: tuple[float, float] = (-8.5, -2.5),
    logit_spread: float = 2.0,
    score_noise: float = 0.5,
    seed: int = 7,
) -> SyntheticWorld:
    """Build a heterogeneous population where optimal sizes differ widely.

    Users span ``base_logit_range`` in their base interaction log-odds, so
    the expected number of relevant candidates runs from a handful to a few
    hundred; no single fixed list size serves them all well.
    """
    rng = np.random.default_rng(seed)
    base = np.linspace(*base_logit_range, n_users)
    z = base[:, None] + rng.normal(0.0, logit_spread, size=(n_users, n_items))
    probs = _sigmoid(z)
    scores = 0.9 * z + rng.normal(0.0, score_noise, size=z.shape)
    val = (rng.random(z.shape) < probs).astype(np.float64)
    test = (rng.random(z.shape) < probs).astype(np.float64)
    return SyntheticWorld(true_probs=probs, scores=scores, val_labels=val, test_labels=test)
