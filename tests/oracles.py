"""Independent reference implementations used as test oracles.

Everything here is written from the definitions, without importing the
library's computation paths, so agreement is a real dual-route check:
brute-force enumeration for count distributions and expected utilities,
the plain convolution recurrence for count distributions too large to
enumerate (and for a count with one variable removed), expected-utility
curves from each rank's own leave-one-out count, plain gradient
descent for the calibration fit and the one-user Newton loop that the
lockstep calibration engine replaced, exhaustive search over size vectors
for the budget allocator, line-by-line scanners for the score and split
text files (with a writer of adversarial files to feed them), the
step-by-step SGD loop for the pairwise ranking trainer, and the per-user
loop for the train/val/test split.
"""

import json
from itertools import product
from pathlib import Path

import numpy as np

from persize.calibrate import _DIVERGENCE_BOUND, _MAX_ITERS, _TOLERANCE
from persize.dataset import InteractionSet, SplitDataset
from persize.multidomain import Allocation
from persize.scorer import ScoreModel, ScoreTable


def enum_count_distribution(probs) -> np.ndarray:
    """Mass of sum(Bernoulli(p_i)) by enumerating all 2^n outcomes."""
    probs = np.asarray(probs, dtype=np.float64)
    n = len(probs)
    outcomes = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    weights = np.prod(np.where(outcomes == 1, probs, 1.0 - probs), axis=1)
    return np.bincount(outcomes.sum(axis=1), weights=weights, minlength=n + 1)


def dp_count_distribution(probs, cap: int) -> np.ndarray:
    """Mass of sum(Bernoulli(p_i)) at indices 0..cap by the windowed
    convolution recurrence, adding one item at a time (one rounding per
    cell, O(n * cap))."""
    d = np.zeros(cap + 1)
    d[0] = 1.0
    hi = 0  # highest index that can hold mass so far
    for p in np.asarray(probs, dtype=np.float64):
        nxt = (1.0 - p) * d
        lim = min(hi, cap - 1)
        nxt[1 : lim + 2] += p * d[: lim + 1]
        d = nxt
        hi = min(hi + 1, cap)
    return d


def leave_one_out(probs, r: int, M: int) -> np.ndarray:
    """Mass of the count with the r-th Bernoulli variable removed, at
    indices 0..min(n - 1, M), recomputed on the reduced vector."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= r < probs.size:
        raise IndexError(f"index {r} out of range for {probs.size} probabilities")
    return dp_count_distribution(np.delete(probs, r), min(probs.size - 1, M))


def _discount(ranks) -> np.ndarray:
    return 1.0 / np.log2(1.0 + np.asarray(ranks, dtype=np.float64))


def realized_reference(measure: str, labels, total_relevant: int, k: int) -> float:
    """Reference realized utility of the first k labels."""
    lab = np.asarray(labels, dtype=np.float64)[:k]
    hits = lab.sum()
    ranks = np.arange(1, k + 1)
    if measure == "pdcg":
        return float(np.sum((2.0 * lab - 1.0) * _discount(ranks)))
    if total_relevant == 0:
        return 0.0
    if measure == "ndcg":
        idcg = _discount(np.arange(1, min(total_relevant, k) + 1)).sum()
        return float(np.sum(lab * _discount(ranks)) / idcg)
    if measure == "f1":
        return float(2.0 * hits / (total_relevant + k))
    if measure == "tp":
        return float(hits / min(k, total_relevant))
    raise ValueError(measure)


def _one_hit_utility(measure: str, rank: int, ms: np.ndarray, k: int) -> np.ndarray:
    """Utility of a size-k list whose one hit sits at ``rank`` <= k, with
    each of ``ms`` relevant items in all: ``realized_reference``'s formulas
    at every m at once (m >= 1)."""
    if measure == "ndcg":
        ideal = np.cumsum(_discount(np.arange(1, k + 1)))  # IDCG at sizes 1..k
        return _discount(rank) / ideal[np.minimum(ms, k) - 1]
    if measure == "f1":
        return 2.0 / (ms + k)
    if measure == "tp":
        return 1.0 / np.minimum(ms, k)
    raise ValueError(measure)


def loo_expected_curve(measure: str, probs, kmax: int) -> np.ndarray:
    """Expected utility at sizes 1..min(kmax, n), each rank's term from its
    own leave-one-out count over the full count range.

    NDCG, F1 and TP at size k sum, over the top k ranks, the rank's label
    y_r times a factor of the total relevant count S only. With the labels
    independent, E[y_r f(S)] = p_r E[f(1 + S_r)], where S_r is the count
    without rank r (``leave_one_out``). PDCG is linear in the labels, so
    its expectation is its running sum at the probabilities.
    """
    probs = np.asarray(probs, dtype=np.float64)
    kmax = min(kmax, probs.size)
    if measure == "pdcg":
        return np.cumsum((2.0 * probs[:kmax] - 1.0) * _discount(np.arange(1, kmax + 1)))
    ms = np.arange(1, probs.size + 1)  # relevant in all, rank r included
    curve = np.zeros(kmax)
    for r in range(kmax):
        loo = leave_one_out(probs, r, probs.size)  # P(S_r = m - 1)
        for k in range(r + 1, kmax + 1):
            curve[k - 1] += probs[r] * (loo @ _one_hit_utility(measure, r + 1, ms, k))
    return curve


def enum_expected_utility(measure: str, probs, k: int) -> float:
    """Expected utility at size k by full enumeration of label vectors."""
    probs = np.asarray(probs, dtype=np.float64)
    n = len(probs)
    outcomes = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    weights = np.prod(np.where(outcomes == 1, probs, 1.0 - probs), axis=1)
    total = 0.0
    for row, w in zip(outcomes, weights):
        total += w * realized_reference(measure, row, int(row.sum()), k)
    return total


def enum_expected_curve(measure: str, probs) -> np.ndarray:
    """Vectorized enumeration: expected utility at every k = 1..n."""
    probs = np.asarray(probs, dtype=np.float64)
    n = len(probs)
    outcomes = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    weights = np.prod(np.where(outcomes == 1, probs, 1.0 - probs), axis=1)
    counts = outcomes.sum(axis=1)
    hits = np.cumsum(outcomes, axis=1)  # hits[:, k-1] at size k
    ks = np.arange(1, n + 1)
    disc = _discount(ks)
    if measure == "pdcg":
        vals = np.cumsum((2.0 * outcomes - 1.0) * disc, axis=1)
        return weights @ vals
    nonzero = counts > 0
    if measure == "ndcg":
        ideal = np.concatenate([[np.inf], np.cumsum(disc)])  # inf guards S=0
        dcg = np.cumsum(outcomes * disc, axis=1)
        vals = dcg / ideal[np.minimum(counts[:, None], ks[None, :])]
    elif measure == "f1":
        vals = np.where(nonzero[:, None], 2.0 * hits / (counts[:, None] + ks), 0.0)
    elif measure == "tp":
        denom = np.minimum(np.maximum(counts, 1)[:, None], ks[None, :])
        vals = np.where(nonzero[:, None], hits / denom, 0.0)
    else:
        raise ValueError(measure)
    return weights @ vals


def gd_platt_fit(scores, labels, lr=2.0, iters=20000, grad_tol=1e-9):
    """Plain gradient descent on the mean logistic loss (independent fit),
    stopped once the gradient's norm falls below ``grad_tol`` or after
    ``iters`` steps."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    a, b = 0.0, 0.0
    n = len(s)
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(a * s + b)))
        resid = p - y
        grad_a, grad_b = float(resid @ s) / n, float(resid.sum()) / n
        if np.hypot(grad_a, grad_b) < grad_tol:
            break
        a -= lr * grad_a
        b -= lr * grad_b
    return a, b


def scalar_newton_platt(s, y):
    """One calibration set's damped Newton fit, one user at a time: the
    scalar loop the lockstep engine replaced. Returns (a, b, status,
    halvings), where ``halvings`` counts the line-search step halvings.

    The iteration runs on standardized scores; convergence is declared on
    the raw-space gradient, and raw-space (a, b) are returned. Statuses:
    ``all_same`` (one label class), ``degenerate`` (constant scores: a = 0
    and the intercept-only optimum), ``converged``, ``singular`` (Hessian
    not positive definite), ``diverged`` (standardized |a| or |b| past the
    bound) and ``not_converged`` (iteration limit).
    """

    def bce(a, b, t, y):
        z = a * t + b
        return float(np.sum(np.logaddexp(0.0, z) - y * z))

    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pos_rate = float(np.mean(y))
    if pos_rate <= 0.0 or pos_rate >= 1.0:
        return 0.0, 0.0, "all_same", 0
    if np.ptp(s) == 0.0:
        return 0.0, float(np.log(pos_rate / (1.0 - pos_rate))), "degenerate", 0

    mu = float(s.mean())
    sigma = float(s.std())
    t = (s - mu) / sigma
    a = 0.0
    b = float(np.log(pos_rate / (1.0 - pos_rate)))
    loss = bce(a, b, t, y)
    halvings = 0
    for _ in range(_MAX_ITERS):
        p = np.exp(-np.logaddexp(0.0, -(a * t + b)))
        resid = p - y
        ga = float(resid @ t)
        gb = float(resid.sum())
        if max(abs(float(resid @ s)), abs(gb)) < _TOLERANCE:
            return a / sigma, b - a * mu / sigma, "converged", halvings
        w = p * (1.0 - p)
        haa = float(w @ (t * t))
        hab = float(w @ t)
        hbb = float(w.sum())
        det = haa * hbb - hab * hab
        if det <= 0 or not np.isfinite(det):
            return a / sigma, b - a * mu / sigma, "singular", halvings
        da = (hbb * ga - hab * gb) / det
        db = (haa * gb - hab * ga) / det
        if ga * da + gb * db <= 1e-9 * (abs(loss) + 1.0):
            # quadratic regime: take the full step without a line search
            a, b = a - da, b - db
            loss = bce(a, b, t, y)
        else:
            step = 1.0
            for _ in range(50):
                na, nb = a - step * da, b - step * db
                nloss = bce(na, nb, t, y)
                if nloss <= loss:
                    break
                step *= 0.5
                halvings += 1
            a, b, loss = na, nb, nloss
        if abs(a) > _DIVERGENCE_BOUND or abs(b) > _DIVERGENCE_BOUND:
            return a / sigma, b - a * mu / sigma, "diverged", halvings
    return a / sigma, b - a * mu / sigma, "not_converged", halvings


def brute_force_allocate(curves, N: int, K: int, max_combos: int = 10**6) -> Allocation:
    """Best per-domain sizes, each in 0..K, by trying every size vector in
    lexicographic order (sorted domain ids) and keeping the first strict
    maximum.

    Each objective is summed right to left, ``v_0 + (v_1 + (... + 0.0))``,
    the same float addition order the allocator's dynamic program uses, so
    the two agree bit for bit, ties included.
    """
    doms = curves.domain_ids()
    x_count = len(doms)
    if x_count == 0:
        raise ValueError("no domains to allocate")
    if (K + 1) ** x_count > max_combos:
        raise ValueError("combination count exceeds the brute-force bound")
    # gains[x][k]: utility of k slots in domain x, 0.0 for none
    gains = [[0.0] + [float(v) for v in curves.curves[d][:K]] for d in doms]

    best_obj = -np.inf
    best_vec = None
    for vec in product(range(K + 1), repeat=x_count):
        if sum(vec) > N:
            continue
        obj = 0.0
        for x in range(x_count - 1, -1, -1):
            obj = gains[x][vec[x]] + obj
        if obj > best_obj:
            best_obj = obj
            best_vec = vec
    if best_vec is None:
        raise ValueError("allocation infeasible under the given budget")
    return Allocation(sizes=dict(zip(doms, best_vec)), total=sum(best_vec),
                      objective=float(best_obj))


def sequential_bpr(train: InteractionSet, config) -> ScoreModel:
    """The pairwise ranking trainer as one SGD step at a time: each step
    reads the user row through a view, so the item updates see the user
    row that step has just written."""
    n_users = len(train.users)
    n_items = len(train.items)
    rng = np.random.default_rng(config.seed)
    u_vecs = rng.uniform(-0.01, 0.01, size=(n_users, config.d))
    i_vecs = rng.uniform(-0.01, 0.01, size=(n_items, config.d))
    pos_user = train.pairs[:, 0]
    pos_item = train.pairs[:, 1]
    pos_sets = {int(u): set(train.items_of(u).tolist()) for u in np.unique(pos_user)}

    lr = config.learning_rate
    wd = config.weight_decay
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(pos_user))
        epoch_loss = 0.0
        steps = 0
        for idx in order:
            u = int(pos_user[idx])
            i = int(pos_item[idx])
            owned = pos_sets[u]
            if len(owned) >= n_items:
                continue  # no negatives exist for this user
            for _ in range(config.negatives_per_positive):
                j = int(rng.integers(n_items))
                while j in owned:
                    j = int(rng.integers(n_items))
                uv = u_vecs[u]
                diff = i_vecs[i] - i_vecs[j]
                x = float(uv @ diff)
                g = 1.0 / (1.0 + np.exp(min(x, 500.0)))
                u_vecs[u] = uv + lr * (g * diff - wd * uv)
                i_vecs[i] += lr * (g * uv - wd * i_vecs[i])
                i_vecs[j] += lr * (-g * uv - wd * i_vecs[j])
                epoch_loss += np.logaddexp(0.0, -x)
                steps += 1
        mean_loss = epoch_loss / max(steps, 1)
        if not np.isfinite(mean_loss):
            raise RuntimeError(
                f"ranking loss became non-finite at epoch {len(losses) + 1} "
                f"(lr={lr}, wd={wd}); lower the learning rate"
            )
        losses.append(float(mean_loss))
    return ScoreModel(user_vectors=u_vecs, item_vectors=i_vecs, epoch_losses=tuple(losses))


def sequential_split(iset: InteractionSet, ratios, seed: int) -> SplitDataset:
    """The per-user split as one loop over the universe's users: each
    user's items shuffled by ``default_rng([seed, user])``, then cut into
    largest-remainder sizes of the ratios (ties toward the earlier part)."""
    parts = [[], [], []]
    for u in iset.users.tolist():
        items = iset.pairs[iset.pairs[:, 0] == u, 1]
        if not len(items):
            continue
        shuffled = items[np.random.default_rng([seed, u]).permutation(len(items))]
        exact = [r * len(items) for r in ratios]
        sizes = [int(np.floor(e + 1e-9)) for e in exact]
        by_remainder = sorted(range(3), key=lambda j: (-(exact[j] - sizes[j]), j))
        for j in by_remainder[:len(items) - sum(sizes)]:
            sizes[j] += 1
        offs = np.cumsum([0] + sizes)
        for part, lo, hi in zip(parts, offs[:-1], offs[1:]):
            part.extend((u, int(i)) for i in shuffled[lo:hi])
    sets = [InteractionSet.from_pairs(np.asarray(p, dtype=np.int64).reshape(-1, 2),
                                      users=iset.users, items=iset.items) for p in parts]
    return SplitDataset(train=sets[0], val=sets[1], test=sets[2], seed=seed)


def scan_scores(path) -> ScoreTable:
    """Read a `user<TAB>item<TAB>score` file one line at a time: stripped
    lines, '#' comment and blank lines skipped, fields after the third
    ignored; a malformed row, a non-finite score or a repeated (user, item)
    row is rejected naming its line."""
    per_user_items: dict[int, list] = {}
    per_user_scores: dict[int, list] = {}
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                raise ValueError(f"{path}: line {lineno}: expected 'user<TAB>item<TAB>score'")
            try:
                u, i, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed row {line!r}") from None
            if not np.isfinite(v):
                raise ValueError(f"{path}: line {lineno}: non-finite score for ({u}, {i})")
            if (u, i) in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate entry for ({u}, {i})")
            seen.add((u, i))
            per_user_items.setdefault(u, []).append(i)
            per_user_scores.setdefault(u, []).append(v)
    return ScoreTable.from_entries(
        {u: (per_user_items[u], per_user_scores[u]) for u in per_user_items}
    )


def scan_split(workdir) -> SplitDataset:
    """Read a split directory one line at a time, with the line rules of
    ``scan_scores`` and the first two fields of each row as the pair."""
    workdir = Path(workdir)
    with open(workdir / "id_map.json", encoding="utf-8") as fh:
        mapping = json.load(fh)
    n_users = len(mapping["users"])
    n_items = len(mapping["items"])
    parts = []
    for name in ("train.tsv", "val.tsv", "test.tsv"):
        pairs = []
        with open(workdir / name, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                u, i = line.split("\t")[:2]
                pairs.append((int(u), int(i)))
        parts.append(
            InteractionSet.from_pairs(
                np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
                users=np.arange(n_users),
                items=np.arange(n_items),
            )
        )
    return SplitDataset(train=parts[0], val=parts[1], test=parts[2], seed=int(mapping["seed"]))


# Score spellings every reader must take: a '+' sign, signed zero, the
# smallest subnormal, the extremes and exponent forms.
SCORE_FORMS = ("+0.5", "-0.0", "5e-324", "1e308", "-1e308", "1E+2", "2.5e-3",
               "-7e0", "+1e-300", "0.1")


def write_adversarial(path, rows, crlf: bool = False, scanned: bool = False) -> None:
    """Write rows (tuples of field strings) as a tab-separated file with the
    quirks the text readers accept: '#' comment lines, blank lines, an
    extra trailing field on every third row, and CRLF line ends with
    ``crlf``. With ``scanned`` it adds the quirks that only the row scan
    reads: indented comment lines, whitespace-only lines, a tab-led row and
    a '#' inside an extra field."""
    out = ["# header comment", ""]
    for j, fields in enumerate(rows):
        line = "\t".join(fields)
        if j % 3 == 1:
            line += "\t# trailing note" if scanned and j % 2 else "\textra\t"
        if j % 4 == 2:
            out.append("")
        if scanned and j % 5 == 3:
            out += ["   # indented comment", "\t# tab-indented comment", " \t "]
        if scanned and j == 7:
            line = "\t" + line
        out.append(line)
    out.append("# footer")
    end = "\r\n" if crlf else "\n"
    Path(path).write_bytes((end.join(out) + end).encode("utf-8"))


# chi-square critical value at alpha=0.01 for 19 degrees of freedom
# (uniformity test over 20 size buckets), from standard tables.
CHI2_CRIT_DF19_A01 = 36.191
