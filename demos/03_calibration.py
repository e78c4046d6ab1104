"""Map raw ranking scores to interaction probabilities, per user.

Raw scores are unbounded and scaled differently for every user, so one
global sigmoid cannot be right for everyone. Here two synthetic users
share the same label mechanism but one's scores are shifted: the per-user
fits recover both, the pooled global fit splits the difference, and the
expected calibration error shows it. Calibration takes every user's
entries as one CSR batch: user ``users[j]`` owns entries
``indptr[j]:indptr[j + 1]`` of the concatenated scores and labels.
"""

import numpy as np

from persize import calibrate

rng = np.random.default_rng(0)
fit_s, fit_y, holdout = [], [], []
for user, shift in ((0, 0.0), (1, 6.0)):
    s = rng.uniform(-4, 4, 6000)
    y = (rng.random(6000) < 1 / (1 + np.exp(-(1.5 * s - 1.0)))).astype(float)
    s = s + shift
    fit_s.append(s[:3000])
    fit_y.append(y[:3000])
    holdout.append((user, s[3000:], y[3000:]))

batch = calibrate.CalibrationBatch(np.array([0, 1]), np.array([0, 3000, 6000]),
                                   np.concatenate(fit_s), np.concatenate(fit_y))
per_user, global_params = calibrate.fit_all_users(batch)
for user, params in per_user.items():
    print(f"user {user}: a={params.a:+.3f} b={params.b:+.3f} ({params.fit_status})")
print(f"global: a={global_params.a:+.3f} b={global_params.b:+.3f}")

user_eces = [calibrate.ece_report(calibrate.apply(per_user[u], s), y)["ece"]
             for u, s, y in holdout]
pooled_s = np.concatenate([s for _, s, _ in holdout])
pooled_y = np.concatenate([y for _, _, y in holdout])
global_ece = calibrate.ece_report(calibrate.apply(global_params, pooled_s), pooled_y)["ece"]
print(f"mean user-wise ECE: {np.mean(user_eces):.4f}")
print(f"global ECE:         {global_ece:.4f}  (higher: one map cannot fit both)")

# a probability is calibrated if, among pairs assigned p, a fraction p interact
p = calibrate.apply(per_user[0], holdout[0][1])
band = (p > 0.4) & (p < 0.6)
print(f"user 0 pairs predicted 40-60%: empirical rate "
      f"{holdout[0][2][band].mean():.3f} over {band.sum()} pairs")
