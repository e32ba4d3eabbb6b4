"""Correctness checks computed apart from the program.

Each check returns a list of failure messages (empty when the output is
correct). The references are written here from the method's definition:
a brute-force knockoff+ scan, Mann-Whitney AUROC by pairwise counting, the
knockoff moment targets, an own forward pass of the coupled network, and
second differences of that forward pass.
"""

from __future__ import annotations

import csv
import json

import numpy as np


# ---------------------------------------------------------------- tables

def read_scores_matrix(path):
    """Calibrated 2p x 2p matrix from a scores CSV (1-based i < j rows)."""
    with open(path, newline="") as fh:
        rows = [(int(r["i"]) - 1, int(r["j"]) - 1, float(r["calibrated"]))
                for r in csv.DictReader(fh)]
    two_p = max(j for _, j, _ in rows) + 1
    S = np.zeros((two_p, two_p))
    for i, j, c in rows:
        S[i, j] = S[j, i] = c
    return S


def labelled_pairs(S):
    """Upper-triangle pairs of a 2p x 2p matrix, without feature-own-knockoff pairs."""
    p = S.shape[0] // 2
    i, j = np.triu_indices(2 * p, k=1)
    keep = j != i + p
    i, j = i[keep], j[keep]
    klass = np.array(["OO", "D", "DD"])[(i >= p).astype(int) + (j >= p)]
    return i, j, klass, S[i, j]


def brute_force_scan(i, j, klass, score, q, chunk=256):
    """Knockoff+ interaction threshold by scanning every candidate.

    t* is the smallest distinct positive score with
    (1 + #{D >= t}) / max(#{OO >= t}, 1) <= q; OO pairs at or above t* are
    selected. Returns (threshold, estimate, selected set) or (None, None, set()).
    """
    candidates = np.unique(score[score > 0])
    oo, d = score[klass == "OO"], score[klass == "D"]
    for start in range(0, candidates.size, chunk):
        t = candidates[start:start + chunk, None]
        n_oo = (oo[None, :] >= t).sum(axis=1)
        n_d = (d[None, :] >= t).sum(axis=1)
        est = (1 + n_d) / np.maximum(n_oo, 1)
        hit = np.flatnonzero(est <= q)
        if hit.size:
            k = hit[0]
            thr = float(t[k, 0])
            sel = {(int(a), int(b)) for a, b, c, s in zip(i, j, klass, score)
                   if c == "OO" and s >= thr}
            return thr, float(est[k]), sel
    return None, None, set()


def check_selection(scan, threshold, estimate, selected, p, where):
    """Program's threshold, estimate and selected set against the scan."""
    thr, est, sel = scan
    errors = []
    if threshold != thr:
        errors.append(f"{where}: threshold {threshold} != scan {thr}")
    if (estimate is None) != (est is None) or (
            est is not None and abs(estimate - est) > 1e-12 * max(1.0, est)):
        errors.append(f"{where}: estimate {estimate} != scan {est}")
    got = {tuple(int(v) for v in pr) for pr in selected}
    if got != sel:
        errors.append(f"{where}: selected set differs from the scan "
                      f"({len(got)} against {len(sel)} pairs)")
    if any(a >= p or b >= p for a, b in got):
        errors.append(f"{where}: a selected pair is not original-original")
    return errors


def mann_whitney_auroc(scores, labels):
    """P(positive > negative) + P(tie) / 2, by counting all pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos, neg = scores[labels], scores[~labels]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * ties) / (pos.size * neg.size)


def oo_truth_metrics(i, j, klass, score, selected, truth):
    """(auroc, fdp, power) over OO pairs; truth holds 1-based pairs."""
    oo = klass == "OO"
    labels = [(a + 1, b + 1) in truth for a, b in zip(i[oo], j[oo])]
    sel = {(a + 1, b + 1) for a, b in selected}
    fdp = len(sel - truth) / max(len(sel), 1)
    power = len(sel & truth) / len(truth)
    return mann_whitney_auroc(score[oo], labels), fdp, power


def check_eval(ev, ref, where):
    auroc, fdp, power = ref
    errors = []
    if abs(ev["auroc"] - auroc) > 1e-12:
        errors.append(f"{where}: auroc {ev['auroc']} != Mann-Whitney {auroc}")
    if abs(ev["fdp"] - fdp) > 1e-12 or abs(ev["power"] - power) > 1e-12:
        errors.append(f"{where}: fdp/power {ev['fdp']}/{ev['power']} != {fdp}/{power}")
    return errors


def check_selection_files(json_path, csv_path, result, pairs, where):
    """Written selection JSON and CSV, read back, against the returned result."""
    errors = []
    with open(json_path) as fh:
        written = json.load(fh)
    if written != json.loads(json.dumps(result.to_dict())):
        errors.append(f"{where}: selection JSON differs from the returned result")
    i, j, klass, score = pairs
    expect = {(int(a) + 1, int(b) + 1): (c, float(s)) for a, b, c, s in zip(i, j, klass, score)}
    chosen = {(a + 1, b + 1) for a, b in result.selected}
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    seen = set()
    for r in rows:
        key = (int(r["i"]), int(r["j"]))
        seen.add(key)
        if (expect.get(key) != (r["class"], float(r["score"]))
                or int(r["selected"]) != (key in chosen)):
            errors.append(f"{where}: selection CSV row {key} is wrong")
            break
    if len(rows) != len(expect) or seen != set(expect):
        errors.append(f"{where}: selection CSV has {len(rows)} rows, expected {len(expect)}")
    return errors


# ------------------------------------------------------------- knockoffs

def knockoff_moments(X, X_ko, sigma, s):
    """Max deviations of cov(X_ko) from sigma and cov(X, X_ko) from sigma - diag(s)."""
    p = X.shape[1]
    joint = np.cov(np.hstack([X, X_ko]), rowvar=False)
    dev_ko = float(np.max(np.abs(joint[p:, p:] - sigma)))
    dev_cross = float(np.max(np.abs(joint[:p, p:] - (sigma - np.diag(s)))))
    return dev_ko, dev_cross


# Sampling deviations of covariance entries have a standard deviation of
# about var / sqrt(n); 8 of those is far beyond the largest of ~2p^2 entries.
MOMENT_SDS = 8.0


def check_moments(dev_ko, dev_cross, sigma, n, where):
    tol = MOMENT_SDS * float(np.max(np.diag(sigma))) / np.sqrt(n)
    if max(dev_ko, dev_cross) > tol:
        return [f"{where}: knockoff moments off by {max(dev_ko, dev_cross):.4g} "
                f"(tolerance {tol:.4g})"]
    return []


# --------------------------------------------------------------- network

def params_from_net(net):
    return {"z": net.z, "z_tilde": net.z_tilde, "w": list(net.w), "b": list(net.b),
            "y_mean": net.y_mean, "y_std": net.y_std}


def params_from_npz(path):
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        return {"z": data["z"], "z_tilde": data["z_tilde"],
                "w": [data[f"w{k}"] for k in range(4)],
                "b": [data[f"b{k}"] for k in range(4)],
                "y_mean": meta["y_mean"], "y_std": meta["y_std"]}


def _forward(params, X_aug):
    """Pre-activations of the three ELU layers and the pre-link output."""
    p = params["z"].shape[0]
    h = params["z"] * X_aug[..., :p] + params["z_tilde"] * X_aug[..., p:]
    pre = []
    for w, b in zip(params["w"][:3], params["b"][:3]):
        pre.append(h @ w + b)
        h = np.where(pre[-1] > 0, pre[-1], np.expm1(np.minimum(pre[-1], 0.0)))
    return pre, (h @ params["w"][3] + params["b"][3])[..., 0]


def raw_forward(params, X_aug):
    """Pre-link output of the coupled ELU network, written out here."""
    return _forward(params, X_aug)[1]


def kink_clear_rows(params, X_aug, count, margin=1e-3):
    """First `count` rows whose ELU pre-activations all lie `margin` from 0.

    ELU'' jumps at 0, so a second difference whose stencil crosses a kink
    does not approximate the Hessian; the stencil of `finite_difference_hessian`
    moves a pre-activation by far less than `margin`.
    """
    pre, _ = _forward(params, X_aug)
    clear = np.all([np.abs(a).min(axis=-1) > margin for a in pre], axis=0)
    return X_aug[np.flatnonzero(clear)[:count]]


def r2_score(params, X_aug, y):
    pred = raw_forward(params, X_aug) * params["y_std"] + params["y_mean"]
    return 1.0 - float(np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2))


# A network that has not been trained predicts about y_mean and scores an R^2
# near or below 0 on the held-out half; both protocol functions reach well
# over 0.5 after training.
R2_FLOOR = 0.5


def check_r2(r2, where):
    return [] if r2 > R2_FLOOR else [f"{where}: test R^2 {r2:.4f} <= floor {R2_FLOOR}"]


def finite_difference_hessian(params, x, h=3e-5):
    """Central second differences of the forward pass at one point, (2p, 2p)."""
    D = x.shape[0]
    E = h * np.eye(D)
    plus_i = x + E                                  # x + h e_i
    minus_i = x - E
    pp = raw_forward(params, plus_i[:, None, :] + E[None, :, :])
    pm = raw_forward(params, plus_i[:, None, :] - E[None, :, :])
    mp = raw_forward(params, minus_i[:, None, :] + E[None, :, :])
    mm = raw_forward(params, minus_i[:, None, :] - E[None, :, :])
    H = (pp - pm - mp + mm) / (4 * h * h)
    return (H + H.T) / 2.0


HESSIAN_RTOL = 1e-4


def check_hessians(H_program, H_reference, where):
    err = float(np.max(np.abs(H_program - H_reference)))
    scale = float(np.max(np.abs(H_reference)))
    if not err <= HESSIAN_RTOL * scale:
        return [f"{where}: Hessian off by {err:.3g} (scale {scale:.3g})"]
    return []


def path_sums(params, samples, baseline):
    """(sum, sum of magnitudes) over samples of f(x) - f(x').

    The sum is what any complete attribution adds up to; the sum of
    magnitudes is the scale of the residual, which stays away from 0 when
    the changes of single samples cancel.
    """
    delta = raw_forward(params, samples) - raw_forward(params, baseline[None, :])
    return float(np.sum(delta)), float(np.sum(np.abs(delta)))


COMPLETENESS_RTOL = 1e-3


def check_completeness(total, target, scale, where):
    if not abs(total - target) <= COMPLETENESS_RTOL * scale:
        return [f"{where}: attributions sum to {total:.6g}, f(x) - f(x') sums to {target:.6g}"]
    return []


def check_scores_matrix(s1d, s2d, cal, where):
    errors = []
    for name, M in (("s1d", s1d), ("s2d", s2d), ("calibrated", cal)):
        if not np.all(np.isfinite(M)):
            errors.append(f"{where}: {name} is not finite")
    for name, M in (("s2d", s2d), ("calibrated", cal)):
        if not np.array_equal(M, M.T):
            errors.append(f"{where}: {name} is not symmetric")
    return errors
