"""Evaluation of interaction rankings and selections against ground truth."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import ContractViolation


@dataclass
class EvalReport:
    auroc: float
    fdp: float
    power: float
    n_selected: int
    n_true: int

    def to_dict(self):
        return asdict(self)


def auroc(scores: dict, truth: set) -> float:
    """Rank-based AUROC with midrank tie handling, as a Mann-Whitney count.

    ``scores`` maps candidate pairs to reals; ``truth`` is the positive set.
    Needs at least one positive and one negative among the candidates.
    """
    pairs = list(scores.keys())
    labels = np.array([pair in truth for pair in pairs])
    n_pos = int(labels.sum())
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ContractViolation("AUROC undefined without both positives and negatives")
    vals = np.array([scores[pair] for pair in pairs], dtype=float)
    neg = np.sort(vals[~labels])
    pos = vals[labels]
    # Twice the Mann-Whitney U: per positive, the negatives below it (left)
    # plus those at or below it (right), so a tie counts one half.
    twice_u = (np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right")).sum()
    return float(twice_u / (2 * n_pos * n_neg))


def fdp_power(selected: set, truth: set) -> tuple:
    """(false discovery proportion, power); empty selection counts as (0, 0)."""
    selected = set(selected)
    truth = set(truth)
    fdp = len(selected - truth) / max(len(selected), 1)
    power = len(selected & truth) / len(truth) if truth else 0.0
    return fdp, power


def evaluate(scores: dict, selected: set, truth: set) -> EvalReport:
    fdp, power = fdp_power(selected, truth)
    return EvalReport(auroc=auroc(scores, truth), fdp=fdp, power=power,
                      n_selected=len(set(selected)), n_true=len(set(truth)))


def aggregate(reports: list) -> dict:
    """Per-metric mean, standard error, and 95% normal-approximation CI."""
    if not reports:
        raise ContractViolation("aggregate needs at least one report")
    out = {"n_repetitions": len(reports)}
    for key in ("auroc", "fdp", "power"):
        vals = np.array([getattr(r, key) for r in reports], dtype=float)
        mean = float(vals.mean())
        if len(vals) > 1:
            se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
            degenerate = False
        else:
            se = 0.0
            degenerate = True
        out[key] = {
            "mean": mean,
            "se": se,
            "ci95": [mean - 1.96 * se, mean + 1.96 * se],
            "se_undefined": degenerate,
            "values": vals.tolist(),
        }
    return out
