"""Knockoff-aware selection thresholds.

Interactions: the labeled score set gamma mixes original-original (OO),
one-knockoff (D) and two-knockoff (DD) pairs. Only OO pairs are reported as
discoveries, and the threshold is the smallest score t at which the
knockoff+ estimate

    (1 + #{D >= t}) / max(#{OO >= t}, 1) <= q.

The D pairs are the controls: swapping a null member j of an OO pair with its
knockoff maps the pair to a D pair, so every OO pair that contains a null
feature has an exchangeable D counterpart. DD pairs are controls for D pairs,
not for OO pairs, and do not enter the estimate. The +1 is the knockoff+
finite-sample offset (Barber & Candes, 2015). Under a global null (all
scores i.i.d., p=10, q=0.2) the rule selects in none of 500 draws; without
the offset it selects in a third of them.

The FDR this controls is over OO pairs with at least one null member. A pair
of two signal features has no exchangeable control, and when the scores of
knockoff-involving pairs are rescalings of their OO counterparts (as the
coupled model-based scores are) such pairs are not covered.

Features: the classic knockoff+ threshold over signed statistics W_j.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .exceptions import ConfigurationError, ContractViolation
from .table import write_json, write_table

CLASSES = ("OO", "D", "DD")

# The labelled pair set: one record per unordered augmented pair, 0-based
# i < j, and n_ko, the number of knockoffs in the pair (an index into CLASSES).
PAIR_DTYPE = np.dtype([("i", np.intp), ("j", np.intp), ("score", float), ("n_ko", np.int8)])


@dataclass
class SelectionResult:
    """Threshold scan outcome; ``threshold`` is None when no t qualifies."""

    threshold: float | None
    selected: list
    estimated_fdp: float | None
    q: float
    counts: dict = field(default_factory=dict)
    calibration: str | None = None  # an arm's scores, "on" or "off" (harness.select_arm)

    @property
    def feasible(self) -> bool:
        return self.threshold is not None

    def to_dict(self) -> dict:  # selected holds pairs or feature indices
        return {**asdict(self), "selected": np.asarray(self.selected).tolist()}


def labelled_pairs(p: int):
    """Indices i < j, j != i + p, of the 2p augmented features in row-major
    order, and the number of knockoffs in each pair.

    A feature paired with its own knockoff carries no signal and is left out.
    """
    i, j = np.nonzero(np.triu(np.ones((2 * p, 2 * p), dtype=bool), 1)
                      & ~np.eye(2 * p, k=p, dtype=bool))
    return i, j, (i >= p).astype(np.int8) + (j >= p)


def build_gamma(S: np.ndarray) -> np.ndarray:
    """The labelled pair set of a calibrated matrix, as a ``PAIR_DTYPE`` array."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        raise ContractViolation(f"expected a 2p x 2p matrix, got {S.shape}")
    if not np.array_equal(S, S.T):
        raise ContractViolation("score matrix must be symmetric")
    if np.any(S < 0):
        raise ContractViolation("scores must be nonnegative")
    i, j, n_ko = labelled_pairs(S.shape[0] // 2)
    gamma = np.empty(i.size, dtype=PAIR_DTYPE)
    gamma["i"], gamma["j"], gamma["score"], gamma["n_ko"] = i, j, S[i, j], n_ko
    return gamma


def _knockoff_plus_scan(candidates, controls, targets, q):
    """First candidate t with (1 + #{controls >= t}) / max(#{targets >= t}, 1) <= q.

    ``candidates`` ascend. Returns (index or None, the estimate at every candidate).
    """
    def n_at_or_above(values):
        ranked = np.sort(values)
        return ranked.size - np.searchsorted(ranked, candidates, side="left")

    est = (1 + n_at_or_above(controls)) / np.maximum(n_at_or_above(targets), 1)
    feasible = np.flatnonzero(est <= q)
    return (int(feasible[0]) if feasible.size else None), est


def interaction_threshold(gamma, q: float) -> SelectionResult:
    """Smallest score t with (1 + #{D >= t}) / max(#{OO >= t}, 1) <= q.

    ``gamma`` is a ``PAIR_DTYPE`` array (or anything that converts to one).
    Candidates are the distinct positive scores; the OO pairs at or above the
    threshold are selected. The estimate bounds the FDR over OO pairs that
    contain at least one null feature (see the module docstring).
    """
    if not 0 < q < 1:
        raise ConfigurationError("q must lie in (0, 1)")
    gamma = np.asarray(gamma, dtype=PAIR_DTYPE)
    scores, n_ko = gamma["score"], gamma["n_ko"]
    if not np.all(np.isfinite(scores)):
        raise ContractViolation("scores must be finite")
    if np.any(scores < 0):
        raise ContractViolation("scores must be nonnegative")
    candidates = np.unique(scores[scores > 0])
    first, est = _knockoff_plus_scan(candidates, scores[n_ko == 1], scores[n_ko == 0], q)
    if first is None:
        return SelectionResult(threshold=None, selected=[], estimated_fdp=None,
                               q=q, counts={k: 0 for k in CLASSES})
    threshold = float(candidates[first])
    at_t = scores >= threshold
    counts = dict(zip(CLASSES, np.bincount(n_ko[at_t], minlength=3).tolist()))
    chosen = at_t & (n_ko == 0)
    selected = sorted(zip(gamma["i"][chosen].tolist(), gamma["j"][chosen].tolist()))
    return SelectionResult(threshold=threshold, selected=selected,
                           estimated_fdp=float(est[first]), q=q, counts=counts)


def knockoff_stats(s1d: np.ndarray) -> np.ndarray:
    """W_j = |s1d_j| - |s1d_{j+p}|; antisymmetric under feature/knockoff swap."""
    s1d = np.asarray(s1d, dtype=float)
    if s1d.ndim != 1 or s1d.shape[0] % 2:
        raise ContractViolation("s1d must be a length-2p vector")
    if not np.all(np.isfinite(s1d)):
        raise ContractViolation("s1d must be finite")
    p = s1d.shape[0] // 2
    return np.abs(s1d[:p]) - np.abs(s1d[p:])


def feature_threshold(W: np.ndarray, q: float) -> SelectionResult:
    """Knockoff+ threshold: min t with (1 + #{W <= -t}) / #{W >= t} <= q."""
    if not 0 < q < 1:
        raise ConfigurationError("q must lie in (0, 1)")
    W = np.asarray(W, dtype=float)
    if not np.all(np.isfinite(W)):
        raise ContractViolation("W must be finite")
    candidates = np.unique(np.abs(W[W != 0]))
    # -W >= t counts W <= -t; a t with no W >= t has estimate 1 + #{W <= -t} > q.
    first, est = _knockoff_plus_scan(candidates, -W, W, q)
    if first is None:
        return SelectionResult(threshold=None, selected=[], estimated_fdp=None,
                               q=q, counts={"selected": 0})
    t = candidates[first]
    selected = np.flatnonzero(W >= t).tolist()
    return SelectionResult(threshold=float(t), selected=selected,
                           estimated_fdp=float(est[first]), q=q,
                           counts={"selected": len(selected)})


def write_selection_csv(path, gamma, result: SelectionResult):
    """Per-pair export by descending score: 1-based indices, class, score, and a
    selected flag on the OO pairs at or above the threshold, the pairs
    ``interaction_threshold`` selects from ``gamma``."""
    g = gamma[np.lexsort((gamma["j"], gamma["i"], -gamma["score"]))]
    selected = ((g["n_ko"] == 0) & (g["score"] >= result.threshold) if result.feasible
                else np.zeros(g.size, dtype=bool))
    write_table(path, ["i", "j", "class", "score", "selected"],
                [g["i"] + 1, g["j"] + 1, np.array(CLASSES)[g["n_ko"]], g["score"],
                 selected.astype(int)])


def write_selection_json(path, result: SelectionResult):
    write_json(path, result.to_dict())
