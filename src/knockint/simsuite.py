"""Simulation benchmark: ten synthetic regression functions with known
pairwise-interaction ground truth.

Features are i.i.d. uniform on (0, 1); each function reads only the first
ten features, and the rest act as noise. Ground-truth pairs are the frozen
output of a mixed-partial analysis of each function's non-additive terms,
kept honest by a finite-difference oracle (``mixed_partial``) that the test
suite reruns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import inf

import numpy as np

from .exceptions import ConfigurationError, GenerationError, ValidationError, check_fields
from .network import TASKS
from .table import index_pairs, read_json, read_table, write_json, write_table


def _f1(x):
    return (np.pi ** (x[1] * x[2]) * np.sqrt(2 * x[3]) - np.arcsin(x[4])
            + np.log(x[3] + x[5]) - (x[9] / x[10]) * np.sqrt(x[7] / x[8])
            - x[2] * x[7])


def _f2(x):
    return (np.pi ** (x[1] * x[2]) * np.sqrt(2 * np.abs(x[3]))
            - np.arcsin(0.5 * x[4]) + np.log(np.abs(x[3] + x[5]) + 1)
            - (x[9] / (1 + np.abs(x[10]))) * np.sqrt(x[7] / (1 + np.abs(x[8])))
            - x[2] * x[7])


def _f3(x):
    return (np.exp(np.abs(x[1] - x[2])) + np.abs(x[2] * x[3])
            - x[3] ** (2 * np.abs(x[4]))
            + np.log(x[4] ** 2 + x[5] ** 2 + x[7] ** 2 + x[8] ** 2)
            + x[9] + 1.0 / (1 + x[10] ** 2))


def _f4(x):
    return _f3(x) + (x[1] * x[4]) ** 2


def _f5(x):
    return (1.0 / (1 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2)
            + np.sqrt(np.exp(x[4] + x[5])) + np.abs(x[6] + x[7])
            + x[8] * x[9] * x[10])


def _f6(x):
    return (np.exp(np.abs(x[1] * x[2]) + 1) - np.exp(np.abs(x[3] + x[4]) + 1)
            + np.cos(x[5] + x[6] - x[8])
            + np.sqrt(x[8] ** 2 + x[9] ** 2 + x[10] ** 2))


def _f7(x):
    return ((np.arctan(x[1]) + np.arctan(x[2])) ** 2
            + np.maximum(x[3] * x[4] + x[6], 0)
            - 1.0 / (1 + (x[4] * x[5] * x[6] * x[7] * x[8]) ** 2)
            + (np.abs(x[7]) / (1 + np.abs(x[9]))) ** 5
            + sum(x[i] for i in range(1, 11)))


def _f8(x):
    return (x[1] * x[2] + 2.0 ** (x[3] + x[5] + x[6])
            + 2.0 ** (x[3] + x[4] + x[5] + x[7])
            + np.sin(x[7] * np.sin(x[8] + x[9])) + np.arccos(0.9 * x[10]))


def _f9(x):
    return (np.tanh(x[1] * x[2] + x[3] * x[4]) * np.sqrt(np.abs(x[5]))
            + np.exp(x[5] + x[6]) + np.log((x[6] * x[7] * x[8]) ** 2 + 1)
            + x[9] * x[10] + 1.0 / (1 + np.abs(x[10])))


def _f10(x):
    # sec is the trigonometric secant; x7*x9 in (0,1) stays clear of pi/2.
    return (np.sinh(x[1] + x[2]) + np.arccos(np.tanh(x[3] + x[5] + x[7]))
            + np.cos(x[4] + x[5]) + 1.0 / np.cos(x[7] * x[9]))


FUNCTIONS = {
    "F1": _f1, "F2": _f2, "F3": _f3, "F4": _f4, "F5": _f5,
    "F6": _f6, "F7": _f7, "F8": _f8, "F9": _f9, "F10": _f10,
}

# Frozen 1-based ground-truth pairs, verified by the mixed-partial oracle.
GROUND_TRUTH_PAIRS = {
    "F1": {(1, 2), (1, 3), (2, 3), (3, 5), (2, 7),
           (7, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10)},
    "F2": {(1, 2), (1, 3), (2, 3), (3, 5), (2, 7),
           (7, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10)},
    "F3": {(1, 2), (2, 3), (3, 4),
           (4, 5), (4, 7), (4, 8), (5, 7), (5, 8), (7, 8)},
    "F4": {(1, 2), (1, 4), (2, 3), (3, 4),
           (4, 5), (4, 7), (4, 8), (5, 7), (5, 8), (7, 8)},
    # |x6+x7| is additive on (0,1)^10 (its argument is always positive), so
    # (6, 7) is absent despite the syntactic two-variable term.
    "F5": {(1, 2), (1, 3), (2, 3), (4, 5), (8, 9), (8, 10), (9, 10)},
    "F6": {(1, 2), (3, 4), (5, 6), (5, 8), (6, 8), (8, 9), (8, 10), (9, 10)},
    "F7": {(1, 2), (3, 4), (7, 9),
           (4, 5), (4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8),
           (6, 7), (6, 8), (7, 8)},
    "F8": {(1, 2), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 7),
           (5, 6), (5, 7), (7, 8), (7, 9), (8, 9)},
    "F9": {(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
           (3, 4), (3, 5), (4, 5),
           (5, 6), (6, 7), (6, 8), (7, 8), (9, 10)},
    "F10": {(1, 2), (3, 5), (3, 7), (5, 7), (4, 5), (7, 9)},
}

# Kink surfaces to stay away from when probing mixed partials numerically.
_KINK_GUARDS = {
    "F3": lambda x: abs(x[1] - x[2]) > 0.1,
    "F4": lambda x: abs(x[1] - x[2]) > 0.1,
}


TRAIN_FRACTION = 0.5  # the share of rows a simulated or ``run --dataset`` dataset trains on


def training_rows(n: int) -> int:
    """How many of ``n`` rows train: the first ``round(TRAIN_FRACTION * n)``."""
    return int(round(TRAIN_FRACTION * n))


@dataclass(frozen=True)
class SimulationSpec:
    function_id: str
    n: int = 20000
    p: int = 30
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.function_id, str) or self.function_id not in FUNCTIONS:
            raise ConfigurationError(f"unknown function id {self.function_id!r}")
        check_fields(self, (
            ("p", 10 <= self.p < inf, "in [10, inf) (functions read x1..x10)"),
            ("n", 3 <= self.n < inf, "in [3, inf) (the knockoff fit needs 2 training rows)"),
            ("seed", 0 <= self.seed < inf, "in [0, inf)")))


@dataclass
class Dataset:
    """Feature matrix + response; the first ``n_train`` rows train, the rest are held out."""

    X: np.ndarray
    y: np.ndarray
    n_train: int
    task: str = "regression"
    ground_truth: set | None = None

    @property
    def train(self):
        return self.X[:self.n_train], self.y[:self.n_train]

    @property
    def test(self):
        return self.X[self.n_train:], self.y[self.n_train:]


def held_out(rows, n_train: int):
    """The rows after the first ``n_train``, or every row when none are held out."""
    return rows[n_train:] if len(rows) > n_train else rows


def evaluate_function(function_id: str, X: np.ndarray) -> np.ndarray:
    """Apply one benchmark function to the columns of X (needs p >= 10)."""
    cols = {k: X[..., k - 1] for k in range(1, 11)}
    return FUNCTIONS[function_id](cols)


def generate(spec: SimulationSpec) -> Dataset:
    """Sample a benchmark dataset; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    X = rng.uniform(size=(spec.n, spec.p))
    y = evaluate_function(spec.function_id, X)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise GenerationError(f"non-finite response at row {bad[0]}")
    return Dataset(X=X, y=y, n_train=training_rows(spec.n),
                   ground_truth=set(GROUND_TRUTH_PAIRS[spec.function_id]))


def mixed_partial(function_id: str, i: int, j: int, point: np.ndarray,
                  h: float = 1e-2) -> float:
    """Central cross-difference estimate of d2F / dx_i dx_j (1-based i, j).

    The cross difference annihilates any additively-separable dependence on
    (x_i, x_j) exactly, so true non-pairs read as rounding noise.
    """
    pt = np.array(point, dtype=float)
    vals = 0.0
    for si in (+1, -1):
        for sj in (+1, -1):
            q = pt.copy()
            q[i - 1] += si * h
            q[j - 1] += sj * h
            vals += si * sj * float(evaluate_function(function_id, q))
    return vals / (4 * h * h)


def oracle_points(function_id: str, n_points: int = 20, seed: int = 0) -> np.ndarray:
    """Random probe points in [0.15, 0.85]^10, resampled away from kinks."""
    rng = np.random.default_rng(seed)
    guard = _KINK_GUARDS.get(function_id)
    points = []
    while len(points) < n_points:
        pt = rng.uniform(0.15, 0.85, size=10)
        if guard is None or guard(pt):
            points.append(pt)
    return np.array(points)


def verify_ground_truth(function_id: str, n_points: int = 20, seed: int = 0,
                        nonzero_tol: float = 1e-6, zero_tol: float = 1e-8) -> bool:
    """Check the frozen pair list against the finite-difference oracle."""
    truth = GROUND_TRUTH_PAIRS[function_id]
    points = oracle_points(function_id, n_points, seed)
    for i in range(1, 11):
        for j in range(i + 1, 11):
            vals = [abs(mixed_partial(function_id, i, j, pt)) for pt in points]
            if (i, j) in truth:
                if max(vals) <= nonzero_tol:
                    return False
            else:
                if max(vals) >= zero_tol:
                    return False
    return True


def write_dataset_csv(path, dataset: Dataset, manifest_path=None,
                      spec: SimulationSpec | None = None):
    """CSV with header x1..xp, y; optional sidecar JSON manifest."""
    p = dataset.X.shape[1]
    write_table(path, [f"x{j+1}" for j in range(p)] + ["y"],
                [*dataset.X.T, dataset.y])
    if manifest_path is not None:
        manifest = {
            "task": dataset.task,
            "n": int(dataset.X.shape[0]),
            "p": int(p),
            "n_train": dataset.n_train,
            "ground_truth_pairs": sorted(map(list, dataset.ground_truth))
            if dataset.ground_truth else None,
        }
        if spec is not None:
            manifest["spec"] = asdict(spec)
        write_json(manifest_path, manifest)


def read_manifest(path, rows: int | None = None, cols: int | None = None) -> tuple:
    """The checked ``(task, n_train, ground_truth)`` of a manifest for ``rows`` rows
    and ``cols`` features (default: its ``n`` and ``p``); missing entries mean
    regression, all rows train, no truth."""
    m = read_json(path)
    rows = m["n"] if rows is None else rows
    cols = m["p"] if cols is None else cols
    task = m.get("task", "regression")
    n_train = m.get("n_train", rows)
    pairs = m.get("ground_truth_pairs")
    m.check((("task", task, task in TASKS, f"one of {TASKS}"),
             ("n_train", n_train, type(n_train) is type(rows) is int and 1 <= n_train <= rows,
              f"an int in 1..{rows}"),
             ("ground_truth_pairs", pairs, pairs is None or (
                 index_pairs(pairs) and type(cols) is int
                 and all(1 <= i < j <= cols for i, j in pairs)),
              f"[i, j] pairs with 1 <= i < j <= {cols}")))
    return task, n_train, {tuple(pr) for pr in pairs} if pairs else None


def read_dataset_csv(path, manifest_path=None, response_column: str | None = None,
                     task: str = "regression") -> Dataset:
    """A header-named CSV whose response is ``response_column``, or else its last
    column. Task, training rows and ground truth come from the manifest at
    ``manifest_path``; without one the task is ``task`` and every row trains."""
    header, data = read_table(path)
    if response_column is not None and response_column not in header:
        raise ValidationError(f"{path}: response column {response_column!r} not found; "
                              f"available columns: {header}")
    col = len(header) - 1 if response_column is None else header.index(response_column)
    X, y = np.delete(data, col, axis=1), data[:, col].copy()
    task, n_train, truth = ((task, len(y), None) if manifest_path is None
                            else read_manifest(manifest_path, *X.shape))
    bad = np.flatnonzero((y != 0.0) & (y != 1.0))
    if task == "binary" and bad.size:
        raise ValidationError(f"{path}: binary response must be 0/1, "
                              f"got {y[bad[0]]} in row {bad[0] + 2}")
    return Dataset(X, y, n_train, task, truth)
