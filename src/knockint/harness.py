"""Experiment orchestration: simulate -> knockoff -> train -> score ->
select -> evaluate, with repetition management and report emission.

Within a repetition the stages pass arrays to each other in memory. With
``save_intermediates`` on, each repetition also writes every stage's output
to its own subdirectory of the output directory, in the formats the
standalone CLI stages read, so any stage can be rerun from those files; with
it off, only the report files are written. Per-repetition seeds are derived
by hashing (master seed, function, repetition), making repetitions
independent and individually rerunnable; a run spreads its cells over one
process per usable CPU and writes the same bytes as a serial run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import ConfigurationError, KnockintError, ValidationError
from .fdr import build_gamma, interaction_threshold, write_selection_csv, write_selection_json
from .importance import METHODS, AttributionConfig, compute_scores, write_scores_csv
from .knockoff import fit_gaussian, sample_knockoffs, save_model, write_augmented_csv
from .metrics import EvalReport, aggregate, evaluate
from .network import HIDDEN_SIZES, TrainConfig, init_network, save_network, train
from .simsuite import Dataset, SimulationSpec, generate, write_dataset_csv
from .table import read_table, write_json, write_table

ON_OFF = ("on", "off")

KNOCKOFF_SUBSTITUTION_NOTE = (
    "Knockoffs are second-order Gaussian constructions fitted to empirical "
    "moments (features are not Gaussian); reported FDP is empirical."
)

TRAINING_NOTE = (
    "No dropout, weight decay, or early stopping; L1 penalties on the "
    "coupling-layer filter weights and on the MLP weight matrices, plus "
    "global gradient-norm clipping."
)


def default_train_config() -> TrainConfig:
    """The experiment-protocol training profile, which is ``TrainConfig``'s defaults."""
    return TrainConfig()


def _expand(value, allowed):
    if value == "both":
        return list(allowed)
    if value not in allowed:
        raise ConfigurationError(f"expected one of {allowed + ('both',)}, got {value!r}")
    return [value]


@dataclass
class ExperimentConfig:
    functions: list = field(default_factory=lambda: ["F1"])
    dataset: str | None = None          # external CSV instead of simulation
    response_column: str | None = None
    task: str = "regression"
    n: int = 4000
    p: int = 30
    q: float = 0.2
    repetitions: int = 10
    method: str = "model_based"         # model_based | instance_based | both
    calibration: str = "on"             # on | off | both
    coupling: str = "on"                # on | off | both
    hidden_sizes: tuple = HIDDEN_SIZES
    train: TrainConfig = field(default_factory=TrainConfig)
    attribution: AttributionConfig = field(default_factory=AttributionConfig)
    ridge: float = 1e-6
    # Shrinks the knockoff gap vector so each knockoff stays correlated with
    # its original; keeps knockoff-involving pairs competitive in the
    # selection scan at the cost of some power.
    s_scale: float = 0.2
    seed: int = 0
    output_dir: str = "experiment_out"
    save_intermediates: bool = True

    def validate(self):
        if not 0 < self.q < 1:
            raise ConfigurationError("q must lie in (0, 1)")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if not 0 < self.s_scale <= 1:
            raise ConfigurationError("s_scale must lie in (0, 1]")
        self.train.validate()
        self.attribution.validate()
        _expand(self.method, METHODS)
        _expand(self.calibration, ON_OFF)
        _expand(self.coupling, ON_OFF)

    def to_dict(self):
        d = asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _from_json(cls, d)


def _from_json(cls, d: dict, prefix=""):
    """``cls(**d)`` for a JSON object ``d`` whose keys all name fields of ``cls``
    and whose values have types the fields' annotations admit: an int passes
    for a float, a list for a tuple, an object for a nested config."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in d.items():
        if name not in hints:
            raise ValidationError(f"unknown config field {prefix}{name}")
        types = typing.get_args(hints[name]) or (hints[name],)
        if isinstance(value, dict) and is_dataclass(hints[name]):
            value = _from_json(hints[name], value, f"{prefix}{name}.")
        elif isinstance(value, list) and tuple in types:
            value = tuple(value)
        elif not (type(value) in types or object in types
                  or (type(value) is int and float in types)):
            raise ValidationError(f"config field {prefix}{name}: expected "
                                  f"{' or '.join(t.__name__ for t in types)}, "
                                  f"got {type(value).__name__}")
        kwargs[name] = value
    return cls(**kwargs)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 32-bit stream seed from the master seed and a label tuple."""
    key = ":".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "little")


def ingest_csv(path, response_column: str, task: str = "regression") -> Dataset:
    """Load a header-named CSV into a Dataset; a bad cell raises ``ValidationError``
    naming its row."""
    header, data = read_table(path)
    if response_column not in header:
        raise ValidationError(
            f"{path}: response column {response_column!r} not found; "
            f"available columns: {header}")
    y_col = header.index(response_column)
    y = data[:, y_col].copy()
    if task == "binary":
        bad = np.flatnonzero((y != 0.0) & (y != 1.0))
        if bad.size:
            raise ValidationError(f"{path}: binary response must be 0/1, "
                                  f"got {y[bad[0]]} in row {bad[0] + 2}")
    return Dataset(X=np.delete(data, y_col, axis=1), y=y, task=task, ground_truth=None,
                   n_train=int(round(0.5 * len(y))))


def selected_original_pairs(selected, p: int) -> set:
    """Map selected 0-based augmented OO index pairs to 1-based feature pairs."""
    return {(i + 1, j + 1) for i, j in selected if i < p and j < p}


def oo_score_map(S: np.ndarray, p: int) -> dict:
    """Upper-triangle original-original scores keyed by 1-based pairs."""
    return {(i + 1, j + 1): float(S[i, j])
            for i in range(p) for j in range(i + 1, p)}


def run_repetition(cfg: ExperimentConfig, function_id: str, rep: int,
                   rep_dir: Path | None = None, dataset: Dataset | None = None) -> dict:
    """Full pipeline for one (function, repetition) cell; returns arm results.

    ``dataset`` is ``cfg.dataset`` already ingested, so that a run reads the
    file once; a cell given none reads it itself.
    """
    seed_data = derive_seed(cfg.seed, function_id, rep, "data")
    seed_ko = derive_seed(cfg.seed, function_id, rep, "knockoff")

    if cfg.dataset is None:
        spec = SimulationSpec(function_id=function_id, n=cfg.n, p=cfg.p,
                              seed=seed_data)
        dataset = generate(spec)
    elif dataset is None:
        dataset = ingest_csv(cfg.dataset, cfg.response_column, cfg.task)
    p = dataset.X.shape[1]

    X_train, y_train = dataset.train
    model = fit_gaussian(X_train, ridge=cfg.ridge, s_scale=cfg.s_scale)
    X_ko = sample_knockoffs(dataset.X, model, seed=seed_ko)
    X_aug = np.hstack([dataset.X, X_ko])
    k = dataset.n_train
    aug_train, aug_test = X_aug[:k], X_aug[k:]

    if rep_dir is not None:
        rep_dir.mkdir(parents=True, exist_ok=True)
        if cfg.dataset is None:
            write_dataset_csv(rep_dir / "dataset.csv", dataset,
                              rep_dir / "manifest.json", spec)
        save_model(model, rep_dir / "knockoff_model.npz")
        write_augmented_csv(rep_dir / "augmented.csv", dataset.X, X_ko)

    methods = _expand(cfg.method, METHODS)
    calibrations = _expand(cfg.calibration, ON_OFF)
    couplings = _expand(cfg.coupling, ON_OFF)

    results = {}
    for coupling in couplings:
        seed_net = derive_seed(cfg.seed, function_id, rep, "net", coupling)
        net = init_network(p, hidden_sizes=cfg.hidden_sizes, task=dataset.task,
                          seed=seed_net, coupling=(coupling == "on"))
        net, trace = train(net, aug_train, y_train, replace(cfg.train, seed=seed_net))
        if rep_dir is not None:
            save_network(net, rep_dir / f"net_coupling_{coupling}.npz")
            write_json(rep_dir / f"trace_coupling_{coupling}.json", trace, compact=True)

        for method in methods:
            attribution_data = aug_test if len(aug_test) else aug_train
            scores = compute_scores(net, method, attribution_data, cfg.attribution)
            if rep_dir is not None:
                write_scores_csv(
                    rep_dir / f"scores_{method}_coupling_{coupling}.csv", scores)
            for calibration in calibrations:
                S = scores.calibrated if calibration == "on" else np.abs(scores.s2d)
                gamma = build_gamma(S)
                selection = interaction_threshold(gamma, cfg.q)
                arm = f"{method}|calibration_{calibration}|coupling_{coupling}"
                entry = {"selection": selection.to_dict(),
                         "trace_final_loss": trace["train_loss"][-1]}
                if rep_dir is not None:
                    stem = f"selection_{method}_cal_{calibration}_coupling_{coupling}"
                    write_selection_json(rep_dir / f"{stem}.json", selection)
                    write_selection_csv(rep_dir / f"{stem}.csv", gamma, selection)
                if dataset.ground_truth is not None:
                    report = evaluate(oo_score_map(S, p),
                                      selected_original_pairs(selection.selected, p),
                                      dataset.ground_truth)
                    entry["eval"] = report.to_dict()
                results[arm] = entry
    return results


def _run_cell(cell) -> dict | str:
    """Run one cell; a failure it can report comes back as ``"Type: msg"``.

    The failure travels as text because an exception with its own
    ``__init__`` (``TrainingDivergedError``, ``DegenerateFeatureError``)
    does not come back intact from a worker process through pickling. Any
    other exception is a fault in the program and propagates.
    """
    cfg, function_id, rep, rep_dir, dataset = cell
    try:
        return run_repetition(cfg, function_id, rep, rep_dir, dataset)
    except (KnockintError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _run_cells(cells) -> list:
    """``_run_cell`` over ``cells``, in order, one process per usable CPU.

    This process runs every ``workers``-th cell itself while a pool of forked
    workers runs the rest, so a run with one usable CPU or one cell starts no
    process. Forked workers inherit the loaded modules and the BLAS set-up of
    this process, so each cell computes the same bytes wherever it runs, and
    a ``spawn`` pool's resource tracker, which outlives the pool, is never
    started.
    """
    workers = min(len(cells), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [_run_cell(cell) for cell in cells]
    outcomes = [None] * len(cells)
    with ProcessPoolExecutor(workers - 1,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            futures = {i: pool.submit(_run_cell, cell)
                       for i, cell in enumerate(cells) if i % workers}
            for i in range(0, len(cells), workers):
                outcomes[i] = _run_cell(cells[i])
            for i, future in futures.items():
                outcomes[i] = future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)  # start none of the queued cells
            raise
    return outcomes


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute every (function, repetition) cell and write the report files.

    ``cfg.dataset`` is read and validated once, before any cell runs. A
    repetition that fails with a ``KnockintError`` or a numeric failure is
    logged into the report and the run continues; any other exception
    propagates, and no worker process outlives the call.
    """
    cfg.validate()
    dataset = (None if cfg.dataset is None
               else ingest_csv(cfg.dataset, cfg.response_column, cfg.task))
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    function_ids = cfg.functions if cfg.dataset is None else ["external"]
    report = {
        "config": cfg.to_dict(),
        "software_version": __version__,
        "notes": [KNOCKOFF_SUBSTITUTION_NOTE, TRAINING_NOTE],
        "results": {},
        "errors": [],
    }

    cells = [(cfg, function_id, rep,
              outdir / f"{function_id}_rep{rep:03d}" if cfg.save_intermediates else None,
              dataset)
             for function_id in function_ids for rep in range(cfg.repetitions)]
    per_function = {function_id: {} for function_id in function_ids}
    for (_, function_id, rep, _, _), outcome in zip(cells, _run_cells(cells)):
        if isinstance(outcome, str):
            report["errors"].append({"function": function_id, "repetition": rep,
                                     "error": outcome})
            continue
        for arm, entry in outcome.items():
            per_function[function_id].setdefault(arm, []).append(
                {"repetition": rep, **entry})
    for function_id, per_arm in per_function.items():
        report["results"][function_id] = {}
        for arm, entries in per_arm.items():
            arm_report = {"repetitions": entries}
            evals = [EvalReport(**e["eval"]) for e in entries if "eval" in e]
            if evals:
                arm_report["aggregate"] = aggregate(evals)
            report["results"][function_id][arm] = arm_report

    _write_report(outdir, report)
    return report


def _write_report(outdir: Path, report: dict):
    write_json(outdir / "report.json", report)

    q = report["config"]["q"]
    summary, aggregates = [], []
    for function_id, arms in sorted(report["results"].items()):
        for arm, arm_report in sorted(arms.items()):
            method, cal, coup = arm.split("|")
            labels = [function_id, method, cal.removeprefix("calibration_"),
                      coup.removeprefix("coupling_")]
            for entry in arm_report["repetitions"]:
                ev = entry.get("eval", {})
                threshold = entry["selection"]["threshold"]
                summary.append(labels + [q, entry["repetition"]]
                               + [ev.get(k, "") for k in
                                  ("auroc", "fdp", "power", "n_selected")]
                               + ["" if threshold is None else threshold])
            agg = arm_report.get("aggregate")
            if agg:
                aggregates += [labels + [m, agg[m]["mean"], *agg[m]["ci95"]]
                               for m in ("auroc", "fdp", "power")]
    write_table(outdir / "summary.csv",
                ["function", "method", "calibration", "coupling", "q", "repetition",
                 "auroc", "fdp", "power", "n_selected", "threshold"], summary)
    # Plot-ready aggregates (bar data per metric, mirroring the panel layout).
    write_table(outdir / "aggregate.csv",
                ["function", "method", "calibration", "coupling",
                 "metric", "mean", "ci_low", "ci_high"], aggregates)
