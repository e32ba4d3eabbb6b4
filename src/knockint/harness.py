"""Experiment orchestration: simulate -> knockoff -> train -> score ->
select -> evaluate, with repetition management and report emission.

Each stage's rule (``make_knockoffs``, ``fit_network``, ``select_arm``,
``score_selection``) is one function here, called both by a repetition and
by the matching CLI stage command. Within a repetition the stages pass
arrays in memory; with ``save_intermediates`` on, each repetition also
writes every stage's output, and a simulation its dataset and manifest, to
its own directory, so any stage reruns from those files (``run --dataset``
writes its one dataset and manifest to the run's directory). Per-repetition
seeds hash (master seed, function, repetition); a run spreads its cells over
one process per usable CPU and writes the same bytes as a serial run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from math import inf
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import ConfigurationError, KnockintError, ValidationError, check_fields
from .fdr import build_gamma, interaction_threshold, write_selection_csv, write_selection_json
from .importance import METHODS, AttributionConfig, compute_scores, write_scores_csv
from .knockoff import fit_gaussian, sample_knockoffs, save_model, write_augmented_csv
from .metrics import EvalReport, aggregate, evaluate
from .network import (HIDDEN_SIZES, TASKS, TrainConfig, check_hidden_sizes,
                      check_training_rows, init_network, save_network, train)
from .simsuite import (Dataset, SimulationSpec, generate, held_out, read_dataset_csv,
                       training_rows, write_dataset_csv)
from .table import write_json, write_table

# Per calibration, the 2p x 2p matrix an arm ranks: calibrated or raw |2D| scores.
CALIBRATIONS = {"on": lambda scores: scores.calibrated,
                "off": lambda scores: np.abs(scores.s2d)}

# The axes a run crosses into arms; a config picks one choice of each, or "both".
AXES = {"method": METHODS, "calibration": tuple(CALIBRATIONS), "coupling": ("on", "off")}

SIMULATION_FIELDS = ("functions", "n", "p")  # the settings only a simulation reads

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


def _expand(cfg, axis) -> list:
    value = getattr(cfg, axis)
    return list(AXES[axis]) if value == "both" else [value]


@dataclass(frozen=True)
class ExperimentConfig:
    functions: list = field(default_factory=lambda: ["F1"])
    dataset: str | None = None          # external CSV instead of simulation
    response_column: str | None = None
    task: str = "regression"
    n: int = 4000
    p: int = 30
    q: float = 0.2
    repetitions: int = 10
    method: str = "model_based"         # AXES["method"] or "both"
    calibration: str = "on"             # AXES["calibration"] or "both"
    coupling: str = "on"                # AXES["coupling"] or "both"
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

    def __post_init__(self):
        check_fields(self, (
            ("q", 0 < self.q < 1, "in (0, 1)"),
            ("repetitions", 1 <= self.repetitions < inf, "in [1, inf)"),
            ("s_scale", 0 < self.s_scale <= 1, "in (0, 1]"),
            ("ridge", 0 <= self.ridge < inf, "in [0, inf)"),
            ("task", self.task in TASKS, f"one of {TASKS}"),
            *((axis, getattr(self, axis) in choices + ("both",), f"one of {choices} or 'both'")
              for axis, choices in AXES.items())))
        check_hidden_sizes(self.hidden_sizes)
        if self.dataset is None:  # every function, before any cell runs
            check_fields(self, (  # settings a simulation would ignore
                ("task", self.task == "regression", "'regression' without a dataset"),
                ("response_column", self.response_column is None, "None without a dataset")))
            if not self.functions:
                raise ConfigurationError("functions is empty")
            for k, function_id in enumerate(self.functions):
                SimulationSpec(function_id, self.n, self.p)
                if function_id in self.functions[:k]:
                    raise ConfigurationError(f"functions names {function_id} twice")
            self.attribution.check_baselines(2 * self.p)

    def to_dict(self):
        """The config as JSON values; a dataset's config leaves out the
        ``SIMULATION_FIELDS``, which its run does not read."""
        d = asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        if self.dataset is not None:
            for name in SIMULATION_FIELDS:
                del d[name]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config a JSON object holds; one with a dataset may not set the
        ``SIMULATION_FIELDS``, which its run would ignore."""
        given = [name for name in SIMULATION_FIELDS if name in d]
        if d.get("dataset") is not None and given:
            raise ValidationError(f"config fields {', '.join(given)} are read by a "
                                  f"simulation only; a config with a dataset may not set them")
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


def selected_original_pairs(selected, p: int) -> set:
    """Map selected 0-based augmented OO index pairs to 1-based feature pairs."""
    return {(i + 1, j + 1) for i, j in selected if i < p and j < p}


def oo_score_map(S: np.ndarray, p: int) -> dict:
    """Upper-triangle original-original scores keyed by 1-based pairs."""
    return {(i + 1, j + 1): float(S[i, j])
            for i in range(p) for j in range(i + 1, p)}


def make_knockoffs(dataset: Dataset, ridge: float, s_scale: float, seed: int) -> tuple:
    """``(model, X_ko)``: a model fitted on the training rows, sampled for every row."""
    model = fit_gaussian(dataset.train[0], ridge=ridge, s_scale=s_scale)
    return model, sample_knockoffs(dataset.X, model, seed=seed)


def fit_network(dataset: Dataset, X_aug, coupling: str, hidden_sizes, train_cfg, seed) -> tuple:
    """``(net, trace)``: a network drawn and trained from ``seed`` on the training rows."""
    net = init_network(dataset.X.shape[1], hidden_sizes=hidden_sizes, task=dataset.task,
                       seed=seed, coupling=(coupling == "on"))
    return train(net, X_aug[:dataset.n_train], dataset.train[1], train_cfg, seed)


def select_arm(scores, calibration: str, q: float) -> tuple:
    """``(gamma, selection)`` of the arm's scores; the selection records ``calibration``."""
    gamma = build_gamma(CALIBRATIONS[calibration](scores))
    return gamma, replace(interaction_threshold(gamma, q), calibration=calibration)


def score_selection(scores, selection: dict, truth) -> EvalReport:
    """A selection, as ``SelectionResult.to_dict`` writes it, on the scores its
    arm ranked, against 1-based ``truth``."""
    S = CALIBRATIONS[selection["calibration"]](scores)
    p = S.shape[0] // 2
    return evaluate(oo_score_map(S, p), selected_original_pairs(selection["selected"], p), truth)


def run_repetition(cfg: ExperimentConfig, function_id: str, rep: int,
                   rep_dir: Path | None = None, dataset: Dataset | None = None) -> dict:
    """Full pipeline for one (function, repetition) cell; returns arm results.

    ``dataset`` is ``cfg.dataset`` already read, so that a run reads and
    writes the file once; without ``cfg.dataset`` the cell simulates its own
    and writes it to ``rep_dir``.
    """
    seed_data = derive_seed(cfg.seed, function_id, rep, "data")
    seed_ko = derive_seed(cfg.seed, function_id, rep, "knockoff")

    spec = None
    if cfg.dataset is None:
        spec = SimulationSpec(function_id=function_id, n=cfg.n, p=cfg.p, seed=seed_data)
        dataset = generate(spec)

    model, X_ko = make_knockoffs(dataset, cfg.ridge, cfg.s_scale, seed_ko)
    X_aug = np.hstack([dataset.X, X_ko])
    attribution_data = held_out(X_aug, dataset.n_train)

    if rep_dir is not None:
        rep_dir.mkdir(parents=True, exist_ok=True)
        if spec is not None:
            write_dataset_csv(rep_dir / "dataset.csv", dataset, rep_dir / "manifest.json", spec)
        save_model(model, rep_dir / "knockoff_model.npz")
        write_augmented_csv(rep_dir / "augmented.csv", dataset.X, X_ko)

    results = {}
    for coupling in _expand(cfg, "coupling"):
        seed_net = derive_seed(cfg.seed, function_id, rep, "net", coupling)
        net, trace = fit_network(dataset, X_aug, coupling, cfg.hidden_sizes, cfg.train, seed_net)
        if rep_dir is not None:
            save_network(net, rep_dir / f"net_coupling_{coupling}.npz")
            write_json(rep_dir / f"trace_coupling_{coupling}.json", trace, compact=True)

        for method in _expand(cfg, "method"):
            scores = compute_scores(net, method, attribution_data, cfg.attribution)
            if rep_dir is not None:
                write_scores_csv(
                    rep_dir / f"scores_{method}_coupling_{coupling}.csv", scores)
            for calibration in _expand(cfg, "calibration"):
                gamma, selection = select_arm(scores, calibration, cfg.q)
                arm = f"{method}|calibration_{calibration}|coupling_{coupling}"
                entry = {"selection": selection.to_dict(),
                         "trace_final_loss": trace["train_loss"][-1]}
                if rep_dir is not None:
                    stem = f"selection_{method}_cal_{calibration}_coupling_{coupling}"
                    write_selection_json(rep_dir / f"{stem}.json", selection)
                    write_selection_csv(rep_dir / f"{stem}.csv", gamma, selection)
                if dataset.ground_truth is not None:
                    entry["eval"] = score_selection(scores, entry["selection"],
                                                    dataset.ground_truth).to_dict()
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

    ``cfg.dataset`` is read, validated, checked against ``cfg.attribution``
    and, with intermediates, written to ``cfg.output_dir`` once, and the
    training rows every cell will have are checked against ``cfg.train``,
    before any cell runs. A
    repetition that fails with a ``KnockintError`` or a numeric failure is
    logged into the report and the run continues; any other exception
    propagates, and no worker process outlives the call.
    """
    dataset = None
    n_train = training_rows(cfg.n)  # as generate splits a simulation
    if cfg.dataset is not None:  # and a read dataset is split alike
        dataset = read_dataset_csv(cfg.dataset, None, cfg.response_column, cfg.task)
        n_train = dataset.n_train = training_rows(len(dataset.y))
        cfg.attribution.check_baselines(2 * dataset.X.shape[1])
    check_training_rows(cfg.train, n_train)  # every cell trains on n_train rows
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if dataset is not None and cfg.save_intermediates:
        write_dataset_csv(outdir / "dataset.csv", dataset, outdir / "manifest.json")

    function_ids = cfg.functions if cfg.dataset is None else ["external"]
    results = {function_id: {} for function_id in function_ids}
    report = {
        "config": cfg.to_dict(),
        "software_version": __version__,
        "notes": [KNOCKOFF_SUBSTITUTION_NOTE, TRAINING_NOTE],
        "results": results,
        "errors": [],
    }

    cells = [(cfg, function_id, rep,
              outdir / f"{function_id}_rep{rep:03d}" if cfg.save_intermediates else None,
              dataset)
             for function_id in function_ids for rep in range(cfg.repetitions)]
    for (_, function_id, rep, _, _), outcome in zip(cells, _run_cells(cells)):
        if isinstance(outcome, str):
            report["errors"].append({"function": function_id, "repetition": rep,
                                     "error": outcome})
            continue
        for arm, entry in outcome.items():
            results[function_id].setdefault(arm, {"repetitions": []})["repetitions"].append(
                {"repetition": rep, **entry})
    for arm_report in (a for arms in results.values() for a in arms.values()):
        evals = [EvalReport(**e["eval"]) for e in arm_report["repetitions"] if "eval" in e]
        if evals:
            arm_report["aggregate"] = aggregate(evals)

    _write_report(outdir, report)
    return report


def _write_report(outdir: Path, report: dict):
    write_json(outdir / "report.json", report)

    q = report["config"]["q"]
    summary, aggregates = [], []
    for function_id, arms in sorted(report["results"].items()):
        for arm, arm_report in sorted(arms.items()):
            labels = [function_id, *(part.removeprefix(f"{axis}_")
                                     for axis, part in zip(AXES, arm.split("|")))]
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
                 "auroc", "fdp", "power", "n_selected", "threshold"], list(zip(*summary)))
    # Plot-ready aggregates (bar data per metric, mirroring the panel layout).
    write_table(outdir / "aggregate.csv",
                ["function", "method", "calibration", "coupling",
                 "metric", "mean", "ci_low", "ci_high"], list(zip(*aggregates)))
