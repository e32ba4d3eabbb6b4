"""The three knockint workloads: protocol, instance and select.

Each is a closed loop in one process: one round of ops after another, with
the BLAS thread count the machine gives by default. A round's ops are timed
together; the correctness checks run after the round, off the clock.

A workload object has
    AUROC_ROUNDS         the rounds every run does at least, and over which
                         `auroc` is averaged;
    make_inputs()        generate the inputs from the seed (repeatable);
    run_round(r, tracer) run round r and return what the checks need;
    check_round(r, out)  one record per op: failed, errors, auroc, diagnostics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from knockint import fdr, harness, importance, metrics, network
from knockint.harness import ExperimentConfig, default_train_config
from knockint.importance import AttributionConfig, ImportanceScores
from knockint.simsuite import GROUND_TRUTH_PAIRS, evaluate_function

Q = 0.2
MODEL_ARM = "model_based|calibration_on|coupling_on"
INSTANCE_ARM = "instance_based|calibration_on|coupling_on"


def _record(op, errors=(), failed=False, auroc=None, **diag):
    return {"op": op, "failed": failed or bool(errors), "errors": list(errors),
            "auroc": auroc, "diag": diag}


def _checked(where, check, *args):
    """Run a check; one that raises (a missing or unreadable output) fails the op."""
    try:
        return check(*args)
    except Exception as exc:  # the op failed; the run goes on
        return _record(where, [f"{where}: check raised {type(exc).__name__}: {exc}"])


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _round_seed(seed, r):
    return seed * 1000 + r


def _null_features(fid, p, n_points=64, h=1e-3):
    """1-based features the function never reads, by perturbing each one."""
    X = np.random.default_rng(0).uniform(0.2, 0.8, size=(n_points, p))
    base = evaluate_function(fid, X)
    null = set()
    for k in range(p):
        Xk = X.copy()
        Xk[:, k] += h
        if np.array_equal(evaluate_function(fid, Xk), base):
            null.add(k + 1)
    return null


def _null_member_fdp(fid, p, selected):
    """Share of selected OO pairs with a member the function never reads."""
    null = _null_features(fid, p)
    false = sum(1 for a, b in selected if a + 1 in null or b + 1 in null)
    return false / max(len(selected), 1)


class Protocol:
    """The paper's main arm through `harness.run_experiment`, two cells a round.

    F2 and F4 (F1's network does not fit), n=4000, p=30, q=0.2, the default
    training profile, model-based scores, calibration and coupling on, and
    intermediates saved. One op is one (function, repetition) cell.
    """

    FUNCTIONS = ("F2", "F4")
    N, P = 4000, 30
    AUROC_ROUNDS = 2

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir

    def make_inputs(self):
        self.base = ExperimentConfig(
            functions=list(self.FUNCTIONS), n=self.N, p=self.P, q=Q,
            repetitions=1, method="model_based", calibration="on", coupling="on",
            train=default_train_config(), save_intermediates=True)

    def run_round(self, r, tracer=None):
        cfg = replace(self.base, seed=_round_seed(self.seed, r),
                      output_dir=str(self.workdir / f"round{r}"))
        return cfg, harness.run_experiment(cfg)

    def check_round(self, r, out):
        cfg, report = out
        failed = {e["function"]: e["error"] for e in report["errors"]}
        records = []
        for fid in self.FUNCTIONS:
            where = f"round {r} {fid}"
            if fid in failed:
                records.append(_record(where, failed=True, error=failed[fid]))
                continue
            records.append(_checked(where, self._check_cell, cfg, report, fid, where))
        shutil.rmtree(cfg.output_dir)
        return records

    def _check_cell(self, cfg, report, fid, where):
        rep_dir = Path(cfg.output_dir) / f"{fid}_rep000"
        entry = report["results"][fid][MODEL_ARM]["repetitions"][0]
        p = self.P
        pairs = checks.labelled_pairs(
            checks.read_scores_matrix(rep_dir / "scores_model_based_coupling_on.csv"))
        scan = checks.brute_force_scan(*pairs, Q)
        with open(rep_dir / "selection_model_based_cal_on_coupling_on.json") as fh:
            saved = json.load(fh)
        errors = checks.check_selection(scan, saved["threshold"], saved["estimated_fdp"],
                                        saved["selected"], p, f"{where} saved selection")
        sel = entry["selection"]
        errors += checks.check_selection(scan, sel["threshold"], sel["estimated_fdp"],
                                         sel["selected"], p, f"{where} report")
        ref = checks.oo_truth_metrics(*pairs, scan[2], GROUND_TRUTH_PAIRS[fid])
        errors += checks.check_eval(entry["eval"], ref, where)

        aug = np.loadtxt(rep_dir / "augmented.csv", delimiter=",", skiprows=1)
        with np.load(rep_dir / "knockoff_model.npz") as model:
            sigma, s = model["sigma"], model["s"]
        dev_ko, dev_cross = checks.knockoff_moments(aug[:, :p], aug[:, p:], sigma, s)
        errors += checks.check_moments(dev_ko, dev_cross, sigma, aug.shape[0], where)

        with open(rep_dir / "manifest.json") as fh:
            n_train = json.load(fh)["n_train"]
        y = np.loadtxt(rep_dir / "dataset.csv", delimiter=",", skiprows=1)[:, -1]
        params = checks.params_from_npz(rep_dir / "net_coupling_on.npz")
        r2 = checks.r2_score(params, aug[n_train:], y[n_train:])
        errors += checks.check_r2(r2, where)
        return _record(where, errors, auroc=entry["eval"]["auroc"],
                       max_dev_cross_cov=dev_cross, r2_test=r2,
                       fdp=entry["eval"]["fdp"], power=entry["eval"]["power"],
                       null_fdp=_null_member_fdp(fid, p, scan[2]))


class _Capture:
    """Keeps what `harness` gets back from the calls the instance checks need."""

    NAMES = ("generate", "train", "compute_scores")

    def __init__(self):
        self.calls = {name: [] for name in self.NAMES}
        self.originals = {name: getattr(harness, name) for name in self.NAMES}
        for name, fn in self.originals.items():
            setattr(harness, name, self._wrap(name, fn))

    def close(self):
        for name, fn in self.originals.items():
            setattr(harness, name, fn)

    def _wrap(self, name, fn):
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls[name].append((args, out))
            return out
        return captured

    def take(self):
        calls = self.calls
        self.calls = {name: [] for name in self.NAMES}
        return calls


class Instance:
    """The same pipeline on F4 with instance-based scores.

    Training is short (30 epochs) and the attribution sample cap small (8
    samples, 32 x 32 Hessians each), so scoring does most of the work.
    Intermediates are not saved. One op is one cell.
    """

    FUNCTION = "F4"
    N, P = 4000, 30
    EPOCHS, SAMPLE_CAP = 30, 8
    HESSIAN_POINTS = 3
    AUROC_ROUNDS = 10

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.capture = None

    def make_inputs(self):
        self.base = ExperimentConfig(
            functions=[self.FUNCTION], n=self.N, p=self.P, q=Q, repetitions=1,
            method="instance_based", calibration="on", coupling="on",
            train=replace(default_train_config(), epochs=self.EPOCHS),
            attribution=AttributionConfig(sample_cap=self.SAMPLE_CAP),
            output_dir=str(self.workdir / "instance"), save_intermediates=False)

    def run_round(self, r, tracer=None):
        if self.capture is None:
            self.capture = _Capture()
        cfg = replace(self.base, seed=_round_seed(self.seed, r))
        return harness.run_experiment(cfg), self.capture.take()

    def close(self):
        if self.capture is not None:
            self.capture.close()

    def check_round(self, r, out):
        report, calls = out
        where = f"round {r} {self.FUNCTION}"
        if report["errors"]:
            return [_record(where, failed=True, error=report["errors"][0]["error"])]
        return [_checked(where, self._check_cell, report, calls, where)]

    def _check_cell(self, report, calls, where):
        entry = report["results"][self.FUNCTION][INSTANCE_ARM]["repetitions"][0]
        (_, dataset), = calls["generate"]
        (_, (trained, _)), = calls["train"]
        ((_, _, X_att, cfg), scores), = calls["compute_scores"]
        params = checks.params_from_net(trained)
        p = self.P

        errors = checks.check_scores_matrix(scores.s1d, scores.s2d, scores.calibrated, where)
        samples = X_att[:cfg.sample_cap]
        baseline = X_att.mean(axis=0)
        target, scale = checks.path_sums(params, samples, baseline)
        errors += checks.check_completeness(float(np.sum(scores.s1d)), target, scale,
                                            f"{where} instance_based_1d")
        ih_residual = abs(float(np.sum(scores.s2d) + np.sum(scores.s1d)) - target) / scale

        points = checks.kink_clear_rows(params, X_att, self.HESSIAN_POINTS)
        H = network.batch_input_hessian(trained, points)
        for k, x in enumerate(points):
            errors += checks.check_hessians(H[k], checks.finite_difference_hessian(params, x),
                                            f"{where} point {k}")

        pairs = checks.labelled_pairs(scores.calibrated)
        scan = checks.brute_force_scan(*pairs, Q)
        sel = entry["selection"]
        errors += checks.check_selection(scan, sel["threshold"], sel["estimated_fdp"],
                                         sel["selected"], p, where)
        ref = checks.oo_truth_metrics(*pairs, scan[2], GROUND_TRUTH_PAIRS[self.FUNCTION])
        errors += checks.check_eval(entry["eval"], ref, where)

        r2 = checks.r2_score(params, X_att, dataset.test[1])
        return _record(where, errors, auroc=entry["eval"]["auroc"], r2_test=r2,
                       ih_completeness_rel=ih_residual)


class Select:
    """The select and evaluate stages on generated calibrated score tables.

    One table per p in (30, 60, 120), i.e. 1,740, 7,080 and 28,560 labelled
    pairs, written in the scores-CSV format. Scores are Exp(1), drawn
    i.i.d. for every pair, so each pair with a null member has OO, D and DD
    versions from one distribution; a planted set of signal-signal OO pairs
    has log(#D pairs) + N(0, 1) added. One op is one table through
    read -> gamma -> threshold -> selection JSON and CSV -> evaluate.
    """

    SIZES = (30, 60, 120)
    N_SIGNAL, N_PLANTED = 10, 12
    AUROC_ROUNDS = 1  # every round takes the same tables

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.reference = {}

    def make_inputs(self):
        self.tables = [self._make_table(p) for p in self.SIZES]

    def _make_table(self, p):
        rng = np.random.default_rng([self.seed, p])
        S = np.triu(rng.exponential(size=(2 * p, 2 * p)), 1)
        signal = np.sort(rng.choice(p, self.N_SIGNAL, replace=False))
        sig_pairs = [(a, b) for k, a in enumerate(signal) for b in signal[k + 1:]]
        planted = [sig_pairs[k] for k in rng.choice(len(sig_pairs), self.N_PLANTED,
                                                     replace=False)]
        shift = np.log(2 * p * (p - 1))
        for a, b in planted:
            S[a, b] += shift + rng.standard_normal()
        S = S + S.T
        signs = np.triu(rng.choice([-1.0, 1.0], size=S.shape), 1)
        raw = S * (signs + signs.T)
        stem = self.workdir / f"table_p{p}"
        importance.write_scores_csv(f"{stem}.csv", ImportanceScores(
            s1d=np.ones(2 * p), s2d=raw, calibrated=S, method="model_based"))
        return {"p": p, "path": f"{stem}.csv", "json": f"{stem}_selection.json",
                "csv": f"{stem}_selection.csv",
                "truth": {(int(a) + 1, int(b) + 1) for a, b in planted}}

    def _op(self, table):
        scores = importance.read_scores_csv(table["path"])
        gamma = fdr.build_gamma(scores.calibrated)
        result = fdr.interaction_threshold(gamma, Q)
        fdr.write_selection_json(table["json"], result)
        fdr.write_selection_csv(table["csv"], gamma, result)
        p = scores.calibrated.shape[0] // 2
        report = metrics.evaluate(harness.oo_score_map(scores.calibrated, p),
                                  harness.selected_original_pairs(result.selected, p),
                                  table["truth"])
        return result, report

    def run_round(self, r, tracer=None):
        outcomes = []
        for table in self.tables:
            with tracer.span("op") if tracer else contextlib.nullcontext():
                try:
                    outcomes.append(self._op(table))
                except Exception as exc:  # a failed op is counted, the loop goes on
                    outcomes.append(exc)
        return outcomes

    def _reference(self, table):
        """Brute-force scan and Mann-Whitney metrics, once per table."""
        if table["p"] not in self.reference:
            pairs = checks.labelled_pairs(checks.read_scores_matrix(table["path"]))
            scan = checks.brute_force_scan(*pairs, Q)
            self.reference[table["p"]] = (pairs, scan, checks.oo_truth_metrics(
                *pairs, scan[2], table["truth"]))
        return self.reference[table["p"]]

    def check_round(self, r, out):
        records = []
        for table, outcome in zip(self.tables, out):
            where = f"round {r} p={table['p']}"
            if isinstance(outcome, Exception):
                records.append(_record(where, failed=True,
                                       error=f"{type(outcome).__name__}: {outcome}"))
            else:
                records.append(_checked(where, self._check_op, table, *outcome, where))
        return records

    def _check_op(self, table, result, report, where):
        pairs, scan, ref = self._reference(table)
        errors = checks.check_selection(scan, result.threshold, result.estimated_fdp,
                                        result.selected, table["p"], where)
        errors += checks.check_eval(report.to_dict(), ref, where)
        digest = _digest(table["json"], table["csv"])
        if digest != table.get("verified"):
            # Files identical to ones already read back need no second reading.
            file_errors = checks.check_selection_files(table["json"], table["csv"],
                                                       result, pairs, where)
            if not file_errors:
                table["verified"] = digest
            errors += file_errors
        return _record(where, errors, auroc=report.auroc)


WORKLOADS = {"protocol": Protocol, "instance": Instance, "select": Select}
