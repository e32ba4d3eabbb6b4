"""Tests of the benchmark itself: every check passes on the program's output
and rejects a corrupted one, and tracing leaves the outputs unchanged.

    python3 -m pytest -q bench/selftest.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from knockint import fdr, harness, importance, metrics, network  # noqa: E402
from knockint.knockoff import fit_gaussian, sample_knockoffs  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _random_net(p=5, hidden=(8, 6, 4), seed=0):
    rng = np.random.default_rng(seed)
    net = network.init_network(p, hidden_sizes=hidden, seed=seed)
    net.w = [0.7 * rng.standard_normal(w.shape) for w in net.w]
    net.b = [0.1 * rng.standard_normal(b.shape) for b in net.b]
    net.z, net.z_tilde = rng.standard_normal(p), rng.standard_normal(p)
    return net


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """A generated select table, as the select workload writes it."""
    wl = workloads.Select(seed=3, workdir=tmp_path_factory.mktemp("select"))
    return wl._make_table(30)


def _program_selection(table):
    scores = importance.read_scores_csv(table["path"])
    gamma = fdr.build_gamma(scores.calibrated)
    return scores, gamma, fdr.interaction_threshold(gamma, workloads.Q)


def test_scan_agrees_with_program_and_rejects_moved_threshold(table):
    scores, gamma, result = _program_selection(table)
    pairs = checks.labelled_pairs(checks.read_scores_matrix(table["path"]))
    scan = checks.brute_force_scan(*pairs, workloads.Q)
    assert result.feasible
    assert checks.check_selection(scan, result.threshold, result.estimated_fdp,
                                  result.selected, 30, "t") == []
    candidates = np.unique(pairs[3][pairs[3] > 0])
    moved = float(candidates[np.searchsorted(candidates, result.threshold) + 1])
    assert checks.check_selection(scan, moved, result.estimated_fdp,
                                  result.selected, 30, "t")
    dropped = result.selected[1:]
    assert checks.check_selection(scan, result.threshold, result.estimated_fdp,
                                  dropped, 30, "t")
    knockoff_pair = result.selected[:-1] + [(0, 31)]  # feature 1 with knockoff 2
    assert checks.check_selection(scan, result.threshold, result.estimated_fdp,
                                  knockoff_pair, 30, "t")


def test_eval_check_rejects_flipped_truth_label(table):
    scores, gamma, result = _program_selection(table)
    pairs = checks.labelled_pairs(scores.calibrated)
    ev = metrics.evaluate(harness.oo_score_map(scores.calibrated, 30),
                          harness.selected_original_pairs(result.selected, 30),
                          table["truth"]).to_dict()
    ref = checks.oo_truth_metrics(*pairs, set(result.selected), table["truth"])
    assert checks.check_eval(ev, ref, "t") == []
    flipped = set(table["truth"]) ^ {sorted(table["truth"])[0]}
    ref = checks.oo_truth_metrics(*pairs, set(result.selected), flipped)
    assert checks.check_eval(ev, ref, "t")


def test_selection_file_check_rejects_edits(table, tmp_path):
    scores, gamma, result = _program_selection(table)
    pairs = checks.labelled_pairs(scores.calibrated)
    js, cs = tmp_path / "sel.json", tmp_path / "sel.csv"
    fdr.write_selection_json(js, result)
    fdr.write_selection_csv(cs, gamma, result)
    assert checks.check_selection_files(js, cs, result, pairs, "t") == []
    lines = cs.read_text().splitlines()
    lines[1] = lines[1][:-1] + ("0" if lines[1].endswith("1") else "1")
    cs.write_text("\n".join(lines) + "\n")
    assert checks.check_selection_files(js, cs, result, pairs, "t")
    fdr.write_selection_csv(cs, gamma, result)
    data = json.loads(js.read_text())
    data["threshold"] += 1e-9
    js.write_text(json.dumps(data))
    assert checks.check_selection_files(js, cs, result, pairs, "t")


def test_hessian_check_rejects_perturbed_entry():
    net = _random_net()
    params = checks.params_from_net(net)
    x = np.random.default_rng(1).uniform(size=10)
    H = network.batch_input_hessian(net, x[None, :])[0]
    ref = checks.finite_difference_hessian(params, x)
    assert checks.check_hessians(H, ref, "t") == []
    bad = H.copy()
    bad[2, 7] += 1e-3 * np.max(np.abs(H))
    assert checks.check_hessians(bad, ref, "t")


def test_own_forward_matches_program():
    net = _random_net()
    X = np.random.default_rng(2).uniform(size=(20, 10))
    np.testing.assert_allclose(checks.raw_forward(checks.params_from_net(net), X),
                               network.raw_output(net, X), rtol=1e-12, atol=1e-12)


def test_completeness_check_rejects_scaled_attributions():
    net = _random_net()
    params = checks.params_from_net(net)
    X = np.random.default_rng(3).uniform(size=(6, 10))
    # The random network is far rougher than a trained one: 256 midpoint
    # steps keep its quadrature error below the check's tolerance.
    cfg = importance.AttributionConfig(alpha_steps=256, sample_cap=6)
    s1d = importance.instance_based_1d(net, X, cfg)
    target, scale = checks.path_sums(params, X, X.mean(axis=0))
    assert checks.check_completeness(float(s1d.sum()), target, scale, "t") == []
    assert checks.check_completeness(float(s1d.sum()) + 0.01 * scale, target, scale, "t")


def test_scores_matrix_check_rejects_asymmetry_and_nan():
    s2d = np.ones((4, 4))
    assert checks.check_scores_matrix(np.ones(4), s2d, s2d, "t") == []
    bad = s2d.copy()
    bad[0, 1] = 2.0
    assert checks.check_scores_matrix(np.ones(4), bad, s2d, "t")
    assert checks.check_scores_matrix(np.array([1, np.nan, 1, 1]), s2d, s2d, "t")


def test_moment_check_rejects_wrong_covariance():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(4000, 30))
    model = fit_gaussian(X[:2000], ridge=1e-6, s_scale=0.2)
    X_ko = sample_knockoffs(X, model, seed=5)
    dev = checks.knockoff_moments(X, X_ko, model.sigma, model.s)
    assert checks.check_moments(*dev, model.sigma, 4000, "t") == []
    sigma = model.sigma.copy()
    sigma[3, 4] = sigma[4, 3] = sigma[3, 4] + 0.05
    dev = checks.knockoff_moments(X, X_ko, sigma, model.s)
    assert checks.check_moments(*dev, sigma, 4000, "t")


def test_r2_floor_rejects_untrained_network():
    rng = np.random.default_rng(6)
    X_aug = rng.uniform(size=(2000, 60))
    y = workloads.evaluate_function("F4", X_aug[:, :30])
    net = network.init_network(30, seed=7)
    r2 = checks.r2_score(checks.params_from_net(net), X_aug, y)
    assert r2 < checks.R2_FLOOR
    assert checks.check_r2(r2, "t")


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    tracer.enabled = True
    tracer.spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, {"n": 2}],
                    ["c", 5.0, 6.0, 0, None], ["b", 1.5, 2.0, 1, {"n": 1}]]
    totals, calls, counts = tracer.self_times()
    assert totals["a"] == pytest.approx(6.0)
    assert totals["b"] == pytest.approx(3.0)
    assert calls["b"] == 2 and counts["b"]["n"] == 3


def _report_bytes(outdir, trace):
    cfg = harness.ExperimentConfig(
        functions=["F4"], n=400, repetitions=2, seed=9, output_dir=str(outdir),
        method="both", train=network.TrainConfig(epochs=3, l1_mlp_penalty=5e-4, grad_clip=1.0),
        attribution=importance.AttributionConfig(alpha_steps=4, beta_steps=4, sample_cap=2))
    tracer = Tracer()
    if trace:
        tracer.install()
        tracer.enabled = True
    try:
        harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    return (outdir / "report.json").read_bytes(), tracer


def test_traced_and_untraced_runs_write_the_same_report(tmp_path):
    plain, _ = _report_bytes(tmp_path, trace=False)
    traced, tracer = _report_bytes(tmp_path, trace=True)
    assert plain == traced
    names = {span[0] for span in tracer.spans}
    assert {"harness.cell", "network.train", "network.hessian", "fdr.build_gamma",
            "harness.write"} <= names


def test_tracer_uninstall_restores_every_function():
    before = {(m, a): getattr(sys.modules[f"knockint.{m}"], a)
              for m, a, _, _ in TRACED}
    tracer = Tracer()
    tracer.install()
    assert harness.train is not before[("network", "train")]
    tracer.uninstall()
    assert harness.train is before[("network", "train")]
    assert all(getattr(sys.modules[f"knockint.{m}"], a) is f for (m, a), f in before.items())


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_select_op_that_raises_counts_as_failed(tmp_path):
    wl = workloads.Select(seed=4, workdir=tmp_path)
    wl.make_inputs()
    with open(wl.tables[0]["path"], "w") as fh:
        fh.write("i,j,class,raw,calibrated\n1,2,OO,x,y\n")
    records = wl.check_round(0, wl.run_round(0))
    assert [r["failed"] for r in records] == [True, False, False]
    assert all(r["errors"] == [] for r in records)
    assert "ValueError" in records[0]["diag"]["error"]


def test_run_prints_every_metric_of_benchmark_json(tmp_path):
    for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        summary, detail = run.run("select", 5, 0.01, trace, tmp_path)
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] == 3
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == units
        assert all(v["value"] > 0 for k, v in summary["metrics"].items()
                   if k.startswith(("fdr.", "harness.read", "setup", "ops", "auroc")))
