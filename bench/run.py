"""knockint benchmark: one workload, one process, one JSON line of results.

    python3 bench/run.py --workload {protocol,instance,select} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The program is imported from `src/`; with
`--trace 0` the last line holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. Every op's outputs are checked (see
checks.py); details of the run go to bench/results/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_CHILDREN = 4  # fresh-interpreter import timings before the rounds, and again after

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB", "auroc": "1"}
PER_LAYER = {
    "harness.cell_s": "s",
    "simsuite.generate_s": "s",
    "knockoff.fit_gaussian_s": "s",
    "knockoff.sample_knockoffs_s": "s",
    "knockoff.max_dev_cross_cov": "1",
    "network.train_s": "s",
    "network.step_us": "us",
    "network.train_steps": "count",
    "network.final_loss": "1",
    "network.r2_test": "1",
    "network.hessian_s": "s",
    "network.hessian_point_us": "us",
    "network.hessian_points": "count",
    "importance.compute_scores_s": "s",
    "importance.instance_2d_s": "s",
    "importance.instance_1d_s": "s",
    "importance.samples": "count",
    "importance.ih_completeness_rel": "1",
    "fdr.build_gamma_s": "s",
    "fdr.interaction_threshold_s": "s",
    "fdr.pairs": "count",
    "fdr.selected": "count",
    "metrics.evaluate_s": "s",
    "harness.write_s": "s",
    "harness.bytes_written": "bytes",
    "harness.read_s": "s",
    "harness.bytes_read": "bytes",
    "trace.overhead_s": "s",
}


def machine_info():
    """nproc, the OpenBLAS thread count numpy runs with, and library versions."""
    import ctypes

    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": None, "openblas": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for stem in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            get_threads = getattr(lib, stem.format("get_num_threads"), None)
            get_config = getattr(lib, stem.format("get_config"), None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["blas_threads"] = get_threads()
                info["openblas"] = get_config().decode()
                return info
    return info


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, records):
    """Per-layer figures: self time and counts per op, from the spans."""
    ops = len(records)
    totals, calls, counts = tracer.self_times()

    def per_op(name, key=None):
        return (counts[name][key] if key else totals[name]) / ops

    def per_unit(name, key):
        return totals[name] / counts[name][key] * 1e6 if counts[name][key] else 0.0

    diag = [r["diag"] for r in records]
    cells = tracer.durations("harness.cell")
    return {
        "harness.cell_s": statistics.median(cells) if cells else 0.0,
        "simsuite.generate_s": per_op("simsuite.generate"),
        "knockoff.fit_gaussian_s": per_op("knockoff.fit_gaussian"),
        "knockoff.sample_knockoffs_s": per_op("knockoff.sample_knockoffs"),
        "knockoff.max_dev_cross_cov": _mean(d.get("max_dev_cross_cov") for d in diag),
        "network.train_s": per_op("network.train"),
        "network.step_us": per_unit("network.train", "steps"),
        "network.train_steps": per_op("network.train", "steps"),
        "network.final_loss": (counts["network.train"]["final_loss"] / calls["network.train"]
                               if calls["network.train"] else 0.0),
        "network.r2_test": _mean(d.get("r2_test") for d in diag),
        "network.hessian_s": per_op("network.hessian"),
        "network.hessian_point_us": per_unit("network.hessian", "points"),
        "network.hessian_points": per_op("network.hessian", "points"),
        "importance.compute_scores_s": per_op("importance.compute_scores"),
        "importance.instance_2d_s": per_op("importance.instance_2d"),
        "importance.instance_1d_s": per_op("importance.instance_1d"),
        "importance.samples": per_op("importance.instance_2d", "samples"),
        "importance.ih_completeness_rel": _mean(d.get("ih_completeness_rel") for d in diag),
        "fdr.build_gamma_s": per_op("fdr.build_gamma"),
        "fdr.interaction_threshold_s": per_op("fdr.interaction_threshold"),
        "fdr.pairs": per_op("fdr.build_gamma", "pairs"),
        "fdr.selected": per_op("fdr.interaction_threshold", "selected"),
        "metrics.evaluate_s": per_op("metrics.evaluate"),
        "harness.write_s": per_op("harness.write"),
        "harness.bytes_written": per_op("harness.write", "bytes"),
        "harness.read_s": per_op("harness.read"),
        "harness.bytes_read": per_op("harness.read", "bytes"),
        "trace.overhead_s": tracer.overhead_s / ops,
    }


def import_times():
    """IMPORT_CHILDREN import times, each timed in a fresh interpreter from its
    first line to `workloads` imported, as this process's own is."""
    code = ("import time; t0 = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; import workloads; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_CHILDREN):
        child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True, timeout=120)
        times.append(float(child.stdout.split()[-1]))
    return times


def run(workload, seed, seconds, trace, workdir):
    """Set up, run whole rounds until `seconds` of timed work (and at least the
    workload's AUROC_ROUNDS), check each round."""
    import workloads  # imports knockint, numpy and scipy
    from tracer import Tracer
    imports = [time.perf_counter() - T_START]
    if not trace:
        # The machine's speed drifts over seconds, so the import is timed
        # again in fresh interpreters before and after the timed rounds.
        imports += import_times()

    wl = workloads.WORKLOADS[workload](seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.make_inputs()
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    rounds, round_s = [], []
    try:
        while sum(round_s) < seconds or len(rounds) < wl.AUROC_ROUNDS:
            r = len(round_s)
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            out = wl.run_round(r, tracer)
            round_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.enabled = False
            rounds.append(wl.check_round(r, out))
    finally:
        if hasattr(wl, "close"):
            wl.close()
        if tracer:
            tracer.uninstall()

    if not trace:
        imports += import_times()
    records = [rec for recs in rounds for rec in recs]
    ok = [r for r in records if not r["failed"]]
    summary = {
        "correct": not any(r["errors"] for r in records),
        "attempted": len(records),
        "failed": len(records) - len(ok),
    }
    if trace:
        values = layer_metrics(tracer, records)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(imports) + statistics.median(setup_times),
            "ops_per_s": len(ok) / sum(round_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Over a fixed number of rounds, so that it does not depend on speed.
            "auroc": _mean(r["auroc"] for recs in rounds[:wl.AUROC_ROUNDS]
                           for r in recs if not r["failed"]),
        }
        units = END_TO_END
    summary["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_info(), "import_times_s": imports,
              "setup_times_s": setup_times, "round_s": round_s, "records": records,
              "spans": tracer.spans if tracer else None, **summary}
    return summary, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "instance", "select"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "knockint" / "__init__.py").is_file():
        print(f"knockint sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        summary, detail = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(detail, fh)
    for r in detail["records"]:
        for err in r["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
