"""Command-line interface.

Subcommands mirror the pipeline stages (simulate, knockoff, train, score,
select, evaluate) plus ``run`` for the full experiment. Output paths are
resolved against the ``KNOCKINT_OUTPUT_ROOT`` environment variable when it
is set. Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import harness
from .exceptions import KnockintError, ValidationError
from .fdr import write_selection_csv, write_selection_json
from .importance import AttributionConfig, compute_scores, read_scores_csv, write_scores_csv
from .knockoff import knockoff_diagnostics, read_augmented_csv, save_model, write_augmented_csv
from .network import HIDDEN_SIZES, TASKS, TrainConfig, load_network, save_network
from .simsuite import (SimulationSpec, generate, held_out, read_dataset_csv, read_manifest,
                       write_dataset_csv)
from .table import index_pairs, read_json, write_json

# The training options that both ``train`` and ``run`` expose.
TRAIN_FIELDS = ("learning_rate", "epochs", "batch_size", "l1_filter_penalty",
                "l1_mlp_penalty", "grad_clip")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _out(path) -> Path:
    out = Path(os.environ.get("KNOCKINT_OUTPUT_ROOT") or "") / path  # absolute paths stay
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _config(cls, args, **values):
    """``cls`` built from every field of ``cls`` that the parser of ``args``
    declared an option for, with ``values`` in place of the parsed ones."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                  if hasattr(args, f.name)} | values)


def _manifest_for(data_path: Path) -> Path:
    return data_path.with_suffix(".manifest.json")


def _read_data(args):
    """``--data`` with ``--manifest``, else with the manifest beside it if there is one."""
    beside = _manifest_for(Path(args.data))
    return read_dataset_csv(args.data, args.manifest or (beside if beside.exists() else None))


def _read_augmented(path, n, p, source):
    """The ``--augmented`` matrix, checked to be n x 2p (any n when ``n`` is None)."""
    X_aug = read_augmented_csv(path)
    if X_aug.shape[1] != 2 * p or n not in (None, X_aug.shape[0]):
        want = f"{2 * p} columns" if n is None else f"{n} x {2 * p}"
        raise ValidationError(f"{path}: {X_aug.shape[0]} x {X_aug.shape[1]} "
                              f"augmented matrix, expected {want} for {source}")
    return X_aug


def hidden_sizes(text: str) -> tuple:
    """The ``--hidden`` type: comma-separated ints, such as ``64,32,16``."""
    return tuple(int(h) for h in text.split(","))


def cmd_simulate(args):
    spec = _config(SimulationSpec, args, function_id=args.function)
    dataset = generate(spec)
    out = _out(args.out)
    manifest = _out(args.manifest) if args.manifest else _manifest_for(out)
    write_dataset_csv(out, dataset, manifest, spec)
    print(f"wrote {out} ({spec.n} rows, p={spec.p}) and {manifest}")


def cmd_knockoff(args):
    dataset = _read_data(args)
    model, X_ko = harness.make_knockoffs(dataset, args.ridge, args.s_scale, args.seed)
    aug_out = _out(args.augmented_out)
    write_augmented_csv(aug_out, dataset.X, X_ko)
    model_out = _out(args.model_out)
    save_model(model, model_out)
    print(f"wrote {aug_out} and {model_out}")
    if args.diagnostics:
        diag = knockoff_diagnostics(dataset.X, X_ko, model)
        print(json.dumps({k: diag[k] for k in
                          ("max_dev_cov_knockoff", "max_dev_cross_cov")}, indent=2))


def cmd_train(args):
    cfg = _config(TrainConfig, args)
    dataset = _read_data(args)
    X_aug = _read_augmented(args.augmented, *dataset.X.shape, args.data)
    net, trace = harness.fit_network(dataset, X_aug, args.coupling, args.hidden, cfg, args.seed)
    net_out = _out(args.net_out)
    save_network(net, net_out)
    if args.trace_out:
        write_json(_out(args.trace_out), trace, compact=True)
    print(f"wrote {net_out} (final train loss {trace['train_loss'][-1]:.6g})")


def cmd_score(args):
    cfg = _config(AttributionConfig, args)
    net = load_network(args.net)
    X_aug = _read_augmented(args.augmented, None, net.p, args.net)
    if args.manifest:
        _, n_train, _ = read_manifest(args.manifest, len(X_aug), net.p)
        X_aug = held_out(X_aug, n_train)
    scores = compute_scores(net, args.method, X_aug, cfg)
    out = _out(args.out)
    write_scores_csv(out, scores)
    print(f"wrote {out}")


def cmd_select(args):
    scores = read_scores_csv(args.scores)
    gamma, result = harness.select_arm(scores, "off" if args.use_raw else "on", args.q)
    json_out = _out(args.json_out)
    write_selection_json(json_out, result)
    if args.csv_out:
        write_selection_csv(_out(args.csv_out), gamma, result)
    status = (f"T={result.threshold:.6g}, {len(result.selected)} pairs"
              if result.feasible else "none-feasible")
    print(f"wrote {json_out} ({status})")


def cmd_evaluate(args):
    selection = read_json(args.selection)
    selected, calibration = selection["selected"], selection["calibration"]
    selection.check((("selected", selected, index_pairs(selected), "a list of index pairs"),
                     ("calibration", calibration, calibration in harness.AXES["calibration"],
                      " or ".join(map(repr, harness.AXES["calibration"])))))
    *_, truth = read_manifest(args.manifest)
    if truth is None:
        raise KnockintError(f"{args.manifest}: manifest carries no ground-truth pairs")
    scores = read_scores_csv(args.scores)
    p = len(scores.s1d) // 2
    outside = next((pair for pair in selected if not 0 <= pair[0] < pair[1] < p), None)
    selection.check((("selected", outside, outside is None,
                      f"[i, j] pairs with 0 <= i < j < {p}, half the scores' width"),))
    report = harness.score_selection(scores, selection, truth)
    out = _out(args.out)
    write_json(out, report.to_dict())
    print(f"wrote {out} (auroc={report.auroc:.3f}, fdp={report.fdp:.3f}, "
          f"power={report.power:.3f})")


def cmd_run(args):
    if args.config:
        cfg = harness.ExperimentConfig.from_dict(read_json(args.config))
    else:
        cfg = _config(harness.ExperimentConfig, args, functions=args.functions.split(","),
                      train=_config(TrainConfig, args),
                      save_intermediates=not args.no_intermediates)
    cfg = dataclasses.replace(cfg, output_dir=str(_out(args.out or cfg.output_dir)))
    report = harness.run_experiment(cfg)
    n_err = len(report["errors"])
    print(f"wrote {cfg.output_dir}/report.json "
          f"({len(report['results'])} functions, {n_err} failed repetitions)")
    if report["errors"] and not any(report["results"].values()):
        raise KnockintError(f"every repetition failed; the first: {report['errors'][0]['error']}")


def _fields(parser, cls, *names, **extra):
    """One ``--name`` option per named field of the dataclass ``cls``, with the
    field's default and that default's type; a list default becomes a
    comma-separated string. ``extra[name]`` holds more ``add_argument`` keywords.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name in names:
        f = fields[name]
        default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        if isinstance(default, list):
            default = ",".join(default)
        parser.add_argument("--" + name.replace("_", "-"), type=type(default),
                            default=default, **extra.get(name, {}))


def build_parser() -> _Parser:
    parser = _Parser(prog="knockint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a benchmark dataset CSV")
    p.add_argument("--function", required=True)
    _fields(p, SimulationSpec, "n", "p", "seed")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("knockoff", help="fit a Gaussian model and sample knockoffs")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest")
    p.add_argument("--seed", type=int, default=0)
    _fields(p, harness.ExperimentConfig, "ridge", "s_scale", s_scale={
        "help": "shrink factor for the knockoff gap vector, in (0, 1]"})
    p.add_argument("--augmented-out", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--diagnostics", action="store_true")
    p.set_defaults(func=cmd_knockoff)

    p = sub.add_parser("train", help="train the coupling-layer network")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest")
    p.add_argument("--augmented", required=True)
    p.add_argument("--hidden", type=hidden_sizes, default=HIDDEN_SIZES)
    _fields(p, harness.ExperimentConfig, "coupling",
            coupling={"choices": harness.AXES["coupling"]})
    _fields(p, TrainConfig, *TRAIN_FIELDS, "validation_fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--net-out", required=True)
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="compute importance scores from a trained net")
    p.add_argument("--net", required=True)
    p.add_argument("--augmented", required=True)
    p.add_argument("--manifest")
    _fields(p, harness.ExperimentConfig, "method",
            method={"choices": harness.AXES["method"]})
    _fields(p, AttributionConfig, "alpha_steps", "beta_steps", "sample_cap")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="apply the knockoff-aware interaction threshold")
    p.add_argument("--scores", required=True)
    _fields(p, harness.ExperimentConfig, "q")
    p.add_argument("--use-raw", action="store_true",
                   help="threshold uncalibrated |2D| scores (calibration off)")
    p.add_argument("--json-out", required=True)
    p.add_argument("--csv-out")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="score a selection against ground truth")
    p.add_argument("--selection", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline with repetitions")
    _run_options(p)
    p.set_defaults(func=cmd_run)
    return parser


def _run_options(p):
    """Add the ``run`` options to ``p``."""
    p.add_argument("--config", help="JSON experiment config; no option but --out "
                                    "may be given with it")
    _fields(p, harness.ExperimentConfig, "functions")
    p.add_argument("--dataset", help="external CSV instead of simulation")
    p.add_argument("--response-column")
    _fields(p, harness.ExperimentConfig, "task", "n", "p", "q", "repetitions", *harness.AXES,
            task={"choices": TASKS}, **{axis: {"choices": choices + ("both",)}
                                        for axis, choices in harness.AXES.items()})
    _fields(p, TrainConfig, *TRAIN_FIELDS)
    _fields(p, harness.ExperimentConfig, "s_scale", "seed")
    p.add_argument("--no-intermediates", action="store_true")
    p.add_argument("--out")


def _check_run_options(argv, args):
    """Exit 1 when the ``run`` arguments ``argv`` give an option that the
    data source of ``args`` would silently ignore: any but ``--out`` beside
    ``--config``, whose file holds every setting, and ``--functions``, ``--n``
    or ``--p`` beside ``--dataset``. ``argv`` is parsed again with every
    default None, so an option counts as given even at its default value."""
    p = _Parser(prog="knockint run")
    _run_options(p)
    p.set_defaults(**dict.fromkeys(vars(p.parse_args([])), None))
    given = [dest for dest, value in vars(p.parse_args(argv)).items() if value is not None]
    if args.config:
        source, ignored = "--config takes every setting from its file", [
            dest for dest in given if dest not in ("config", "out")]
    elif args.dataset:
        source, ignored = "--dataset replaces the simulation", [
            dest for dest in given if dest in harness.SIMULATION_FIELDS]
    else:
        return
    if ignored:
        p.error(f"{source}; it cannot be given with "
                + ", ".join("--" + dest.replace("_", "-") for dest in ignored))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        _check_run_options(argv[1:], args)  # argv[0] is "run"
    try:
        args.func(args)
    except (KnockintError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
