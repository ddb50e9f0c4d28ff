"""Command-line entry point.

Commands: prepare-data, train, evaluate, sweep, infer-attributes. Settings
resolve as defaults < config file < flags, and every run echoes its fully
resolved configuration into the output directory before any computation, so
a run can be reproduced from the echoed file alone.

Settings have two declarations: ``PREP_DEFAULTS`` for building and scoring
a dataset, and ``TrainConfig`` for training. Every flag is generated from
them: the setting ``min_user_interactions`` is ``--min-user-interactions``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as dataio
from .attributes import load_attributes, load_schema, mask
from .data import load_checkpoint, load_dataset, save_dataset, split
from .evaluate import HR_MODES, evaluate_model, label_propagation_metrics
from .graph import NORM_MODES
from .model import forward, infer_attributes
from .train import CADENCES, TrainConfig, train

# Data preparation and report settings; build_dataset reads all but
# ``dataset`` (a frozen bundle from prepare-data) and ``hr_mode``.
PREP_DEFAULTS = {
    "dataset": None,
    "interactions": None,
    "user_attrs": None,
    "user_schema": None,
    "item_attrs": None,
    "item_schema": None,
    "min_user_interactions": 5,
    "min_rating": None,
    "ratios": "0.8,0.1,0.1",
    "norm_mode": "symmetric",
    "alpha": 0.9,                # attribute mask rate
    "hr_mode": "user-mean",
    "seed_masking": 2,
    "seed_split": 3,
}
# A flag's type is its default's type, a string for a None default, unless
# named here; a flag's choices are named here.
FLAG_TYPES = {"min_rating": float}
FLAG_CHOICES = {"norm_mode": NORM_MODES, "hr_mode": HR_MODES,
                "attr_update_cadence": CADENCES}


def parse_value(raw):
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def read_config_file(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, raw = line.split("=", 1)
            out[key.strip()] = parse_value(raw)
    return out


def resolve_settings(args):
    """defaults < config file < explicit flags. A config-file value of a
    setting with choices must be one of them, as its flag's must."""
    settings = dict(PREP_DEFAULTS)
    settings.update(TrainConfig().to_dict())
    if getattr(args, "config", None):
        file_values = read_config_file(args.config)
        unknown = set(file_values) - set(settings)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_values)
    for key in settings:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    for key, choices in FLAG_CHOICES.items():
        if settings[key] not in choices:
            raise ValueError(f"{key} must be one of {choices}, got {settings[key]!r}")
    return settings


def echo_config(settings, outdir):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "config.txt")
    with open(path, "w") as fh:
        for key in sorted(settings):
            fh.write(f"{key}={settings[key] if settings[key] is not None else 'none'}\n")
    return path


def build_dataset(settings):
    """Load raw files, filter, split, and mask into a Dataset."""
    if settings["interactions"] is None:
        raise ValueError("no dataset: give --dataset or --interactions")
    keep = None
    if settings["min_rating"] is not None:
        threshold = float(settings["min_rating"])
        keep = lambda r: r >= threshold
    pairs, user_ids, item_ids = dataio.load_interactions(
        settings["interactions"],
        min_user_interactions=int(settings["min_user_interactions"]),
        keep=keep,
    )
    num_users, num_items = len(user_ids), len(item_ids)

    def side_table(attr_key, schema_key, ids, side):
        if settings[attr_key] is None:
            return None
        if settings[schema_key] is None:
            raise ValueError(f"--{attr_key.replace('_', '-')} requires a schema file")
        schema = load_schema(settings[schema_key])
        id_map = {eid: idx for idx, eid in enumerate(ids)}
        table = load_attributes(settings[attr_key], schema, len(ids), id_map, side=side)
        return mask(table, float(settings["alpha"]), int(settings["seed_masking"]))

    ratios = tuple(float(r) for r in str(settings["ratios"]).split(","))
    return split(
        pairs, num_users, num_items, ratios=ratios, seed=int(settings["seed_split"]),
        norm_mode=settings["norm_mode"],
        user_attrs=side_table("user_attrs", "user_schema", user_ids, "user"),
        item_attrs=side_table("item_attrs", "item_schema", item_ids, "item"),
        user_ids=user_ids, item_ids=item_ids,
    )


def resolve_dataset(settings):
    if settings["dataset"] is not None:
        return load_dataset(settings["dataset"])
    return build_dataset(settings)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_prepare_data(args):
    settings = resolve_settings(args)
    echo_config(settings, args.out)
    dataset = build_dataset(settings)
    path = os.path.join(args.out, "dataset.bin")
    save_dataset(path, dataset)
    print(f"wrote {path}: {dataset.num_users} users, {dataset.num_items} items, "
          f"{len(dataset.train_pairs)} train pairs")
    return 0


def _run_training(settings, outdir, quiet=False):
    echo_config(settings, outdir)
    dataset = resolve_dataset(settings)
    config = TrainConfig.from_dict(settings).validate()
    # the graph owns its normalisation; a bundle's must be the one echoed
    if dataset.graph_train.norm_mode != settings["norm_mode"]:
        raise ValueError(f"--norm-mode {settings['norm_mode']!r} does not match the "
                         f"dataset's norm_mode {dataset.graph_train.norm_mode!r}")
    checkpoint = os.path.join(outdir, "checkpoint.bin")
    log_lines = []

    def log_fn(line):
        log_lines.append(line)
        if not quiet:
            print(line)

    result = train(dataset, config, log_fn=log_fn, checkpoint_path=checkpoint)
    dataio.save_checkpoint(checkpoint, result.params, result.X, result.Y,
                           config.to_dict(), epoch=result.best_epoch)
    with open(os.path.join(outdir, "train_log.txt"), "w") as fh:
        fh.write("\n".join(log_lines) + "\n")

    val_report = evaluate_model(result.params, result.X, result.Y, dataset,
                                target="val", hr_mode=settings["hr_mode"])
    val_report.write(os.path.join(outdir, "report_val"))
    test_report = evaluate_model(result.params, result.X, result.Y, dataset,
                                 target="test", hr_mode=settings["hr_mode"])
    test_report.write(os.path.join(outdir, "report_test"))
    return result, test_report


def cmd_train(args):
    settings = resolve_settings(args)
    result, report = _run_training(settings, args.out, quiet=args.quiet)
    print(f"best epoch {result.best_epoch}, val HR@10 {result.best_val_hr:.4f}, "
          f"test HR@10 {report.hr[10]:.4f}")
    return 0


def _load_checkpoint_for(path, dataset):
    """The checkpoint at ``path``. Raises ValueError naming the first node
    count (users, items) that differs from the dataset's, with both counts."""
    ckpt = load_checkpoint(path)
    for name, have, want in (("users", ckpt.params.P.shape[0], dataset.num_users),
                             ("items", ckpt.params.Q.shape[0], dataset.num_items)):
        if have != want:
            raise ValueError(f"checkpoint has {name}={have}, but the dataset has {name}={want}")
    return ckpt


def cmd_evaluate(args):
    settings = resolve_settings(args)
    echo_config(settings, args.out)
    dataset = resolve_dataset(settings)
    ckpt = _load_checkpoint_for(args.checkpoint, dataset)
    report = evaluate_model(ckpt.params, ckpt.X, ckpt.Y, dataset,
                            hr_mode=settings["hr_mode"])
    report.write(os.path.join(args.out, "report_test"))
    for line in report.to_lines():
        print(line)
    return 0


def _parse_grid(raw):
    return [parse_value(x) for x in str(raw).split(",")]


def cmd_sweep(args):
    settings = resolve_settings(args)
    echo_config(settings, args.out)
    grid_k = _parse_grid(args.grid_k) if args.grid_k else [settings["K"]]
    grid_gamma = _parse_grid(args.grid_gamma) if args.grid_gamma else [settings["gamma"]]

    rows = []
    failures = 0
    for K in grid_k:
        for gamma in grid_gamma:
            sub = os.path.join(args.out, f"K{K}_gamma{gamma}")
            point = dict(settings, K=int(K), gamma=float(gamma))
            done_marker = os.path.join(sub, "report_test.txt")
            try:
                if os.path.exists(done_marker) and os.path.exists(
                        os.path.join(sub, "checkpoint.bin")):
                    print(f"skipping completed point K={K} gamma={gamma}")
                    report_lines = open(done_marker).read().splitlines()
                    row = _summary_row_from_lines(K, gamma, report_lines)
                else:
                    _, report = _run_training(point, sub, quiet=True)
                    row = _summary_row_from_lines(K, gamma, report.to_lines())
                rows.append(row)
                print(f"K={K} gamma={gamma}: HR@10={row['hr10']} NDCG@10={row['ndcg10']}")
            except Exception as exc:  # one failed point must not abort the sweep
                failures += 1
                print(f"point K={K} gamma={gamma} failed: {exc}", file=sys.stderr)

    if rows:
        field_names = sorted({k for row in rows for k in row if k.startswith("attr.")})
        header = ["K", "gamma", "hr10", "ndcg10"] + field_names
        with open(os.path.join(args.out, "summary.tsv"), "w") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(str(row.get(h, "absent")) for h in header) + "\n")
        _print_best(rows, field_names)
    return 1 if failures and not rows else 0


def _summary_row_from_lines(K, gamma, lines):
    row = {"K": K, "gamma": gamma}
    for line in lines:
        if line.startswith("hr.10="):
            row["hr10"] = float(line.split("=")[1])
        elif line.startswith("ndcg.10="):
            row["ndcg10"] = float(line.split("=")[1])
        elif line.startswith("attr."):
            key, val = line.split("=")
            row[key] = None if val == "absent" else float(val)
    return row


def _print_best(rows, field_names):
    best_rank = max(rows, key=lambda r: r.get("hr10", -1))
    print(f"best ranking point: K={best_rank['K']} gamma={best_rank['gamma']} "
          f"HR@10={best_rank['hr10']}")
    for name in field_names:
        scored = [r for r in rows if r.get(name) is not None]
        if scored:
            best = max(scored, key=lambda r: r[name])
            print(f"best {name}: K={best['K']} gamma={best['gamma']} value={best[name]}")


def cmd_infer_attributes(args):
    settings = resolve_settings(args)
    echo_config(settings, args.out)
    dataset = resolve_dataset(settings)
    ckpt = _load_checkpoint_for(args.checkpoint, dataset)
    params = ckpt.params
    trace = forward(params, dataset.graph_train, ckpt.X, ckpt.Y)

    out_path = os.path.join(args.out, "predictions.tsv")
    n_rows = 0
    with open(out_path, "w") as fh:
        fh.write("side\tentity\tfield\tprediction\tprobabilities\n")
        for table, side, ids in ((dataset.user_attrs, "user", dataset.user_ids),
                                 (dataset.item_attrs, "item", dataset.item_ids)):
            if table is None or not table.masked:
                continue
            predicted = infer_attributes(trace, params, side, table.schema)
            for e, f_idx in table.masked:
                f = table.schema.fields[f_idx]
                probs = predicted[e, f.block]
                if f.kind == "single":
                    label = f.categories[int(np.argmax(probs))]
                else:
                    chosen = [f.categories[j] for j in range(f.cardinality)
                              if probs[j] >= 0.5]
                    label = "|".join(chosen)
                prob_str = ";".join(f"{p:.6f}" for p in probs)
                fh.write(f"{side}\t{ids[e]}\t{f.name}\t{label}\t{prob_str}\n")
                n_rows += 1
    print(f"wrote {n_rows} predictions to {out_path}")
    return 0


def cmd_lp_baseline(args):
    settings = resolve_settings(args)
    echo_config(settings, args.out)
    dataset = resolve_dataset(settings)
    for table in (dataset.user_attrs, dataset.item_attrs):
        if table is None:
            continue
        results = label_propagation_metrics(dataset.graph_train, table)
        for name, info in results.items():
            val = "absent" if info["value"] is None else f"{info['value']:.6f}"
            print(f"lp.{name}.{info['metric'].lower()}={val}")
            if not info["converged"]:
                print(f"warning: label propagation for {name} stopped at the "
                      f"{info['iterations']}-sweep cap before converging", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_flags(p, declaration):
    for key, default in declaration.items():
        p.add_argument(f"--{key.replace('_', '-')}", choices=FLAG_CHOICES.get(key),
                       type=FLAG_TYPES.get(key, str if default is None else type(default)))


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    _add_flags(p, PREP_DEFAULTS)
    # every command takes the training seeds, so one config file serves all
    _add_flags(p, {k: v for k, v in TrainConfig().to_dict().items() if k.startswith("seed_")})


def _add_train_flags(p):
    _add_flags(p, {k: v for k, v in TrainConfig().to_dict().items()
                   if not k.startswith("seed_")})
    p.add_argument("--quiet", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphrec",
        description="Joint item recommendation and attribute inference on "
                    "attributed user-item bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-data", help="filter, split, mask, freeze a dataset")
    _add_common(p)
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("train", help="train a model and write reports")
    _add_common(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid sweep over K and/or gamma")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--grid-k", dest="grid_k", help="comma-separated K values")
    p.add_argument("--grid-gamma", dest="grid_gamma", help="comma-separated gamma values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("infer-attributes", help="export predictions for masked entries")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_infer_attributes)

    p = sub.add_parser("lp-baseline", help="label propagation attribute baseline")
    _add_common(p)
    p.set_defaults(func=cmd_lp_baseline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
