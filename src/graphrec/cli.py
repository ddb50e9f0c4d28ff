"""Command-line entry point.

Commands: prepare-data, train, evaluate, sweep, infer-attributes,
lp-baseline. Settings resolve as defaults < config file < flags, and every
run echoes its fully resolved configuration into the output directory before
any computation, so a run can be reproduced from the echoed file alone.

Settings have two declarations: ``PREP_DEFAULTS`` for building and scoring
a dataset, and ``TrainConfig`` for training. Every flag is generated from
them: the setting ``min_user_interactions`` is ``--min-user-interactions``.
A setting's text, from a config file, a flag or a sweep grid, is read by one
function, ``parse_setting``, by the setting's declared type.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

import numpy as np

from . import data as dataio
from .attributes import check_alpha, check_seed, load_attributes, load_schema, mask, read_lines
from .data import check_ratios, load_checkpoint, load_dataset, save_dataset, split
from .evaluate import HR_MODES, evaluate_model, label_propagation_metrics
from .model import forward, infer_attributes
from .train import CADENCES, TrainConfig, check_checkpoint, train


def numbers(raw):
    """Comma-separated numbers, as a tuple of floats."""
    return tuple(float(r) for r in raw.split(","))


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
    "ratios": (0.8, 0.1, 0.1),   # train, validation, test
    "alpha": 0.9,                # attribute mask rate
    "hr_mode": "user-mean",
    "seed_masking": 2,
    "seed_split": 3,
}
DEFAULTS = {**PREP_DEFAULTS, **TrainConfig().to_dict()}
# A setting's type is its default's type, a string for a None default, unless
# named here; a flag's choices are named here.
FLAG_TYPES = {"min_rating": float, "ratios": numbers}
FLAG_CHOICES = {"hr_mode": HR_MODES, "attr_update_cadence": CADENCES}


def parse_setting(key, raw):
    """The setting ``key`` written as ``raw`` (config file, flag or grid),
    read by the setting's type; ``none`` or empty is None for a setting
    whose default is None. A setting with choices must take one of them. A
    line break is refused: the value's ``config.txt`` echo could not hold it."""
    if "\n" in raw or "\r" in raw:
        raise ValueError(f"{key} must not contain a line break, got {raw!r}")
    raw = raw.strip()
    default = DEFAULTS[key]
    if default is None and raw.lower() in ("none", ""):
        return None
    kind = FLAG_TYPES.get(key, str if default is None else type(default))
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"{key} must be of type {kind.__name__}, got {raw!r}") from None
    if value not in FLAG_CHOICES.get(key, (value,)):
        raise ValueError(f"{key} must be one of {FLAG_CHOICES[key]}, got {value!r}")
    return value


def read_config_file(path):
    """The settings a flat ``key=value`` file holds, each parsed by its type.
    Every refusal names ``path:line``. A line of the retired ``norm_mode``
    is skipped when it is the ``symmetric`` that older echoes hold."""
    settings = {}
    for lineno, line in read_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key == "norm_mode":
            if raw.strip() == "symmetric":
                continue
            raise ValueError(f"{path}:{lineno}: norm_mode {raw.strip()!r} is retired; "
                             "graphrec builds only the symmetric normalisation")
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        if key in settings:
            raise ValueError(f"{path}:{lineno}: {key} is set twice")
        try:
            settings[key] = parse_setting(key, raw)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return settings


def resolve_settings(args):
    """defaults < config file < explicit flags, each value read by
    ``parse_setting``. The data-preparation values are checked here, before
    any file is read."""
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(read_config_file(args.config))
    for key in settings:
        raw = getattr(args, key, None)
        if raw is not None:
            settings[key] = parse_setting(key, raw)
    threshold = settings["min_rating"]
    if threshold is not None and np.isnan(threshold):  # it would drop every rating
        raise ValueError(f"min_rating must be a number, got {threshold!r}")
    check_ratios(settings["ratios"])
    check_alpha(settings["alpha"])
    check_seed("seed_masking", settings["seed_masking"])
    check_seed("seed_split", settings["seed_split"])
    return settings


def _setting_text(value):  # None as none, a tuple (``ratios``) comma-joined
    return ("none" if value is None
            else ",".join(map(str, value)) if isinstance(value, tuple) else str(value))


def config_text(settings):
    """The text of the ``config.txt`` that echoes ``settings``."""
    return "".join(f"{key}={_setting_text(settings[key])}\n" for key in sorted(settings))


def echo_config(settings, outdir):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "config.txt")
    with open(path, "w") as fh:
        fh.write(config_text(settings))
    return path


def build_dataset(settings):
    """Load raw files, filter, split, and mask into a Dataset."""
    threshold = settings["min_rating"]
    keep = None if threshold is None else lambda r: r >= threshold
    pairs, user_ids, item_ids = dataio.load_interactions(
        settings["interactions"], min_user_interactions=settings["min_user_interactions"],
        keep=keep)

    def side_table(attr_key, schema_key, ids, side):
        if settings[attr_key] is None:
            return None
        if settings[schema_key] is None:
            raise ValueError(f"--{attr_key.replace('_', '-')} requires a schema file")
        schema = load_schema(settings[schema_key])
        table = load_attributes(settings[attr_key], schema, ids, side=side)
        return mask(table, settings["alpha"], settings["seed_masking"])

    return split(
        pairs, len(user_ids), len(item_ids), ratios=settings["ratios"],
        seed=settings["seed_split"],
        user_attrs=side_table("user_attrs", "user_schema", user_ids, "user"),
        item_attrs=side_table("item_attrs", "item_schema", item_ids, "item"),
        user_ids=user_ids, item_ids=item_ids,
    )


def resolve_dataset(settings, from_raw=False):
    """The dataset a command runs on: the bundle ``--dataset`` names, else
    one built from the raw files (always, ``from_raw``)."""
    if settings["dataset"] is not None and not from_raw:
        return load_dataset(settings["dataset"])
    if settings["interactions"] is None:
        raise ValueError("prepare-data builds from raw files and needs --interactions"
                         if from_raw else "no dataset: give --dataset or --interactions")
    return build_dataset(settings)


def _at_most_once(build):
    """``build`` run on the first call only: later calls give its value or error."""
    outcome = []

    def call():
        if not outcome:
            try:
                outcome.append(build())
            except Exception as exc:
                outcome.append(exc)
        if isinstance(outcome[0], Exception):
            raise outcome[0]
        return outcome[0]
    return call


# ---------------------------------------------------------------------------
# Commands: cmd(flags, echoed settings, load), where load() resolves the dataset
# ---------------------------------------------------------------------------

def cmd_prepare_data(args, settings, load):
    dataset = load()
    path = os.path.join(args.out, "dataset.bin")
    save_dataset(path, dataset)
    print(f"wrote {path}: {dataset.num_users} users, {dataset.num_items} items, "
          f"{len(dataset.train_pairs)} train pairs")
    return 0


def _run_training(settings, load, outdir, quiet=False):
    config = TrainConfig.from_dict(settings).validate()
    dataset = load()
    result = train(dataset, config, log_fn=None if quiet else print,
                   checkpoint_path=os.path.join(outdir, "checkpoint.bin"))
    with open(os.path.join(outdir, "train_log.txt"), "w") as fh:
        fh.write("".join(entry.format() + "\n" for entry in result.log))

    for target in ("val", "test"):  # the test report is returned
        report = evaluate_model(result.params, result.X, result.Y, dataset,
                                target=target, hr_mode=settings["hr_mode"])
        report.write(os.path.join(outdir, f"report_{target}"))
    return result, report


def cmd_train(args, settings, load):
    result, report = _run_training(settings, load, args.out, quiet=args.quiet)
    print(f"best epoch {result.best_epoch}, val HR@10 {result.best_val_hr:.4f}, "
          f"test HR@10 {report.hr[10]:.4f}")
    return 0


def cmd_evaluate(args, settings, load):
    dataset = load()
    state = load_checkpoint(args.checkpoint)
    check_checkpoint(state, dataset)
    params, X, Y = state.best
    report = evaluate_model(params, X, Y, dataset, hr_mode=settings["hr_mode"])
    report.write(os.path.join(args.out, "report_test"))
    for line in report.to_lines():
        print(line)
    return 0


def cmd_sweep(args, settings, load):
    keys, points = _grid_points(args.grid, settings)
    # invalid points fail first, before any data is read; the sort is stable
    points.sort(key=_is_valid)
    rows, failures = [], 0
    for point in points:
        name = " ".join(f"{key}={point[key]}" for key in keys)
        sub = os.path.join(args.out, "_".join(f"{key}{point[key]}" for key in keys))
        done_marker = os.path.join(sub, "report_test.txt")
        try:
            if _finished_with(sub, point):
                print(f"skipping completed point {name}")
                with open(done_marker) as fh:
                    lines = fh.read().splitlines()
            else:
                # a retrain that fails must not leave an older report behind
                with contextlib.suppress(FileNotFoundError):
                    os.remove(done_marker)
                echo_config(point, sub)
                _, report = _run_training(point, load, sub, quiet=True)
                lines = report.to_lines()
            row = {key: point[key] for key in keys} | _summary_row_from_lines(lines)
            rows.append((name, row))
            print(f"{name}: HR@10={row['hr10']} NDCG@10={row['ndcg10']}")
        except Exception as exc:  # one failed point must not abort the sweep
            failures += 1
            print(f"point {name} failed: {exc}", file=sys.stderr)

    if rows:
        field_names = sorted({k for _, row in rows for k in row if k.startswith("attr.")})
        header = keys + ["hr10", "ndcg10"] + field_names
        with open(os.path.join(args.out, "summary.tsv"), "w") as fh:
            fh.write("\t".join(header) + "\n")
            for _, row in rows:
                fh.write("\t".join(str(row.get(h, "absent")) for h in header) + "\n")
        _print_best(rows, field_names)
    return 1 if failures and not rows else 0


def _grid_points(specs, settings):
    """The keys a sweep varies, in ``TrainConfig`` field order, and its
    points: ``settings`` with each combination of the values ``specs`` name.
    A spec is ``KEY=v1,v2``, each value parsed as the setting is; two values
    that parse equal would name one point twice. Only a training setting may
    vary: the sweep builds one dataset from ``settings``."""
    grid = {}
    for spec in specs:
        key, has_values, raw = spec.partition("=")
        known = has_values and key in TrainConfig.__dataclass_fields__ and key not in grid
        values = [parse_setting(key, value) for value in raw.split(",")] if known else []
        if not known or len(set(values)) < len(values):
            raise ValueError(f"--grid {spec!r}: expected KEY=v1,v2, with KEY a training "
                             "setting named once and no value repeated")
        grid[key] = values
    keys = [key for key in TrainConfig.__dataclass_fields__ if key in grid]
    return keys, [dict(settings, **dict(zip(keys, values)))
                  for values in itertools.product(*(grid[key] for key in keys))]


def _is_valid(point):
    try:
        TrainConfig.from_dict(point).validate()
        return True
    except ValueError:
        return False


def _finished_with(sub, point):
    """Whether the sweep point directory ``sub`` holds a finished run of the
    settings ``point``: a test report, and a ``config.txt`` that is, byte for
    byte, the one ``point`` echoes."""
    try:
        with open(os.path.join(sub, "config.txt")) as fh:
            echoed = fh.read()
    except FileNotFoundError:
        return False
    return echoed == config_text(point) and os.path.exists(os.path.join(sub, "report_test.txt"))


def _summary_row_from_lines(lines):
    row = {}
    for line in lines:
        if line.startswith("hr.10="):
            row["hr10"] = float(line.split("=")[1])
        elif line.startswith("ndcg.10="):
            row["ndcg10"] = float(line.split("=")[1])
        elif line.startswith("attr."):
            key, val = line.split("=")
            row[key] = None if val == "absent" else float(val)
    return row


def _print_best(rows, field_names):  # rows: (point name, summary row) pairs
    name, best = max(rows, key=lambda r: r[1].get("hr10", -1))
    print(f"best ranking point: {name} HR@10={best['hr10']}")
    for field in field_names:
        scored = [(name, row) for name, row in rows if row.get(field) is not None]
        if scored:
            name, best = max(scored, key=lambda r: r[1][field])
            print(f"best {field}: {name} value={best[field]}")


def cmd_infer_attributes(args, settings, load):
    dataset = load()
    state = load_checkpoint(args.checkpoint)
    check_checkpoint(state, dataset)
    params, X, Y = state.best
    trace = forward(params, dataset.graph_train, X, Y)

    out_path = os.path.join(args.out, "predictions.tsv")
    n_rows = 0
    with open(out_path, "w") as fh:
        fh.write("side\tentity\tfield\tprediction\tprobabilities\n")
        for table, ids in ((dataset.user_attrs, dataset.user_ids),
                           (dataset.item_attrs, dataset.item_ids)):
            if not len(table.masked):
                continue
            predicted = infer_attributes(trace, params, table)
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
                fh.write(f"{table.side}\t{ids[e]}\t{f.name}\t{label}\t{prob_str}\n")
                n_rows += 1
    print(f"wrote {n_rows} predictions to {out_path}")
    return 0


def cmd_lp_baseline(args, settings, load):
    dataset = load()
    for table in (dataset.user_attrs, dataset.item_attrs):
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

def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphrec",
        description="Joint item recommendation and attribute inference on "
                    "attributed user-item bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    trains, reads_checkpoint = (cmd_train, cmd_sweep), (cmd_evaluate, cmd_infer_attributes)
    for name, func, help_text in (
            ("prepare-data", cmd_prepare_data, "filter, split, mask, freeze a dataset"),
            ("train", cmd_train, "train a model and write reports"),
            ("evaluate", cmd_evaluate, "evaluate a checkpoint"),
            ("sweep", cmd_sweep, "grid sweep over training settings"),
            ("infer-attributes", cmd_infer_attributes, "export predictions for masked entries"),
            ("lp-baseline", cmd_lp_baseline, "label propagation attribute baseline")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        # every command takes the training seeds, so one config file serves all
        for key in DEFAULTS:
            if func in trains or key in PREP_DEFAULTS or key.startswith("seed_"):
                p.add_argument(f"--{key.replace('_', '-')}", choices=FLAG_CHOICES.get(key))
        if func in trains:
            p.add_argument("--quiet", action="store_true")
        if func in reads_checkpoint:
            p.add_argument("--checkpoint", required=True)
    sub.choices["sweep"].add_argument("--grid", action="append", required=True,
                                      help="KEY=v1,v2: a training setting's values; repeatable")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        settings = resolve_settings(args)
        echo_config(settings, args.out)
        from_raw = args.func is cmd_prepare_data
        return args.func(args, settings,
                         _at_most_once(lambda: resolve_dataset(settings, from_raw)))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
