import numpy as np
import pytest

import graphrec.cli as cli
from graphrec.cli import build_parser, echo_config, main, read_config_file, resolve_settings
from graphrec.data import load_dataset
from graphrec.toy import write_toy_files


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("toydata")
    return write_toy_files(d, num_users=30, num_items=24, seed=1)


def data_flags(toy_files):
    return ["--interactions", str(toy_files["interactions"]),
            "--user-attrs", str(toy_files["user_attrs"]),
            "--user-schema", str(toy_files["user_schema"]),
            "--item-attrs", str(toy_files["item_attrs"]),
            "--item-schema", str(toy_files["item_schema"]),
            "--alpha", "0.5"]


def train_flags():
    return ["--d", "6", "--d-a", "3", "--K", "1", "--gamma", "0.2",
            "--batch-size", "256", "--max-epochs", "2",
            "--early-stop-patience", "999999", "--quiet"]


def run_train(toy_files, out):
    return main(["train", "--out", str(out)] + data_flags(toy_files) + train_flags())


class TestTrainCommand:
    def test_smoke(self, toy_files, tmp_path):
        out = tmp_path / "run"
        assert run_train(toy_files, out) == 0
        for name in ("config.txt", "checkpoint.bin", "train_log.txt",
                     "report_val.txt", "report_val.tsv",
                     "report_test.txt", "report_test.tsv"):
            assert (out / name).exists(), name

    def test_reports_byte_identical(self, toy_files, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(toy_files, a) == 0
        assert run_train(toy_files, b) == 0
        assert (a / "report_test.txt").read_bytes() == (b / "report_test.txt").read_bytes()
        assert (a / "report_val.txt").read_bytes() == (b / "report_val.txt").read_bytes()

    def test_missing_file_names_path(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "x"),
                   "--interactions", "/no/such/file.tsv"] + train_flags())
        assert rc == 1
        assert "/no/such/file.tsv" in capsys.readouterr().err

    def test_no_dataset_given(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "x")] + train_flags())
        assert rc == 1
        assert "dataset" in capsys.readouterr().err

    def test_config_echo_reproduces_run(self, toy_files, tmp_path):
        a = tmp_path / "a"
        assert run_train(toy_files, a) == 0
        echoed = read_config_file(a / "config.txt")
        assert echoed["d"] == 6 and echoed["alpha"] == 0.5
        b = tmp_path / "b"
        rc = main(["train", "--out", str(b), "--config", str(a / "config.txt"),
                   "--quiet"])
        assert rc == 0
        assert (a / "report_test.txt").read_bytes() == (b / "report_test.txt").read_bytes()

    @pytest.mark.parametrize("key, value", [("hr_mode", "globl"), ("norm_mode", "rows"),
                                            ("attr_update_cadence", "never")])
    def test_config_file_choices_checked_before_training(self, toy_files, tmp_path, capsys,
                                                         key, value):
        config = tmp_path / "c.txt"
        config.write_text(f"{key}={value}\nmax_epochs=3\n")
        out = tmp_path / "run"
        rc = main(["train", "--out", str(out), "--config", str(config)]
                  + data_flags(toy_files) + ["--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{key} must be one of" in err and repr(value) in err
        assert not (out / "checkpoint.bin").exists()


class TestPrepareAndEvaluate:
    def test_prepare_then_train_then_evaluate(self, toy_files, tmp_path, capsys):
        prep = tmp_path / "prep"
        assert main(["prepare-data", "--out", str(prep)] + data_flags(toy_files)) == 0
        bundle = prep / "dataset.bin"
        assert bundle.exists()

        run = tmp_path / "run"
        rc = main(["train", "--out", str(run), "--dataset", str(bundle)]
                  + train_flags())
        assert rc == 0

        ev = tmp_path / "eval"
        capsys.readouterr()
        rc = main(["evaluate", "--out", str(ev), "--dataset", str(bundle),
                   "--checkpoint", str(run / "checkpoint.bin")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "hr.10=" in printed
        assert (ev / "report_test.txt").exists()
        # evaluating the checkpoint reproduces the training run's test report
        assert (ev / "report_test.txt").read_bytes() == \
            (run / "report_test.txt").read_bytes()

    def test_row_bundle_needs_row_norm_mode(self, toy_files, tmp_path, capsys):
        prep = tmp_path / "prep"
        assert main(["prepare-data", "--out", str(prep), "--norm-mode", "row"]
                    + data_flags(toy_files)) == 0
        bundle = ["--dataset", str(prep / "dataset.bin")]
        capsys.readouterr()
        rc = main(["train", "--out", str(tmp_path / "sym")] + bundle + train_flags())
        assert rc == 1
        err = capsys.readouterr().err
        assert "'symmetric'" in err and "'row'" in err
        run = tmp_path / "row"
        rc = main(["train", "--out", str(run), "--norm-mode", "row"] + bundle + train_flags())
        assert rc == 0
        assert read_config_file(run / "config.txt")["norm_mode"] == "row"

    def test_dimension_mismatch(self, toy_files, tmp_path, capsys):
        prep = tmp_path / "prep"
        main(["prepare-data", "--out", str(prep)] + data_flags(toy_files))
        run = tmp_path / "run"
        main(["train", "--out", str(run), "--dataset", str(prep / "dataset.bin")]
             + train_flags())
        files = write_toy_files(tmp_path / "otherdata", num_users=12, num_items=10, seed=3)
        other = tmp_path / "other"
        main(["prepare-data", "--out", str(other), "--interactions", str(files["interactions"])])
        have = load_dataset(prep / "dataset.bin").num_users
        want = load_dataset(other / "dataset.bin").num_users
        # both commands that read a checkpoint name the dimension and both counts
        for command in ("evaluate", "infer-attributes"):
            capsys.readouterr()
            rc = main([command, "--out", str(tmp_path / command),
                       "--interactions", str(files["interactions"]),
                       "--checkpoint", str(run / "checkpoint.bin")])
            assert rc == 1
            err = capsys.readouterr().err
            assert f"checkpoint has users={have}, but the dataset has users={want}" in err


class TestInferAttributes:
    def test_predictions_cover_masked_pairs(self, toy_files, tmp_path):
        prep = tmp_path / "prep"
        main(["prepare-data", "--out", str(prep)] + data_flags(toy_files))
        bundle = prep / "dataset.bin"
        run = tmp_path / "run"
        main(["train", "--out", str(run), "--dataset", str(bundle)] + train_flags())
        out = tmp_path / "infer"
        rc = main(["infer-attributes", "--out", str(out), "--dataset", str(bundle),
                   "--checkpoint", str(run / "checkpoint.bin")])
        assert rc == 0

        ds = load_dataset(bundle)
        expected = set()
        for table, side, ids in ((ds.user_attrs, "user", ds.user_ids),
                                 (ds.item_attrs, "item", ds.item_ids)):
            for e, f_idx in table.masked:
                expected.add((side, ids[e], table.schema.fields[f_idx].name))

        lines = (out / "predictions.tsv").read_text().splitlines()
        assert lines[0] == "side\tentity\tfield\tprediction\tprobabilities"
        got = set()
        for line in lines[1:]:
            side, entity, fname, label, probs = line.split("\t")
            got.add((side, entity, fname))
            p = np.array([float(x) for x in probs.split(";")])
            assert np.all((p >= 0) & (p <= 1))
            if fname in ("group", "kind"):  # single-label fields
                assert abs(p.sum() - 1.0) <= 1e-5
                assert label in ("g0", "g1", "k0", "k1")
        assert got == expected
        assert len(lines) - 1 == sum(
            len(t.masked) for t in (ds.user_attrs, ds.item_attrs))


class TestSweep:
    def test_grid_and_resume(self, toy_files, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = (["sweep", "--out", str(out)] + data_flags(toy_files) + train_flags()
                + ["--grid-k", "0,1", "--grid-gamma", "0.2"])
        assert main(args) == 0
        summary = (out / "summary.tsv").read_text().splitlines()
        assert len(summary) == 3  # header + 2 grid points
        assert summary[0].startswith("K\tgamma\thr10\tndcg10")
        for sub in ("K0_gamma0.2", "K1_gamma0.2"):
            assert (out / sub / "report_test.txt").exists()
        capsys.readouterr()

        # rerunning skips the completed points and reproduces the summary
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert printed.count("skipping completed point") == 2
        assert (out / "summary.tsv").read_text().splitlines() == summary
        assert "best ranking point" in printed


class TestLpBaseline:
    def test_prints_per_field(self, toy_files, tmp_path, capsys):
        rc = main(["lp-baseline", "--out", str(tmp_path / "lp")]
                  + data_flags(toy_files))
        assert rc == 0
        printed = capsys.readouterr().out
        assert "lp.group.acc=" in printed
        assert "lp.tags.map=" in printed
        assert "lp.kind.acc=" in printed

    def test_warns_when_capped(self, toy_files, tmp_path, capsys, monkeypatch):
        def run():
            assert main(["lp-baseline", "--out", str(tmp_path / "lp")]
                        + data_flags(toy_files)) == 0
            out, err = capsys.readouterr()
            return [line.split("=")[0] for line in out.splitlines()], err
        keys, err = run()
        assert "warning" not in err
        real = cli.label_propagation_metrics
        monkeypatch.setattr(cli, "label_propagation_metrics",
                            lambda graph, table: real(graph, table, iterations=2))
        capped_keys, capped_err = run()
        assert capped_keys == keys
        assert "warning: label propagation for group stopped at the 2-sweep cap" in capped_err


# Every subcommand's option strings and choices, as the hand-written parser
# declared them before the flags were generated from the two declarations.
COMMON_FLAGS = ["--config", "--out", "--dataset", "--interactions", "--user-attrs",
                "--user-schema", "--item-attrs", "--item-schema", "--min-user-interactions",
                "--min-rating", "--ratios", "--norm-mode", "--alpha", "--hr-mode",
                "--seed-init", "--seed-sampling", "--seed-masking", "--seed-split"]
TRAIN_FLAGS = ["--d", "--d-a", "--K", "--lam", "--gamma", "--learning-rate", "--batch-size",
               "--attr-update-cadence", "--early-stop-patience", "--max-epochs",
               "--init-std", "--quiet"]
SURFACE = {
    "prepare-data": COMMON_FLAGS,
    "train": COMMON_FLAGS + TRAIN_FLAGS,
    "evaluate": COMMON_FLAGS + ["--checkpoint"],
    "sweep": COMMON_FLAGS + TRAIN_FLAGS + ["--grid-k", "--grid-gamma"],
    "infer-attributes": COMMON_FLAGS + ["--checkpoint"],
    "lp-baseline": COMMON_FLAGS,
}
CHOICES = {"--norm-mode": ["symmetric", "row"], "--hr-mode": ["user-mean", "global"],
           "--attr-update-cadence": ["per-epoch", "per-batch"]}
REQUIRED = {"--out", "--checkpoint"}


class TestSurface:
    def test_option_strings_and_choices(self):
        subs = next(a for a in build_parser()._actions if a.dest == "command").choices
        assert sorted(subs) == sorted(SURFACE)
        for name, sub in subs.items():
            actions = [a for a in sub._actions if "--help" not in a.option_strings]
            flags = [f for a in actions for f in a.option_strings]
            assert sorted(flags) == sorted(SURFACE[name]), name
            for a in actions:
                flag = a.option_strings[0]
                assert (list(a.choices) if a.choices else None) == CHOICES.get(flag), flag
                assert a.required == (flag in REQUIRED), flag

    def test_flags_echo_typed_values(self, tmp_path):
        args = build_parser().parse_args(
            ["train", "--out", str(tmp_path), "--min-rating", "4", "--lam", "1",
             "--norm-mode", "row", "--learning-rate", "1e-3", "--seed-split", "7"])
        lines = open(echo_config(resolve_settings(args), tmp_path)).read().splitlines()
        for line in ("min_rating=4.0", "lam=1.0", "norm_mode=row",
                     "learning_rate=0.001", "seed_split=7", "alpha=0.9"):
            assert line in lines
