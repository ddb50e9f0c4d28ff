import hashlib
import re

import numpy as np
import pytest

import graphrec.cli as cli
from graphrec.cli import build_parser, echo_config, main, read_config_file, resolve_settings
from graphrec.data import load_container, load_dataset, save_container
from graphrec.toy import write_toy_files

from conftest import with_byte_order_mark


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

    def test_attributes_need_their_schema(self, toy_files, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "x"),
                   "--interactions", str(toy_files["interactions"]),
                   "--user-attrs", str(toy_files["user_attrs"])] + train_flags())
        assert rc == 1
        assert "--user-attrs requires a schema file" in capsys.readouterr().err
        assert not (tmp_path / "x" / "checkpoint.bin").exists()

    def test_nan_setting_rejected(self, toy_files, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "x")] + data_flags(toy_files)
                  + train_flags() + ["--gamma", "nan"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "gamma" in err and "diverged" not in err

    def test_no_dataset_given(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "x")] + train_flags())
        assert rc == 1
        assert "dataset" in capsys.readouterr().err

    def test_config_file_errors(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("# settings\nd=6\nmax_epochs 3\n")
        with pytest.raises(ValueError, match=r"c\.txt:3: expected key=value"):
            read_config_file(config)
        config.write_text("K=2\nd=6\n K =3\n")
        with pytest.raises(ValueError, match=r"c\.txt:3: K is set twice"):
            read_config_file(config)
        # a retired setting's line counts as any other, also when it is skipped
        config.write_text("norm_mode=symmetric\nd=6\nnorm_mode=symmetric\n")
        with pytest.raises(ValueError, match=r"c\.txt:3: norm_mode is set twice"):
            read_config_file(config)
        for text, error in [("d=8\nK=two\n", "c.txt:2: K must be of type int, got 'two'"),
                            ("d=8\nK=\n", "c.txt:2: K must be of type int, got ''"),
                            ("K=none\n", "c.txt:1: K must be of type int, got 'none'"),
                            ("d=8\n\nnorm_mode=rows\n",
                             "c.txt:3: norm_mode 'rows' is retired; graphrec builds only the "
                             "symmetric normalisation"),
                            ("d=8\ninteractions=a\x00b\n", "c.txt:2: NUL character")]:
            config.write_text(text)
            with pytest.raises(ValueError, match=re.escape(error)):
                read_config_file(config)
        config.write_text("d=6\nmax_epoch=3\nlearning_rte=0.1\n")
        assert main(["train", "--out", str(tmp_path / "x"), "--config", str(config)]) == 1
        assert "c.txt:2: unknown setting 'max_epoch'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["a\nb", "a\rb", "ratings.dat\n"])
    def test_line_break_in_a_value_refused(self, toy_files, tmp_path, capsys, value):
        # its config.txt echo could not be read back
        out = tmp_path / "run"
        rc = main(["train", "--out", str(out), "--interactions", value, "--quiet"])
        assert rc == 1
        assert (f"interactions must not contain a line break, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_config_file_byte_order_mark_dropped(self, tmp_path):
        config = tmp_path / "c.txt"
        config.write_text("d=6\nK=1\n")
        assert read_config_file(with_byte_order_mark(config)) == read_config_file(config) \
            == {"d": 6, "K": 1}

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

    def test_echo_with_retired_norm_mode(self, toy_files, tmp_path, capsys):
        # a config.txt echoed while norm_mode was a setting holds
        # norm_mode=symmetric: it reproduces its run byte for byte and echoes
        # without the line; norm_mode=row in its place is refused as retired
        a = tmp_path / "a"
        assert run_train(toy_files, a) == 0
        older = tmp_path / "older.txt"
        older.write_text(cli.config_text(dict(read_config_file(a / "config.txt"),
                                              norm_mode="symmetric")))
        b = tmp_path / "b"
        assert main(["train", "--out", str(b), "--config", str(older), "--quiet"]) == 0
        for name in ("config.txt", "report_val.txt", "report_test.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        lines = older.read_text().splitlines(keepends=True)
        at = lines.index("norm_mode=symmetric\n")
        lines[at] = "norm_mode=row\n"
        row = tmp_path / "row.txt"
        row.write_text("".join(lines))
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path / "c"), "--config", str(row), "--quiet"]) == 1
        assert f"row.txt:{at + 1}: norm_mode 'row' is retired" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_echo_with_retired_hr_mode(self, toy_files, tmp_path, capsys):
        # a config.txt echoed while hr_mode was a setting holds
        # hr_mode=user-mean, and one from before that norm_mode=symmetric: it
        # trains to the same report bytes. hr_mode=global in its place is
        # refused as retired, naming the line, and --hr-mode stops at argparse
        a = tmp_path / "a"
        assert run_train(toy_files, a) == 0
        older = tmp_path / "older.txt"
        older.write_text(cli.config_text(dict(read_config_file(a / "config.txt"),
                                              hr_mode="user-mean", norm_mode="symmetric")))
        b = tmp_path / "b"
        assert main(["train", "--out", str(b), "--config", str(older), "--quiet"]) == 0
        for name in ("config.txt", "report_val.txt", "report_val.tsv", "report_test.txt",
                     "report_test.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        lines = older.read_text().splitlines(keepends=True)
        at = lines.index("hr_mode=user-mean\n")
        lines[at] = "hr_mode=global\n"
        config = tmp_path / "c.txt"
        config.write_text("".join(lines))
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path / "c"), "--config", str(config)]) == 1
        assert (f"c.txt:{at + 1}: hr_mode 'global' is retired; graphrec reports only the "
                "user-mean HR") in capsys.readouterr().err
        assert not (tmp_path / "c" / "checkpoint.bin").exists()
        with pytest.raises(SystemExit) as stop:
            main(["train", "--out", str(tmp_path / "d"), "--hr-mode", "global"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --hr-mode global" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [("K=2.0", "K"),
                                           ("min_user_interactions=5.5", "min_user_interactions")])
    def test_config_values_typed_like_flags(self, toy_files, tmp_path, capsys, line, key):
        # a config-file value is read by its setting's type, as a flag's is
        config = tmp_path / "c.txt"
        config.write_text(f"{line}\n")
        out = tmp_path / "run"
        rc = main(["train", "--out", str(out), "--config", str(config)]
                  + data_flags(toy_files) + ["--quiet"])
        assert rc == 1
        assert f"{key} must be of type int, got '{line.split('=')[1]}'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_and_flags_echo_alike(self, toy_files, tmp_path):
        config = tmp_path / "c.txt"
        config.write_text("lam=1\nmin_rating=4\n")
        a, b = tmp_path / "flags", tmp_path / "file"
        assert main(["train", "--out", str(a), "--lam", "1", "--min-rating", "4"]
                    + data_flags(toy_files) + train_flags()) == 0
        assert main(["train", "--out", str(b), "--config", str(config)]
                    + data_flags(toy_files) + train_flags()) == 0
        assert (a / "config.txt").read_bytes() == (b / "config.txt").read_bytes()
        assert "lam=1.0\n" in (b / "config.txt").read_text()

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
        refusal = f"{key} {value!r} is retired" if key in cli.RETIRED else f"{key} must be one of"
        assert refusal in err and repr(value) in err
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

    def test_row_bundle_refused_as_retired(self, toy_files, tmp_path, capsys):
        # a bundle prepared while norm_mode was a setting records it:
        # "symmetric" loads as a bundle without it does, and "row" is
        # refused as retired by every command that reads a bundle
        prep = tmp_path / "prep"
        assert main(["prepare-data", "--out", str(prep)] + data_flags(toy_files)) == 0
        arrays, meta = load_container(prep / "dataset.bin")
        assert "norm_mode" not in meta
        older = {mode: tmp_path / f"{mode}.bin" for mode in ("symmetric", "row")}
        for mode, path in older.items():
            save_container(path, arrays, dict(meta, norm_mode=mode))
        runs = {"now": prep / "dataset.bin", "symmetric": older["symmetric"]}
        for name, bundle in runs.items():
            assert main(["train", "--out", str(tmp_path / name), "--dataset", str(bundle)]
                        + train_flags()) == 0
        assert (tmp_path / "now" / "report_test.txt").read_bytes() == \
            (tmp_path / "symmetric" / "report_test.txt").read_bytes()
        bundle = ["--dataset", str(older["row"])]
        checkpoint = ["--checkpoint", str(tmp_path / "now" / "checkpoint.bin")]
        for command, extra in (("train", train_flags()), ("evaluate", checkpoint),
                               ("infer-attributes", checkpoint), ("lp-baseline", []),
                               ("sweep", train_flags() + ["--grid", "K=1"])):
            capsys.readouterr()
            assert main([command, "--out", str(tmp_path / command)] + bundle + extra) == 1
            err = capsys.readouterr().err
            assert f"{older['row']}: norm_mode 'row' is retired" in err, command

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


def messy_toy_files(toy_files, directory):
    """The toy files with interactions written as exports come: ratings 1 to
    5, comments, blank lines, padded fields, CRLF endings, and a sixth of
    the pairs repeated at the end, some above a rating threshold only there.
    Every fifth user has no attribute line, so masking meets fields that
    were never observed."""
    files = dict(toy_files, interactions=directory / "interactions.tsv",
                 user_attrs=directory / "user_attrs.tsv")
    with open(toy_files["interactions"]) as fh:
        pairs = [line.split("\t")[:2] for line in fh]
    lines, repeats = ["# user\titem\trating", ""], ["# again"]
    for k, (u, i) in enumerate(pairs):
        rating = 1 + 7 * k % 5
        lines.append(f" {u} \t{i}\t {rating}" if k % 4 == 0 else f"{u}\t{i}\t{rating}")
        if k % 6 == 0:
            repeats.append(f"{u}\t{i}\t{1 + 3 * (k % 12 == 0)}")
        if k % 10 == 9:
            lines.append("   ")
    lines += repeats
    files["interactions"].write_bytes("\r\n".join(lines).encode() + b"\r\n")
    with open(toy_files["user_attrs"]) as fh:
        kept = [line for k, line in enumerate(fh) if k % 5]
    files["user_attrs"].write_text("".join(kept))
    return files


class TestPrepareData:
    def test_bundle_bytes_pinned(self, toy_files, tmp_path):
        # the digest the bundle had when the loader and the mask ran per-line
        # Python loops, less the {side}_values arrays and the norm_mode meta
        # key it no longer stores: any row read or masked differently changes
        # it
        files = messy_toy_files(toy_files, tmp_path)
        prep = tmp_path / "prep"
        assert main(["prepare-data", "--out", str(prep), "--min-rating", "3",
                     "--min-user-interactions", "6"] + data_flags(files)) == 0
        digest = hashlib.sha256((prep / "dataset.bin").read_bytes()).hexdigest()
        assert digest == "7d4be4f00338c1e40cbcc80bb47ba6a2bdbb7887f892f8c6972d3204c68a65d8"

    def test_bundle_without_interactions(self, toy_files, tmp_path, capsys):
        prep = tmp_path / "prep"
        assert main(["prepare-data", "--out", str(prep)] + data_flags(toy_files)) == 0
        capsys.readouterr()
        rc = main(["prepare-data", "--out", str(tmp_path / "again"),
                   "--dataset", str(prep / "dataset.bin")])
        assert rc == 1
        assert "prepare-data builds from raw files and needs --interactions" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, error", [
        ("--ratios", "0.8,abc", "ratios must be of type numbers, got '0.8,abc'"),
        ("--ratios", "0.5,0.1", "ratios must be three positives summing to 1"),
        ("--ratios", "0.5,0.6,-0.1", "ratios must be three positives summing to 1"),
        ("--alpha", "1.5", "alpha must be in [0, 1), got 1.5"),
        ("--seed-masking", "-1", "seed_masking must be a non-negative integer, got -1"),
        ("--seed-split", "-3", "seed_split must be a non-negative integer, got -3"),
        ("--min-rating", "nan", "min_rating must be a number, got nan"),
    ])
    def test_preparation_values_checked_before_any_read(self, toy_files, tmp_path, capsys,
                                                        monkeypatch, flag, value, error):
        monkeypatch.setattr(cli.dataio, "load_interactions",
                            lambda *a, **k: pytest.fail("the interactions file was read"))
        out = tmp_path / "prep"
        assert main(["prepare-data", "--out", str(out)] + data_flags(toy_files)
                    + [flag, value]) == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_ratios_echo_comma_joined(self, toy_files, tmp_path):
        default, chosen = tmp_path / "default", tmp_path / "chosen"
        assert main(["prepare-data", "--out", str(default)] + data_flags(toy_files)) == 0
        assert "ratios=0.8,0.1,0.1" in (default / "config.txt").read_text().splitlines()
        assert main(["prepare-data", "--out", str(chosen), "--ratios", "0.6, 0.2, 0.2"]
                    + data_flags(toy_files)) == 0
        assert read_config_file(chosen / "config.txt")["ratios"] == (0.6, 0.2, 0.2)
        assert len(load_dataset(chosen / "dataset.bin").train_pairs) < \
            len(load_dataset(default / "dataset.bin").train_pairs)

    def test_nan_min_rating_rejected(self, toy_files, tmp_path, capsys):
        # a NaN threshold would drop every rating; it is named before any
        # file is read, so a missing interactions file is not reached
        rc = main(["prepare-data", "--out", str(tmp_path / "prep"), "--min-rating", "nan"]
                  + data_flags(toy_files))
        assert rc == 1
        err = capsys.readouterr().err
        assert "min_rating" in err and "no interactions" not in err
        rc = main(["prepare-data", "--out", str(tmp_path / "prep2"), "--min-rating", "nan",
                   "--interactions", str(tmp_path / "missing.tsv")])
        assert rc == 1
        assert "min_rating" in capsys.readouterr().err


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
    def test_grid_and_resume(self, toy_files, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sweep"
        args = (["sweep", "--out", str(out)] + data_flags(toy_files) + train_flags()
                + ["--grid", "K=0,1", "--grid", "gamma=0.2"])
        assert main(args) == 0
        summary = (out / "summary.tsv").read_text().splitlines()
        assert len(summary) == 3  # header + 2 grid points
        assert summary[0].startswith("K\tgamma\thr10\tndcg10")
        for sub in ("K0_gamma0.2", "K1_gamma0.2"):
            assert (out / sub / "report_test.txt").exists()
        # the points share one dataset, and each reports as its own train run does
        assert run_train(toy_files, tmp_path / "single") == 0
        assert (out / "K1_gamma0.2" / "report_test.txt").read_bytes() == \
            (tmp_path / "single" / "report_test.txt").read_bytes()
        capsys.readouterr()

        # rerunning skips the completed points and reproduces the summary,
        # reading no data
        monkeypatch.setattr(cli, "build_dataset",
                            lambda settings: pytest.fail("a reused point read data"))
        assert main(args) == 0
        monkeypatch.undo()
        printed = capsys.readouterr().out
        assert printed.count("skipping completed point") == 2
        assert (out / "summary.tsv").read_text().splitlines() == summary
        assert "best ranking point" in printed

        # a changed setting retrains every point, whose config then echoes it
        assert main(args + ["--learning-rate", "0.5"]) == 0
        assert "skipping" not in capsys.readouterr().out
        for sub in ("K0_gamma0.2", "K1_gamma0.2"):
            assert read_config_file(out / sub / "config.txt")["learning_rate"] == 0.5

        # a retrain that fails leaves no report, so no later sweep reuses one
        assert main(args + ["--learning-rate", "nan"]) == 1
        assert "learning_rate" in capsys.readouterr().err
        for sub in ("K0_gamma0.2", "K1_gamma0.2"):
            assert not (out / sub / "report_test.txt").exists()

    def test_quiet_as_in_train(self, toy_files, tmp_path, capsys):
        # without --quiet each point prints the epoch lines of its train_log.txt
        grid = ["--grid", "K=0,1"]
        loud = [flag for flag in train_flags() if flag != "--quiet"]
        assert main(["sweep", "--out", str(tmp_path / "loud")] + data_flags(toy_files)
                    + loud + grid) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("epoch=")]
        logged = [line for point in ("K0", "K1")
                  for line in (tmp_path / "loud" / point / "train_log.txt").read_text()
                  .splitlines()]
        assert len(logged) == 4 and printed == logged
        assert main(["sweep", "--out", str(tmp_path / "quiet")] + data_flags(toy_files)
                    + train_flags() + grid) == 0
        assert "epoch=" not in capsys.readouterr().out

    def test_failed_point_does_not_abort(self, toy_files, tmp_path, capsys, monkeypatch):
        # stderr as it stood at each dataset build
        builds, real = [], cli.build_dataset
        monkeypatch.setattr(cli, "build_dataset",
                            lambda settings: builds.append(capsys.readouterr().err)
                            or real(settings))
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out)] + data_flags(toy_files) + train_flags()
                    + ["--grid", "K=1,9", "--grid", "gamma=0.2,0.5"]) == 0
        # one build for the four points, after both K=9 points failed
        assert len(builds) == 1
        for gamma in ("0.2", "0.5"):
            assert f"point K=9 gamma={gamma} failed" in builds[0]
        err = builds[0] + capsys.readouterr().err
        for gamma in ("0.2", "0.5"):
            assert f"point K=9 gamma={gamma} failed: K must be in 0..4, got 9" in err
        summary = (out / "summary.tsv").read_text().splitlines()
        assert [line.split("\t")[:2] for line in summary[1:]] == [["1", "0.2"], ["1", "0.5"]]


    def test_grid_values_typed_like_flags(self, toy_files, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--out", str(out)] + data_flags(toy_files) + train_flags()
                  + ["--grid", "K=1.5"])
        assert rc == 1
        assert "K must be of type int, got '1.5'" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config.txt"]

    def test_grid_over_any_training_setting(self, toy_files, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out)] + data_flags(toy_files) + train_flags()
                    + ["--grid", "seed_init=0,1"]) == 0
        summary = (out / "summary.tsv").read_text().splitlines()
        assert summary[0].startswith("seed_init\thr10\tndcg10\t")
        assert [line.split("\t")[0] for line in summary[1:]] == ["0", "1"]
        for seed in ("0", "1"):
            single = tmp_path / f"single{seed}"
            assert main(["train", "--out", str(single), "--seed-init", seed]
                        + data_flags(toy_files) + train_flags()) == 0
            assert (out / f"seed_init{seed}" / "report_test.txt").read_bytes() == \
                (single / "report_test.txt").read_bytes()

    @pytest.mark.parametrize("specs, refused", [
        (["alpha=0.5"], "alpha=0.5"),          # a data setting: one dataset serves every point
        (["K=1", "gamma=0.1", "K=2"], "K=2"),  # a key named twice
        (["K"], "K"),                          # no values
        (["depth=1,2"], "depth=1,2"),          # not a setting
        (["gamma=0.1,0.10"], "gamma=0.1,0.10"),  # two values that parse equal
        (["K=2,02"], "K=2,02"),
    ])
    def test_grid_spec_refused_before_any_read(self, toy_files, tmp_path, capsys, monkeypatch,
                                               specs, refused):
        monkeypatch.setattr(cli, "build_dataset",
                            lambda settings: pytest.fail("a refused grid read data"))
        out = tmp_path / "sweep"
        grid = [flag for spec in specs for flag in ("--grid", spec)]
        assert main(["sweep", "--out", str(out)] + data_flags(toy_files) + train_flags()
                    + grid) == 1
        assert f"--grid {refused!r}" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config.txt"]


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


class TestOneSidedBundle:
    @pytest.mark.parametrize("absent, present, field_names",
                             [("item", "user", ["group", "tags"]), ("user", "item", ["kind"])])
    def test_every_command_runs_on_it(self, toy_files, tmp_path, capsys, absent, present,
                                      field_names):
        # a bundle prepared without one side's attribute files: the commands
        # that read it report and predict the other side alone
        flags = data_flags(toy_files)
        for flag in (f"--{absent}-attrs", f"--{absent}-schema"):
            at = flags.index(flag)
            del flags[at:at + 2]
        prep = tmp_path / "prep"
        assert main(["prepare-data", "--out", str(prep)] + flags) == 0
        bundle = ["--dataset", str(prep / "dataset.bin")]
        run = tmp_path / "run"
        assert main(["train", "--out", str(run)] + bundle + train_flags()) == 0
        checkpoint = ["--checkpoint", str(run / "checkpoint.bin")]
        assert main(["evaluate", "--out", str(tmp_path / "eval")] + bundle + checkpoint) == 0
        assert main(["infer-attributes", "--out", str(tmp_path / "infer")]
                    + bundle + checkpoint) == 0
        capsys.readouterr()
        assert main(["lp-baseline", "--out", str(tmp_path / "lp")] + bundle) == 0
        printed = capsys.readouterr().out
        assert [line.split(".")[1] for line in printed.splitlines()] == field_names
        report = (tmp_path / "eval" / "report_test.txt").read_text().splitlines()
        assert [line.split(".")[1] for line in report if line.startswith("attr.")] == \
            field_names
        rows = (tmp_path / "infer" / "predictions.tsv").read_text().splitlines()[1:]
        masked = getattr(load_dataset(prep / "dataset.bin"), f"{present}_attrs").masked
        assert len(rows) == len(masked) > 0
        assert {row.split("\t")[0] for row in rows} == {present}


# Every subcommand's option strings and choices, as the hand-written parser
# declared them before the flags were generated from the two declarations,
# less the retired --norm-mode and --hr-mode, and with the training seeds
# only on the commands that train.
COMMON_FLAGS = ["--config", "--out", "--dataset", "--interactions", "--user-attrs",
                "--user-schema", "--item-attrs", "--item-schema", "--min-user-interactions",
                "--min-rating", "--ratios", "--alpha", "--seed-masking", "--seed-split"]
TRAIN_FLAGS = ["--d", "--d-a", "--K", "--lam", "--gamma", "--learning-rate", "--batch-size",
               "--attr-update-cadence", "--early-stop-patience", "--max-epochs",
               "--init-std", "--seed-init", "--seed-sampling", "--quiet"]
SURFACE = {
    "prepare-data": COMMON_FLAGS,
    "train": COMMON_FLAGS + TRAIN_FLAGS,
    "evaluate": COMMON_FLAGS + ["--checkpoint"],
    "sweep": COMMON_FLAGS + TRAIN_FLAGS + ["--grid"],
    "infer-attributes": COMMON_FLAGS + ["--checkpoint"],
    "lp-baseline": COMMON_FLAGS,
}
CHOICES = {"--attr-update-cadence": ["per-epoch", "per-batch"]}
REQUIRED = {"--out", "--checkpoint", "--grid"}

# One value of each setting's type other than its default.
OTHER_VALUES = {
    "dataset": "prep/dataset.bin", "interactions": "raw/ratings.dat",
    "user_attrs": "raw/users.tsv", "user_schema": "raw/users_schema.tsv",
    "item_attrs": "raw/items.tsv", "item_schema": "raw/items_schema.tsv",
    "min_user_interactions": 10, "min_rating": 3.5, "ratios": (0.7, 0.2, 0.1),
    "alpha": 0.5, "seed_masking": 7, "seed_split": 8,
    "d": 8, "d_a": 0, "K": 0, "lam": 0.5, "gamma": 0.1, "learning_rate": 0.01,
    "batch_size": 64, "attr_update_cadence": "per-batch", "early_stop_patience": 0,
    "max_epochs": 3, "init_std": 0.1, "seed_init": 5, "seed_sampling": 6,
}


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

    def test_seed_flags_only_where_a_model_trains(self, toy_files, tmp_path, capsys):
        # the four commands that train nothing refuse the training seeds at
        # argparse, and still read a train run's echoed config.txt, which
        # holds them
        checkpoint = ["--checkpoint", str(tmp_path / "none.bin")]
        for command, extra in (("prepare-data", []), ("evaluate", checkpoint),
                               ("infer-attributes", checkpoint), ("lp-baseline", [])):
            for flag in ("--seed-init", "--seed-sampling"):
                with pytest.raises(SystemExit) as stop:
                    main([command, "--out", str(tmp_path / command), flag, "1"] + extra)
                assert stop.value.code == 2, (command, flag)
                assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        run = tmp_path / "run"
        assert run_train(toy_files, run) == 0
        assert {"seed_init", "seed_sampling"} <= set(read_config_file(run / "config.txt"))
        assert main(["evaluate", "--out", str(tmp_path / "ev"), "--config",
                     str(run / "config.txt"), "--checkpoint", str(run / "checkpoint.bin")]) == 0
        assert (tmp_path / "ev" / "report_test.txt").read_bytes() == \
            (run / "report_test.txt").read_bytes()

    def test_flags_echo_typed_values(self, tmp_path):
        args = build_parser().parse_args(
            ["train", "--out", str(tmp_path), "--min-rating", "4", "--lam", "1",
             "--attr-update-cadence", "per-batch", "--learning-rate", "1e-3",
             "--seed-split", "7"])
        with open(echo_config(resolve_settings(args), tmp_path)) as fh:
            lines = fh.read().splitlines()
        for line in ("min_rating=4.0", "lam=1.0", "attr_update_cadence=per-batch",
                     "learning_rate=0.001", "seed_split=7", "alpha=0.9"):
            assert line in lines

    @pytest.mark.parametrize("key", sorted(cli.DEFAULTS))
    def test_every_setting_echoes_back(self, tmp_path, key):
        # a sweep reuses a point by its config.txt bytes, which must read back
        # as the settings that wrote them: the default and one other value
        for value in (cli.DEFAULTS[key], OTHER_VALUES[key]):
            settings = dict(cli.DEFAULTS, **{key: value})
            read = read_config_file(echo_config(settings, tmp_path))
            assert read == settings and cli.config_text(read) == cli.config_text(settings)

