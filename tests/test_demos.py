"""The scripts in demos/ run as written."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["attribute_inference_walkthrough", "command_line_pipeline",
                                  "train_on_toy"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    # command_line_pipeline works in a mkdtemp directory: keep it in tmp_path
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
    if name == "command_line_pipeline":
        assert list(tmp_path.glob("graphrec-demo-*/run/report_test.txt"))
