"""The scripts under scripts/ and the benchmark's tracer reach into
flowtel's API; loading each one (without running its main) fails as soon as
a name it imports is gone."""

import os
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    runpy.run_path(str(path), run_name="scripts")


def test_sweep_pareto_removes_its_grid_file(tmp_path, monkeypatch, capsys):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)  # gettempdir() reads TMPDIR again
    monkeypatch.setattr(sys, "argv", ["sweep_pareto.py", "smoke"])
    script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "sweep_pareto.py"),
                            run_name="scripts")
    seen = []

    def sweep(argv):  # the grid file is in TMPDIR while the sweep runs
        seen.extend(os.listdir(tmp))
        return cli_main(argv)

    cli_main = script["cli_main"]
    monkeypatch.setitem(script["main"].__globals__, "cli_main", sweep)
    assert script["main"]() == 0
    assert len(seen) == 1 and seen[0].endswith(".json")
    assert os.listdir(tmp) == []
    assert "# mode width depth rho dsmp_delta_ns export_mbps auprc pareto" in capsys.readouterr().out


def test_benchmark_tracer_wraps_names_every_run_calls(tmp_path):
    """perfbench/spans.py replaces flowtel functions by name; a deleted or
    renamed one raises in install(), and one the run stops calling records
    no span."""
    from flowtel import cli, pipeline

    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"), run_name="spans")
    tracer = spans["Tracer"]()
    before = pipeline.train_detectors
    spans["install"](tracer)
    try:
        wrapped = len(tracer._patches)
        assert cli.main(["run", "--scenario", "smoke", "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.unwrap_all()
    assert pipeline.train_detectors is before
    called = {s[1] for s in tracer.spans} - {spans["COUNTS_SPAN"]}
    assert len(called) == wrapped, called
