"""The scripts under scripts/ reach into flowtel's API; loading each one
(without running its main) fails as soon as a name it imports is gone."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    runpy.run_path(str(path), run_name="scripts")
