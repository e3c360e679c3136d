"""Every demo runs to completion, printing only, with no warning."""

import contextlib
import io
import runpy
import warnings
from pathlib import Path

import pytest

import kolmo

DEMOS = sorted((Path(kolmo.__file__).parents[2] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
