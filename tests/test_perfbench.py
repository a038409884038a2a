"""The benchmark's span tracer patches totcol functions by name; a renamed or
deleted function would break the traced run.  perfbench/spans.py is run
from its source, so no bytecode is written next to it."""
import pathlib
import runpy

import pytest

SPANS = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"),
    run_name="spans")


@pytest.mark.parametrize("module, path", [row[:2] for row in SPANS["PATCHES"]],
                         ids=["%s:%s" % row[:2] for row in SPANS["PATCHES"]])
def test_every_traced_name_resolves(module, path):
    owner, attr = SPANS["_resolve"](module, path)
    assert callable(getattr(owner, attr))
