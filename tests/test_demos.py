"""The narrative demos run end to end on the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
WRITES = {"segregation_continuation": ["segregated_total.pgm", "segregated_u0.pgm",
                                       "segregated_u1.pgm"]}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path))["main"]()
    assert capsys.readouterr().out
    # a demo writes only under out/demos in the working directory
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert written == [Path("out", "demos", name) for name in WRITES.get(path.stem, [])]
