"""The fast invariant suite must be green, and print a line per check."""

import numpy as np

from gpsol import pde_engine
from gpsol.validate import run_all


def test_invariant_suite_passes(capsys):
    assert run_all() is True
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 12


def test_stencil_check_measures_the_field_kernel(monkeypatch, capsys):
    # a second-order Laplacian in the field's own kernel must turn the
    # stencil-order line red
    monkeypatch.setattr(pde_engine, "_D2_STENCIL", 12.0 * np.array([0.0, 1.0, -2.0, 1.0, 0.0]))
    assert run_all() is False
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL stencil-order:") for line in lines)
