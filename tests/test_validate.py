"""The fast invariant suite must be green, and print a line per check."""

import numpy as np

from gpsol import bright_soliton as bright
from gpsol import pde_engine
from gpsol.validate import run_all


def test_invariant_suite_passes(capsys):
    assert run_all() is True
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 13


def test_stencil_check_measures_the_field_kernel(monkeypatch, capsys):
    # a second-order Laplacian in the field's own kernel must turn the
    # stencil-order line red
    monkeypatch.setattr(pde_engine, "_D2_STENCIL", 12.0 * np.array([0.0, 1.0, -2.0, 1.0, 0.0]))
    assert run_all() is False
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL stencil-order:") for line in lines)


def test_taylor_newtonian_check_sees_a_one_part_in_1e9_force(monkeypatch, capsys):
    # the Taylor and Newtonian forces agree to roundoff, so a bright eom
    # force off by 1e-9 relative must turn the taylor-newtonian line red
    real = bright.eom_rhs
    monkeypatch.setattr(bright, "eom_rhs", lambda *args: (1.0 + 1e-9) * real(*args))
    assert run_all() is False
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        line for line in lines if line.startswith("FAIL taylor-newtonian:")] != []
