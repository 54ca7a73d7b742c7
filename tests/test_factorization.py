"""Certificates need no factorization; ``redundancy`` makes exactly one ``eigh``
and no ``eigvalsh``; the homotopy solves only for right-hand sides it reads."""

import numpy as np
import pytest

from covlasso import (
    check_slope_bounds,
    lambda_max,
    reduce_problem,
    redundancy,
    screen,
    solution_path,
    solve,
    write_cov,
)
from covlasso.cli import main

from conftest import make_cov


def count_calls(monkeypatch, name, arg=0):
    """Record the shape of positional argument ``arg`` (by default the
    matrix) of every call to np.linalg.<name>."""
    calls = []
    real = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(np.shape(args[arg]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    return count_calls(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return count_calls(monkeypatch, "eigvalsh")


@pytest.fixture
def cov(rng):
    return make_cov(rng, 8, cond=1e3)


def test_solve(cov, eigh_calls):
    # A solve, its prediction error and its theta and support.
    rp = reduce_problem(cov, 3)
    sol = solve(rp, 0.2 * lambda_max(rp))
    sol.theta, sol.support
    assert eigh_calls == []


def test_screen(cov, eigh_calls):
    rp = reduce_problem(cov, 3)
    screen(cov, 3, 0.5 * lambda_max(rp))
    assert eigh_calls == []


def test_check_slope_bounds(cov, eigh_calls):
    rp = reduce_problem(cov, 3)
    lmax = lambda_max(rp)
    path = solution_path(rp, np.geomspace(lmax, lmax / 100.0, 6))
    check_slope_bounds(rp, path)
    assert eigh_calls == []


def test_path_job(cov, eigh_calls, tmp_path, capsys):
    cov_path = tmp_path / "cov.bin"
    cov_path.write_bytes(write_cov(cov))
    code = main(
        ["path", "--cov", str(cov_path), "--target", "3", "--auto-grid", "6",
         "--output", str(tmp_path / "path.json")]
    )
    assert code == 0
    assert "slope_checked=true" in capsys.readouterr().out
    assert eigh_calls == []


def test_redundancy(cov, eigh_calls, eigvalsh_calls):
    redundancy(cov, 3)
    assert eigh_calls == [(8, 8)]
    assert eigvalsh_calls == []


def test_walk_solves_no_empty_right_hand_side(cov, monkeypatch):
    # Most kinks on the way down to 1e-3 lambda_max hold no grid point;
    # the walk must not solve for their empty sets of grid columns.
    rhs = count_calls(monkeypatch, "solve", arg=1)
    rp = reduce_problem(cov, 3)
    lmax = lambda_max(rp)
    path = solution_path(rp, [0.5 * lmax, 1e-3 * lmax])
    assert path.solutions[-1].iterations > 2
    assert [shape for shape in rhs if shape[1:] == (0,)] == []
