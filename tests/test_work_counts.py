"""The work counts that bench/tracer.py pins in closed form, checked at tier 1.

The traced benchmark run expects, per run-suite entry or mmatrix job, 4^g
row_sum calls and 4^g d+ weil_pairing calls inside verify_sign_matrix, and one
theta_series read per (characteristic, point) in each numerical stage.  These
tests count the same calls with wrappers patched over the module globals the
code reads at call time, so a change that drops a counted call fails here.
They also count the lattice sums behind one run-suite entry: one row per
(top half, point) for each distinct point the entry evaluates.
"""

import sys

import pytest

import theta4.mmatrix as mmatrix
import theta4.theta_eval as theta_eval
from theta4.basis_analysis import basis_report
from theta4.char2 import Characteristic, d_plus
from theta4.cli import _run_entry
from theta4.identities import inversion_residuals, quartic_residuals


def counting(monkeypatch, module, name: str) -> list[int]:
    """Patch a call-counting wrapper over module.name, and over every other
    theta4 module global bound to the same function; return the counter."""
    fn = getattr(module, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "theta4" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])  # 5: the mmatrix-g5 workload's genus
def test_verify_sign_matrix_makes_the_literal_row_sums(g, monkeypatch):
    row_sums = counting(monkeypatch, mmatrix, "row_sum")
    pairings = counting(monkeypatch, mmatrix, "weil_pairing")
    assert all(mmatrix.verify_sign_matrix(g).values())
    assert row_sums[0] == 4**g
    assert pairings[0] == 4**g * d_plus(g)


@pytest.mark.parametrize("samples", [1, 2])
def test_stages_read_theta_series_once_per_entry(samples, tau_g2_random, monkeypatch):
    g, d = 2, d_plus(2)
    calls = counting(monkeypatch, theta_eval, "theta_series")
    expected = {
        "quartic": 4**g * (1 + 2 * samples),
        "inversion": d * (1 + 2 * samples),
        "basis": d + 3 * d * d,
    }
    points = theta_eval.sample_cell_points(tau_g2_random, samples, 0)
    stages = {
        "quartic": lambda: quartic_residuals(tau_g2_random, points),
        "inversion": lambda: inversion_residuals(tau_g2_random, points),
        "basis": lambda: basis_report(tau_g2_random),
    }
    for stage, run in stages.items():
        calls[0] = 0
        run()
        assert calls[0] == expected[stage], stage


@pytest.mark.parametrize("g, samples", [(1, 1), (2, 1), (2, 2), (3, 3)])
def test_entry_sums_each_distinct_point_once(g, samples, monkeypatch):
    # 2^g rows per distinct point: z = 0 and the identity samples z and 2z
    # (1 + 2s points), the evaluation points 2 z_a other than 0 (d+ - 1) and
    # the fourth-power samples (2 d+); no point is summed twice
    rows = [0]
    build = theta_eval._theta_groups

    def counting(points, *args):
        rows[0] += len(points) * 2**g
        return build(points, *args)

    monkeypatch.setattr(theta_eval, "_theta_groups", counting)
    result, _ = _run_entry(
        "count", theta_eval.random_tau(g, seed=g), Characteristic.zero(g),
        {"vanishing_nulls": 0, "verdicts": True}, 0, policy=theta_eval.DEFAULT_POLICY, samples=samples,
    )
    assert result["status"] == "pass"
    d = d_plus(g)
    assert rows[0] == 2**g * (1 + 2 * samples) + 2**g * (d - 1) + 2**g * 2 * d


def test_entry_draws_identity_samples_once(monkeypatch):
    # both sweeps check the one identity draw; basis_report draws its fourth-power samples
    draws = counting(monkeypatch, theta_eval, "sample_cell_points")
    result, _ = _run_entry(
        "draws", theta_eval.random_tau(2, seed=2), Characteristic.zero(2),
        {"vanishing_nulls": 0, "verdicts": True}, 0, policy=theta_eval.DEFAULT_POLICY, samples=2,
    )
    assert result["status"] == "pass"
    assert draws[0] == 2
