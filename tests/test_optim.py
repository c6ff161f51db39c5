import numpy as np
import pytest

from procamsim import optim
from procamsim.errors import NonFiniteCost
from procamsim.optim import levenberg_marquardt, numeric_jacobian


def _quadratic_residuals(target):
    def fn(x):
        return np.array([x[0] - target[0], 2.0 * (x[1] - target[1]), x[0] * x[1] - target[2]])

    return fn


def test_converges_on_smooth_problem():
    fn = _quadratic_residuals((2.0, -1.0, -2.0))
    result = levenberg_marquardt(fn, np.array([0.5, 0.5]))
    assert result.cost < 1e-20
    assert np.allclose(result.x, [2.0, -1.0], atol=1e-9)


def test_accepted_costs_never_increase():
    def rosen(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    result = levenberg_marquardt(rosen, np.array([-1.2, 1.0]))
    assert all(b <= a for a, b in zip(result.cost_history, result.cost_history[1:]))
    assert result.cost < 1e-16


def test_stationary_point_terminates_quickly():
    fn = _quadratic_residuals((2.0, -1.0, -2.0))
    first = levenberg_marquardt(fn, np.array([0.5, 0.5]))
    second = levenberg_marquardt(fn, first.x)
    assert second.iterations <= 2
    assert second.cost <= first.cost + 1e-12


def test_non_finite_cost_raises():
    def fn(x):
        return np.array([np.nan])

    with pytest.raises(NonFiniteCost):
        levenberg_marquardt(fn, np.array([1.0]))


def test_forward_jacobian_matches_central_differences():
    def fn(x):
        return np.array(
            [np.sin(x[0]) * x[1], x[0] ** 2 - np.cos(x[1]), np.exp(0.1 * x[0] * x[1])]
        )

    x = np.array([0.7, -1.3])
    jac = numeric_jacobian(fn, x, fn(x))
    central = np.empty_like(jac)
    for i in range(2):
        h = 1e-6 * max(abs(x[i]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        central[:, i] = (fn(xp) - fn(xm)) / (2.0 * h)
    assert np.max(np.abs(jac - central)) < 1e-5


def _evaluations_per_jacobian(monkeypatch) -> tuple[list, list]:
    """Count residual evaluations, and how many of them each Jacobian made."""
    evals, per_jacobian = [], []
    jacobian = optim.numeric_jacobian

    def counted(fn, x, r0, blocks=None):
        before = len(evals)
        jac = jacobian(fn, x, r0, blocks)
        per_jacobian.append(len(evals) - before)
        return jac

    monkeypatch.setattr(optim, "numeric_jacobian", counted)
    return evals, per_jacobian


def test_lm_without_blocks_makes_one_evaluation_per_column(monkeypatch):
    evals, per_jacobian = _evaluations_per_jacobian(monkeypatch)

    def rosen(x):
        evals.append(None)
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], 0.1 * x[2] - 0.3])

    levenberg_marquardt(rosen, np.array([-1.2, 1.0, 0.0]))
    assert per_jacobian and set(per_jacobian) == {3}


def _grouped_residuals(groups, evals):
    """Two shared parameters, then ``groups`` groups of three, each owning four rows."""
    def fn(x):
        evals.append(None)
        shared = x[:2]
        rows = []
        for k in range(groups):
            p = x[2 + 3 * k: 5 + 3 * k]
            rows.append([np.sin(p[0]) * shared[0] + p[1] ** 2,
                         p[2] * shared[1] - np.cos(p[1]),
                         np.exp(0.1 * p[0] * p[2]) + shared[0] * shared[1],
                         p[0] * p[1] * p[2] - k])
        return np.concatenate(rows)

    return fn


def test_block_jacobian_steps_one_column_of_every_group_per_evaluation(monkeypatch):
    evals, per_jacobian = _evaluations_per_jacobian(monkeypatch)
    fn = _grouped_residuals(8, evals)
    x = np.random.default_rng(3).normal(size=2 + 3 * 8)
    blocks = (2, 3, [slice(4 * k, 4 * k + 4) for k in range(8)])
    r0 = fn(x)
    dense = numeric_jacobian(fn, x, r0)
    evals.clear()
    block = numeric_jacobian(fn, x, r0, blocks)
    assert len(evals) == 2 + 3
    assert np.array_equal(block, dense)

    result = levenberg_marquardt(fn, x, blocks=blocks)
    assert result.iterations == len(per_jacobian)
    assert set(per_jacobian) == {5}
