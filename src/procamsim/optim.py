"""Damped least-squares minimizer shared by calibration and pose refinement.

Forward-difference Jacobians (relative step 1e-6, absolute floor 1e-8),
one residual evaluation per column unless the caller declares block-sparse
structure: when groups of parameters touch disjoint residual rows, one
evaluation steps the same column of every group at once (Curtis, Powell &
Reid, "On the estimation of sparse Jacobian matrices", IMA J. Appl. Math.
13, 1974). Each group's rows then hold exactly the dense difference and the
other rows exact zeros, so the Jacobian is bit-identical to the dense one.
Multiplicative damping starting at 1e-3 (x10 on a rejected step, x0.1 on an
accepted one, capped at 1e10). Terminates on relative cost decrease < 1e-12,
step norm < 1e-12, or 100 iterations. The accepted-cost sequence never
increases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteCost, SingularNormalEquations

REL_STEP = 1e-6
ABS_STEP = 1e-8
LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e10
COST_TOL = 1e-12
STEP_TOL = 1e-12
MAX_ITER = 100


@dataclass
class LmResult:
    x: np.ndarray
    cost: float
    iterations: int
    cost_history: list


def _step(value: float) -> float:
    return max(REL_STEP * abs(value), ABS_STEP)


def numeric_jacobian(residual_fn, x: np.ndarray, r0: np.ndarray, blocks=None) -> np.ndarray:
    """Forward-difference Jacobian of ``residual_fn`` at ``x`` (``r0`` = fn(x)).

    ``blocks = (shared, size, rows)`` declares that the first ``shared``
    parameters may touch every residual, and that the rest form
    ``len(rows)`` consecutive groups of ``size`` parameters, group k
    touching only the residuals ``rows[k]`` (a slice). Without it every
    column costs one evaluation.
    """
    shared, size, rows = (x.size, 0, []) if blocks is None else blocks
    jac = np.zeros((r0.size, x.size))
    for i in range(shared):
        step = _step(x[i])
        xp = x.copy()
        xp[i] += step
        jac[:, i] = (residual_fn(xp) - r0) / step
    for j in range(size):
        cols = [shared + k * size + j for k in range(len(rows))]
        steps = [_step(x[c]) for c in cols]
        xp = x.copy()
        xp[cols] += steps
        r = residual_fn(xp)
        for c, step, sl in zip(cols, steps, rows):
            jac[sl, c] = (r[sl] - r0[sl]) / step
    return jac


def levenberg_marquardt(residual_fn, x0, blocks=None) -> LmResult:
    """Minimize the sum of squared residuals of ``residual_fn(x)``.

    ``blocks`` is passed to ``numeric_jacobian``; it changes the number of
    residual evaluations, never the result.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    if not np.all(np.isfinite(r)):
        raise NonFiniteCost("residuals are non-finite at the initial point")
    cost = float(r @ r)
    history = [cost]
    lam = LAMBDA_INIT

    for iteration in range(1, MAX_ITER + 1):
        jac = numeric_jacobian(residual_fn, x, r, blocks)
        jtj = jac.T @ jac
        g = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag < 1e-12] = 1e-12

        accepted = False
        solvable = False
        while lam <= LAMBDA_MAX:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -g)
                solvable = True
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_try = x + delta
            r_try = residual_fn(x_try)
            if np.all(np.isfinite(r_try)):
                cost_try = float(r_try @ r_try)
                if cost_try < cost:
                    x, r, prev_cost, cost = x_try, r_try, cost, cost_try
                    history.append(cost)
                    lam = max(lam * 0.1, 1e-15)
                    accepted = True
                    break
            lam *= 10.0

        if not accepted:
            if not solvable:
                raise SingularNormalEquations(
                    "normal equations remained singular up to the damping cap"
                )
            # No damping value improved the cost: stationary point.
            return LmResult(x, cost, iteration, history)

        rel_decrease = (prev_cost - cost) / max(prev_cost, 1e-300)
        if rel_decrease < COST_TOL or float(np.linalg.norm(delta)) < STEP_TOL:
            return LmResult(x, cost, iteration, history)

    return LmResult(x, cost, MAX_ITER, history)
