"""Brute-force verification of the explicit spectral function.

Discretizes the fast operator L_f = d^2/dxi^2 - 1 + 3 sech^2(xi/2) with
centered second differences, solves the driven problem
(L_f - lh) v_in = -v_p^2 directly, and evaluates R(lh) by quadrature.
This path never touches the closed-form R, so agreement between the two is a
genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .errors import NearEigenvalue, OutOfContinuum


@dataclass(frozen=True)
class FastGrid:
    """Symmetric uniform grid in the short-scale variable xi."""

    xi_min: float = -40.0
    xi_max: float = 40.0
    n: int = 8001

    def __post_init__(self):
        if self.xi_max != -self.xi_min:
            raise ValueError("grid must be symmetric: xi_max = -xi_min")
        if self.n < 3:
            raise ValueError("need at least 3 grid points")

    @property
    def h(self) -> float:
        return (self.xi_max - self.xi_min) / (self.n - 1)

    @property
    def xi(self) -> np.ndarray:
        return np.linspace(self.xi_min, self.xi_max, self.n)


def v_p_hat(xi: np.ndarray) -> np.ndarray:
    """Rescaled pulse core (3/2) sech^2(xi/2)."""
    return 1.5 / np.cosh(0.5 * xi) ** 2


class FastOperator:
    """Banded symmetric discretization of L_f with zero boundary values."""

    def __init__(self, grid: FastGrid = FastGrid()):
        self.grid = grid
        h = grid.h
        xi = grid.xi
        self.diag = -2.0 / h ** 2 - 1.0 + 3.0 / np.cosh(0.5 * xi) ** 2
        self.offdiag = np.full(grid.n - 1, 1.0 / h ** 2)


@lru_cache(maxsize=8)
def _top_eigs_cached(xi_min: float, xi_max: float, n: int, k: int):
    op = FastOperator(FastGrid(xi_min, xi_max, n))
    vals = eigvalsh_tridiagonal(op.diag, op.offdiag,
                                select="i", select_range=(n - k, n - 1))
    return tuple(vals[::-1])


def top_eigenvalues(op: FastOperator, k: int = 3):
    """k largest discrete eigenvalues, descending."""
    g = op.grid
    return list(_top_eigs_cached(g.xi_min, g.xi_max, g.n, k))


def solve_vin(lambda_hat: complex, grid: FastGrid = FastGrid()) -> np.ndarray:
    """Unique bounded solution of (L_f - lh) v_in = -v_p^2 on the grid."""
    lh = complex(lambda_hat)
    op = FastOperator(grid)
    top = top_eigenvalues(op, 3)
    if min(abs(lh - ev) for ev in top) < 1e-6:
        raise NearEigenvalue(f"lambda_hat = {lh} within 1e-6 of a discrete eigenvalue")
    n = grid.n
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = op.offdiag
    ab[1, :] = op.diag - lh
    ab[2, :-1] = op.offdiag
    rhs = -v_p_hat(grid.xi).astype(complex) ** 2
    sol = solve_banded((1, 1), ab, rhs)
    if np.max(np.abs(sol)) > 1e8:
        raise NearEigenvalue("resolvent solve nearly singular")
    return sol


def r_oracle(lambda_hat: complex, grid: FastGrid = FastGrid()) -> complex:
    """Independent estimate of R(lh): trapezoid of v_p * v_in over the grid."""
    vin = solve_vin(lambda_hat, grid)
    vp = v_p_hat(grid.xi)
    return complex(np.trapezoid(vp * vin, dx=grid.h))


def _psi0(xi):
    return 0.25 * np.sqrt(7.5) / np.cosh(0.5 * xi) ** 3


def _psi1(xi):
    return 0.5 * np.sqrt(7.5) * np.tanh(0.5 * xi) / np.cosh(0.5 * xi) ** 2


def _psi2(xi):
    return 0.25 * np.sqrt(1.5) * (2.0 * np.cosh(xi) - 3.0) / np.cosh(0.5 * xi) ** 3


def eigenfunction_identities(grid: FastGrid = FastGrid()) -> dict:
    """Quadrature check of the closed-form eigenfunction inner products.

    Returns per-identity records with computed value, reference value and
    absolute error.
    """
    xi = grid.xi
    h = grid.h
    vp = v_p_hat(xi)
    p0, p1, p2 = _psi0(xi), _psi1(xi), _psi2(xi)

    def quad(f):
        return float(np.trapezoid(f, dx=h))

    records = {}

    def add(name, computed, reference):
        records[name] = {
            "computed": computed,
            "reference": reference,
            "abs_error": abs(computed - reference),
        }

    add("psi0_dot_vp", quad(p0 * vp), 9.0 * np.pi / 32.0 * np.sqrt(7.5))
    add("psi2_dot_vp", quad(p2 * vp), 3.0 * np.pi / 32.0 * np.sqrt(1.5))
    add("vp2_dot_psi0", quad(vp ** 2 * p0), 45.0 * np.pi / 128.0 * np.sqrt(7.5))
    add("vp2_dot_psi2", quad(vp ** 2 * p2), -9.0 * np.pi / 128.0 * np.sqrt(1.5))
    add("psi1_dot_vp", quad(p1 * vp), 0.0)
    add("norm_psi0", np.sqrt(quad(p0 ** 2)), 1.0)
    add("norm_psi1", np.sqrt(quad(p1 ** 2)), 1.0)
    add("norm_psi2", np.sqrt(quad(p2 ** 2)), 1.0)
    return records


def theta_inner_product(mu_hat: float, grid: FastGrid = FastGrid()) -> float:
    """Continuum-eigenfunction identity check for mu_hat < -1.

    Integrates (L_f - mu_hat) theta = 0 outward from xi = 0 with theta(0) = 1,
    theta'(0) = 0, then quadratures theta * v_p over the grid.  The closed
    form is -(3 pi / 4) sqrt(-1-mu_hat) csch(pi sqrt(-1-mu_hat)).
    """
    if not mu_hat < -1.0:
        raise OutOfContinuum(f"mu_hat = {mu_hat} not in (-inf, -1)")

    def ode(xi, y):
        pot = 1.0 + mu_hat - 3.0 / np.cosh(0.5 * xi) ** 2
        return [y[1], pot * y[0]]

    xi_half = grid.xi[grid.xi >= 0.0]
    sol = solve_ivp(ode, (0.0, grid.xi_max), [1.0, 0.0], t_eval=xi_half,
                    rtol=1e-12, atol=1e-14, method="DOP853")
    theta_half = sol.y[0]
    # theta is even: mirror onto the negative half
    theta = np.concatenate([theta_half[:0:-1], theta_half])
    vp = v_p_hat(grid.xi)
    return float(np.trapezoid(theta * vp, dx=grid.h))


def theta_reference(mu_hat: float) -> float:
    """Closed-form value of the theta inner product."""
    s = np.sqrt(-1.0 - mu_hat)
    return float(-0.75 * np.pi * s / np.sinh(np.pi * s))
