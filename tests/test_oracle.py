"""Brute-force oracle: operator discretization, resolvent solves, and the
closed-form eigenfunction identities."""

import numpy as np
import pytest

from pulsectrl.errors import NearEigenvalue, OutOfContinuum
from pulsectrl.oracle import (
    FastGrid,
    FastOperator,
    eigenfunction_identities,
    r_oracle,
    solve_vin,
    theta_inner_product,
    theta_reference,
    top_eigenvalues,
    v_p_hat,
)
from pulsectrl.oracle import _psi0, _psi2
from pulsectrl.spectral import r_total

REFERENCE_EIGS = (1.25, 0.0, -0.75)


def test_grid_validation():
    with pytest.raises(ValueError):
        FastGrid(-40.0, 30.0, 8001)
    with pytest.raises(ValueError):
        FastGrid(-1.0, 1.0, 2)
    grid = FastGrid(-40.0, 40.0, 8001)
    assert grid.h == pytest.approx(0.01)
    assert v_p_hat(grid.xi[-1]) < 1e-15


def test_top_eigenvalues_default_grid():
    evs = top_eigenvalues(FastOperator(), 3)
    assert len(evs) == 3
    for ev, ref in zip(evs, REFERENCE_EIGS):
        assert abs(ev - ref) <= 1e-3
    assert top_eigenvalues(FastOperator(), 1)[0] == pytest.approx(1.25, abs=1e-3)


def test_second_order_grid_convergence():
    coarse = top_eigenvalues(FastOperator(FastGrid(-40.0, 40.0, 4001)), 3)
    fine = top_eigenvalues(FastOperator(FastGrid(-40.0, 40.0, 8001)), 3)
    for c, f, ref in zip(coarse, fine, REFERENCE_EIGS):
        ratio = abs(c - ref) / abs(f - ref)
        assert 3.0 < ratio < 5.0


class TestSolveVin:
    def test_near_eigenvalue_rejected(self):
        # target the discrete eigenvalue: it sits O(h^2) away from 5/4
        top = top_eigenvalues(FastOperator(), 1)[0]
        with pytest.raises(NearEigenvalue):
            solve_vin(top + 1e-9)

    def test_even_parity(self):
        sol = solve_vin(2.0)
        assert np.max(np.abs(sol - sol[::-1])) <= 1e-10

    def test_residual_certificate(self):
        grid = FastGrid()
        lh = 2.0
        sol = solve_vin(lh, grid)
        op = FastOperator(grid)
        # the tridiagonal operator applied to sol
        l_sol = op.diag * sol
        l_sol[:-1] += op.offdiag * sol[1:]
        l_sol[1:] += op.offdiag * sol[:-1]
        residual = l_sol - lh * sol + v_p_hat(grid.xi) ** 2
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(sol))


class TestROracle:
    def test_agrees_with_closed_form(self):
        assert abs(r_oracle(2.0) - r_total(2.0)) <= 1e-4

    def test_decay(self):
        assert abs(r_oracle(1000.0)) < 0.02

    def test_conjugate_symmetry(self):
        assert abs(r_oracle(3.0 - 1.0j) - np.conj(r_oracle(3.0 + 1.0j))) <= 1e-10

    def test_grid_doubling_stability(self):
        # away from the poles the discretization error is already small, so
        # refining the grid and widening the domain barely moves the value
        base = r_oracle(10.0, FastGrid(-40.0, 40.0, 8001))
        refined = r_oracle(10.0, FastGrid(-60.0, 60.0, 16001))
        assert abs(base - refined) < 1e-6


def test_eigenfunction_identities():
    records = eigenfunction_identities()
    assert records["psi0_dot_vp"]["abs_error"] <= 1e-8
    assert records["psi2_dot_vp"]["abs_error"] <= 1e-8
    assert records["vp2_dot_psi0"]["abs_error"] <= 1e-8
    assert records["vp2_dot_psi2"]["abs_error"] <= 1e-8
    assert records["psi1_dot_vp"]["abs_error"] <= 1e-12
    for name in ("norm_psi0", "norm_psi1", "norm_psi2"):
        assert records[name]["abs_error"] <= 1e-10


def test_resolvent_identity_discrete_modes():
    # <v_p^2, psi_i> = (lh - lh_i) <v_in, psi_i>; the O(h^2) solve error is
    # removed by Richardson extrapolation over a grid doubling
    lh = 2.0
    cases = {
        0: (_psi0, 1.25, 45.0 * np.pi / 128.0 * np.sqrt(7.5)),
        2: (_psi2, -0.75, -9.0 * np.pi / 128.0 * np.sqrt(1.5)),
    }
    for psi, lam, reference in cases.values():
        values = []
        for n in (8001, 16001):
            grid = FastGrid(-40.0, 40.0, n)
            vin = solve_vin(lh, grid)
            inner = np.trapezoid(psi(grid.xi) * vin, dx=grid.h)
            values.append((lh - lam) * inner)
        extrapolated = (4.0 * values[1] - values[0]) / 3.0
        assert abs(extrapolated - reference) <= 1e-6


class TestTheta:
    def test_reference_value(self):
        computed = theta_inner_product(-2.0)
        expected = -0.75 * np.pi / np.sinh(np.pi)
        assert computed == pytest.approx(expected, abs=1e-6)
        assert theta_reference(-2.0) == pytest.approx(expected, rel=1e-14)

    def test_out_of_continuum(self):
        with pytest.raises(OutOfContinuum):
            theta_inner_product(-1.0)

    def test_real_output(self):
        value = theta_inner_product(-1.5)
        assert isinstance(value, float) and np.isfinite(value)
