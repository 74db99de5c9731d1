"""Model layer: point-data validation, the power-law family, the pulse
profile, and the (alpha, beta, nu) reduction."""

import warnings

import numpy as np
import pytest

from pulsectrl.errors import DegenerateControl
from pulsectrl.model import (
    ModelParams,
    PowerLawModel,
    pulse_profile,
    reduced_coefficients,
)

FIG4 = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(u_star=0.0, f_val=1.0, f_der=0.0, to_log_der=0.0)
    with pytest.raises(ValueError):
        ModelParams(u_star=1.0, f_val=-1.0, f_der=0.0, to_log_der=0.0)
    with pytest.raises(ValueError):
        ModelParams(u_star=1.0, f_val=1.0, f_der=0.0, to_log_der=0.0, eps=0.0)
    with pytest.raises(ValueError):
        ModelParams(u_star=1.0, f_val=1.0, f_der=0.0, to_log_der=0.0,
                    control_slope=1.0)
    # degenerate existence condition: u_star * to_log_der == 1
    with pytest.raises(ValueError):
        ModelParams(u_star=2.0, f_val=1.0, f_der=0.0, to_log_der=0.5)


def test_nu_accessor_and_gain_update():
    assert FIG4.nu == pytest.approx(2.0)
    p = FIG4.with_control_slope(-3.0)
    assert p.control_slope == -3.0
    assert (p.u_star, p.f_val, p.f_der, p.to_log_der) == (1.0, 1.0, -3.0, 8.0)


def test_power_law_validation():
    with pytest.raises(ValueError):
        PowerLawModel(phi=0.0, gamma=1.0, delta=0.0)
    with pytest.raises(ValueError):
        PowerLawModel(phi=1.0, gamma=1.0, delta=1.0)
    with pytest.raises(ValueError):
        PowerLawModel(phi=1.0, gamma=1.0, delta=0.0, u_star=-1.0)


def test_power_law_round_trip():
    for params in (FIG4,
                   ModelParams(u_star=2.5, f_val=2.0, f_der=1.2, to_log_der=0.8)):
        model = PowerLawModel.from_params(params)
        induced = model.induced_params(params.eps, params.control_slope)
        for name in ("u_star", "f_val", "f_der", "to_log_der"):
            assert getattr(induced, name) == pytest.approx(
                getattr(params, name), abs=1e-12)


def test_reaction_powers_are_f_squared_t_o_and_f():
    # the PDE takes f^2 T_o and f as one power of u each
    model = PowerLawModel.from_params(
        ModelParams(u_star=2.5, f_val=2.0, f_der=1.2, to_log_der=0.8))
    u = np.linspace(0.05, 4.0, 50)
    (p_ft, c_ft), (p_f, c_f) = model.reaction_powers()
    assert np.allclose(c_ft * u ** p_ft, model.f(u) ** 2 * model.t_o(u),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(c_f * u ** p_f, model.f(u), rtol=1e-14, atol=0.0)


def test_pulse_profile_values_symmetry_decay():
    u0, v0 = pulse_profile(FIG4, 0.0)
    assert u0 == pytest.approx(FIG4.u_star)
    assert v0 == pytest.approx(1.5 / FIG4.f_val)

    x_u = np.linspace(0.0, 5.0, 200)
    u_pos, _ = pulse_profile(FIG4, x_u)
    u_neg, _ = pulse_profile(FIG4, -x_u)
    assert np.allclose(u_pos, u_neg)
    assert np.all(np.diff(u_pos) < 0) and np.all(u_pos > 0)
    assert u_pos[-1] < 1e-2

    # the v-core lives on the eps scale; test decay before underflow sets in
    x_v = np.linspace(0.0, 0.15, 200)
    _, v_pos = pulse_profile(FIG4, x_v)
    _, v_neg = pulse_profile(FIG4, -x_v)
    assert np.allclose(v_pos, v_neg)
    assert np.all(np.diff(v_pos) < 0) and np.all(v_pos > 0)
    assert pulse_profile(FIG4, 1.0)[1] == pytest.approx(0.0, abs=1e-15)


def test_pulse_profile_tails_underflow_to_zero_without_warning():
    # at small eps, cosh(x/(2 eps)) and its square overflow in the tails; the
    # sech^2 limit there is exactly 0, while the core keeps its bits
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=1e-3)
    x = np.linspace(-10.0, 10.0, 2001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, v = pulse_profile(params, x)
        assert pulse_profile(params, 10.0)[1] == 0.0
    tails = np.abs(x) >= 2.0
    assert np.all(v[tails] == 0.0)
    core = np.abs(x) < 0.5
    assert np.array_equal(v[core], 1.5 / np.cosh(x[core] / 2e-3) ** 2)


def test_pulse_core_satisfies_reduced_ode():
    # v_hat(xi) = f(u*) v_p(eps xi) must solve v'' - v + v^2 = 0; the step
    # of the sixth-order difference balances truncation against roundoff
    eps = FIG4.eps
    h = 1e-2
    xi = np.linspace(-12.0, 12.0, 1201)

    def v_hat(z):
        return FIG4.f_val * pulse_profile(FIG4, eps * z)[1]

    weights = (1.0 / 90.0, -3.0 / 20.0, 1.5, -49.0 / 18.0, 1.5,
               -3.0 / 20.0, 1.0 / 90.0)
    d2 = sum(w * v_hat(xi + k * h)
             for k, w in zip(range(-3, 4), weights)) / h ** 2
    residual = d2 - v_hat(xi) + v_hat(xi) ** 2
    assert np.max(np.abs(residual)) <= 1e-10


def test_reduced_coefficients_reference_points():
    # nu = 2/u*, f' = -3 f/u* gives (alpha, beta) = (2, -1) for any u*, f
    for u_star, f_val in ((1.0, 1.0), (2.5, 2.0)):
        params = ModelParams(u_star=u_star, f_val=f_val,
                             f_der=-3.0 * f_val / u_star,
                             to_log_der=8.0 / u_star)
        co = reduced_coefficients(params)
        assert co.alpha == pytest.approx(2.0)
        assert co.beta == pytest.approx(-1.0)
        assert params.nu == pytest.approx(2.0 / u_star)

    params = ModelParams(1.0, 1.0, 1.0, 0.0)
    co = reduced_coefficients(params)
    assert (co.alpha, co.beta, params.nu) == pytest.approx((-6.0, 3.0, 2.0))

    with pytest.raises(DegenerateControl):
        reduced_coefficients(ModelParams(1.0, 1.0, 0.0, 0.5))


def test_reduction_identities_random_sample():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u_star = rng.uniform(0.2, 4.0)
        f_val = rng.uniform(0.2, 4.0)
        f_der = rng.uniform(-4.0, 4.0)
        to_log_der = rng.uniform(-4.0, 4.0)
        if f_der == 0.0 or u_star * to_log_der == 1.0:
            continue
        params = ModelParams(u_star, f_val, f_der, to_log_der)
        co = reduced_coefficients(params)
        assert np.sign(co.beta) == np.sign(f_der)
        # -alpha/beta = nu * u_star is an algebraic identity of the reduction
        assert -co.alpha / co.beta == pytest.approx(params.nu * u_star,
                                                    rel=1e-12, abs=1e-12)
        # trichotomy equivalence behind the region classifier: for f' > 0
        # the nu threshold is exactly the (alpha, beta) comparison
        if co.beta > 0.0:
            assert (params.nu < 1.0 / u_star) == (-co.alpha < co.beta)
            assert (params.nu >= 1.0 / u_star) == (-co.alpha >= co.beta)
