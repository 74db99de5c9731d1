"""PDE layer: configuration guards, spatial discretization, stationarity,
perturbations, and rate fitting."""

import os
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from pulsectrl import pde_sim
from pulsectrl.errors import NumericalBlowup, RelaxationFailure
from pulsectrl.model import ModelParams, PowerLawModel, pulse_profile
from pulsectrl.pde_sim import (
    SimConfig,
    _StepContext,
    _best_window_fit,
    _columns,
    _derivatives,
    _fit_rate,
    _neumann_laplacian,
    deviation_norm,
    perturbation,
    relax_profile,
    run,
    step,
)

FIG4 = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0)
FIG4_MODEL = PowerLawModel.from_params(FIG4)


def fig4_config(**kwargs) -> SimConfig:
    merged = dict(model=FIG4_MODEL, params=FIG4, t_end=1.0)
    merged.update(kwargs)
    return SimConfig(**merged)


class TestSimConfig:
    def test_defaults(self):
        config = fig4_config()
        assert config.dx == pytest.approx(FIG4.eps / 4.0)
        assert config.dt == pytest.approx(FIG4.eps / 25.0)
        x = config.x
        assert x.size % 2 == 1
        assert np.allclose(x, -x[::-1])

    def test_guards(self):
        with pytest.raises(ValueError):
            fig4_config(t_end=0.0)
        with pytest.raises(ValueError):
            fig4_config(dx=FIG4.eps)  # coarser than eps/4
        with pytest.raises(ValueError):
            fig4_config(perturbation_shape="spiral")
        for eta in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                fig4_config(eta=eta)
        with pytest.raises(ValueError):
            fig4_config(half_length=3.0)  # u_p(L) too large
        other = ModelParams(1.0, 1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            fig4_config(params=other)  # model/params disagree


    @pytest.mark.parametrize("name", ["t_end", "dt"])
    def test_t_end_and_dt_finite(self, name):
        # an infinite t_end made no step count, and an infinite dt no step
        for value in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                fig4_config(**{name: value})

    def test_t_end_spans_a_step(self):
        # t_end / dt underflows to 0, and run would take no step at all
        with pytest.raises(ValueError, match="at least one step"):
            fig4_config(t_end=1e-320, dt=1e10)
        # half a step still rounds up to one
        assert fig4_config(t_end=0.5e-3, dt=1e-3).t_end == 0.5e-3


def test_rhs_zero_state_forcing():
    # with f(0) = 0 the u-equation vanishes on the zero state while the
    # control term forces the v-equation by -gain * v_ref
    params = ModelParams(1.0, 1.0, 1.0, 0.0, control_slope=-0.5)
    model = PowerLawModel.from_params(params)
    config = SimConfig(model=model, params=params, t_end=1.0)
    v_ref = pulse_profile(params, config.x)[1]
    zero = np.zeros_like(config.x)
    du, dv, u_t, v_t = _derivatives(np.array((zero, zero)), config, v_ref,
                                    _columns(config))
    assert np.max(np.abs(u_t)) == 0.0
    assert np.allclose(v_t, 0.5 * v_ref, atol=1e-15)
    # the zero state has no diffusion, so the explicit part is all of it
    assert np.array_equal(du, u_t) and np.array_equal(dv, v_t)


def test_rhs_blowup_guard():
    # a non-finite state gives a non-finite new state, which step's one
    # finiteness check turns into NumericalBlowup
    config = fig4_config()
    v_ref = pulse_profile(FIG4, config.x)[1]
    bad = np.full(config.x.size, np.nan)
    with pytest.raises(NumericalBlowup):
        step(np.array((bad, bad)), _StepContext(config, v_ref))


def test_nonfinite_reaction_raises(monkeypatch):
    # a finite state with u = 0 at one grid point has an infinite reaction,
    # f(u) = u^-3; step checks only its new state, which the solve makes
    # non-finite over the whole v block, since no off-diagonal in it is zero
    config = fig4_config(t_end=0.02)
    reference = relax_profile(config)
    centre = reference.shape[1] // 2
    state = reference.copy()
    state[0, centre] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup):
            step(state, _StepContext(config, reference[1]))

    # run's own errstate must let the same state reach that check, not
    # stop at numpy's division-by-zero warning
    def zero_at_centre(cfg):
        deviation = perturbation(cfg)
        deviation[0, centre] = -reference[0, centre]
        return deviation

    monkeypatch.setattr(pde_sim, "perturbation", zero_at_centre)
    with pytest.raises(NumericalBlowup) as blowup:
        run(config)
    assert blowup.value.time == 0.0


def test_laplacian_zero_flux_ends_of_both_rows():
    # each row's end rows are the mirror-ghost difference 2 (w[1] - w[0]),
    # and no difference across the junction of u and v leaks into either
    rng = np.random.default_rng(3)
    w = rng.standard_normal((2, 9))
    lap = _neumann_laplacian(w, 1.0)
    for k in range(2):
        row = w[k]
        assert lap[k, 0] == 2.0 * (row[1] - row[0])
        assert lap[k, -1] == 2.0 * (row[-2] - row[-1])
        assert np.allclose(lap[k, 1:-1], row[2:] - 2.0 * row[1:-1] + row[:-2],
                           rtol=0.0, atol=1e-14)


def test_rhs_leading_order_profile_nearly_stationary():
    # the leading-order profile is stationary up to O(eps + dx^2) away from
    # the core; at x = 0 the u-profile has a corner whose discrete Laplacian
    # is a width-dx delta while the v^2 forcing is a width-eps delta, so the
    # two agree in integral (to O(eps)) but not pointwise
    config = fig4_config()
    x = config.x
    u0, v0 = pulse_profile(FIG4, x)
    _, _, du, dv = _derivatives(np.array((u0, v0)), config, v0,
                                _columns(config))
    scale = FIG4.eps + config.dx ** 2
    assert np.max(np.abs(dv)) <= 5.0 * scale
    tail = np.abs(x) >= 8.0 * FIG4.eps
    assert np.max(np.abs(du[tail])) <= 2.0 * scale
    assert abs(config.dx * np.sum(du)) <= 5.0 * FIG4.eps


def test_laplacian_stencil_second_order():
    # both rows of the stack, each away from its ends and from the junction
    def worst_error(dx):
        x = dx * np.arange(-200, 201)
        f = np.exp(-x ** 2)
        exact = (4.0 * x ** 2 - 2.0) * f
        approx = _neumann_laplacian(np.array((f, 3.0 * f)), 1.0 / dx ** 2)
        return max(np.max(np.abs(approx[0] - exact)[5:-5]),
                   np.max(np.abs(approx[1] - 3.0 * exact)[5:-5]) / 3.0)

    ratio = worst_error(0.02) / worst_error(0.01)
    assert 3.5 < ratio < 4.5


def test_relax_profile_stationary_and_close_to_leading_order():
    config = fig4_config()
    reference = relax_profile(config)
    u_ref, v_ref = reference
    _, _, du, dv = _derivatives(reference, config, v_ref, _columns(config))
    assert max(np.max(np.abs(du)), np.max(np.abs(dv))) <= 1e-9
    u0, v0 = pulse_profile(FIG4, config.x)
    assert np.max(np.abs(u_ref - u0)) <= 3.0 * FIG4.eps
    assert np.max(np.abs(v_ref - v0)) <= 3.0 * FIG4.eps
    assert np.allclose(u_ref, u_ref[::-1]) and np.allclose(v_ref, v_ref[::-1])


def test_relax_profile_reports_its_newton_steps():
    # Fig. 4 at eps = 0.1: the leading-order profile needs Newton steps, and
    # the residual they reach is within the tolerance; run passes the
    # record on in its trace
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=0.1)
    config = SimConfig(model=PowerLawModel.from_params(params), params=params,
                       t_end=0.02)
    diagnostics = {}
    relax_profile(config, diagnostics=diagnostics)
    assert diagnostics["relax_steps"] >= 1
    assert 0.0 < diagnostics["relax_residual"] <= diagnostics["relax_tol"]
    trace = run(config)
    for key in ("relax_steps", "relax_residual", "relax_tol"):
        assert trace.diagnostics[key] == diagnostics[key]


def test_relaxation_stall_is_reported_as_such():
    # at eps = 0.002 (dx = 5e-4) the residual stalls at the rounding floor of
    # the discrete Laplacian, above the tolerance; every value is finite,
    # and the error says so instead of reporting a non-finite state
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=0.002)
    config = SimConfig(model=PowerLawModel.from_params(params), params=params,
                       t_end=0.001)
    diagnostics = {}
    with pytest.raises(RelaxationFailure) as failure:
        relax_profile(config, diagnostics)
    stall = failure.value
    assert isinstance(stall, NumericalBlowup) and stall.time == 0.0
    assert stall.residual > stall.tol == diagnostics["relax_tol"]
    assert stall.steps == diagnostics["relax_steps"] >= 1
    assert f"{stall.tol:.3g}" in str(stall) and "Newton steps" in str(stall)


def test_small_eps_runs_without_overflow_warnings():
    # at eps = 0.01 the sech^2 of the profile and of the perturbation
    # envelope overflow in the tails; the limit 0 is exact and no
    # RuntimeWarning may escape, here with the control and random branches
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=0.01, control_slope=-3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        config = SimConfig(model=PowerLawModel.from_params(params),
                           params=params, t_end=0.02,
                           perturbation_shape="random", seed=3)
        trace = run(config)
    assert trace.diagnostics["n_steps"] == 50
    assert np.all(np.isfinite(trace.deviation_norms))


def test_step_fixed_point_and_noninvasive_control():
    config = fig4_config(params=FIG4.with_control_slope(-3.0),
                         model=FIG4_MODEL)
    reference = relax_profile(config)
    context = _StepContext(config, reference[1])
    state = reference.copy()
    for _ in range(1000):
        state = step(state, context)
    assert deviation_norm(state - reference, config) <= 1e-10
    # noninvasiveness: the control term never leaves the roundoff floor
    assert np.max(np.abs(state[1] - reference[1])) <= 1e-12


def _stacked_solve(factors, rhs):
    # the solve step makes: both blocks' end rows halved, one dpttrs call
    n = rhs.shape[1]
    halved = rhs.copy()
    halved[:, ::n - 1] *= 0.5
    return dpttrs(*factors, halved.reshape(-1))[0].reshape(2, n)


def _fig4_context(eps):
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=eps)
    config = SimConfig(model=PowerLawModel.from_params(params), params=params,
                       t_end=1.0)
    return config, _StepContext(config, np.zeros(config.x.size))


@pytest.mark.parametrize("eps", [0.1, 0.02])
def test_step_context_factors_solve_their_matrices(eps):
    # each block of each stacked factored solve must invert the dense
    # a I - r Lap it stands for, zero-flux boundary entries included: I - dt
    # D Lap for the Euler start and three times I - 2/3 dt D Lap for SBDF2;
    # a swapped diagonal or a lost boundary entry would only show as a small
    # drift in the fitted rate.  The reference is a pivoted band LU of the
    # unsymmetrised tridiagonal, no dpttrf/dpttrs
    config, context = _fig4_context(eps)
    n = config.x.size
    dt, eps2 = config.dt, eps ** 2
    cases = [(context.start_factors, 1.0, dt), (context.factors, 3.0, 2.0 * dt)]
    rhs = np.random.default_rng(17).standard_normal((2, n))
    for factors, a, dt_scale in cases:
        got = _stacked_solve(factors, rhs)
        for k, diffusivity in enumerate((1.0, eps2)):
            r = dt_scale * diffusivity / config.dx ** 2
            # rows: superdiagonal (from column 1), diagonal, subdiagonal
            bands = np.array([np.full(n, -r), np.full(n, a + 2.0 * r), np.full(n, -r)])
            bands[0, 1] = bands[2, -2] = -2.0 * r
            expected = solve_banded((1, 1), bands, rhs[k])
            assert np.max(np.abs(got[k] - expected)) <= (
                1e-13 * np.max(np.abs(expected)))


@pytest.mark.parametrize("eps", [0.1, 0.02])
def test_stacked_solve_is_the_two_block_solves_bit_for_bit(eps):
    # the zero off-diagonal between the u and the v block decouples
    # dpttrf's and dpttrs's recurrences: the one stacked solve gives each
    # block the bits of its own factoring and solve
    config, context = _fig4_context(eps)
    n = config.x.size
    rhs = np.random.default_rng(5).standard_normal((2, n))
    r = config.dt * np.array([1.0, eps ** 2]) / config.dx ** 2
    for factors, a, r_blocks in ((context.start_factors, 1.0, r),
                                 (context.factors, 3.0, 2.0 * r)):
        d, e = factors
        assert e[n - 1] == 0.0
        got = _stacked_solve(factors, rhs)
        for k in range(2):
            # the block's own symmetrised matrix, factored alone
            diag = np.full(n, a + 2.0 * r_blocks[k])
            diag[::n - 1] *= 0.5
            alone = dpttrf(diag, np.full(n - 1, -r_blocks[k]))[:2]
            assert np.array_equal(alone[0], d[k * n:(k + 1) * n])
            assert np.array_equal(alone[1], e[k * n:(k + 1) * n - 1])
            halved = rhs[k].copy()
            halved[::n - 1] *= 0.5
            assert np.array_equal(got[k], dpttrs(*alone, halved)[0])


def test_step_history_only_continues_its_own_trajectory():
    config = fig4_config()
    reference = relax_profile(config)
    context = _StepContext(config, reference[1])
    first = step(reference + perturbation(config), context)
    second = step(first, context)
    euler = step(first, _StepContext(config, reference[1]))
    assert not np.array_equal(second[0], euler[0])
    # a state the context did not return last restarts with an Euler step
    restarted = step(first.copy(), context)
    assert np.array_equal(restarted[0], euler[0])
    assert np.array_equal(restarted[1], euler[1])


def test_step_is_the_documented_scheme():
    # one Euler start step and one SBDF2 step against the formulas of step's
    # docstring, solved densely with the unsymmetric zero-flux Laplacian:
    # pins the symmetrised factors and the stacked arithmetic
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=0.1, control_slope=-1.0)
    model = PowerLawModel.from_params(params)
    config = SimConfig(model=model, params=params, t_end=1.0)
    reference = relax_profile(config)
    v_ref = reference[1]
    # the perturbation vanishes at the ends; a ramp with nonzero end slope
    # makes the zero-flux rows move as much as the core
    ramp = (config.x / config.half_length) ** 2
    context = _StepContext(config, v_ref)
    states = [reference + perturbation(config) + np.array([[1e-2], [1e-3]]) * ramp]
    states.append(step(states[0], context))
    states.append(step(states[1], context))

    def explicit(u, v):
        fu = model.f(u)
        return (-u + fu ** 2 * model.t_o(u) * v ** 2 / (3.0 * params.eps),
                -v + fu * v ** 2 + params.control_slope * (v - v_ref))

    n = config.x.size
    rows = np.arange(n)
    lap = np.zeros((n, n))
    lap[rows, rows] = -2.0
    lap[rows[:-1], rows[1:]] = lap[rows[1:], rows[:-1]] = 1.0
    lap[0, 1] = lap[-1, -2] = 2.0
    lap /= config.dx ** 2
    dt = config.dt
    n0, n1 = explicit(*states[0]), explicit(*states[1])
    for k, diffusivity in enumerate((1.0, params.eps ** 2)):
        w0, w1, w2 = (state[k] for state in states)
        euler = np.linalg.solve(np.eye(n) - dt * diffusivity * lap,
                                w0 + dt * n0[k])
        sbdf2 = np.linalg.solve(
            np.eye(n) - 2.0 * dt / 3.0 * diffusivity * lap,
            (4.0 * w1 - w0) / 3.0 + 2.0 * dt / 3.0 * (2.0 * n1[k] - n0[k]))
        for got, expected in ((w1, euler), (w2, sbdf2)):
            assert np.max(np.abs(got - expected)) <= (
                1e-12 * np.max(np.abs(expected)))


def test_perturbation_shapes():
    config = fig4_config(eta=1e-3)
    du, dv = perturbation(config)
    assert np.max(np.abs(du)) == pytest.approx(1e-3)
    assert np.allclose(du, du[::-1]) and np.allclose(dv, dv[::-1])

    config_r = fig4_config(eta=1e-3, perturbation_shape="random", seed=5)
    du1, dv1 = perturbation(config_r)
    assert np.array_equal(perturbation(config_r), np.array((du1, dv1)))
    # tails are enveloped so the stiff v-reaction sees no far-field noise
    edge = config_r.x.size // 8
    assert np.max(np.abs(dv1[:edge])) < 1e-9


def test_deviation_norm_formula():
    config = fig4_config()
    n = config.x.size
    u = np.ones(n)
    zero = np.zeros(n)
    expected = np.sqrt(config.dx * n)
    assert deviation_norm(np.array((u, zero)), config) == pytest.approx(expected)
    assert deviation_norm(np.array((zero, u)), config) == pytest.approx(
        expected * np.sqrt(FIG4.eps))


def test_deviation_norm_of_a_huge_state():
    # squares of entries near 1e200 overflow; the norm does not
    config = fig4_config()
    n = config.x.size
    u, v = np.full(n, 3e200), np.full(n, -4e200)
    zero = np.zeros(n)
    expected = 1e200 * np.sqrt(config.dx * n * (9.0 + 16.0 * FIG4.eps))
    norm = deviation_norm(np.array((u, v)), config)
    assert np.isfinite(norm) and norm == pytest.approx(expected, rel=1e-14)
    assert deviation_norm(np.array((u, zero)), config) == pytest.approx(
        3e200 * np.sqrt(config.dx * n), rel=1e-14)
    # and stays inf where an entry is
    u[7] = np.inf
    assert deviation_norm(np.array((u, v)), config) == np.inf


class TestFitRate:
    def test_clean_exponential(self):
        t = np.linspace(0.0, 5.0, 400)
        rate, r2 = _fit_rate(t, 0.7 * t - 3.0)
        assert rate == pytest.approx(0.7, rel=1e-10)
        assert r2 > 0.999

    def test_oscillating_envelope(self):
        # a dominant complex pair makes log-norm oscillate; the fitted rate
        # must track the envelope, not a misleading local window
        t = np.linspace(0.0, 12.0, 1500)
        rate, r2 = _fit_rate(t, 0.5 * t + 0.3 * np.sin(10.0 * t) - 2.0)
        assert rate == pytest.approx(0.5, abs=0.02)
        assert r2 > 0.99


def _polyfit_window_fit(times, lognorms, min_width=8, frac=0.4):
    # reference: every window fitted on its own by np.polyfit
    n = len(times)
    width = max(min_width, int(frac * n))
    best = (0.0, -1.0)
    for start in range(0, n - width + 1, max(1, (n - width) // 60)):
        t = times[start:start + width]
        y = lognorms[start:start + width]
        slope, intercept = np.polyfit(t, y, 1)
        r2 = 1.0 - (np.sum((y - slope * t - intercept) ** 2)
                    / np.sum((y - np.mean(y)) ** 2))
        if r2 > best[1]:
            best = (slope, r2)
    return best


@pytest.mark.parametrize("n, min_width, frac", [(801, 8, 0.4), (120, 8, 0.4),
                                                (23, 5, 0.6)])
def test_window_fit_matches_polyfit_per_window(n, min_width, frac):
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 4.0, n)
    y = (1.26 * t + 0.3 * np.sin(5.4 * t) - 9.0
         + 0.01 * rng.standard_normal(n))
    got = _best_window_fit(t, y, min_width, frac)
    expected = _polyfit_window_fit(t, y, min_width, frac)
    assert got[0] == pytest.approx(expected[0], rel=1e-10)
    assert got[1] == pytest.approx(expected[1], abs=1e-10)


def test_negative_eta_runs_to_the_end():
    # a negative amplitude flips the perturbation; the growth limit is on
    # |eta|, so the run is not over at its first sample
    config = fig4_config(t_end=0.02, eta=-1e-4)
    trace = run(config)
    assert trace.early_exit is None
    assert trace.diagnostics["n_steps"] == round(0.02 / config.dt)


def test_decay_below_the_floor_exits_stable():
    # Fig. 4 under gain -3, past its minimal gain: the deviation decays from
    # 1e-11 and the run ends at its first sample below 1e-12
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=0.1, control_slope=-3.0)
    config = SimConfig(model=PowerLawModel.from_params(params), params=params,
                       t_end=30.0, eta=1e-11)
    trace = run(config)
    assert trace.early_exit == "stable"
    assert trace.deviation_norms[-1] < 1e-12 <= trace.deviation_norms[-2]
    assert trace.diagnostics["n_steps"] < round(30.0 / config.dt)
    assert trace.fitted_rate < 0.0


def test_deviation_below_the_floor_is_refused():
    # Fig. 4 at zero gain is unstable, but a deviation that starts below the
    # decay floor 1e-12 would end the run as stable at its first step
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0, eps=0.1)
    config = SimConfig(model=PowerLawModel.from_params(params), params=params,
                       t_end=1.0, eta=1e-13)
    with pytest.raises(ValueError, match="eta = 1e-13 starts the deviation below"):
        run(config)


def test_run_structure_and_determinism():
    config = fig4_config(t_end=0.02, perturbation_shape="random", seed=3)
    trace1 = run(config)
    trace2 = run(config)
    assert np.array_equal(trace1.times, trace2.times)
    assert np.array_equal(trace1.deviation_norms, trace2.deviation_norms)
    assert trace1.fitted_rate == trace2.fitted_rate

    assert np.all(np.diff(trace1.times) > 0)
    assert np.all(trace1.deviation_norms > 0)
    assert trace1.deviation_norms[0] == pytest.approx(
        deviation_norm(perturbation(config), config))
    for key in ("n_steps", "dt", "dx", "grid_points"):
        assert key in trace1.diagnostics


def test_run_pins_benchmark_point_rate():
    # the Fig. 4 point at eps = 0.1 that the benchmark integrates; a PDE
    # refactor that moves this number changes the time-domain answer
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=0.1)
    trace = run(SimConfig(model=PowerLawModel.from_params(params),
                          params=params, t_end=4.0))
    assert trace.diagnostics["n_steps"] == 1000
    assert trace.fitted_rate == pytest.approx(1.2643815988730878, rel=1e-10)


def test_second_order_in_time_and_default_dt_accuracy():
    # at a fixed time, halving dt quarters the change in the state for a
    # second-order scheme and only halves it for IMEX Euler
    params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0,
                         eps=0.1)
    model = PowerLawModel.from_params(params)
    t_fixed = 0.4
    default_dt = SimConfig(model=model, params=params, t_end=t_fixed).dt
    states = []
    for k in range(3):
        config = SimConfig(model=model, params=params, t_end=t_fixed,
                           dt=default_dt / 2 ** k)
        reference = relax_profile(config)
        state = reference + perturbation(config)
        context = _StepContext(config, reference[1])
        for _ in range(round(t_fixed / config.dt)):
            state = step(state, context)
        states.append(state)
    diffs = [deviation_norm(a - b, config) for a, b in zip(states, states[1:])]
    assert np.log2(diffs[0] / diffs[1]) >= 1.8

    coarse = run(SimConfig(model=model, params=params, t_end=4.0))
    fine = run(SimConfig(model=model, params=params, t_end=4.0,
                         dt=default_dt / 8))
    assert coarse.fit_r2 >= 0.99 and fine.fit_r2 >= 0.99
    assert abs(coarse.fitted_rate - fine.fitted_rate) <= (
        0.005 * abs(fine.fitted_rate))


@pytest.mark.skipif("PULSECTRL_SLOW" not in os.environ,
                    reason="multi-minute convergence study; set PULSECTRL_SLOW=1")
def test_scheme_convergence_rates():
    base = run(fig4_config(t_end=6.0)).fitted_rate
    half_dt = run(fig4_config(t_end=6.0, dt=0.005 ** 2 / 8.0)).fitted_rate
    assert abs(half_dt - base) <= 0.02 * abs(base)
    half_dx = run(fig4_config(t_end=6.0, dx=0.0025,
                              dt=0.005 ** 2 / 4.0)).fitted_rate
    assert abs(half_dx - base) <= 0.05 * abs(base)
