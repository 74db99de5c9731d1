"""Direct time integration of the controlled two-component system.

Integrates

    u_t = u_xx - u + (1/eps) f(u)^2 T_o(u) v^2 / 3,
    v_t = eps^2 v_xx - v + f(u) v^2 + l'(0) (v - v_ref(x)),

on [-L, L] with zero-flux boundaries, measuring the deviation of (u, v)
from the stationary pulse.  The growth or decay rate of that deviation is
the time-domain counterpart of max Re(lambda) from the spectral module.

The leading-order pulse profile is only O(eps)-accurate, which would mask
perturbation-level dynamics; before perturbing, the profile is refined to a
discrete stationary state by Newton iteration on the half domain (evenness
pins the translation mode, keeping the Jacobian invertible).  The control
reference v_ref is that refined profile, so the control term vanishes
identically on the unperturbed pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import NumericalBlowup
from .model import ModelParams, PowerLawModel, pulse_profile

RELAX_TOL = 1e-12
_RELAX_STEPS = 40


@dataclass
class SimConfig:
    """Grid, time window, and perturbation for one simulation run."""

    model: PowerLawModel
    params: ModelParams
    t_end: float
    half_length: float = 10.0
    dx: float | None = None
    dt: float | None = None
    eta: float = 1e-4
    perturbation_shape: str = "even_bump"  # or "random"
    seed: int = 0

    def __post_init__(self):
        if self.dx is None:
            self.dx = self.params.eps / 4.0
        if self.dt is None:
            # diffusion is implicit, so dt need only resolve the O(eps)
            # reaction time scale; with second-order SBDF2, eps/25 moves the
            # Fig. 4 fitted rate by 0.07% against dt/8 (eps = 0.1, t_end = 4)
            self.dt = self.params.eps / 25.0
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0 < self.dx <= self.params.eps / 4.0 + 1e-15:
            raise ValueError("dx must satisfy dx <= eps/4")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        # run takes ceil(t_end / dt) steps, none where the quotient underflows
        if not self.t_end / self.dt > 0:
            raise ValueError("t_end must span at least one step of dt")
        if not (math.isfinite(self.eta) and self.eta != 0):
            raise ValueError("eta must be finite and nonzero")
        if self.perturbation_shape not in ("even_bump", "random"):
            raise ValueError("perturbation_shape must be even_bump or random")
        induced = self.model.induced_params(self.params.eps,
                                            self.params.control_slope)
        for name in ("u_star", "f_val", "f_der", "to_log_der"):
            a, b = getattr(induced, name), getattr(self.params, name)
            if abs(a - b) > 1e-10 * max(1.0, abs(b)):
                raise ValueError(f"model and params disagree on {name}")
        u_p, v_p = pulse_profile(self.params, self.half_length)
        if not v_p < 1e-12:
            raise ValueError("half_length too small: v_p(L) >= 1e-12")
        if not u_p < 1e-4 * self.params.u_star:
            raise ValueError("half_length too small: u_p(L) >= 1e-4 u*")

    @property
    def x(self) -> np.ndarray:
        n_half = int(round(self.half_length / self.dx))
        return self.dx * np.arange(-n_half, n_half + 1)


@dataclass
class SimTrace:
    """Deviation-norm time series with a fitted exponential rate."""

    times: np.ndarray
    deviation_norms: np.ndarray
    fitted_rate: float
    fit_r2: float
    early_exit: str | None = None
    diagnostics: dict = field(default_factory=dict)


def _neumann_laplacian(w, dx):
    """Zero-flux second difference of ``w`` along its last axis, over dx**2.

    At each end the mirror ghost point w[-1] = w[1] doubles the one
    difference: 2 (w[1] - w[0]) / dx**2.
    """
    flux = np.subtract(w[..., 1:], w[..., :-1])
    out = np.empty_like(w)
    np.subtract(flux[..., 1:], flux[..., :-1], out=out[..., 1:-1])
    out[..., 0] = 2.0 * flux[..., 0]
    out[..., -1] = -2.0 * flux[..., -1]
    out /= dx ** 2
    return out


def _derivatives(u, v, config: SimConfig, v_ref):
    """Explicit part (reaction plus control) and full time derivative.

    Returns one (4, n) array whose rows are du, dv, u_t and v_t: rows 0-1 the
    explicit part, rows 2-3 that plus the zero-flux diffusion of the stacked
    state.  With v_ref = v the control term is exactly zero; at zero gain it
    is skipped.
    """
    m = config.model
    params = config.params
    rates = np.empty((4, u.size))
    du, dv = rates[0], rates[1]
    fu = m.f(u)
    np.multiply(fu, v * v, out=dv)
    np.multiply(dv, fu, out=du)
    du *= m.t_o(u)
    du /= 3.0 * params.eps
    du -= u
    dv -= v
    if params.control_slope != 0.0:
        dv += params.control_slope * (v - v_ref)
    # rows 2-3 hold the stacked state until its time derivative replaces it
    rates[2] = u
    rates[3] = v
    diffusion = _neumann_laplacian(rates[2:], config.dx)
    diffusion[1] *= params.eps ** 2
    np.add(rates[:2], diffusion, out=rates[2:])
    return rates


def _factor(n, dx, dt, diffusivity):
    """LDL^T factors of I - dt*diffusivity*Laplacian, as ``dpttrs`` takes them.

    The zero-flux rows 0 and n-1 carry -2r on their one off-diagonal.  Halved,
    they carry -r like every other row, so the matrix is symmetric; it stays
    strictly diagonally dominant with a positive diagonal, so it is positive
    definite.
    """
    r = dt * diffusivity / dx ** 2
    d = np.full(n, 1.0 + 2.0 * r)
    d[::n - 1] *= 0.5
    d, e, info = dpttrf(d, np.full(n - 1, -r))
    if info != 0:
        raise NumericalBlowup()
    return d, e


def _solve(factors, rhs):
    """Solve (I - r Lap) x = rhs with factors from ``_factor``.

    Halves both ends of ``rhs``, as ``_factor`` halved the end rows; x may
    overwrite ``rhs``.
    """
    rhs[0] *= 0.5
    rhs[-1] *= 0.5
    return dpttrs(*factors, rhs, overwrite_b=1)[0]


class _StepContext:
    """Config, implicit-diffusion factors and step history of one trajectory.

    The implicit-diffusion matrices depend only on the grid and the step
    size, so each is factored once, here, and every step reuses it.
    """

    def __init__(self, config: SimConfig, v_ref):
        self.config = config
        n = config.x.size
        eps2 = config.params.eps ** 2
        dt = config.dt
        self.start_factors = (_factor(n, config.dx, dt, 1.0),
                              _factor(n, config.dx, dt, eps2))
        self.factors = (_factor(n, config.dx, 2.0 * dt / 3.0, 1.0),
                        _factor(n, config.dx, 2.0 * dt / 3.0, eps2))
        self.v_ref = v_ref
        # (u_out, v_out, state_out, state_in, explicit_in) of the last step,
        # the states stacked (2, n) with u_out and v_out the rows of state_out
        self.history = None


def step(state, context: _StepContext):
    """One SBDF2 step: implicit diffusion, extrapolated explicit reaction.

    The step size is ``context.config.dt``.  For each component w with
    diffusivity D and explicit part N (reaction plus control), solves

        (I - 2/3 dt D Lap) w' = (4 w - w_old)/3 + 2/3 dt (2 N - N_old)

    (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995).  The previous
    state and reaction come from ``context``; they are used only when
    ``state`` is the pair this context returned last, so a fresh context, or
    any other state, takes one IMEX Euler step instead,

        (I - dt D Lap) w' = w + dt N,

    which starts the trajectory.  u and v are worked on as the rows of one
    (2, n) array, and the returned pair are the rows of the new one.  Raises
    ``NumericalBlowup`` unless the new state is finite.
    """
    u, v = state
    config = context.config
    dt = config.dt
    history = context.history
    continuing = history is not None and history[0] is u and history[1] is v
    w = history[2] if continuing else np.array((u, v))
    rates = _derivatives(u, v, config, context.v_ref)
    # solve for the increment w' - w, whose right-hand side carries the full
    # time derivative w_t = D Lap w + N: the tridiagonal solve then rounds
    # relative to the step, so a stationary state stays fixed (solving for
    # w' directly lets rounding move the relaxed pulse by a few 1e-12 over
    # t ~ 1)
    explicit, inc = rates[:2], rates[2:]
    if continuing:
        factors = context.factors
        w_old, explicit_old = history[3:]
        inc += explicit
        inc -= explicit_old
        inc *= 2.0 * dt / 3.0
        inc += (w - w_old) / 3.0
    else:
        factors = context.start_factors
        inc *= dt
    for k, lu in enumerate(factors):
        inc[k] = _solve(lu, inc[k])
    inc += w
    # no off-diagonal of the factors is zero, so a non-finite explicit part
    # spreads through the whole solution: this one check also catches it
    if not np.isfinite(inc).all():
        raise NumericalBlowup()
    u_new, v_new = inc
    context.history = (u_new, v_new, inc, w, explicit)
    return u_new, v_new


def _half_jacobian_bands(u, v, config: SimConfig):
    """Banded Jacobian of the half-grid residual, state interleaved (u,v)."""
    eps = config.params.eps
    m = config.model
    dx2 = config.dx ** 2
    n = u.size
    fu = m.f(u)
    fpu = m.f_prime(u)
    tou = m.t_o(u)
    topu = m.t_o_prime(u)
    # d(ru)/du includes the diffusion diagonal; neighbors couple at offset 2
    c_uu = -2.0 / dx2 - 1.0 + (2.0 * fu * fpu * tou + fu ** 2 * topu) * v ** 2 / (3.0 * eps)
    c_uv = 2.0 * fu ** 2 * tou * v / (3.0 * eps)
    c_vu = fpu * v ** 2
    c_vv = -2.0 * eps ** 2 / dx2 - 1.0 + 2.0 * fu * v

    size = 2 * n
    ab = np.zeros((5, size))  # offsets +2, +1, 0, -1, -2
    ab[2, 0::2] = c_uu
    ab[2, 1::2] = c_vv
    # du/dv coupling sits one column right of each u-row
    ab[1, 1::2] = c_uv
    # dv/du coupling sits one column left of each v-row
    ab[3, 0::2] = c_vu
    # diffusion neighbors: superdiagonal +2 holds J[i, i+2]
    off_u = np.full(n - 1, 1.0 / dx2)
    off_v = np.full(n - 1, eps ** 2 / dx2)
    up_u = off_u.copy()
    up_u[0] = 2.0 / dx2          # symmetry row at x = 0
    lo_u = off_u.copy()
    lo_u[-1] = 2.0 / dx2         # zero-flux row at x = L
    up_v = off_v.copy()
    up_v[0] = 2.0 * eps ** 2 / dx2
    lo_v = off_v.copy()
    lo_v[-1] = 2.0 * eps ** 2 / dx2
    ab[0, 2::2] = up_u
    ab[0, 3::2] = up_v
    ab[4, 0:-2:2] = lo_u
    ab[4, 1:-1:2] = lo_v
    return ab


def relax_profile(config: SimConfig):
    """Newton-refine the leading-order pulse to a discrete stationary state.

    Works on the half domain so the translation (odd) null mode cannot enter;
    the result is mirrored onto the full grid.  Raises if the residual cannot
    be driven to RELAX_TOL within ``_RELAX_STEPS`` Newton steps.
    """
    x = config.x
    n_half = (x.size - 1) // 2
    x_half = x[n_half:]
    u, v = pulse_profile(config.params, x_half)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)

    def res_norm(uu, vv):
        # v is its own control reference: the residual is taken at zero
        # control, on the half grid [0, L] with symmetry at x = 0
        _, _, ru, rv = _derivatives(uu, vv, config, vv)
        return max(np.max(np.abs(ru)), np.max(np.abs(rv))), ru, rv

    # absolute 1e-12 is below the roundoff floor of the O(1/eps) reaction
    # term, so the tolerance is taken relative to its magnitude
    m = config.model
    fu0 = float(m.f(config.params.u_star))
    v0 = 1.5 / config.params.f_val
    reaction_scale = max(1.0, fu0 ** 2 * float(m.t_o(config.params.u_star))
                         * v0 ** 2 / (3.0 * config.params.eps))
    tol = RELAX_TOL * reaction_scale

    norm, ru, rv = res_norm(u, v)
    for _ in range(_RELAX_STEPS):
        if norm <= tol:
            break
        ab = _half_jacobian_bands(u, v, config)
        rhs_vec = np.empty(2 * u.size)
        rhs_vec[0::2] = ru
        rhs_vec[1::2] = rv
        delta = solve_banded((2, 2), ab, rhs_vec)
        du, dv = delta[0::2], delta[1::2]
        scale = 1.0
        for _ in range(30):
            u_try = u - scale * du
            v_try = v - scale * dv
            if np.all(u_try > 0):
                norm_try, ru_try, rv_try = res_norm(u_try, v_try)
                if norm_try < norm:
                    u, v, norm, ru, rv = u_try, v_try, norm_try, ru_try, rv_try
                    break
            scale *= 0.5
        else:
            break
    if norm > tol:
        raise NumericalBlowup(time=0.0)
    u_full = np.concatenate([u[:0:-1], u])
    v_full = np.concatenate([v[:0:-1], v])
    return u_full, v_full


def perturbation(config: SimConfig):
    """Initial deviation (du, dv) of amplitude eta.

    The v-part is confined to the pulse core by a sech^2 envelope: for
    gamma < 0 the reaction f(u) v^2 grows like u^gamma in the tails, so
    unenveloped v-noise there would inject spurious stiffness.
    """
    x = config.x
    eps = config.params.eps
    core = 1.0 / np.cosh(x / (2.0 * eps)) ** 2
    if config.perturbation_shape == "even_bump":
        du = config.eta * np.exp(-x ** 2)
        dv = config.eta * core
    else:
        rng = np.random.default_rng(config.seed)
        du = config.eta * rng.standard_normal(x.size) * np.exp(-np.abs(x))
        dv = config.eta * rng.standard_normal(x.size) * core
    return du, dv


def deviation_norm(u, v, u_ref, v_ref, config: SimConfig) -> float:
    """Discrete L2 norm of the deviation; v weighted by sqrt(eps)."""
    du = u - u_ref
    dv = v - v_ref
    return math.sqrt(config.dx * (du @ du + config.params.eps * (dv @ dv)))


def _best_window_fit(times, lognorms, min_width=8, frac=0.4):
    """Least-squares slope and r^2 of the most linear window of samples.

    Windows of ``width`` samples start every ``stride`` samples; the first
    with the largest r^2 wins.  Every window's sums are differences of
    prefix sums of the centred data, so all windows are fitted in one pass.
    """
    n = len(times)
    width = max(min_width, int(frac * n))
    stride = max(1, (n - width) // 60)
    t = times - np.mean(times)
    y = lognorms - np.mean(lognorms)
    prefix = np.zeros((5, n + 1))
    np.cumsum((t, y, t * t, t * y, y * y), axis=1, out=prefix[:, 1:])
    starts = np.arange(0, n - width + 1, stride)
    s_t, s_y, s_tt, s_ty, s_yy = prefix[:, starts + width] - prefix[:, starts]
    # centred second moments of each window
    stt = s_tt - s_t * s_t / width
    sty = s_ty - s_t * s_y / width
    syy = s_yy - s_y * s_y / width
    r2 = np.divide(sty * sty, stt * syy, out=np.zeros_like(syy),
                   where=syy > 0)
    best = int(np.argmax(r2))
    return float(sty[best] / stt[best]), float(r2[best])


def _fit_rate(times, lognorms):
    """Slope of log-deviation versus time on its most linear stretch.

    A dominant complex eigenvalue pair makes the norm oscillate under the
    exponential envelope; when the direct fit is poor, the envelope rate is
    recovered from the sequence of local maxima instead.
    """
    n = len(times)
    if n < 8:
        return 0.0, 0.0
    best = _best_window_fit(times, lognorms)
    if best[1] >= 0.99:
        return best
    peaks = [i for i in range(1, n - 1)
             if lognorms[i] > lognorms[i - 1] and lognorms[i] >= lognorms[i + 1]]
    if len(peaks) >= 5:
        t_p = times[peaks]
        y_p = lognorms[peaks]
        cand = _best_window_fit(t_p, y_p, min_width=5, frac=0.6)
        if cand[1] > best[1]:
            best = cand
    return best


def run(config: SimConfig) -> SimTrace:
    """Relax, perturb, integrate, and fit the deviation growth rate.

    The deviation is sampled after every step.  The run exits early once it
    exceeds 1e6 * |eta| (growth has left the linear regime) or falls below
    1e-12 (decayed to the relaxation floor); a start below that raises.
    """
    u_ref, v_ref = relax_profile(config)
    du0, dv0 = perturbation(config)
    u = u_ref + du0
    v = v_ref + dv0
    context = _StepContext(config, v_ref)

    dt = config.dt
    n_steps = int(np.ceil(config.t_end / dt))
    grow_limit = 1e6 * abs(config.eta)
    times = [0.0]
    norms = [deviation_norm(u, v, u_ref, v_ref, config)]
    if norms[0] < 1e-12:
        raise ValueError(f"eta = {config.eta:g} starts the deviation below the stable exit 1e-12")
    early_exit = None
    t = 0.0
    # a blow-up overflows, divides by zero or goes NaN inside a step before
    # step's finiteness check turns it into NumericalBlowup; numpy need not
    # warn on the way
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            try:
                u, v = step((u, v), context)
            except NumericalBlowup:
                raise NumericalBlowup(time=t)
            t = k * dt
            norm = deviation_norm(u, v, u_ref, v_ref, config)
            times.append(t)
            norms.append(norm)
            if norm > grow_limit:
                early_exit = "unstable"
                break
            if norm < 1e-12:
                early_exit = "stable"
                break

    times = np.array(times)
    norms = np.array(norms)
    positive = norms > 0
    rate, r2 = _fit_rate(times[positive], np.log(norms[positive]))
    return SimTrace(
        times=times,
        deviation_norms=norms,
        fitted_rate=rate,
        fit_r2=r2,
        early_exit=early_exit,
        diagnostics={
            "n_steps": int(k),
            "dt": dt,
            "dx": config.dx,
            "grid_points": int(config.x.size),
        },
    )
