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

from .errors import NumericalBlowup, RelaxationFailure
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


def _neumann_laplacian(w, scale):
    """Zero-flux second difference of the rows of the (2, n) ``w``, times ``scale``.

    The rows are differenced as one flat array.  At its rows 0, n-1, n and
    2n-1, the ends of u and v, the mirror ghost w[-1] = w[1] doubles the one
    difference, 2 (w[1] - w[0]), and overwrites those taken across the junction.
    """
    n = w.shape[1]
    flat = w.reshape(-1)
    flux = flat[1:] - flat[:-1]
    out = np.empty_like(w)
    lap = out.reshape(-1)
    np.subtract(flux[1:], flux[:-1], out=lap[1:-1])
    lap[0], lap[n] = 2.0 * flux[0], 2.0 * flux[n]
    lap[n - 1], lap[-1] = -2.0 * flux[n - 2], -2.0 * flux[-1]
    out *= scale
    return out


def _columns(config: SimConfig):
    """Columns (rows u, v) of the exponents and scales of the reaction
    powers f^2 T_o/(3 eps) and f, and of the diffusivities over dx**2."""
    (p_u, c_u), (p_v, c_v) = config.model.reaction_powers()
    eps = config.params.eps
    return (np.array([[p_u], [p_v]]),
            np.array([[c_u / (3.0 * eps)], [c_v]]),
            np.array([[1.0], [eps ** 2]]) / config.dx ** 2)


def _derivatives(state, config: SimConfig, v_ref, columns):
    """Explicit part (reaction plus control) and full time derivative.

    ``state`` stacks (u, v); ``columns`` is ``_columns(config)``, or those
    columns repeated along the grid.  Returns one (4, n) array whose rows are
    du, dv, u_t and v_t: rows 0-1 the explicit part, one power of u times
    scale and v^2 minus the state, rows 2-3 that plus the zero-flux diffusion
    of the state.  With v_ref = v the control term is exactly zero; at zero
    gain it is skipped.
    """
    exponents, scales, diffusion = columns
    # rows by index: unpacking an array iterates it, which costs more
    u, v = state[0], state[1]
    rates = np.empty((4, u.size))
    explicit = rates[:2]
    np.power(u, exponents, out=explicit)
    explicit *= scales
    explicit *= v * v
    explicit -= state
    gain = config.params.control_slope
    if gain != 0.0:
        explicit[1] += gain * (v - v_ref)
    np.add(explicit, _neumann_laplacian(state, diffusion), out=rates[2:])
    return rates


def _factors(a, r, n):
    """Block-diagonal LDL^T factors of a I - r_k Lap, blocks u and v.

    ``r`` holds each block's dt*diffusivity/dx**2.  A block's zero-flux rows
    0 and n-1 carry -2r on their one off-diagonal; halved, they carry -r like
    the rest, so the block is symmetric positive definite.  The off-diagonal
    between the blocks is zero, so each block gets the bits of its own solve.
    """
    d = np.repeat(a + 2.0 * r, n)
    d.reshape(2, n)[:, ::n - 1] *= 0.5
    e = np.repeat(-r, n)[:-1]
    e[n - 1] = 0.0
    d, e, info = dpttrf(d, e)
    if info != 0:
        raise NumericalBlowup()
    return d, e


class _StepContext:
    """Config, implicit-diffusion factors and step history of one trajectory.

    The implicit-diffusion matrices depend only on the grid and the step
    size, so each is factored once, here, and every step reuses it:
    ``start_factors`` of I - dt D Lap for the Euler start, ``factors`` of
    3 I - 2 dt D Lap for SBDF2.  A right-hand side times ``halves`` has its
    four end rows halved, as the factored matrices have.
    """

    def __init__(self, config: SimConfig, v_ref):
        self.config = config
        n = config.x.size
        # scales and diffusivities repeated along the grid, so no step
        # broadcasts them; np.power is fastest with one exponent per row
        exponents, *per_row = _columns(config)
        self.columns = (exponents, *(np.repeat(c, n, axis=1) for c in per_row))
        self.halves = np.ones((2, n))
        self.halves[:, ::n - 1] = 0.5
        r = config.dt * np.array([1.0, config.params.eps ** 2]) / config.dx ** 2
        self.start_factors = _factors(1.0, r, n)
        self.factors = _factors(3.0, 2.0 * r, n)
        self.v_ref = v_ref
        # (u_out, v_out, state_out, increment, explicit_in) of the last step,
        # each (2, n) but u_out and v_out, the rows of state_out
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
    (2, n) array, solved by one block-diagonal ``dpttrs`` call, and the
    returned pair are the rows of the new one.  Raises ``NumericalBlowup``
    unless the new state is finite.
    """
    u, v = state
    dt = context.config.dt
    history = context.history
    continuing = history is not None and history[0] is u and history[1] is v
    w = history[2] if continuing else np.array((u, v))
    rates = _derivatives(w, context.config, context.v_ref, context.columns)
    # solve for the increment w' - w, whose right-hand side carries the full
    # time derivative w_t = D Lap w + N: the tridiagonal solve then rounds
    # relative to the step, so a stationary state stays fixed (solving for
    # w' directly lets rounding move the relaxed pulse by a few 1e-12 over
    # t ~ 1).  SBDF2 solves 3 times its equation, right-hand side
    # 2 dt (w_t + N - N_old) + (w - w_old), w - w_old the last increment.
    explicit, inc = rates[:2], rates[2:]
    if continuing:
        factors = context.factors
        inc += explicit
        inc -= history[4]
        inc *= 2.0 * dt
        inc += history[3]
        inc *= context.halves
    else:
        factors = context.start_factors
        inc *= dt * context.halves
    inc = dpttrs(*factors, inc.reshape(-1), overwrite_b=1)[0].reshape(w.shape)
    new = inc + w
    # the one finiteness guard: the dot with the old state is finite exactly
    # when every new entry is (inf * 0 is NaN), short of overflow near 1e308;
    # a non-finite old state or explicit part makes a non-finite new block
    if not math.isfinite(np.vdot(new, w)):
        raise NumericalBlowup()
    u_new, v_new = new[0], new[1]
    context.history = (u_new, v_new, new, inc, explicit)
    return u_new, v_new


def _half_jacobian_bands(state, config: SimConfig, columns):
    """Banded Jacobian of the half-grid residual, state interleaved (u,v).

    The reaction derivatives come from the same powers as the residual:
    d/du of c u^p is p (c u^p)/u, and d/dv of P v^2 is 2 P v.
    """
    exponents, scales, diffusion = columns
    u, v = state
    powers = np.power(u, exponents)
    powers *= scales
    by_u = powers * exponents / u * (v * v)   # rows d(ru)/du, d(rv)/du
    by_v = 2.0 * powers * v                   # rows d(ru)/dv, d(rv)/dv
    ab = np.zeros((5, 2 * u.size))  # offsets +2, +1, 0, -1, -2
    # d(ru)/du and d(rv)/dv include the diffusion diagonal
    ab[2, 0::2] = by_u[0] - 2.0 * diffusion[0] - 1.0
    ab[2, 1::2] = by_v[1] - 2.0 * diffusion[1] - 1.0
    # d(ru)/dv sits one column right of each u-row, d(rv)/du one left of each v-row
    ab[1, 1::2] = by_v[0]
    ab[3, 0::2] = by_u[1]
    # diffusion neighbours at offsets +-2, doubled in the symmetry rows at
    # x = 0 (superdiagonal) and the zero-flux rows at x = L (subdiagonal)
    ab[0, 2:].reshape(-1, 2)[:] = diffusion.T
    ab[0, 2:4] *= 2.0
    ab[4, :-2].reshape(-1, 2)[:] = diffusion.T
    ab[4, -4:-2] *= 2.0
    return ab


def relax_profile(config: SimConfig, diagnostics: dict | None = None):
    """Newton-refine the leading-order pulse to a discrete stationary state.

    Works on the half domain so the translation (odd) null mode cannot enter;
    the result is mirrored onto the full grid.  Raises ``RelaxationFailure``
    unless ``_RELAX_STEPS`` Newton steps drive the residual to RELAX_TOL times
    the reaction scale.  Records ``relax_steps``, ``relax_residual`` and
    ``relax_tol`` in ``diagnostics``.
    """
    x = config.x
    n_half = (x.size - 1) // 2
    state = np.array(pulse_profile(config.params, x[n_half:]))
    columns = _columns(config)

    def residual(trial):
        # v is its own control reference: the residual is taken at zero
        # control, on the half grid [0, L] with symmetry at x = 0
        res = _derivatives(trial, config, trial[1], columns)[2:]
        return np.max(np.abs(res)), res

    # absolute 1e-12 is below the roundoff floor of the O(1/eps) reaction
    # term, so the tolerance is taken relative to its magnitude
    m = config.model
    fu0 = float(m.f(config.params.u_star))
    v0 = 1.5 / config.params.f_val
    reaction_scale = max(1.0, fu0 ** 2 * float(m.t_o(config.params.u_star))
                         * v0 ** 2 / (3.0 * config.params.eps))
    tol = RELAX_TOL * reaction_scale

    norm, res = residual(state)
    steps = 0
    while norm > tol and steps < _RELAX_STEPS:
        ab = _half_jacobian_bands(state, config, columns)
        # the interleaved (u, v) solution, back as rows u and v
        delta = solve_banded((2, 2), ab, res.T.reshape(-1)).reshape(-1, 2).T
        scale = 1.0
        for _ in range(30):
            trial = state - scale * delta
            if np.all(trial[0] > 0):
                norm_try, res_try = residual(trial)
                if norm_try < norm:
                    state, norm, res = trial, norm_try, res_try
                    break
            scale *= 0.5
        else:
            break
        steps += 1
    norm = float(norm)
    if diagnostics is not None:
        diagnostics.update(relax_steps=steps, relax_residual=norm, relax_tol=tol)
    if norm > tol:
        raise RelaxationFailure(norm, tol, steps)
    u, v = state
    return np.concatenate([u[:0:-1], u]), np.concatenate([v[:0:-1], v])


def perturbation(config: SimConfig):
    """Initial deviation (du, dv) of amplitude eta.

    The v-part is confined to the pulse core by a sech^2 envelope: for
    gamma < 0 the reaction f(u) v^2 grows like u^gamma in the tails, so
    unenveloped v-noise there would inject spurious stiffness.
    """
    x = config.x
    eps = config.params.eps
    # far out, cosh or its square overflows to inf; the envelope 0 is exact
    with np.errstate(over="ignore"):
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
    with np.errstate(over="ignore"):
        return _weighted_norm((u - u_ref, v - v_ref), config)


def _weighted_norm(deviation, config: SimConfig) -> float:
    """``deviation_norm`` of the stacked deviation (du, dv).  Its squares
    overflow for entries past about 1e154, and numpy warns where the caller
    does not ignore overflow; a norm that is not finite is taken again of
    the deviation over its largest entry, which no square overflows."""
    du, dv = deviation[0], deviation[1]
    norm = math.sqrt(config.dx * (du @ du + config.params.eps * (dv @ dv)))
    if math.isfinite(norm):
        return norm
    scale = float(max(np.abs(du).max(), np.abs(dv).max()))
    if not 0.0 < scale < math.inf:
        return norm
    du, dv = du / scale, dv / scale
    return scale * math.sqrt(config.dx * (du @ du + config.params.eps * (dv @ dv)))


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
    diagnostics = {}
    u_ref, v_ref = relax_profile(config, diagnostics)
    du0, dv0 = perturbation(config)
    u = u_ref + du0
    v = v_ref + dv0
    context = _StepContext(config, v_ref)
    reference = np.array((u_ref, v_ref))

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
            # u and v are the rows of the stacked new state
            norm = _weighted_norm(context.history[2] - reference, config)
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
            **diagnostics,
        },
    )
