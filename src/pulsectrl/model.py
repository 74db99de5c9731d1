"""Toy-model data: pulse profile and the (alpha, beta) reduction.

The two-component system is

    u_t = u_xx - u + (1/eps) f(u)^2 T_o(u) v^2 / 3,
    v_t = eps^2 v_xx - v + f(u) v^2 + l(v - v_p(x)),

with proportional control l(s) = l'(0) * s.  All spectral formulas depend on the
model functions only through their values at the pulse amplitude u*, which is what
``ModelParams`` stores.  ``PowerLawModel`` supplies full functions f, T_o (needed
by the PDE simulator) that realize any admissible point data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateControl


@dataclass(frozen=True)
class ModelParams:
    """Point data of the pulse: values of the model functions at u = u*.

    ``to_log_der`` is T_o'(u*)/T_o(u*); ``control_slope`` is l'(0).
    """

    u_star: float
    f_val: float
    f_der: float
    to_log_der: float
    eps: float = 0.02
    control_slope: float = 0.0

    def __post_init__(self):
        if not self.u_star > 0:
            raise ValueError("u_star must be positive")
        if not self.f_val > 0:
            raise ValueError("f_val must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.control_slope < 1:
            raise ValueError("control_slope must be < 1 (stable essential spectrum)")
        if self.u_star * self.to_log_der == 1.0:
            raise ValueError("degenerate existence: u_star * to_log_der == 1")

    @property
    def nu(self) -> float:
        """nu = 2 f'(u*)/f(u*) + T_o'(u*)/T_o(u*)."""
        return 2.0 * self.f_der / self.f_val + self.to_log_der

    def with_control_slope(self, gain: float) -> "ModelParams":
        return ModelParams(self.u_star, self.f_val, self.f_der,
                           self.to_log_der, self.eps, gain)


@dataclass(frozen=True)
class PowerLawModel:
    """Concrete model family f(u) = phi * u^gamma, T_o(u) = u_star^(1-delta) * u^delta.

    The family is built so T_o(u_star) = u_star, making u_star the pulse
    amplitude whenever delta != 1.
    """

    phi: float
    gamma: float
    delta: float
    u_star: float = 1.0

    def __post_init__(self):
        if not self.phi > 0:
            raise ValueError("phi must be positive")
        if not self.u_star > 0:
            raise ValueError("u_star must be positive")
        if abs(self.delta - 1.0) < 1e-14:
            raise ValueError("delta == 1: degenerate existence condition")

    def f(self, u):
        return self.phi * np.power(u, self.gamma)

    def f_prime(self, u):
        return self.phi * self.gamma * np.power(u, self.gamma - 1.0)

    def t_o(self, u):
        return self.u_star ** (1.0 - self.delta) * np.power(u, self.delta)

    def reaction_powers(self):
        """(exponent, prefactor) of f^2 T_o and of f: each is prefactor * u^exponent."""
        return ((2.0 * self.gamma + self.delta,
                 self.phi ** 2 * self.u_star ** (1.0 - self.delta)),
                (self.gamma, self.phi))

    def induced_params(self, eps: float = 0.02, control_slope: float = 0.0) -> ModelParams:
        f_val = float(self.f(self.u_star))
        f_der = float(self.f_prime(self.u_star))
        return ModelParams(self.u_star, f_val, f_der,
                           self.delta / self.u_star, eps, control_slope)

    @classmethod
    def from_params(cls, params: ModelParams) -> "PowerLawModel":
        """Power-law member matching the point data of ``params``."""
        gamma = params.u_star * params.f_der / params.f_val
        phi = params.f_val / params.u_star ** gamma
        delta = params.u_star * params.to_log_der
        return cls(phi=phi, gamma=gamma, delta=delta, u_star=params.u_star)


@dataclass(frozen=True)
class ReducedCoefficients:
    """Scalars of the reduced root equation alpha + beta*sqrt(1 + lh + l'(0)) = R(lh)."""

    alpha: float
    beta: float


def pulse_profile(params: ModelParams, x):
    """Leading-order stationary pulse (u_p, v_p) at position(s) x."""
    x = np.asarray(x, dtype=float)
    u_p = params.u_star * np.exp(-np.abs(x))
    # far out, cosh or its square overflows to inf; the sech^2 tail 0 is exact
    with np.errstate(over="ignore"):
        v_p = 1.5 / params.f_val / np.cosh(x / (2.0 * params.eps)) ** 2
    return u_p, v_p


def reduced_coefficients(params: ModelParams) -> ReducedCoefficients:
    """Map point data to (alpha, beta); requires f'(u*) != 0."""
    if params.f_der == 0.0:
        raise DegenerateControl("f'(u*) = 0: reduction undefined")
    ratio = params.f_val / params.f_der
    alpha = -6.0 - 3.0 * params.to_log_der * ratio
    beta = 3.0 * ratio / params.u_star
    return ReducedCoefficients(alpha=alpha, beta=beta)
