"""Reduced spectral function R, the root equation, and the stability verdict.

Eigenvalues of the linearization about the pulse are, to leading order,
``lambda = lh + l'(0)`` where ``lh`` solves

    alpha + beta * sqrt(1 + lh + l'(0)) = R(lh),

plus the translation eigenvalue ``lambda = l'(0)``.  R splits into an exact
two-pole part R_d and a continuum integral R_c over kappa in (0, inf):

    R_c(lh) = -(9 pi / 16) * Int_0^inf  k^4 (1+k^2)^2 csch^2(pi k)
              / ((k^2 + 9/4)(k^2 + 1/4)(lh + k^2 + 1))  dk.

The sign, the 1/pi normalization and the lower limit 0 follow from the
Weyl spectral density rho(mu) = k (k^2+1) / (2 pi (k^2+1/4)(k^2+9/4)),
k = sqrt(-1-mu), which was validated two independent ways: it reconstructs
the pulse core from the eigenfunction expansion to machine precision, and
the resulting R agrees with the brute-force resolvent solve (module
``oracle``) pointwise.

R_c has a closed form: partial fractions in k^2 and Binet's formula
(DLMF 5.9.16) give it through the trigamma function (``_continuum_cleared``).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import (
    EssentialRay,
    PoleAtInput,
    RootIsolationFailure,
    UnstableEssential,
)
from .model import ModelParams, ReducedCoefficients, reduced_coefficients

POLE_HIGH = 1.25
POLE_LOW = -0.75
WEIGHT_HIGH = 6075.0 * np.pi ** 2 / 8192.0
WEIGHT_LOW = 81.0 * np.pi ** 2 / 8192.0

# B_4, ..., B_20 of psi'(z) ~ 1/z + 1/(2 z^2) + 1/(6 z^3) + sum_m B_2m / z^(2m+1)
# (DLMF 5.15.8); with |z| >= _SHIFT they leave ``_trigamma_remainder``
# within 1e-15 relative on b > 0 and 2e-14 on Re b >= 0.
_BERNOULLI = (-1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330)
_SHIFT = 8

# W_c = Int_0^inf w = (9/16)(333 pi^2 / 256 - 64/5), where w > 0 and
# R_c(lh) = -Int_0^inf w(kappa) / (lh + kappa^2 + 1) dkappa
WEIGHT_CONTINUUM = 0.021485446793165962


@dataclass(frozen=True)
class RValue:
    """Value of R split into discrete-pole and continuum parts."""

    r_d: complex
    r_c: complex
    total: complex


@dataclass
class SpectrumReport:
    """Located point spectrum (in unshifted lambda) and the stability verdict."""

    eigenvalues: list
    translation_eigenvalue: complex
    essential_edge: float
    verdict: str
    max_real_part: float
    search_window: dict
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready fields; complex numbers become [re, im] pairs."""
        eigs = sorted(self.eigenvalues, key=lambda z: (-z.real, z.imag))
        return {
            "eigenvalues": [[z.real, z.imag] for z in eigs],
            "translation_eigenvalue": [self.translation_eigenvalue.real,
                                       self.translation_eigenvalue.imag],
            "essential_edge": self.essential_edge,
            "verdict": self.verdict,
            "max_real_part": self.max_real_part,
            "search_window": self.search_window,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def r_discrete(lambda_hat):
    """Two-pole part of R at a scalar or on an array: simple poles at 5/4 and
    -3/4.  Real input gives real output."""
    for pole in (POLE_HIGH, POLE_LOW):
        hit = lambda_hat == pole
        # np.any on a scalar would cost more than the rest of a scalar call
        if hit.any() if isinstance(hit, np.ndarray) else hit:
            raise PoleAtInput(pole)
    return WEIGHT_HIGH / (lambda_hat - POLE_HIGH) - WEIGHT_LOW / (lambda_hat - POLE_LOW)


def _trigamma_remainder(b):
    """E(b) = b^3 psi'(b) - b^2 - b/2 - 1/6, Re b >= 0, at a scalar or on an
    array.  By Binet's formula (DLMF 5.9.16) it gives, for Re b > 0,
    Int_0^inf k^2 csch^2(pi k) / (k^2 + b^2) dk = (E(b) + 1/6) / (pi b^2).
    psi'(b) = 1/b^2 + psi'(b + 1), telescoped against the series' first three
    terms, leaves -1/(6 y_k^3) a step, y_k = (b + k)(b + k + 1), so that
        E(b) = -1/(6 (1 + b)^3) + b^3 [V(b + N) - sum_{0<k<N} 1/(6 y_k^3)]
    with N = _SHIFT and V the series' terms m >= 2; on b > 0 none cancels."""
    z = b + _SHIFT
    w = 1.0 / (z * z)
    v = _BERNOULLI[-1] * w
    for c in _BERNOULLI[-2::-1]:
        v += c
        v *= w
    v *= w / z
    y = (b + 1.0) * (b + 2.0)
    step = 2.0 * b + 4.0  # y_{k+1} - y_k
    for _ in range(_SHIFT - 1):
        v -= (1.0 / 6.0) / (y * y * y)
        y += step
        step += 2.0
    v *= b * b * b
    return v - (1.0 / 6.0) / (1.0 + b) ** 3


def _trigamma_remainder_slope(b, e):
    """E'(b) given e = E(b): E = -1/(6 (1 + b)^3) + b^3 F has E' = 3 b^2 F
    + b^3 F' + 1/(2 (1 + b)^4), F' = V' + sum_k y_k' / (2 y_k^4) with
    y_k' = 2b + 2k + 1, and 3 b^2 F from e, to 1e-16 / |b| absolute."""
    z = b + _SHIFT
    w = 1.0 / (z * z)
    slope = 0.0
    for j in range(len(_BERNOULLI) - 1, -1, -1):
        slope = slope * w - (2 * j + 5) * _BERNOULLI[j]
    slope *= w * w * w
    y = (b + 1.0) * (b + 2.0)
    step = 2.0 * b + 4.0  # y_{k+1} - y_k, and y_k' = step - 1
    for _ in range(_SHIFT - 1):
        slope += 0.5 * (step - 1.0) / (y * y * y * y)
        y += step
        step += 2.0
    return b * b * b * slope + 3.0 * (e + (1.0 / 6.0) / (1.0 + b) ** 3) / b \
        + 0.5 / (1.0 + b) ** 4


# x (1 + x)^2 / ((x + 9/4)(x + 1/4)(x + a^2)) = 1 + sum_j A_j / (x + b_j^2)
# in x = k^2, a^2 = 1 + lh, over b_j = 3/2, 1/2, a, with A_j = (225/128) /
# (lh - 5/4), -(9/128) / (lh + 3/4) and -(1 + lh) lh^2 / q, where
# q = (lh - 5/4)(lh + 3/4).  Binet's formula then gives R_c q = (9/16)
# [lh^2 E(a) + (lh/2 + 15/16)/6 - C_H (lh + 3/4) - C_L (lh - 5/4)], which
# is (9/16) lh^2 E(a) + _L_SLOPE lh + _L_ZERO.
_C_HIGH = 25.0 / 32.0 * (_trigamma_remainder(1.5) + 1.0 / 6.0)
_C_LOW = -9.0 / 32.0 * (_trigamma_remainder(0.5) + 1.0 / 6.0)
_L_SLOPE = 9.0 / 16.0 * (1.0 / 12.0 - _C_HIGH - _C_LOW)
_L_ZERO = 9.0 / 16.0 * (5.0 / 32.0 - 0.75 * _C_HIGH + 1.25 * _C_LOW)


def _continuum_cleared(lh):
    """R_c(lh) q at a scalar or on an array, real for real lh > -1.  Its
    parts tend to -(3/160) lh and -0.0027 lh at large lh, adding without
    cancelling, and cancel to 0 at the poles, where R_c is analytic."""
    if isinstance(lh, float) and lh < -1.0 \
            or isinstance(lh, np.ndarray) and lh.dtype.kind == "f" and (lh < -1.0).any():
        # left of -1, the real part of the value above the cut (``_sqrt_term``)
        return _continuum_cleared(lh + 0j).real
    out = _trigamma_remainder((1.0 + lh) ** 0.5)  # np.sqrt on an array
    out *= (9.0 / 16.0) * lh * lh
    out += _L_SLOPE * lh + _L_ZERO
    return out


def _continuum(lh):
    """R_c at a scalar or on an array; 0/0 at the poles, where it is analytic."""
    return _continuum_cleared(lh) / ((lh - POLE_HIGH) * (lh - POLE_LOW))


def _continuum_slope(lh):
    """dR_c/dlh at one point, by the quotient rule on R_c q over q."""
    q = (lh - POLE_HIGH) * (lh - POLE_LOW)
    a = (1.0 + lh) ** 0.5
    e = _trigamma_remainder(a)
    e_slope = _trigamma_remainder_slope(a, e)  # dE(a)/dlh = E'(a) / (2a)
    cleared = 9.0 / 16.0 * lh * lh * e + _L_SLOPE * lh + _L_ZERO
    cleared_slope = 9.0 / 16.0 * lh * (2.0 * e + 0.5 * lh * e_slope / a) + _L_SLOPE
    return (cleared_slope - cleared / q * (2.0 * lh - 0.5)) / q


def _r_values(lh):
    """R at a scalar or on an array."""
    return r_discrete(lh) + _continuum(lh)


def _imaginary_axis_coefficients(omega):
    """(alpha, beta) for which lh = i*omega, omega > 0, is a root at zero gain.

    There alpha + beta*sqrt(1 + lh) = R(lh) is linear in (alpha, beta): its
    imaginary part gives beta, its real part then alpha.
    """
    lh = 1j * np.asarray(omega, dtype=float)
    r, s = _r_values(lh), np.sqrt(1.0 + lh)
    beta = r.imag / s.imag
    return r.real - beta * s.real, beta


def r_total(lambda_hat: complex) -> RValue:
    """R(lh) = R_d(lh) + R_c(lh) at one point, as ``_r_values`` gives it."""
    lh = complex(lambda_hat)
    if lh.imag == 0.0 and lh.real <= -1.0:
        raise EssentialRay(f"lambda_hat = {lambda_hat} lies on (-inf, -1]")
    r_d, r_c = r_discrete(lambda_hat), _continuum(lambda_hat)
    return RValue(r_d=complex(r_d), r_c=complex(r_c), total=complex(r_d + r_c))


def essential_edges(control_slope: float):
    """Essential-spectrum edges (in lambda, in lambda_hat)."""
    if not control_slope < 1:
        raise UnstableEssential("control_slope >= 1")
    edge_lambda = -1.0 + max(control_slope, 0.0)
    edge_lambda_hat = -1.0 + max(0.0, -control_slope)
    return edge_lambda, edge_lambda_hat


class _RootProblem:
    """Root equation Phi(lh) = L(lh) - R(lh) with pole-cleared companion G.

    ``phi`` and ``g`` take a scalar or an array of lh and evaluate all of it
    in one pass; real lh gives real values.  ``n_eval`` counts points, and
    the last winding search leaves its total and its retry count here.
    """

    def __init__(self, coeffs: ReducedCoefficients, control_slope: float):
        self.alpha = coeffs.alpha
        self.beta = coeffs.beta
        self.gain = control_slope
        self.n_eval = 0
        self.winding_total = 0
        self.winding_retries = 0

    def _points(self, lh):
        """Count the points; a scalar becomes a Python float or complex.

        Single points (Brent, Newton, phase-step refinement) stay scalars
        because the array path costs about three times as much per call.
        """
        if isinstance(lh, (int, float, complex)):
            self.n_eval += 1
            return complex(lh) if isinstance(lh, complex) else float(lh)
        lh = np.asarray(lh)
        self.n_eval += lh.size
        return lh if lh.dtype.kind == "c" else lh.astype(float, copy=False)

    def _sqrt_term(self, lh):
        z = lh + 1.0 + self.gain
        # a scalar stays in cmath/math, where numpy would cost ten times the
        # arithmetic; real z gives the real part of the principal root, also
        # left of the branch point, and max(nan, 0.0) keeps NaN
        if isinstance(z, complex):
            return cmath.sqrt(z)
        if isinstance(z, float):
            return math.sqrt(max(z, 0.0))
        if z.dtype.kind == "c":
            return np.sqrt(z)
        return np.sqrt(np.maximum(z, 0.0))

    def phi(self, lh):
        lh = self._points(lh)
        return self.alpha + self.beta * self._sqrt_term(lh) - _r_values(lh)

    def phi_prime(self, lh: complex) -> complex:
        s = self._sqrt_term(lh)
        r_d_prime = -WEIGHT_HIGH / (lh - POLE_HIGH) ** 2 + WEIGHT_LOW / (lh - POLE_LOW) ** 2
        return self.beta / (2.0 * s) - r_d_prime - _continuum_slope(lh)

    def g(self, lh):
        """Phi times (lh - 5/4)(lh + 3/4): analytic, same zeros, no poles."""
        lh = self._points(lh)
        # the continuum part first: its temporaries go before the rest's come
        r_c_cleared = _continuum_cleared(lh)
        q = (lh - POLE_HIGH) * (lh - POLE_LOW)
        lhs_val = self.alpha + self.beta * self._sqrt_term(lh)
        r_d_cleared = WEIGHT_HIGH * (lh - POLE_LOW) - WEIGHT_LOW * (lh - POLE_HIGH)
        return lhs_val * q - r_d_cleared - r_c_cleared

    def newton(self, lh0: complex, reach: float, tol: float = 1e-10, maxit: int = 60):
        """Newton refinement of Phi; returns the root, or None once an
        iterate lies farther than ``reach`` from ``lh0`` or ``maxit`` runs out.

        Once |Phi| <= tol, one more step is kept unless it raises |Phi|, so
        the root no longer depends on where Newton started.
        """
        lh = complex(lh0)
        # Phi has poles at 5/4 and -3/4, and Phi' is infinite at the branch
        # points -1 - l'(0) and -1, where a scalar step divides by zero
        stops = (POLE_HIGH, POLE_LOW, -1.0 - self.gain, -1.0)
        for _ in range(maxit):
            if any(abs(lh - p) < 1e-12 for p in stops):
                return None
            f = self.phi(lh)
            converged = abs(f) <= tol
            df = self.phi_prime(lh)
            if df == 0:
                return lh if converged else None
            nxt = lh - f / df
            if converged:
                return nxt if abs(self.phi(nxt)) <= abs(f) else lh
            lh = nxt
            if not cmath.isfinite(lh) or abs(lh - lh0) > reach:
                return None
        return lh if abs(self.phi(lh)) <= tol else None


POLE_EXCLUSION = 1e-8


def _real_subintervals(lo: float, hi: float, control_slope: float):
    """Split (lo, hi) at poles and the branch point, excluding punctured disks."""
    cuts = [lo, hi]
    branch = -1.0 - control_slope
    for p in (POLE_LOW, POLE_HIGH, branch):
        if lo < p < hi:
            cuts.extend([p - POLE_EXCLUSION, p + POLE_EXCLUSION])
    cuts = sorted(set(cuts))
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        if any(abs(mid - p) < POLE_EXCLUSION for p in (POLE_LOW, POLE_HIGH)):
            continue
        if mid < branch:
            continue
        if b - a > 0:
            out.append((a, b))
    return out


def _geomspace(start: float, stop, num: int):
    """``np.geomspace(start, stop_k, num)`` bit for bit, a row for each
    stop_k of ``stop`` (a float gives one row), for start > 0 and stop_k > 0:
    the same 10 ** (k * step + log10 start) with both ends set, without the
    argument handling that costs np.geomspace more than its arithmetic."""
    stop = np.asarray(stop, dtype=float)[..., None]
    lo = np.log10(start)
    out = 10.0 ** (np.arange(num) * ((np.log10(stop) - lo) / (num - 1)) + lo)
    out[..., 0] = start
    out[..., -1] = stop[..., 0]
    return out


def _scan_points(a, b):
    """Sorted scan samples of the subintervals [a_k, b_k] (arrays, in order,
    sharing at most an end): per subinterval the grid
    ``np.linspace(a_k, b_k, n_k)``, bit for bit, plus 25 geometric offsets
    from 1e-8 to half its width in from either end, where R blows up at the
    poles and L flattens at the branch point, so that sign changes hide there."""
    pts = []
    for lo, hi in zip(a.tolist(), b.tolist()):
        n = max(64, min(512, int((hi - lo) * 16)))
        # np.linspace's k * step + lo, ending at hi
        grid = np.arange(n) * ((hi - lo) / (n - 1)) + lo
        grid[-1] = hi
        pts.append(grid)
    geo = _geomspace(1e-8, 0.5 * (b - a), 25)
    pts += [(a[:, None] + geo).ravel(), (b[:, None] - geo).ravel()]
    return np.unique(np.concatenate(pts))


def find_real_roots(coeffs: ReducedCoefficients, control_slope: float,
                    window, problem: _RootProblem | None = None):
    """All real roots of Phi in ``window``, ascending: one scan samples every
    subinterval of ``_real_subintervals`` in one pass, and each sign change
    between two samples of one subinterval is bracketed by Brent's method
    to 4 ulps."""
    lo, hi = float(window[0]), float(window[1])
    prob = problem if problem is not None else _RootProblem(coeffs, control_slope)
    intervals = _real_subintervals(lo, hi, control_slope)
    if not intervals:
        return []
    a, b = np.array(intervals).T
    xs = _scan_points(a, b)
    vals = prob.phi(xs)
    sign = np.sign(vals)
    # a pair counts only inside one subinterval, since Phi changes sign
    # across a pole with no root there; an end two subintervals share (at
    # the branch point's disk) belongs to both
    inside = np.searchsorted(a, xs[:-1], side="right") - 1 == np.searchsorted(b, xs[1:])
    roots = [float(x) for x in xs[sign == 0]]
    for i in np.flatnonzero(inside & (sign[:-1] * sign[1:] < 0)):
        # Brent starts from both ends; hand it the scanned values there
        ends = {xs[i]: vals[i], xs[i + 1]: vals[i + 1]}
        # 4 ulps is the least relative tolerance brentq accepts
        roots.append(brentq(lambda x: ends[x] if x in ends else prob.phi(x),
                            xs[i], xs[i + 1],
                            xtol=1e-300, rtol=4.0 * np.finfo(float).eps))
    return sorted(roots)


class _WindingSearch:
    """Argument-principle root isolation on a rectangle in the lh-plane.

    Each side is sampled every ``SPACING`` (at least ``MIN_SIDE`` points).
    Where the phase of G turns fast, samples are added in one batch instead
    of bisecting phase steps one point at a time: on a bottom edge that lies
    less than 1e-5 above the real axis, at ``ROOT_SAMPLES`` geometric offsets
    either side of each of ``real_roots``; on a left edge whose bottom corner
    lies that close to a branch point (of the square root at -1 - l'(0), or
    the end of R_c's cut at -1), at ``BRANCH_SAMPLES`` geometric heights up to 1.
    """

    SPACING = 0.75
    MIN_SIDE = 8
    ROOT_SAMPLES = 24
    BRANCH_SAMPLES = 12
    NEAR_AXIS = 1e-5

    def __init__(self, problem: _RootProblem, real_roots=(), max_depth: int = 60):
        self.prob = problem
        self.real_roots = np.asarray(real_roots, dtype=float)
        self.branch_points = (-1.0 - problem.gain, -1.0)
        self.max_depth = max_depth
        self.winding_total = 0

    def _side(self, a: complex, b: complex, extra):
        """Samples from ``a`` toward ``b`` (``b`` left out), with the extra
        samples given as fractions of the way along."""
        n = max(self.MIN_SIDE, int(abs(b - a) / self.SPACING) + 1)
        # np.linspace(0, 1, n, endpoint=False), bit for bit
        t = np.arange(n) * (1.0 / n)
        if len(extra):
            extra = extra[(extra > 0.0) & (extra < 1.0)]
            t = np.unique(np.concatenate([t, extra]))
        return a + (b - a) * t

    def _boundary_points(self, rect):
        re0, re1, im0, im1 = rect
        corners = [complex(re0, im0), complex(re1, im0),
                   complex(re1, im1), complex(re0, im1), complex(re0, im0)]
        extras = [np.empty(0)] * 4
        if 0.0 < im0 < self.NEAR_AXIS:
            if self.real_roots.size:
                offsets = _geomspace(im0, self.SPACING, self.ROOT_SAMPLES)
                near = np.concatenate([-offsets[::-1], [0.0], offsets])
                x = (self.real_roots[:, None] + near).ravel()
                extras[0] = (x - re0) / (re1 - re0)
            if any(abs(complex(re0, im0) - b) < self.NEAR_AXIS for b in self.branch_points):
                y = _geomspace(im0, min(im1, 1.0), self.BRANCH_SAMPLES)
                extras[3] = (im1 - y) / (im1 - im0)
        sides = [self._side(a, b, extra)
                 for a, b, extra in zip(corners[:-1], corners[1:], extras)]
        return np.concatenate(sides + [[corners[0]]])

    def winding(self, rect) -> int:
        pts = self._boundary_points(rect)
        vals = self.prob.g(pts)
        if np.any(vals == 0):
            raise RootIsolationFailure("root on search boundary")
        steps = np.angle(vals[1:] / vals[:-1])
        # resolve only the steps too large to trust by bisecting the edge
        for i in np.flatnonzero(np.abs(steps) >= 0.5 * np.pi):
            steps[i] = self._arg_step(pts[i], vals[i], pts[i + 1], vals[i + 1], depth=0)
        w = steps.sum() / (2.0 * np.pi)
        wi = int(round(w))
        if abs(w - wi) > 0.25:
            raise RootIsolationFailure(f"non-integer winding {w:.3f} on {rect}")
        return wi

    def _arg_step(self, a, fa, b, fb, depth):
        if fa == 0 or fb == 0:
            raise RootIsolationFailure("root on search boundary")
        d = np.angle(fb / fa)
        if abs(d) < 0.5 * np.pi:
            return d
        if depth >= 48 or abs(b - a) < 1e-13:
            raise RootIsolationFailure("phase tracking stalled on boundary")
        m = 0.5 * (a + b)
        fm = self.prob.g(m)
        return self._arg_step(a, fa, m, fm, depth + 1) \
            + self._arg_step(m, fm, b, fb, depth + 1)

    def roots(self, rect, depth: int = 0):
        re0, re1, im0, im1 = rect
        diam = math.hypot(re1 - re0, im1 - im0)
        w = self.winding(rect)
        if depth == 0:
            self.winding_total = w
        if w == 0:
            return []
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        if w == 1 or diam < 1e-3:
            # an iterate farther than the diameter from the centre has left
            # the rectangle; give up there and subdivide
            root = self.prob.newton(center, diam)
            if root is not None and re0 - 1e-9 <= root.real <= re1 + 1e-9 \
                    and im0 - 1e-9 <= root.imag <= im1 + 1e-9:
                if w == 1:
                    return [root]
                return [root] * w  # clustered/multiple root, report with multiplicity
            if diam < 1e-6:
                raise RootIsolationFailure(
                    f"winding {w} in cell of diameter {diam:.2e} but Newton failed")
        if depth >= self.max_depth:
            raise RootIsolationFailure("max subdivision depth reached")
        # split slightly off-center so subdivision lines avoid roots
        fr = 0.5 + 1.37e-3
        rm = re0 + fr * (re1 - re0)
        im_m = im0 + fr * (im1 - im0)
        out = []
        for sub in ((re0, rm, im0, im_m), (rm, re1, im0, im_m),
                    (re0, rm, im_m, im1), (rm, re1, im_m, im1)):
            out.extend(self.roots(sub, depth + 1))
        return out


def _complex_roots(prob: _RootProblem, rect, real_roots=()):
    """All roots of Phi inside ``rect`` = (re_lo, re_hi, im_lo, im_hi); the
    winding search is told the real roots so that it samples around them.

    A search that fails is retried up to three times with the edges moved;
    the winding total and the number of retries are left on ``prob``.
    """
    re0, re1, im0, im1 = (float(v) for v in rect)
    _, edge_hat = essential_edges(prob.gain)
    re0 = max(re0, edge_hat + 1e-6)
    search = _WindingSearch(prob, real_roots)
    for attempt in range(4):
        try:
            found = search.roots((re0, re1, im0, im1))
            break
        except RootIsolationFailure:
            if attempt == 3:
                raise
            # move the edges off whatever root sat on them; a rectangle that
            # starts above the real axis keeps its bottom edge above it
            bump = 1e-6 * (attempt + 1) * 3.1
            re0 += bump
            re1 += bump
            if im0 <= 0.0:
                im0 -= bump
            im1 += bump
    prob.winding_total = search.winding_total
    prob.winding_retries = attempt
    found.sort(key=lambda z: (z.real, z.imag))
    return found


def _r_bound_terms():
    """(W_j, p_j) of the bound |R(lh)| <= sum_j W_j / |lh - p_j| on
    Re lh >= -1: the poles 5/4 and -3/4, and the cut's end -1 with weight
    W_c = ``WEIGHT_CONTINUUM``.  There every denominator of the continuum
    integral has |lh + kappa^2 + 1| >= |lh + 1|, and its weight is positive."""
    return ((WEIGHT_HIGH, POLE_HIGH), (WEIGHT_LOW, POLE_LOW),
            (WEIGHT_CONTINUUM, -1.0))


def _certified_radius(alpha: float, beta: float, control_slope: float) -> float:
    """Radius about the branch point c = -1 - l'(0) outside which, on
    Re lh >= -1, Phi has no root.

    There |R(lh)| <= sum_j W_j / |lh - p_j| (``_r_bound_terms``).  Take the
    circle |lh - c| = r, where |beta sqrt(1 + lh + l'(0))| = |beta| sqrt(r),
    and on it the arc Re lh >= c, which holds every point of the window.
    There |lh - p| >= r - (p - c) for p > c, and |lh - p| >= hypot(r, p - c)
    for p <= c.  So no root lies on the arc once
        |beta| sqrt(r) - |alpha| - sum_j W_j / dist_j(r) > 0,
    and this excess increases with r past max(0, max_j p_j - c).  Its zero
    is bracketed by halving and doubling and found by Brent, then rounded up
    by Brent's tolerance.
    """
    no_window = ValueError(f"no finite search window for alpha = {alpha}, "
                           f"beta = {beta}, l'(0) = {control_slope}")
    if beta == 0.0 or not all(map(math.isfinite, (alpha, beta, control_slope))):
        raise no_window
    c = -1.0 - control_slope
    terms = [(w, p - c) for w, p in _r_bound_terms()]
    d = max(0.0, max(offset for _, offset in terms))

    def excess(t):
        # at r = d + t; r - offset is t + (d - offset) >= t > 0
        r = d + t
        return abs(beta) * math.sqrt(r) - abs(alpha) \
            - sum(w / (t + (d - offset) if offset > 0.0 else math.hypot(r, offset))
                  for w, offset in terms)

    # excess < 0 as t -> 0 and -> +inf as t -> inf, so both loops end; they
    # run out of floats only where |beta| sqrt(r) or the radius overflows
    hi = 1.0
    while excess(hi) <= 0.0:
        hi *= 2.0
        if hi == math.inf:
            raise no_window
    lo = 0.5 * hi
    while excess(lo) > 0.0:
        hi, lo = lo, 0.5 * lo
        if lo == 0.0:
            raise no_window
    xtol = rtol = 1e-12
    t = brentq(excess, lo, hi, xtol=xtol, rtol=rtol)
    return d + t + xtol + rtol * t


def _gain_floor(alpha: float, beta: float) -> float:
    """Gain g* below which no eigenvalue lies on the imaginary axis.

    At lambda = i omega and gain g = -t < -5/4 the root equation reads
    alpha + beta sqrt(1 + i omega) = R(lh) with lh = i omega + t.  There
    Re lh = t lies right of every p_j of ``_r_bound_terms``, so
    |R(lh)| <= sum_j W_j / (t - p_j).  The left side is at least
    |beta| d(-alpha/beta), where d(a) is the distance from a to the curve
    sqrt(1 + i omega), the branch x >= 1 of x^2 - y^2 = 1: |a - 1| for
    a <= 2 and sqrt(a^2/2 - 1) beyond.  So below the g* where the bound
    falls to |beta| d no eigenvalue crosses the axis, and the verdict there
    is that of the deep-gain limit lambda -> (nu u*)^2 - 1, since
    -alpha/beta = nu u*.  |beta| d is floored at 4 eps (|alpha| + |beta|),
    the rounding of alpha + beta, so that the line nu u* = 1, where d = 0,
    has a finite g*.  g* is found by Brent on the analytic bracket below and
    rounded down by Brent's tolerance.
    """
    if beta != 0.0 and -alpha / beta > 2.0:
        gap = math.sqrt(0.5 * alpha * alpha - beta * beta)
    else:
        gap = abs(alpha + beta)
    gap = max(gap, 4.0 * math.ulp(1.0) * (abs(alpha) + abs(beta)))
    if not 0.0 < gap < math.inf:
        raise ValueError(f"no gain floor for alpha = {alpha}, beta = {beta}")
    # at t = 5/4 + s; every p_j <= 5/4, so the bound lies between
    # W_H / s and (sum_j W_j) / s, which brackets its crossing with gap
    terms = [(w, POLE_HIGH - p) for w, p in _r_bound_terms()]

    def excess(s):
        return sum(w / (s + offset) for w, offset in terms) - gap

    lo, hi = WEIGHT_HIGH / gap, sum(w for w, _ in terms) / gap
    # rounding closes the bracket only at extreme gaps, where hi, an upper
    # bound on the crossing, stands in for it
    if excess(lo) > 0.0 > excess(hi):
        xtol = rtol = 1e-12
        s = brentq(excess, lo, hi, xtol=xtol, rtol=rtol)
        hi = min(hi, s + xtol + rtol * s)
    return -(POLE_HIGH + hi)


def default_window(coeffs: ReducedCoefficients, control_slope: float):
    """Search rectangle in the lh-plane that contains every root: the
    square around the disk of radius ``_certified_radius`` about the branch
    point -1 - l'(0), cut at the essential edge."""
    _, edge_hat = essential_edges(control_slope)
    # at least 1e-3, so that the box clears its 1e-6 offsets from the edge
    # and from the axis; deep gains with alpha near 0 give far smaller radii
    rho = max(_certified_radius(coeffs.alpha, coeffs.beta, control_slope), 1e-3)
    return edge_hat + 1e-6, -1.0 - control_slope + rho, -rho, rho


VERDICT_STABLE = "Stable"
VERDICT_NEUTRAL = "NeutrallyStable"
VERDICT_UNSTABLE = "Unstable"

TIE_TOL = 1e-9


def _verdict(root_eigs, gain: float) -> str:
    if any(z.real >= 0.0 for z in root_eigs) or gain > TIE_TOL:
        return VERDICT_UNSTABLE
    if abs(gain) <= TIE_TOL:
        return VERDICT_NEUTRAL
    return VERDICT_STABLE


def assemble_spectrum(params: ModelParams) -> SpectrumReport:
    """Locate the full point spectrum and classify stability.

    With f'(u*) = 0 no zero-pole cancellation occurs and the fast eigenvalues
    {5/4, 0, -3/4} (shifted by the gain) survive verbatim; in addition the
    slow problem degenerates to sqrt(1 + lambda) = nu u*, contributing the
    gain-independent eigenvalue (nu u*)^2 - 1 whenever nu u* > 0. Otherwise
    the eigenvalues are the roots of the reduced equation plus the
    translation eigenvalue at lambda = l'(0).
    """
    gain = params.control_slope
    edge_lambda, edge_hat = essential_edges(gain)
    translation = complex(gain, 0.0)
    diagnostics = {"function_evaluations": 0, "winding_total": 0, "winding_retries": 0}

    if params.f_der == 0.0:
        root_eigs = [complex(POLE_HIGH + gain), complex(POLE_LOW + gain)]
        slow = params.nu * params.u_star
        if slow > 0.0:
            # the slow zero cannot be moved by the gain: sqrt(1 + lambda)
            # only sees lambda = lambda_hat + l'(0)
            root_eigs.append(complex(slow * slow - 1.0))
        eigs = root_eigs + [translation]
        win = {"note": "no cancellation (f_der = 0): fast spectrum survives"}
    else:
        coeffs = reduced_coefficients(params)
        re0, re1, im0, im1 = default_window(coeffs, gain)
        prob = _RootProblem(coeffs, gain)
        real_roots = find_real_roots(coeffs, gain, (re0, re1), problem=prob)
        roots = [complex(r, 0.0) for r in real_roots]
        if coeffs.beta < 0:
            # complex roots possible anywhere: search the upper half plane
            off_axis = (re0, re1, 1e-6, im1)
        else:
            # beta > 0 keeps roots real except possibly in a small zone by the
            # low pole, where the sign identity Im R = -sgn(Im lh)|Im R| fails
            off_axis = (re0, -0.35, 1e-6, 0.6) if re0 < -0.36 else None
        if off_axis is not None:
            for z in _complex_roots(prob, off_axis, real_roots):
                roots.append(z)
                roots.append(z.conjugate())
        diagnostics.update(function_evaluations=prob.n_eval,
                           winding_total=prob.winding_total,
                           winding_retries=prob.winding_retries)
        root_eigs = [z + gain for z in roots]
        eigs = root_eigs + [translation]
        win = {"re": [re0, re1], "im": [im0, im1]}

    eigs_sorted = sorted(eigs, key=lambda z: (-z.real, z.imag))
    max_re = max(z.real for z in eigs_sorted)
    return SpectrumReport(
        eigenvalues=eigs_sorted,
        translation_eigenvalue=translation,
        essential_edge=edge_lambda,
        verdict=_verdict(root_eigs, gain),
        max_real_part=max_re,
        search_window=win,
        diagnostics=diagnostics,
    )
