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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    BranchCut,
    EssentialRay,
    PoleAtInput,
    QuadratureFailure,
    RootIsolationFailure,
    UnstableEssential,
)
from .model import ModelParams, ReducedCoefficients, reduced_coefficients

POLE_HIGH = 1.25
POLE_LOW = -0.75
WEIGHT_HIGH = 6075.0 * np.pi ** 2 / 8192.0
WEIGHT_LOW = 81.0 * np.pi ** 2 / 8192.0

KAPPA_MAX = 12.0
# csch^2(pi*k) <= 4.01 exp(-2*pi*k) for k >= 1; integrating the full weight
# against that envelope beyond KAPPA_MAX leaves less than 1e-27.
TAIL_BOUND = 1e-27

_FAST_NODES = 512
# Points per block of the continuum sum: 128 points x 512 nodes of complex
# terms is about 1 MB, so memory stays flat however many points one call has.
_BLOCK = 128


@dataclass(frozen=True)
class RValue:
    """Value of R split into discrete-pole and continuum parts."""

    r_d: complex
    r_c: complex
    total: complex
    quad_error: float


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

    def to_json(self) -> str:
        eigs = sorted(self.eigenvalues, key=lambda z: (-z.real, z.imag))
        return json.dumps({
            "eigenvalues": [[z.real, z.imag] for z in eigs],
            "translation_eigenvalue": [self.translation_eigenvalue.real,
                                       self.translation_eigenvalue.imag],
            "essential_edge": self.essential_edge,
            "verdict": self.verdict,
            "max_real_part": self.max_real_part,
            "search_window": self.search_window,
            "diagnostics": self.diagnostics,
        })


def r_discrete(lambda_hat: complex) -> complex:
    """Two-pole part of R: closed form with simple poles at 5/4 and -3/4."""
    lh = complex(lambda_hat)
    for pole in (POLE_HIGH, POLE_LOW):
        if lh == pole:
            raise PoleAtInput(pole)
    return WEIGHT_HIGH / (lh - POLE_HIGH) - WEIGHT_LOW / (lh - POLE_LOW)


def _continuum_weight(kappa: np.ndarray) -> np.ndarray:
    kappa = np.asarray(kappa, dtype=float)
    k2 = kappa ** 2
    x = np.pi * kappa
    with np.errstate(divide="ignore", invalid="ignore"):
        # k^2 csch^2(pi k) -> 1/pi^2 as k -> 0; series below 1e-4 avoids 0/0
        k2csch2 = np.where(x < 1e-4,
                           (1.0 - x * x / 3.0) / np.pi ** 2,
                           k2 / np.sinh(np.minimum(x, 350.0)) ** 2)
    return (9.0 * np.pi / 16.0) * k2 * (1.0 + k2) ** 2 \
        / ((k2 + 2.25) * (k2 + 0.25)) * k2csch2


@lru_cache(maxsize=16)
def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    kappa = 0.5 * KAPPA_MAX * (x + 1.0)
    # continuum contribution enters R with a minus sign; fold it into the weights
    w = -0.5 * KAPPA_MAX * w * _continuum_weight(kappa)
    return kappa ** 2 + 1.0, w


def _on_essential_ray(lh: complex) -> bool:
    return lh.imag == 0.0 and lh.real <= -1.0


def _continuum_sum(lambda_hat, n: int = _FAST_NODES, power: int = 1):
    """Sum of w_k / (lh + kappa_k^2 + 1)^power over n Gauss-Legendre nodes.

    Takes a scalar or an array of lh and works through an array in blocks
    of ``_BLOCK`` points.  Each point's value equals ``np.sum`` over that
    point's own terms, bit for bit.  Real lh gives the real part of the
    complex result, also bit for bit: numpy divides by a real-valued complex
    number as ``w * (1/d)``, and the real terms are summed as complex numbers
    so that the pairwise summation groups them the same way.
    """
    shift, w = _gauss_nodes(n)
    lh = np.asarray(lambda_hat)
    is_complex = lh.dtype.kind == "c"
    rows = lh.reshape(-1, 1)
    out = np.empty(len(rows), dtype=complex if is_complex else float)
    for i in range(0, len(rows), _BLOCK):
        d = rows[i:i + _BLOCK] + shift
        if power != 1:
            d = d ** power
        if is_complex:
            out[i:i + _BLOCK] = (w / d).sum(axis=1)
        else:
            out[i:i + _BLOCK] = (w * (1.0 / d)).astype(complex).sum(axis=1).real
    return out.reshape(lh.shape)[()]


def _r_discrete_values(lh):
    """``r_discrete`` at a Python scalar or on an array, rounded as it rounds.

    Real input gives the real part, bit for bit.  On a complex array this is
    CPython's complex division (Smith's method, ending in a division):
    numpy's complex division multiplies by a reciprocal instead and can
    differ in the last bit.
    """
    if not isinstance(lh, np.ndarray):
        r = r_discrete(lh)
        return r if isinstance(lh, complex) else r.real
    for pole in (POLE_HIGH, POLE_LOW):
        if (lh == pole).any():
            raise PoleAtInput(pole)
    if lh.dtype.kind != "c":
        return WEIGHT_HIGH / (lh - POLE_HIGH) - WEIGHT_LOW / (lh - POLE_LOW)

    def over(weight, d):
        dr, di = d.real, d.imag
        wide = np.abs(dr) >= np.abs(di)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(wide, di / dr, dr / di)
            denom = np.where(wide, dr + di * ratio, dr * ratio + di)
            out = np.empty(d.shape, dtype=complex)
            out.real = np.where(wide, weight + 0.0 * ratio, weight * ratio + 0.0) / denom
            out.imag = np.where(wide, 0.0 - weight * ratio, 0.0 * ratio - weight) / denom
        return out

    return over(WEIGHT_HIGH, lh - POLE_HIGH) - over(WEIGHT_LOW, lh - POLE_LOW)


def _cmul(a, b):
    """a * b, on a complex array rounded as the scalar product rounds.

    numpy's SIMD complex multiply may fuse a multiply and an add, which can
    change the last bit against the scalar product.
    """
    if not (isinstance(a, np.ndarray) and a.dtype.kind == "c"):
        return a * b
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def r_continuous(lambda_hat: complex, tol: float = 1e-10):
    """Continuum part of R by Gauss-Legendre with node doubling.

    Returns ``(value, quad_error)``; the error estimate includes the
    truncation tail beyond kappa = 12.
    """
    lh = complex(lambda_hat)
    if _on_essential_ray(lh):
        raise EssentialRay(f"lambda_hat = {lh} lies on (-inf, -1]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    prev = None
    for n in (64, 128, 256, 512, 1024, 2048):
        val = complex(_continuum_sum(lh, n))
        if prev is not None:
            err = abs(val - prev)
            if err <= tol:
                return val, err + TAIL_BOUND
        prev = val
    raise QuadratureFailure(abs(val - prev))


def r_total(lambda_hat: complex, tol: float = 1e-10) -> RValue:
    """R(lh) = R_d(lh) + R_c(lh) with a quadrature error estimate."""
    r_d = r_discrete(lambda_hat)
    r_c, err = r_continuous(lambda_hat, tol)
    return RValue(r_d=r_d, r_c=r_c, total=r_d + r_c, quad_error=err)


def lhs(lambda_hat: complex, coeffs: ReducedCoefficients, control_slope: float) -> complex:
    """Left side alpha + beta * sqrt(1 + lh + l'(0)), principal branch."""
    z = complex(lambda_hat) + 1.0 + control_slope
    if z.imag == 0.0 and z.real < 0.0:
        raise BranchCut(f"sqrt argument {z} on the negative real axis")
    return coeffs.alpha + coeffs.beta * np.sqrt(z)


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
    in one pass; real lh gives real values, equal bit for bit to the real
    part of the complex ones.  ``n_eval`` counts points, and the last
    winding search leaves its total and its retry count here.
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

        Single points (bisection, Newton, edge refinement) stay scalars
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
        if np.iscomplexobj(z):
            return np.sqrt(z)
        # real part of the principal root, also left of the branch point
        return np.sqrt(np.maximum(z, 0.0))

    def phi(self, lh):
        lh = self._points(lh)
        r = _r_discrete_values(lh) + _continuum_sum(lh)
        return self.alpha + self.beta * self._sqrt_term(lh) - r

    def phi_prime(self, lh: complex) -> complex:
        s = self._sqrt_term(lh)
        r_d_prime = -WEIGHT_HIGH / (lh - POLE_HIGH) ** 2 + WEIGHT_LOW / (lh - POLE_LOW) ** 2
        return self.beta / (2.0 * s) - r_d_prime + _continuum_sum(lh, power=2)

    def g(self, lh):
        """Phi times (lh - 5/4)(lh + 3/4): analytic, same zeros, no poles."""
        lh = self._points(lh)
        q = _cmul(lh - POLE_HIGH, lh - POLE_LOW)
        lhs_val = self.alpha + self.beta * self._sqrt_term(lh)
        r_d_cleared = WEIGHT_HIGH * (lh - POLE_LOW) - WEIGHT_LOW * (lh - POLE_HIGH)
        return _cmul(lhs_val, q) - r_d_cleared - _cmul(_continuum_sum(lh), q)

    def newton(self, lh0: complex, tol: float = 1e-10, maxit: int = 60):
        """Newton refinement of Phi; returns root or None."""
        lh = complex(lh0)
        for _ in range(maxit):
            for pole in (POLE_HIGH, POLE_LOW):
                if abs(lh - pole) < 1e-12:
                    return None
            f = self.phi(lh)
            if abs(f) <= tol:
                return lh
            df = self.phi_prime(lh)
            if df == 0:
                return None
            step = f / df
            lh = lh - step
            if not np.isfinite(lh.real) or not np.isfinite(lh.imag):
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


def find_real_roots(coeffs: ReducedCoefficients, control_slope: float,
                    window, problem: _RootProblem | None = None):
    """All real roots of Phi in ``window``, refined to |Phi| <= 1e-12, ascending."""
    lo, hi = float(window[0]), float(window[1])
    prob = problem if problem is not None else _RootProblem(coeffs, control_slope)
    roots = []
    for a, b in _real_subintervals(lo, hi, control_slope):
        # cluster sample points toward the endpoints: R blows up at the poles
        # and L flattens at the branch point, so sign changes hide there
        n_uniform = max(64, min(512, int((b - a) * 16)))
        pts = [np.linspace(a, b, n_uniform)]
        span = b - a
        geo = np.geomspace(1e-8, 0.5 * span, 25)
        pts.append(a + geo)
        pts.append(b - geo)
        xs = np.unique(np.concatenate(pts))
        vals = prob.phi(xs)
        sign = np.sign(vals)
        for i in np.flatnonzero((sign[:-1] == 0) | (sign[:-1] * sign[1:] < 0)):
            if sign[i] == 0:
                roots.append(xs[i])
            else:
                x0, x1 = xs[i], xs[i + 1]
                f0 = vals[i]
                for _ in range(200):
                    xm = 0.5 * (x0 + x1)
                    fm = prob.phi(xm)
                    if fm == 0 or x1 - x0 < 1e-15 * max(1.0, abs(xm)):
                        break
                    if f0 * fm < 0:
                        x1 = xm
                    else:
                        x0, f0 = xm, fm
                refined = prob.newton(complex(xm), tol=1e-12)
                if refined is not None and abs(refined.imag) < 1e-10 \
                        and a - 1e-9 <= refined.real <= b + 1e-9:
                    roots.append(refined.real)
                else:
                    roots.append(xm)
    # dedupe
    roots = sorted(roots)
    out = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-7:
            out.append(r)
    return out


class _WindingSearch:
    """Argument-principle root isolation on a rectangle in the lh-plane."""

    def __init__(self, problem: _RootProblem, max_depth: int = 60):
        self.prob = problem
        self.max_depth = max_depth
        self.winding_total = 0

    def _boundary_points(self, rect):
        re0, re1, im0, im1 = rect
        corners = [complex(re0, im0), complex(re1, im0),
                   complex(re1, im1), complex(re0, im1), complex(re0, im0)]
        sides = [a + (b - a) * np.linspace(0.0, 1.0, max(8, int(abs(b - a) / 0.75) + 1),
                                           endpoint=False)
                 for a, b in zip(corners[:-1], corners[1:])]
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
            root = self.prob.newton(center)
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


def find_complex_roots(coeffs: ReducedCoefficients, control_slope: float,
                       rect, problem: _RootProblem | None = None):
    """All roots of Phi inside ``rect`` = (re_lo, re_hi, im_lo, im_hi).

    A search that fails is retried up to three times with the edges moved;
    the winding total and the number of retries are left on ``problem``.
    """
    prob = problem if problem is not None else _RootProblem(coeffs, control_slope)
    re0, re1, im0, im1 = (float(v) for v in rect)
    _, edge_hat = essential_edges(control_slope)
    re0 = max(re0, edge_hat + 1e-6)
    # nudge boundaries off the poles and the real axis
    for pole in (POLE_LOW, POLE_HIGH):
        if abs(im0) < 1e-12 and re0 < pole < re1:
            im0 -= 1e-6
    search = _WindingSearch(prob)
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


def default_window(coeffs: ReducedCoefficients, control_slope: float):
    """Search rectangle in the lh-plane guaranteed to contain every root.

    Beyond the right edge, |beta*sqrt(1+lh+l'(0))| exceeds |alpha| + sup|R|
    (|R| <= 12 away from unit disks around the poles), so no roots exist.
    """
    _, edge_hat = essential_edges(control_slope)
    bound = ((abs(coeffs.alpha) + 12.0) / abs(coeffs.beta)) ** 2 - 1.0 - control_slope
    re_max = max(10.0, bound + 1.0)
    im_max = 50.0
    return edge_hat + 1e-6, re_max, -im_max, im_max


def verify_r_bound(margin_radius: float = 1.0, bound: float = 12.0) -> bool:
    """Grid check that |R| <= ``bound`` away from unit disks around the poles."""
    re = np.linspace(-0.999, 60.0, 160)
    im = np.linspace(-60.0, 60.0, 120)
    lh = (re[:, None] + 1j * im[None, :]).ravel()
    lh = lh[(abs(lh - POLE_HIGH) >= margin_radius) & (abs(lh - POLE_LOW) >= margin_radius)]
    return bool(np.all(abs(_r_discrete_values(lh) + _continuum_sum(lh)) <= bound))


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


def assemble_spectrum(params: ModelParams, window=None) -> SpectrumReport:
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
        if window is None:
            window = default_window(coeffs, gain)
        re0, re1, im0, im1 = window
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
            for z in find_complex_roots(coeffs, gain, off_axis, problem=prob):
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
