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
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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

# the spacing of ``_certified_radius``'s ladder, half that of the winding samples
_RUNG = 0.375

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)


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
    # Horner's rule on _BERNOULLI, written out
    b4, b6, b8, b10, b12, b14, b16, b18, b20 = _BERNOULLI
    v = ((((((((b20 * w + b18) * w + b16) * w + b14) * w + b12) * w + b10) * w
            + b8) * w + b6) * w + b4) * w
    v *= w / z
    y = (b + 1.0) * (b + 2.0)
    step = 2.0 * b + 4.0  # y_{k+1} - y_k
    for _ in range(_SHIFT - 1):
        v -= (1.0 / 6.0) / (y * y * y)
        y += step
        step += 2.0
    v *= b * b * b
    # products, not a power: numpy and libm round x ** 3 apart
    t = 1.0 + b
    return v - (1.0 / 6.0) / (t * t * t)


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


def _continuum_cleared(lh, sqrt=np.sqrt):
    """R_c(lh) q at a scalar or on an array, real for real lh >= -1, with
    ``sqrt`` the square root for lh's type (``_SQRT``).  Its parts tend to
    -(3/160) lh and -0.0027 lh at large lh, adding without cancelling, and
    cancel to 0 at the poles, where R_c is analytic."""
    out = _trigamma_remainder(sqrt(1.0 + lh))
    out *= (9.0 / 16.0) * lh * lh
    out += _L_SLOPE * lh + _L_ZERO
    return out


def essential_edges(control_slope: float):
    """Essential-spectrum edges (in lambda, in lambda_hat)."""
    if not control_slope < 1:
        raise UnstableEssential("control_slope >= 1")
    edge_lambda = -1.0 + max(control_slope, 0.0)
    edge_lambda_hat = -1.0 + max(0.0, -control_slope)
    return edge_lambda, edge_lambda_hat


# the square root of a Python scalar stays in cmath or math, where numpy would
# cost ten times the arithmetic; math.sqrt and np.sqrt both round correctly,
# so a real point gets the same bits either way (libm's x ** 0.5 need not)
_SQRT = {float: math.sqrt, complex: cmath.sqrt}


def _factors(lh, branch):
    """(s, q, p) at a scalar or on an array: s = sqrt(lh - branch), q =
    (lh - 5/4)(lh + 3/4) and p = (R_d + R_c) q, the factors of
    G = (alpha + beta s) q - p that alpha and beta leave alone."""
    sqrt = _SQRT.get(type(lh), np.sqrt)
    # the continuum part first: its temporaries go before the rest's come
    p = _continuum_cleared(lh, sqrt)
    p += WEIGHT_HIGH * (lh - POLE_LOW) - WEIGHT_LOW * (lh - POLE_HIGH)
    # lh - branch is exactly 0 at the branch point and positive right of it
    return sqrt(lh - branch), (lh - POLE_HIGH) * (lh - POLE_LOW), p


def r_total(lambda_hat: complex) -> complex:
    """R(lh) at one point: G's p / q (``_factors``), in real arithmetic for
    real lh."""
    lh = complex(lambda_hat)
    if lh.imag == 0.0:
        if lh.real <= -1.0:
            raise EssentialRay(f"lambda_hat = {lambda_hat} lies on (-inf, -1]")
        if lh.real in (POLE_HIGH, POLE_LOW):
            raise PoleAtInput(lh.real)
        lh = lh.real
    _, q, p = _factors(lh, -1.0)
    return complex(p / q)


def _imaginary_axis_coefficients(omega):
    """(alpha, beta) for which lh = i*omega, omega > 0, is a root at zero gain.

    There alpha + beta*s = R(lh), s = sqrt(1 + lh), is linear in (alpha,
    beta): its imaginary part gives beta, its real part then alpha.
    """
    s, q, p = _factors(1j * np.asarray(omega, dtype=float), -1.0)
    r = p / q
    beta = r.imag / s.imag
    return r.real - beta * s.real, beta


class _Kept(NamedTuple):
    """A sample set and its ``_factors`` (s, q, p), as read-only arrays."""

    points: np.ndarray
    factors: tuple
    nbytes: int


class _FactorMemo:
    """A bounded memo of sample sets, each with its ``_factors``.

    The real-axis scan and each winding rectangle sample points that depend
    on the window's geometry and the gain only, and ``default_window``'s
    radius lies on a ladder, so one set of samples recurs across spectra;
    only alpha and beta differ.  An entry keeps the points and their
    (s, q, p), keyed by that geometry and the branch point -1 - l'(0), and
    ``get`` hands both to G.  A set whose arrays pass ``CAP`` bytes is
    handed over the same way but not kept, and the least recently used
    entries go once the kept ones pass ``BUDGET`` bytes.  An entry counts
    its arrays and ``ENTRY_BYTES`` for its Python objects (array headers,
    key, tuples and dict slots), which weigh as much as 30 points.

    It is module state, shared by every spectrum in the process, and a
    lock keeps its books whole across threads; it changes no result, since
    a kept set gives the same factors as one made afresh.
    """

    BUDGET = 1 << 20
    CAP = BUDGET // 8
    ENTRY_BYTES = 1024

    def __init__(self):
        self.lock = threading.Lock()
        self.entries = {}  # key -> _Kept, least recently used first
        self.nbytes = 0

    def clear(self):
        with self.lock:
            self.entries.clear()
            self.nbytes = 0

    def get(self, key, build, branch: float) -> _Kept:
        """The samples of ``key`` and their ``_factors`` about ``branch``,
        made from ``build()`` on a miss."""
        with self.lock:
            kept = self.entries.pop(key, None)
            if kept is None:
                points = build()
                factors = _factors(points, branch)
                for a in (points, *factors):
                    a.flags.writeable = False
                arrays = points.nbytes + sum(a.nbytes for a in factors)
                kept = _Kept(points, factors, arrays + self.ENTRY_BYTES)
                if arrays > self.CAP:
                    return kept
                self.nbytes += kept.nbytes
                while self.nbytes > self.BUDGET:
                    self.nbytes -= self.entries.pop(next(iter(self.entries))).nbytes
            self.entries[key] = kept  # now the most recently used
            return kept


_MEMO = _FactorMemo()


def _g(alpha, beta, branch, lh):
    """G = (alpha + beta s) q - p over the ``_factors`` at lh about the branch
    point ``branch``: at a scalar, or on an array with alpha and beta arrays
    like it, which gives a real point the same bits."""
    s, q, p = _factors(lh, branch)
    return (alpha + beta * s) * q - p


class _RootProblem:
    """One spectrum in the making, and its root function G(lh) = (L(lh) -
    R(lh)) (lh - 5/4)(lh + 3/4), where L(lh) = alpha + beta sqrt(1 + lh +
    l'(0)): the root equation cleared of R's two simple poles, so it has the
    same roots and no poles.

    G is linear in (alpha, beta): G = (alpha + beta s) q - p over the
    factors s, q and p of ``_factors``, which depend on lh and the gain
    only.  ``g`` evaluates it at one point, ``_g_rows`` for a group of
    problems on the factors of a ``_MEMO`` sample set, and ``_g`` at the
    points of many problems' real-root brackets, each about its own branch
    point (``_polish_real``).  Real lh, at or right of the branch point
    -1 - l'(0) and of R_c's cut end -1, gives real values.  ``n_eval``
    counts points, here, in ``_g_rows`` or in ``_polish_real``.

    The stages of ``assemble_spectra`` write onto the problem, in turn, its
    search ``window`` and its off-axis rectangle ``rect``, None where it has
    none (``_pose``), its ``real_roots`` (``find_real_roots``) and its
    ``complex_roots`` (``_complex_roots``).  A stage that raises keeps what
    it raised in ``error`` instead (``attempt``), and the later stages pass
    the problem by.

    Complex roots are isolated by the argument principle.  Windings are
    taken of G / prod_r (lh - r) over ``real_roots``, which above the real
    axis counts the roots of G, but whose phase does not turn by pi along an
    edge passing just above a real root.  A phase step of a quarter turn or
    more between boundary samples (``_boundary_points``) is bisected.
    """

    __slots__ = ("alpha", "beta", "gain", "branch", "n_eval",
                 "window", "rect", "real_roots", "complex_roots", "error")

    def __init__(self, coeffs: ReducedCoefficients, control_slope: float):
        self.alpha = coeffs.alpha
        self.beta = coeffs.beta
        self.gain = control_slope
        self.branch = -1.0 - control_slope
        self.n_eval = 0
        self.window = self.rect = self.error = None
        self.real_roots, self.complex_roots = [], []

    def attempt(self, stage, *args):
        """``stage(*args)``, or None if it raised, and then ``error`` keeps
        what it raised: a problem that fails leaves the others of its group
        alone."""
        try:
            return stage(*args)
        except Exception as exc:
            self.error = exc

    def g(self, lh):
        """G at one point (the scalar polish, the secant, phase-step
        refinement), in Python float or complex arithmetic, which costs about
        a third of an array call."""
        self.n_eval += 1
        lh = complex(lh) if isinstance(lh, complex) else float(lh)
        return _g(self.alpha, self.beta, self.branch, lh)

    def secant(self, lh0: complex, lh1: complex, reach: float):
        """Secant iteration on G from ``lh0`` and ``lh1``; returns the root,
        or None once an iterate lies farther than ``reach`` from ``lh0`` or
        ``_SECANT_STEPS`` steps run out.

        It stops once a step falls within 4 ulps of the iterate.  Where
        rounding stalls it first, as by a close pair of roots, it stops once
        a step below sqrt(eps) relative no longer lowers |G|, and keeps the
        iterate before that step.
        """
        x0, x1 = complex(lh0), complex(lh1)
        f0, f1 = self.g(x0), self.g(x1)
        for _ in range(_SECANT_STEPS):
            if f1 == f0:
                return None
            step = f1 * (x1 - x0) / (f1 - f0)
            x0, f0, x1 = x1, f1, x1 - step
            if not cmath.isfinite(x1) or abs(x1 - lh0) > reach:
                return None
            if abs(step) <= 4.0 * _EPS * abs(x1):
                return x1
            f1 = self.g(x1)
            if abs(f1) >= abs(f0) and abs(step) <= _SQRT_EPS * abs(x1):
                return x0
        return None

    def _deflated(self, lh):
        """G(lh) / prod_r (lh - r) at one point."""
        out = self.g(lh)
        for r in self.real_roots:
            out /= lh - r
        return out

    def winding(self, rect) -> int:
        """The winding number on ``rect``."""
        ((_, row),) = _phase_steps([self], rect)
        return self.count(*row)

    def count(self, pts, vals, steps, big, zero: bool) -> int:
        """The winding number from the deflated G ``vals`` at the closed
        boundary samples ``pts``, ``zero`` if one is 0, and the principal
        phase ``steps`` between neighbours, once those that are ``big`` are
        resolved by bisection.  The samples close on their first point, so
        the steps sum to a multiple of 2 pi up to rounding."""
        if zero:
            raise RootIsolationFailure("root on search boundary")
        for i in big.nonzero()[0]:
            steps[i] = self._arg_step(pts[i], vals[i], pts[i + 1], vals[i + 1], depth=0)
        return int(round(steps.sum() / (2.0 * np.pi)))

    def _arg_step(self, a, fa, b, fb, depth):
        if fa == 0 or fb == 0:
            raise RootIsolationFailure("root on search boundary")
        d = np.angle(fb / fa)
        if abs(d) < 0.5 * np.pi:
            return d
        if depth >= 48 or abs(b - a) < 1e-13:
            raise RootIsolationFailure("phase tracking stalled on boundary")
        m = 0.5 * (a + b)
        fm = self._deflated(m)
        return self._arg_step(a, fa, m, fm, depth + 1) \
            + self._arg_step(m, fm, b, fb, depth + 1)

    def roots(self, rect, w: int, depth: int = 0):
        """The roots in ``rect``, whose winding number is ``w``."""
        if w == 0:
            return []
        re0, re1, im0, im1 = rect
        diam = math.hypot(re1 - re0, im1 - im0)
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        if w == 1 or diam < 1e-3:
            # an iterate farther than the diameter from the centre has left
            # the rectangle; give up there and subdivide
            root = self.secant(center, center + _SECANT_START * diam, diam)
            if root is not None and re0 - 1e-9 <= root.real <= re1 + 1e-9 \
                    and im0 - 1e-9 <= root.imag <= im1 + 1e-9:
                return [root] * w  # a cluster or multiple root counts w times
            if diam < 1e-6:
                raise RootIsolationFailure(
                    f"winding {w} in cell of diameter {diam:.2e} but the secant failed")
        if depth >= _MAX_DEPTH:
            raise RootIsolationFailure("max subdivision depth reached")
        # split slightly off-center so subdivision lines avoid roots
        fr = 0.5 + 1.37e-3
        rm = re0 + fr * (re1 - re0)
        im_m = im0 + fr * (im1 - im0)
        out = []
        for sub in ((re0, rm, im0, im_m), (rm, re1, im0, im_m),
                    (re0, rm, im_m, im1), (rm, re1, im_m, im1)):
            out.extend(self.roots(sub, self.winding(sub), depth + 1))
        return out

    def isolate(self, rect, row):
        """The roots in ``rect``, sorted, from its boundary ``row`` of
        ``_phase_steps``: they must match its winding number in number, or
        ``RootIsolationFailure`` is raised."""
        total = self.count(*row)
        found = self.roots(rect, total)
        if len(found) != total:
            raise RootIsolationFailure(
                f"found {len(found)} roots where the winding number is {total} on {rect}")
        found.sort(key=lambda z: (z.real, z.imag))
        return found

    def report(self) -> SpectrumReport:
        """The report on the roots found, once every stage ran without
        ``error``."""
        roots = [complex(r, 0.0) for r in self.real_roots]
        for z in self.complex_roots:
            roots += [z, z.conjugate()]
        gain = self.gain
        re0, re1, im0, im1 = self.window
        return _report(gain, [z + gain for z in roots],
                       {"re": [re0, re1], "im": [im0, im1]}, self.n_eval)


def _real_subintervals(lo: float, hi: float, control_slope: float):
    """(lo, hi) from where G is real, at or right of the branch point
    -1 - l'(0) and of -1, split at the poles inside it."""
    lo = max(lo, -1.0, -1.0 - control_slope)
    cuts = [lo] + [p for p in (POLE_LOW, POLE_HIGH) if lo < p < hi] + [hi]
    return [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]


def _geomspace(start: float, stop: float, num: int):
    """``np.geomspace(start, stop, num)`` bit for bit, for start, stop > 0:
    the same 10 ** (k * step + log10 start) with both ends set, without the
    argument handling that costs np.geomspace more than its arithmetic."""
    lo = np.log10(start)
    out = 10.0 ** (np.arange(num) * ((np.log10(stop) - lo) / (num - 1)) + lo)
    out[0] = start
    out[-1] = stop
    return out


def _scan_points(a, b):
    """Sorted scan samples of the subintervals [a_k, b_k] (arrays, in order,
    sharing at most an end): per subinterval the grid
    ``np.linspace(a_k, b_k, n_k)``, bit for bit, plus 25 geometric offsets
    from 1e-8 to half the first one's width in from a_0, which bracket roots
    by the branch point or the cut's end -1, where a square root's slope is
    unbounded.  A pole needs none: it is a grid sample, and G is finite there."""
    pts = []
    for lo, hi in zip(a.tolist(), b.tolist()):
        n = max(64, min(512, int((hi - lo) * 16)))
        # np.linspace's k * step + lo, ending at hi
        grid = np.arange(n) * ((hi - lo) / (n - 1)) + lo
        grid[-1] = hi
        pts.append(grid)
    pts.append(a[0] + _geomspace(1e-8, 0.5 * (b[0] - a[0]), 25))
    # np.unique's sort and mask, without its argument handling, which on
    # numpy 2.4 imports numpy.ma
    pts = np.concatenate(pts)
    pts.sort()
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


# the winding count samples each side of a rectangle every _SPACING, at
# least _MIN_SIDE points; a rectangle that holds one root polishes it by the
# secant on G, from the centre and _SECANT_START times the diameter beside
# it, for _SECANT_STEPS steps at most; subdivision stops at depth _MAX_DEPTH
_SPACING = 0.75
_MIN_SIDE = 8
_SECANT_START = 1e-3 * (1.0 + 1.0j)
_SECANT_STEPS = 60
_MAX_DEPTH = 60


def _side(a: complex, b: complex):
    """Samples from ``a`` toward ``b``, ``b`` left out."""
    n = max(_MIN_SIDE, int(abs(b - a) / _SPACING) + 1)
    # np.linspace(0, 1, n, endpoint=False), bit for bit
    return a + (b - a) * (np.arange(n) * (1.0 / n))


def _boundary_points(rect):
    """The samples of ``rect``'s boundary, counterclockwise from its lower
    left corner, which closes them."""
    re0, re1, im0, im1 = rect
    corners = [complex(re0, im0), complex(re1, im0),
               complex(re1, im1), complex(re0, im1), complex(re0, im0)]
    sides = [_side(a, b) for a, b in zip(corners[:-1], corners[1:])]
    return np.concatenate(sides + [[corners[0]]])


# a block of a group's problems holds at most this many samples in all, which
# bounds the temporaries of the passes that run on the block at once
_BLOCK_POINTS = 1 << 13


def _column(values, dtype):
    """``values`` as a column that broadcasts along a row each, in ``dtype``,
    as numpy casts a Python scalar there.  One value stays a Python scalar,
    for numpy's scalar loops, which cost less than broadcasting."""
    if len(values) == 1:
        return values[0]
    return np.array(values, dtype=dtype)[:, None]


def _g_rows(problems, factors):
    """G of each of ``problems``, which share one gain, on one ``_MEMO``
    sample set's factors (s, q, p), a row each: (A + B s) q - p with A and B
    the columns of their alpha and beta."""
    s, q, p = factors
    for prob in problems:
        prob.n_eval += q.size
    a = _column([prob.alpha for prob in problems], s.dtype)
    b = _column([prob.beta for prob in problems], s.dtype)
    return ((a + b * s) * q - p).reshape(len(problems), -1)


def _sampled(problems, key, build):
    """G of ``problems``, which share one gain, on the samples of the
    ``_MEMO`` set ``key``, made by ``build()`` on a miss: per block of
    consecutive problems, the samples, the block and its G, a row per
    problem (``_g_rows``).  A block holds at most ``_BLOCK_POINTS`` samples
    in all, and at least one problem."""
    xs, factors, _ = _MEMO.get(key, build, problems[0].branch)
    size = max(1, _BLOCK_POINTS // xs.size)
    for start in range(0, len(problems), size):
        block = problems[start:start + size]
        yield xs, block, _g_rows(block, factors)


# a bracket that has not converged after this many steps fails
_MAX_STEPS = 100


def _chandrupatla(f, a: float, b: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """A zero of ``f`` in [a, b] by Chandrupatla's method (Adv. Eng. Softw.
    28, 1997), from the values ``fa`` and ``fb`` of f at the ends, in Python
    floats.

    Each step evaluates f at x1 + t (x2 - x1), where x1 is the last point,
    x2 the end of the bracket where f has the other sign and x3 the point
    dropped last.  t is the inverse quadratic interpolation through the
    three where it stays within Chandrupatla's bounds, a bisection
    elsewhere and a secant step first, kept (xtol + rtol |x|) / 2 in from
    both ends.  It returns the end with the smaller |f| once the bracket is within
    xtol + rtol |x| of it, or a point where f is 0.  Ends of one sign and a
    NaN value of f raise ValueError, and ``_MAX_STEPS`` steps without
    convergence RuntimeError.  ``_chandrupatla_array`` is the same iteration
    on many brackets, bit for bit."""
    x1, f1, x2, f2 = a, fa, b, fb
    if f1 == 0.0:
        return x1
    if f2 == 0.0:
        return x2
    if f1 != f1 or f2 != f2:
        raise _nan_value(x1 if f1 != f1 else x2)
    if (f1 < 0.0) == (f2 < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    x3 = f3 = 0.0
    t = f1 / (f1 - f2)
    for step in range(_MAX_STEPS + 1):
        x = x1 if abs(f1) < abs(f2) else x2
        tol = abs(x) * rtol + xtol
        dx = abs(x2 - x1)
        if dx < tol:
            return x
        if step == _MAX_STEPS:
            break
        # t clipped to [tl, 1 - tl], as np.minimum(np.maximum(t, tl), 1 - tl)
        tl = 0.5 * tol / dx
        if t < tl:
            t = tl
        elif t > 1.0 - tl:
            t = 1.0 - tl
        x = x1 + t * (x2 - x1)
        fx = f(x)
        if fx != fx:
            raise _nan_value(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f1 < 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        t = 0.5
        # the quotients the array form takes, skipped where one would divide
        # by 0: there its inf or NaN fails the bounds, and t stays 0.5
        if x3 != x2 and f3 != f2 and x2 != x1:
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            if 0.0 <= xi <= 1.0 and 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
                t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                     - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
    raise _no_convergence()


def _nan_value(x) -> ValueError:
    return ValueError(f"the function value at x={float(x)} is NaN; solver cannot continue")


def _no_convergence() -> RuntimeError:
    return RuntimeError(f"Failed to converge after {_MAX_STEPS} iterations.")


def _chandrupatla_array(f, a, b, fa, fb, xtol: float, rtol: float):
    """``_chandrupatla`` on the brackets [a_k, b_k] at once, from the arrays
    ``fa`` and ``fb`` of f at their ends: ``f(x, live)`` gives f at each
    point of the array x, of the brackets at the indices ``live``.  A
    bracket leaves the array once it converges or fails.  Returns the
    roots, NaN where a bracket failed, the evaluations of f per bracket and
    per bracket the exception the scalar form raises, or None."""
    n = a.size
    roots = np.full(n, np.nan)
    evals = np.zeros(n, dtype=int)
    errors = [None] * n
    # a zero, a NaN or one sign at the ends settles a bracket before any step
    settled = (fa == 0.0) | (fb == 0.0) | (fa != fa) | (fb != fb) | ((fa < 0.0) == (fb < 0.0))
    for k in np.flatnonzero(settled).tolist():
        try:
            roots[k] = _chandrupatla(None, a[k], b[k], fa[k], fb[k], xtol, rtol)
        except ValueError as exc:
            errors[k] = exc
    live = np.flatnonzero(~settled)
    x1, f1, x2, f2 = a[live], fa[live], b[live], fb[live]
    x3, f3 = x2, f2
    # Python floats overflow and divide by 0 without a word; so does this
    # form, whose inf and NaN then take the scalar form's course
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = f1 / (f1 - f2)
        for step in range(_MAX_STEPS + 1):
            small = np.abs(f1) < np.abs(f2)
            x = np.where(small, x1, x2)
            tol = np.abs(x) * rtol + xtol
            dx = np.abs(x2 - x1)
            done = dx < tol
            if done.any():
                roots[live[done]] = x[done]
                keep = ~done
                live, x1, f1, x2, f2, x3, f3, t, tol, dx = (
                    v[keep] for v in (live, x1, f1, x2, f2, x3, f3, t, tol, dx))
            if not live.size:
                break
            if step == _MAX_STEPS:
                for k in live.tolist():
                    errors[k] = _no_convergence()
                break
            tl = 0.5 * tol / dx
            x = x1 + np.minimum(np.maximum(t, tl), 1.0 - tl) * (x2 - x1)
            fx = f(x, live)
            evals[live] += 1
            stop = ~(np.abs(fx) > 0.0)  # 0 or NaN
            if stop.any():
                for k, xk, fk in zip(live[stop].tolist(), x[stop].tolist(), fx[stop].tolist()):
                    if fk == 0.0:
                        roots[k] = xk
                    else:
                        errors[k] = _nan_value(xk)
                keep = ~stop
                live, x, fx, x1, f1, x2, f2 = (v[keep] for v in (live, x, fx, x1, f1, x2, f2))
            same = (fx < 0.0) == (f1 < 0.0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, fx
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
    return roots, evals, errors


def _close_pair(prob: _RootProblem, lo: float, f_lo: float, hi: float, f_hi: float):
    """The two brackets (a, b, G(a), G(b)) of a close pair of roots in
    (lo, hi), where G has one sign at both ends: at x, where the bounded
    minimizer finds the least |G|, G has the other sign or is 0.  None if it
    keeps the sign there."""
    # rare (about one gap in 15,000 spectra), and the one use of scipy on
    # the spectrum path, which a CLI spectrum then loads only here
    from scipy.optimize import minimize_scalar

    s = 1.0 if f_lo > 0.0 else -1.0
    x = float(minimize_scalar(lambda x: s * prob.g(x), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12}).x)
    f = prob.g(x)
    if s * f <= 0.0:
        return (lo, x, f_lo, f), (x, hi, f, f_hi)
    return None


def _scan_real(problems, window):
    """The scan of ``find_real_roots`` for ``problems`` that share one gain
    and ``window``: onto each problem's ``real_roots`` the samples where G
    is 0, and the brackets of its other roots as (owners, ends), the problem
    of each bracket and (4, n) arrays of their ends a < b and G there.

    One scan samples G on every subinterval of ``_real_subintervals``, with
    the samples of all the problems in one array.  G is finite at the poles
    and keeps its sign across them, so a sign change between two
    neighbouring samples brackets a root.

    A close pair of roots between two samples changes no sign.  Where the
    parabola through three samples turns back across zero at a vertex in a
    gap without a sign change, the bounded minimizer seeks the least |G|
    there, and a sign change at it brackets both roots (``_close_pair``).
    The sign-change and parabola passes run once on the array, and the
    minimizer on the gaps they find only."""
    owners, ends = [], []
    intervals = _real_subintervals(float(window[0]), float(window[1]), problems[0].gain)
    if not intervals:
        return owners, ends  # no root
    for xs, block, vals in _sampled(problems, ("scan", problems[0].branch, *intervals),
                                    lambda: _scan_points(*np.array(intervals).T)):
        # flat, the block is a row after the other: its sample k is xs[k % n]
        # in the row of problem k // n
        n = xs.size
        one = len(block) == 1
        sign = np.sign(vals)
        if not vals.all():
            for k in (sign.ravel() == 0.0).nonzero()[0].tolist():
                block[k // n].real_roots.append(float(xs[k % n]))
        # the k-th gap between neighbours in a row lies between samples
        # k + row and k + row + 1 of the flat block
        k = (sign[:, :-1] * sign[:, 1:] < 0.0).ravel().nonzero()[0]
        if k.size:
            if one:
                i = k
                owners += block * k.size
            else:
                row, i = np.divmod(k, n - 1)
                owners += [block[r] for r in row.tolist()]
                k = k + row
            ends.append(np.array((xs[i], xs[i + 1], vals.take(k), vals.take(k + 1))))
        # the parabola y1 + c (x - x1) + q (x - x1)^2 through three samples
        # turns back across zero where q y1 > 0 and c^2 >= 4 q y1.  Each row
        # is taken over the power of two that brings its largest |G| into
        # [1/2, 1), which changes neither test but keeps the slopes finite
        y = np.ldexp(vals, -np.frexp(np.abs(vals).max(axis=1, keepdims=True))[1])
        h = xs[1:] - xs[:-1]
        slope = (y[:, 1:] - y[:, :-1]) / h
        q = (slope[:, 1:] - slope[:, :-1]) / (h[:-1] + h[1:])
        c = slope[:, :-1] + q * h[:-1]
        qy = q * y[:, 1:-1]
        k = ((qy > 0.0) & (4.0 * qy <= c * c)).ravel().nonzero()[0]
        if not k.size:
            continue
        # a turning parabola's vertex x1 - c / (2 q) in a gap without a sign
        # change may hide a close pair there; the k-th parabola starts at
        # sample i of its row
        row, i = (0, k) if one else np.divmod(k, n - 2)
        offset = -c.take(k) / (2.0 * q.take(k))
        near = (-h[i] < offset) & (offset < h[i + 1])
        if not near.any():
            continue
        at = (row * n + i + (offset > 0.0))[near]  # the vertex lies in (at, at + 1)
        for j in sorted(set(at[sign.take(at) == sign.take(at + 1)].tolist())):
            prob = block[j // n]
            pair = prob.attempt(_close_pair, prob, float(xs[j % n]), float(vals.take(j)),
                                float(xs[j % n + 1]), float(vals.take(j + 1)))
            if pair:
                owners += [prob, prob]
                ends.append(np.array(pair).T)
    return owners, ends


# from this many brackets on, one array iteration over all of them costs
# less than the scalar iteration on each: on brackets of a 16 x 16 sweep at
# zero gain (2-core x86-64, numpy 2), the array form took 1.24 times the
# scalar time on 24 of them, 0.85 on 32 and 0.12 on all 405; on one, 21
_ARRAY_BRACKETS = 32


def _polish_real(owners, ends):
    """The polish of ``find_real_roots``: the root of each bracket of
    ``ends`` = (a, b, G(a), G(b)) to 4 ulps by Chandrupatla's method, added
    to the ``real_roots`` of its problem in ``owners``, or, where one fails,
    the ``error`` of the problem's first bracket that failed.  Many brackets
    run as one array iteration, with G of all the live brackets in one
    ``_factors`` call a step and per-bracket alpha, beta and branch point,
    so the problems may differ in gain; a few run one by one in Python
    floats, with the same roots after the same evaluations."""
    xtol, rtol = 1e-300, 4.0 * _EPS
    if len(owners) < _ARRAY_BRACKETS:
        for prob, (a, b, fa, fb) in zip(owners, ends.T.tolist()):
            if prob.error is None:
                root = prob.attempt(_chandrupatla, prob.g, a, b, fa, fb, xtol, rtol)
                if prob.error is None:
                    prob.real_roots.append(root)
        return
    alpha, beta, branch = np.array([(prob.alpha, prob.beta, prob.branch) for prob in owners]).T
    roots, evals, errors = _chandrupatla_array(
        lambda x, live: _g(alpha[live], beta[live], branch[live], x), *ends, xtol, rtol)
    for prob, root, n, exc in zip(owners, roots.tolist(), evals.tolist(), errors):
        prob.n_eval += n
        if prob.error is None:
            if exc is None:
                prob.real_roots.append(root)
            else:
                prob.error = exc


def find_real_roots(problems):
    """The real-root stage of ``assemble_spectra``: onto each of
    ``problems`` without an ``error`` its ``real_roots`` in its ``window``,
    ascending, or the ``error`` it raised.  The scan runs once per group of
    problems that share a gain and a window (``_scan_real``), and the
    polish once on the brackets of them all (``_polish_real``)."""
    owners, ends = [], []
    for group in _grouped(problems, lambda prob: (prob.gain, prob.window[:2])):
        found, brackets = _scan_real(group, group[0].window[:2])
        owners += found
        ends += brackets
    if owners:
        _polish_real(owners, ends[0] if len(ends) == 1 else np.concatenate(ends, axis=1))
    for prob in problems:
        prob.real_roots.sort()


def _phase_steps(problems, rect):
    """The deflated G of each of ``problems``, which share one gain and
    their number of real roots, on the boundary samples of ``rect``, and
    its principal phase steps between neighbours: per problem, the problem
    and the arguments of its winding ``count``.
    The deflated G of a block of problems is one array, and its phase steps
    are taken once."""
    key = ("rect", problems[0].branch, _SPACING, _MIN_SIDE, *rect)
    for pts, block, vals in _sampled(problems, key, lambda: _boundary_points(rect)):
        for k in range(len(block[0].real_roots)):
            vals /= pts - _column([prob.real_roots[k] for prob in block], pts.dtype)
        zero = np.zeros(len(block), dtype=bool)
        safe = vals
        if not vals.all():
            # a row with a zero sample fails its count, so its steps go
            # unused: take them of ones, which divide without a warning
            zero = ~vals.all(axis=1)
            safe = np.where(zero[:, None], 1.0, vals)
        steps = np.angle(safe[:, 1:] / safe[:, :-1])
        big = np.abs(steps) >= 0.5 * np.pi
        for k, prob in enumerate(block):
            yield prob, (pts, vals[k], steps[k], big[k], zero[k])


def _complex_roots(problems, rect):
    """The winding stage of ``assemble_spectra``: onto each of ``problems``,
    which share one gain, its ``complex_roots`` inside ``rect`` = (re_lo,
    re_hi, im_lo, im_hi), sorted, or the ``error`` its search raised.  The
    top winding count of all of them runs on one array (``_phase_steps``);
    each problem's roots must match its count in number (``isolate``).
    ``rect`` lies above each problem's ``real_roots``, as many for each,
    which the count deflates."""
    rect = tuple(float(v) for v in rect)
    for prob, row in _phase_steps(problems, rect):
        prob.complex_roots = prob.attempt(prob.isolate, rect, row)


def _r_bound_terms():
    """(W_j, p_j) of the bound |R(lh)| <= sum_j W_j / |lh - p_j| on
    Re lh >= -1: the poles 5/4 and -3/4, and the cut's end -1 with weight
    W_c = ``WEIGHT_CONTINUUM``.  There every denominator of the continuum
    integral has |lh + kappa^2 + 1| >= |lh + 1|, and its weight is positive."""
    return ((WEIGHT_HIGH, POLE_HIGH), (WEIGHT_LOW, POLE_LOW),
            (WEIGHT_CONTINUUM, -1.0))


def _certified_radius(alpha: float, beta: float, control_slope: float) -> float:
    """Radius about the branch point c = -1 - l'(0) outside which, on
    Re lh >= -1, the root equation has no root: the least rung of the ladder
    ``_RUNG`` k, k = 1, 2, ..., that the bound below certifies.

    There |R(lh)| <= sum_j W_j / |lh - p_j| (``_r_bound_terms``).  Take the
    circle |lh - c| = r, where |beta sqrt(1 + lh + l'(0))| = |beta| sqrt(r),
    and on it the arc Re lh >= c, which holds every point of the window.
    There |lh - p| >= r - (p - c) for p > c, and |lh - p| >= hypot(r, p - c)
    for p <= c.  So no root lies on the arc once
        |beta| sqrt(r) - |alpha| - sum_j W_j / dist_j(r) > 0,
    and this excess increases with r past d = max(0, max_j p_j - c).  It
    is below |beta| sqrt(r) - |alpha|, so no rung at or below
    max(d, (alpha / beta)^2) is certified; doubling k from twice the last
    of those and then bisecting finds the least rung where it is positive.
    Rounded, the excess still never falls as r grows, so that is the rung
    a search from k = 1 finds.  On the ladder, windows recur from one
    spectrum to the next, and so do their samples (``_FactorMemo``).
    """
    def no_window():
        # made only when raised: formatting it costs a spectrum about 1 us
        return ValueError(f"no finite search window for alpha = {alpha}, "
                          f"beta = {beta}, l'(0) = {control_slope}")

    if beta == 0.0 or not all(map(math.isfinite, (alpha, beta, control_slope))):
        raise no_window()
    c = -1.0 - control_slope
    (w_h, o_h), (w_l, o_l), (w_c, o_c) = [(w, p - c) for w, p in _r_bound_terms()]
    d = max(0.0, o_h, o_l, o_c)
    abs_alpha, abs_beta = abs(alpha), abs(beta)

    def excess(r):
        # r - offset >= r - d > 0
        return abs_beta * math.sqrt(r) - abs_alpha \
            - (w_h / (r - o_h if o_h > 0.0 else math.hypot(r, o_h))
               + w_l / (r - o_l if o_l > 0.0 else math.hypot(r, o_l))
               + w_c / (r - o_c if o_c > 0.0 else math.hypot(r, o_c)))

    def certified(k):
        r = _RUNG * k
        return r > d and excess(r) > 0.0

    # the last rung searched: past it, doubling would overflow _RUNG k
    top = 1 << 1022
    # a relative margin of 1e-12, far above the rounding of the bound,
    # keeps lo at or below it
    ratio = alpha / beta
    bound = max(d, ratio * ratio) * (1.0 - 1e-12) / _RUNG  # inf, not OverflowError
    if not bound < top:
        raise no_window()
    lo = int(bound)  # 0, or a rung that is not certified
    k = max(1, min(2 * lo, top))
    while not certified(k):
        if k == top:
            raise no_window()
        lo, k = k, min(2 * k, top)
    while k - lo > 1:
        mid = (lo + k) // 2
        if certified(mid):
            k = mid
        else:
            lo = mid
    # with the excess positive at the least positive float, every root
    # rounds onto the branch point, and no window separates them from it
    if lo == 0 and d == 0.0 and excess(math.ulp(0.0)) > 0.0:
        raise no_window()
    return _RUNG * k


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
    has a finite g*.  g* is found by ``_chandrupatla`` on the analytic
    bracket below and rounded down by its tolerance.
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
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0.0 > f_hi:
        xtol = rtol = 1e-12
        s = _chandrupatla(excess, lo, hi, f_lo, f_hi, xtol, rtol)
        hi = min(hi, s + xtol + rtol * s)
    return -(POLE_HIGH + hi)


def default_window(coeffs: ReducedCoefficients, control_slope: float):
    """Search rectangle in the lh-plane that contains every root: the
    square around the disk of radius ``_certified_radius`` about the branch
    point -1 - l'(0), cut at the essential edge.  The radius is a rung of
    the ladder ``_RUNG`` k, at least ``_RUNG``, so the box clears its 1e-6
    offsets from the edge and from the axis, and the window is a function of
    the rung and the gain."""
    _, edge_hat = essential_edges(control_slope)
    rho = _certified_radius(coeffs.alpha, coeffs.beta, control_slope)
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


def _report(gain: float, root_eigs, window: dict, evaluations: int) -> SpectrumReport:
    """The report on the eigenvalues ``root_eigs`` (in lambda) and the
    translation eigenvalue l'(0)."""
    edge_lambda, _ = essential_edges(gain)
    translation = complex(gain, 0.0)
    eigs_sorted = sorted(root_eigs + [translation], key=lambda z: (-z.real, z.imag))
    return SpectrumReport(
        eigenvalues=eigs_sorted,
        translation_eigenvalue=translation,
        essential_edge=edge_lambda,
        verdict=_verdict(root_eigs, gain),
        max_real_part=max(z.real for z in eigs_sorted),
        search_window=window,
        diagnostics={"function_evaluations": evaluations},
    )


def _pose(params: ModelParams):
    """The report on ``params`` where f'(u*) = 0, and otherwise its root
    problem, posed: with its search window and off-axis rectangle, or the
    ``error`` that ``default_window`` raised.

    With f'(u*) = 0 no zero-pole cancellation occurs and the fast eigenvalues
    {5/4, 0, -3/4} (shifted by the gain) survive verbatim; in addition the
    slow problem degenerates to sqrt(1 + lambda) = nu u*, contributing the
    gain-independent eigenvalue (nu u*)^2 - 1 whenever nu u* > 0.
    """
    gain = params.control_slope
    if params.f_der == 0.0:
        root_eigs = [complex(POLE_HIGH + gain), complex(POLE_LOW + gain)]
        slow = params.nu * params.u_star
        if slow > 0.0:
            # the slow zero cannot be moved by the gain: sqrt(1 + lambda)
            # only sees lambda = lambda_hat + l'(0)
            root_eigs.append(complex(slow * slow - 1.0))
        note = {"note": "no cancellation (f_der = 0): fast spectrum survives"}
        return _report(gain, root_eigs, note, 0)
    coeffs = reduced_coefficients(params)
    prob = _RootProblem(coeffs, gain)
    prob.window = prob.attempt(default_window, coeffs, gain)
    if prob.error is None:
        prob.rect = _off_axis(prob.beta, prob.window)
    return prob


def _off_axis(beta: float, window):
    """The rectangle above the real axis that holds every complex root in
    ``window`` with Im lh > 0, or None where there is none."""
    re0, re1, _, im1 = window
    if beta < 0:
        # complex roots possible anywhere: search the upper half plane
        return re0, re1, 1e-6, im1
    # beta > 0: for Im lh > 0, beta Im sqrt(1 + lh + l'(0)) > 0, so a root
    # needs Im R > 0.  On Re lh >= -1, where |lh + k^2 + 1| >= |lh + 1|,
    # Im R <= Im lh (W_L/|lh+3/4|^2 + W_c/|lh+1|^2 - W_H/|lh-5/4|^2).
    # Where Re lh >= -0.36 or Im lh >= 0.6, d = |lh + 3/4| >= 0.39,
    # |lh - 5/4| <= d + 2 and |lh + 1| >= max(0.6, d - 1/4), so (d + 2)^2
    # times the bracket is at most W_L (1 + 2/d)^2 + W_c ((d + 2) /
    # max(0.6, d - 1/4))^2 - W_H <= 3.67 + 0.49 - 7.32 < 0: the first
    # term falls with d, the second peaks at d = 0.85.  So only this
    # zone can hold a complex root
    return (re0, -0.35, 1e-6, 0.6) if re0 < -0.36 else None


def _grouped(problems, key):
    """The ``problems`` without an ``error``, in lists of equal ``key``,
    each in the order given."""
    groups = {}
    for prob in problems:
        if prob.error is None:
            groups.setdefault(key(prob), []).append(prob)
    return groups.values()


def assemble_spectra(params_list) -> list:
    """``assemble_spectrum`` of each of ``params_list``, in order; an entry
    is the exception its spectrum raised instead, if any.

    A spectrum with f'(u*) != 0 is a ``_RootProblem``, which the stages
    fill in turn: ``_pose`` its window, ``find_real_roots`` its real roots
    and ``_complex_roots`` its complex roots.  A stage that raises on a
    spectrum keeps the exception in its ``error``, and the later stages
    pass it by, so a spectrum that raises leaves the others alone.

    Spectra at one gain whose windows coincide (on the ladder of
    ``default_window``) share the real-axis scan, and those whose off-axis
    rectangles coincide share the top winding count: G on those samples is
    one (spectra x samples) array, and its sign-change, parabola and phase
    passes run once.  The real roots of all the spectra, at any gain, are
    polished together (``_polish_real``); the minimizer, the phase-step
    bisection, the secant, subdivision and the certificate run per spectrum.
    """
    out = [_pose(params) for params in params_list]
    # reports (f' = 0) stand; the stages fill the problems
    problems = [x for x in out if type(x) is _RootProblem]
    find_real_roots(problems)
    # the winding count deflates the real roots, as many in a group
    for group in _grouped([prob for prob in problems if prob.rect is not None],
                          lambda prob: (prob.gain, prob.rect, len(prob.real_roots))):
        _complex_roots(group, group[0].rect)
    return [x.error or x.report() if type(x) is _RootProblem else x for x in out]


def assemble_spectrum(params: ModelParams) -> SpectrumReport:
    """Locate the full point spectrum and classify stability.

    With f'(u*) = 0 the fast eigenvalues survive (``_pose``).  Otherwise
    the eigenvalues are the roots of the reduced equation plus the
    translation eigenvalue at lambda = l'(0).
    """
    (report,) = assemble_spectra([params])
    if isinstance(report, Exception):
        raise report
    return report
