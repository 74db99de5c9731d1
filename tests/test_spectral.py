"""Spectral layer: the closed-form R, the reduced root equation, root
finders, and verdict assembly."""

import cmath
import functools
import json
import math
import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from pulsectrl import regions, spectral
from pulsectrl.errors import (
    EssentialRay,
    FloorInsufficient,
    PoleAtInput,
    RootIsolationFailure,
    UnstableEssential,
)
from pulsectrl.model import ModelParams, ReducedCoefficients, reduced_coefficients
from pulsectrl.oracle import FastGrid, r_oracle
from pulsectrl.spectral import (
    POLE_HIGH,
    POLE_LOW,
    WEIGHT_HIGH,
    WEIGHT_LOW,
    assemble_spectrum,
    default_window,
    essential_edges,
    find_real_roots,
    r_total,
)

FIG4_COEFFS = ReducedCoefficients(alpha=2.0, beta=-1.0)


def real_roots_of(coeffs, gain, window, prob=None):
    """``find_real_roots`` of one root problem, ``prob`` if given."""
    prob = prob or spectral._RootProblem(coeffs, gain)
    prob.window = window
    find_real_roots([prob])
    if prob.error is not None:
        raise prob.error
    return prob.real_roots


def fresh_table(monkeypatch):
    """An empty zero-gain table (``_zero_gain_set``) of the test's own, for
    a test that stubs what the table would keep."""
    table = functools.cache(spectral._zero_gain_set.__wrapped__)
    monkeypatch.setattr(spectral, "_zero_gain_set", table)
    return table


def complex_roots_of(prob, rect, real=()):
    """``_complex_roots`` of one root problem, with its real roots ``real``."""
    prob.real_roots = list(real)
    spectral._complex_roots([prob], rect)
    if prob.error is not None:
        raise prob.error
    return prob.complex_roots


def g_on(prob, lh):
    """G of ``prob`` on the array ``lh``, by the array evaluator ``_g_rows``."""
    return spectral._g_rows([prob], spectral._factors(np.asarray(lh), prob.branch))[0]


def oracle_extrapolated(lh: complex) -> complex:
    """Richardson-extrapolated brute-force R (kills the O(h^2) grid error)."""
    coarse = r_oracle(lh, FastGrid(-40.0, 40.0, 8001))
    fine = r_oracle(lh, FastGrid(-40.0, 40.0, 16001))
    return (4.0 * fine - coarse) / 3.0


def r_array(lh):
    """R on an array of lh, as G's p / q."""
    _, q, p = spectral._factors(lh, -1.0)
    return p / q


def continuum(lh):
    """The continuum part R_c at a scalar or on an array: R_c q over q."""
    return spectral._continuum_cleared(lh) / ((lh - POLE_HIGH) * (lh - POLE_LOW))


class TestRDiscrete:
    """The two-pole part R_d of R: R less the continuum part."""

    @staticmethod
    def r_d(lh):
        return r_total(lh) - continuum(lh)

    def test_decay_at_infinity(self):
        assert abs(self.r_d(1e6)) < 1e-5

    def test_closed_form_value(self):
        # W_H / (lh - 5/4) - W_L / (lh + 3/4), with W_H = 75 W_L
        expected = WEIGHT_LOW * (75.0 / 0.75 - 1.0 / 2.75)
        assert self.r_d(2.0) == pytest.approx(expected, rel=1e-12)
        assert self.r_d(2.0) == pytest.approx(9.7233, abs=5e-5)

    def test_pole_inputs(self):
        for pole in (POLE_HIGH, POLE_LOW):
            for lh in (pole, complex(pole)):
                with pytest.raises(PoleAtInput) as exc:
                    r_total(lh)
                assert exc.value.pole == pole
        # and the essential ray (-inf, -1], up to its end
        for lh in (-1.0, -1.0 - 1e-15, -1e300, complex(-2.0)):
            with pytest.raises(EssentialRay):
                r_total(lh)

    def test_conjugate_symmetry(self):
        z = 0.4 + 2.3j
        assert self.r_d(np.conj(z)) == pytest.approx(np.conj(self.r_d(z)))


class TestRContinuous:
    """The continuum part R_c of the closed form."""

    def test_essential_ray_rejected(self):
        for lh in (-1.0, -1.5, -40.0, -1.5 + 0.0j):
            with pytest.raises(EssentialRay):
                r_total(lh)
        # just off the ray is fine; the reference is 40-digit mpmath
        val = continuum(-1.5 + 0.1j)
        assert abs(val - complex(0.016050955699934026584, 0.04705480502988777923)) <= 1e-16

    def test_real_input_real_output(self):
        assert continuum(3.0).imag == 0.0
        assert r_total(3.0).imag == 0.0

    def test_small_negative_real_part_on_right_half_plane(self):
        # the continuum part is a small negative correction on Re lh >= 0;
        # its magnitude peaks at lh = 0 (about 1.47e-2)
        for lh in (0.0, 0.5, 1.0, 5.0, 50.0):
            val = continuum(lh)
            assert -1.5e-2 <= val.real < 0.0

    def test_matches_oracle_decomposition(self):
        val = continuum(2.0)
        # less the two-pole part W_H / (lh - 5/4) - W_L / (lh + 3/4)
        reference = oracle_extrapolated(2.0) - (WEIGHT_HIGH / 0.75 - WEIGHT_LOW / 2.75)
        assert abs(val - reference) <= 1e-6


def continuum_weight(kappa):
    """w(kappa) of R_c = -Int_0^inf w(kappa) / (lh + kappa^2 + 1) dkappa."""
    k2 = kappa * kappa
    return (9.0 * np.pi / 16.0) * k2 * (1.0 + k2) ** 2 / ((k2 + 2.25) * (k2 + 0.25)) \
        * (kappa / np.sinh(np.pi * kappa)) ** 2


def continuum_quad(lh: complex) -> complex:
    """R_c by adaptive quadrature; past kappa = 40 the weight is below 1e-100."""
    def part(f):
        return quad(lambda k: f(-continuum_weight(k) / (lh + k * k + 1.0)), 0.0, 40.0,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return complex(part(np.real), part(np.imag))


class TestContinuumClosedForm:
    """R_c through the trigamma function against the integral it replaces."""

    @staticmethod
    def right_half_plane(n, seed):
        rng = np.random.default_rng(seed)
        return 10.0 ** rng.uniform(-3.0, 3.0, n) \
            * np.exp(0.5j * np.pi * rng.uniform(-1.0, 1.0, n))

    def test_matches_quad_on_right_half_plane(self):
        lh = self.right_half_plane(60, 21)
        batch = continuum(lh)
        for z, value in zip(lh, batch):
            ref = continuum_quad(z)
            assert abs(value - ref) <= 1e-13 * abs(ref), z
            # scalar and array arithmetic round apart by a few ulps
            assert abs(continuum(complex(z)) - value) <= 1e-14 * abs(ref), z

    def test_weight_total_is_the_integral(self):
        total = quad(continuum_weight, 0.0, 40.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert abs(total - spectral.WEIGHT_CONTINUUM) <= 1e-15 * total


class TestRTotal:
    # R at points within 1e-6 of the cut's end -1, within 1e-7 of each pole,
    # and out to |lh| = 3e5: the closed form in 40-digit mpmath (mpmath.psi),
    # which mpmath.quad of the integral matched to 35 digits or more, rounded
    # to the nearest double.
    REFERENCE = [
        (-0.9999999, -2.9998420026930366),
        (complex(-0.9999997, 5e-07), complex(-2.999668104728971, 0.00018753200040967047)),
        (complex(-0.999999999, 8e-07), complex(-2.99968357714427, 0.00031509830552975225)),
        (complex(-0.9999995, -4e-07), complex(-2.999623039109538, -0.00013196966850532966)),
        (1.2500001, 73190730.78039639),
        (complex(1.24999995, 6e-08), complex(-59992402.39920285, -71990882.92902566)),
        (-0.7499999, -975880.106852883),
        (complex(-0.75000002, -7e-08), complex(368251.55493420013, -1288893.3740837218)),
        (2.0, 9.717216671610943),
        (complex(0.3, 2.1), complex(-1.3323082255953027, -2.8502610707907867)),
        (complex(40.0, -30.0), complex(0.11620292706849206, 0.09004070563978991)),
        (complex(1000.0, 5.0), complex(0.007209087780196179, -3.6091836813085063e-05)),
        (300000.0, 2.4000102857561905e-05),
        (complex(-200000.0, 200000.0),
         complex(-1.7999999999646432e-05, -1.7999884286067858e-05)),
    ]

    def test_reference_values(self):
        for lh, ref in self.REFERENCE:
            value = r_total(lh)
            assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), lh

    def test_value_at_zero(self):
        # lambda = 0 solves the root equation on the fold line alpha + beta = R(0)
        assert abs(r_total(0.0) + 6.0) <= 1e-15 * 6.0

    def test_imaginary_sign_flip(self):
        assert np.sign(r_total(1.0 + 2.0j).imag) == -1.0

    def test_real_axis_decrease(self):
        a, b = r_total(2.0), r_total(3.0)
        assert a.real > b.real > 0.0
        assert a.imag == b.imag == 0.0

    def test_oracle_agreement(self):
        for lh in (2.0, 3.0 + 1.0j, 0.5 + 4.0j):
            assert abs(r_total(lh) - r_oracle(complex(lh))) <= 1e-4

    def test_conjugate_symmetry(self):
        for lh in (0.5 + 3.0j, 2.0 + 0.7j, -0.2 + 5.0j):
            a = r_total(lh)
            b = r_total(np.conj(lh))
            assert abs(b - np.conj(a)) <= 1e-14 * abs(a)

    def test_scalar_matches_array(self):
        # by the cut's end -1 and by both poles, from 1e-9 to 1e-1 away, in
        # every direction and on the real axis: scalar and array arithmetic
        # round apart by a few ulps
        rng = np.random.default_rng(23)
        offsets = 10.0 ** rng.uniform(-9.0, -1.0, (3, 500))
        centres = np.array([[-1.0], [POLE_LOW], [POLE_HIGH]])
        turns = np.exp(1j * rng.uniform(-np.pi, np.pi, (3, 500)))
        complex_points = (centres + offsets * turns).ravel()
        real_points = np.concatenate([-1.0 + offsets[0, :250],
                                      (centres[1:] + offsets[1:, :250]).ravel(),
                                      (centres[1:] - offsets[1:, 250:]).ravel()])
        for lh in (complex_points, real_points):
            batch = r_array(lh)
            assert batch.dtype == lh.dtype
            scalar = np.array([r_total(z) for z in lh.tolist()])
            assert np.all(np.abs(scalar - batch)
                          <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(batch)))


class TestCertifiedWindow:
    """The analytic bound on |R| and the search window derived from it."""

    @staticmethod
    def bound(lh):
        return (spectral.WEIGHT_HIGH / np.abs(lh - spectral.POLE_HIGH)
                + spectral.WEIGHT_LOW / np.abs(lh - spectral.POLE_LOW)
                + spectral.WEIGHT_CONTINUUM / np.abs(lh + 1.0))

    def test_bound_holds_for_the_evaluated_r(self):
        rng = np.random.default_rng(11)
        # every point has Re lh >= -1, where the bound is claimed
        by_poles = np.concatenate(
            [p + 1e-6 * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
             for p in (spectral.POLE_HIGH, spectral.POLE_LOW)])
        by_branch = -1.0 + 10.0 ** rng.uniform(-6.0, 1.0, 400) \
            * np.exp(0.5j * np.pi * rng.uniform(-1.0, 1.0, 400))
        upper = -1.0 + 10.0 ** rng.uniform(-3.0, 4.0, 400) \
            * np.exp(0.5j * np.pi * rng.uniform(0.0, 1.0, 400))
        lh = np.concatenate([by_poles, by_branch, upper])
        assert np.all(lh.real >= -1.0) and np.max(np.abs(lh)) > 5e3
        assert np.all(np.abs(r_array(lh)) <= self.bound(lh))
        # the continuum part alone
        cont = np.abs(continuum(lh))
        assert np.all(cont <= spectral.WEIGHT_CONTINUUM / np.abs(lh + 1.0))

    def test_no_root_outside_the_certified_radius(self):
        rng = np.random.default_rng(12)
        for k in range(60):
            alpha = rng.uniform(-10.0, 10.0)
            beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
            # moderate gains, and deep ones that put every pole left of c
            gain = rng.uniform(-8.0, 0.9) if k % 2 else -(10.0 ** rng.uniform(0.0, 3.0))
            rho = spectral._certified_radius(alpha, beta, gain)
            c = -1.0 - gain
            lh = c + rng.uniform(1.0, 3.0, 200) * rho \
                * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
            # every point of a window has Re lh >= c and Re lh >= -1
            lh = lh[(lh.real >= c) & (lh.real >= -1.0)]
            lhs = np.abs(alpha + beta * np.sqrt(lh - c))
            assert np.all(lhs > np.abs(r_array(lh))), (alpha, beta, gain)

    def test_no_crossing_below_the_gain_floor(self):
        # at gains below g*, no lambda = i omega solves the root equation
        rng = np.random.default_rng(14)
        omega = np.concatenate([np.linspace(0.0, 50.0, 2001), np.geomspace(50.0, 1e5, 400)])
        s = np.sqrt(1.0 + 1j * omega)
        for k in range(60):
            # a = -alpha/beta = nu u*: either side of 2, where the nearest
            # point of the curve sqrt(1 + i omega) leaves omega = 0, and
            # near 1, where g* runs off to -inf
            a = rng.uniform(-4.0, 6.0) if k % 2 else 1.0 + rng.choice([-1.0, 1.0]) \
                * 10.0 ** rng.uniform(-4.0, 0.0)
            beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
            alpha = -a * beta
            g_star = spectral._gain_floor(alpha, beta)
            assert g_star < -spectral.POLE_HIGH
            lhs = np.abs(alpha + beta * s)
            # g* is where the bound on |R| at Re lh = -g* meets the least
            # modulus of the left side, rounded so that the bound lies below
            bound = self.bound(np.array([-g_star]))[0]
            assert bound <= lhs.min() <= (1.0 + 1e-3) * bound, (alpha, beta)
            for gain in np.append(g_star - 10.0 ** rng.uniform(-6.0, 3.0, 3), g_star):
                rhs = np.abs(r_array(1j * omega - gain))
                assert np.all(lhs > rhs), (alpha, beta, gain)

    def test_search_on_a_box_three_times_larger_finds_nothing_outside(self):
        rng = np.random.default_rng(13)
        for k in range(36):
            alpha = rng.uniform(-6.0, 6.0)
            beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
            gain = rng.uniform(-5.0, 0.5) if k % 3 else -(10.0 ** rng.uniform(0.5, 2.5))
            co = ReducedCoefficients(alpha, beta)
            re0, re1, _, im1 = default_window(co, gain)
            c = -1.0 - gain
            big = (re0, c + 3.0 * (re1 - c), 1e-6, 3.0 * im1)
            prob = spectral._RootProblem(co, gain)
            real = real_roots_of(co, gain, big[:2], prob)
            roots = real + complex_roots_of(prob, big, real)
            for z in roots:
                assert re0 <= z.real <= re1 and abs(z.imag) <= im1, (alpha, beta, gain, z)

    def test_window_ends_for_extreme_inputs(self):
        for alpha, beta, gain in ((0.0, 1e-150, 0.0), (-1e6, -1e-6, 0.99),
                                  (5.0, 1e150, -1e100), (1e100, -1.0, 0.0)):
            rho = spectral._certified_radius(alpha, beta, gain)
            assert math.isfinite(rho) and rho > 0.0
        # beta = 0, a radius past the float range, or |beta| sqrt(r) overflowing
        for alpha, beta, gain in ((1.0, 0.0, 0.0), (1e300, -1.0, 0.0),
                                  (0.0, 1e300, -1e300), (math.nan, 1.0, 0.0)):
            with pytest.raises(ValueError):
                spectral._certified_radius(alpha, beta, gain)

    def test_deep_gains_are_refused(self):
        # from about l'(0) = -2^34 down, the window's 1e-6 offset from the
        # essential edge rounds away; deeper, its samples collide (a 0/0 in
        # the scan) and then its real extent rounds away too
        params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0)
        for k in range(4, 301):
            gain = -10.0 ** k
            if gain > -2.0 ** 34:
                assert assemble_spectrum(params.with_control_slope(gain)).eigenvalues
            else:
                with pytest.raises(ValueError, match="no finite search window"):
                    assemble_spectrum(params.with_control_slope(gain))

    @staticmethod
    def certified(alpha, beta, gain, r):
        # the bound of _certified_radius, written out: no root on the arc of
        # radius r about the branch point c
        c = -1.0 - gain
        terms = [(w, p - c) for w, p in spectral._r_bound_terms()]
        if any(r <= offset for _, offset in terms):
            return False
        return abs(beta) * math.sqrt(r) - abs(alpha) \
            - sum(w / (r - offset if offset > 0.0 else math.hypot(r, offset))
                  for w, offset in terms) > 0.0

    @staticmethod
    def step_below(k):
        # the ladder's step below k rungs: it doubles up to 2^10 rungs and
        # steps by 2^10 beyond
        return k // 2 if k <= 1024 else 1024

    def test_radius_is_the_least_certified_rung(self):
        rng = np.random.default_rng(15)
        cases = [(rng.uniform(-10.0, 10.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0),
                  rng.uniform(-8.0, 0.9) if k % 2 else -(10.0 ** rng.uniform(0.0, 3.0)))
                 for k in range(200)]
        cases += [(co.alpha, co.beta, gain) for co, gain in
                  ((FIG4_COEFFS, 0.0), (FIG4_COEFFS, -3.0),
                   (reduced_coefficients(ModelParams(1.0, 1.0, -300.0, 50.0)), 0.0))]
        extreme = [(0.0, 1e-150, 0.0), (-1e6, -1e-6, 0.99), (5.0, 1e150, -1e100),
                   (1e100, -1.0, 0.0)]
        n_above_first = 0
        for alpha, beta, gain in cases + extreme:
            rho = spectral._certified_radius(alpha, beta, gain)
            assert self.certified(alpha, beta, gain, rho), (alpha, beta, gain)
            k = rho / spectral._RUNG
            if k < 2.0 ** 50:
                # on the ladder, exactly, and its step below is not certified
                assert k == int(k) >= 1, (alpha, beta, gain)
                k = int(k)
                assert k & (k - 1) == 0 if k <= 1024 else k % 1024 == 0, (alpha, beta, gain)
                below = rho - spectral._RUNG * self.step_below(k)
                assert k == 1 or not self.certified(alpha, beta, gain, below)
                n_above_first += k > 1
            else:
                # a step of 2^10 rungs is below 2^-40 rho there
                assert not self.certified(alpha, beta, gain, rho * (1.0 - 2.0 ** -40))
            coeffs = ReducedCoefficients(alpha, beta)
            if gain > -2.0 ** 34:
                assert default_window(coeffs, gain)[1:] == (-1.0 - gain + rho, -rho, rho)
            else:
                # the window's offset from the edge rounds away: no window
                with pytest.raises(ValueError, match="no finite search window"):
                    default_window(coeffs, gain)
        assert n_above_first > 150


def test_essential_edges():
    assert essential_edges(0.0) == (-1.0, -1.0)
    assert essential_edges(-3.0) == (-1.0, 2.0)
    assert essential_edges(0.5) == (-0.5, -1.0)
    with pytest.raises(UnstableEssential):
        essential_edges(1.0)


class TestRootProblemBatch:
    # near both poles, by lh = -1 on either side, far out on the real axis,
    # and a spread over the complex plane
    POINTS = np.array(
        [1.25 + 1e-7, 1.25 + 1e-9 - 3e-9j, 1.25 + 2e-6 + 1e-6j, -0.75 + 2e-8,
         -0.75 - 1e-6 + 1e-6j, -0.75 + 3e-9 + 0.3j, -1.0 + 1e-3, -1.0 - 1e-3,
         -0.999 + 0.5j, -1.2 - 0.01j, 1e4, 14520.25, 3e5 + 2.0j, 0.0, -0.5, 2.0]
        + list(np.random.default_rng(0).normal(size=40) * 4.0
               + 1j * np.random.default_rng(1).normal(size=40) * 4.0))

    @pytest.mark.parametrize("coeffs, gain", [
        (FIG4_COEFFS, 0.0),
        (ReducedCoefficients(alpha=-1.0, beta=2.0), -3.0),
    ])
    def test_batch_equals_point_by_point(self, coeffs, gain):
        # batched and scalar arithmetic may round differently, by a few ulps
        def assert_close(values, reference):
            reference = np.asarray(reference)
            assert np.all(np.abs(values - reference)
                          <= 1e-14 * np.maximum(1.0, np.abs(reference)))

        prob = spectral._RootProblem(coeffs, gain)
        sizes = (1, 127, 128, 129, 389)
        n_real = 0
        for n in sizes:
            lh = np.resize(self.POINTS, n)
            batch = g_on(prob, lh)
            assert batch.shape == (n,)
            assert_close(batch, [prob.g(z) for z in lh])
            # G is real on the real axis from the branch point and from -1 on
            x = lh.real[lh.real >= max(-1.0, -1.0 - gain)]
            n_real += x.size
            real = g_on(prob, x)
            assert real.dtype == float
            assert_close(real, [prob.g(complex(v)).real for v in x])
            assert_close(real, g_on(prob, x.astype(complex)).real)
        assert n_real > 0
        # n_eval counts points: each complex point twice, each real one three times
        assert prob.n_eval == 2 * sum(sizes) + 3 * n_real


class TestFindRealRoots:
    def test_root_right_of_high_pole(self):
        co = ReducedCoefficients(alpha=0.0, beta=1.0)
        win = default_window(co, 0.0)
        roots = real_roots_of(co, 0.0, (win[0], win[1]))
        assert any(r > 1.25 for r in roots)

    def test_large_root_for_negative_alpha(self):
        co = ReducedCoefficients(alpha=-5.0, beta=1.0)
        win = default_window(co, 0.0)
        roots = real_roots_of(co, 0.0, (win[0], win[1]))
        assert roots and max(roots) > 24.0

    def test_deep_gain_empties_roots(self):
        co = ReducedCoefficients(alpha=2.0, beta=1.0)
        win = default_window(co, -20.0)
        assert real_roots_of(co, -20.0, (win[0], win[1])) == []

    def test_close_pair_keeps_both_roots(self, monkeypatch):
        # G = (w - w1)(w - w2) in w = sqrt(lh + 1), with both roots in the
        # first gap of the w-samples, 1e-3 to 8.9e-3, by the window's left
        # end: no sign change brackets them, but the parabola through three
        # samples in w, where this G is one, turns back across zero there
        lo = -1.0 + 1e-6
        table = fresh_table(monkeypatch)
        for w1, w2 in ((2e-3, 6e-3), (1.5e-3, 3e-3)):
            # with alpha = beta = 0, G = -p, on samples kept in a zero-gain
            # table of this test's own; the scan takes w from s
            def factors(x, branch, w1=w1, w2=w2):
                s = np.sqrt(x - branch)
                return s, 1.0 + 0.0 * x, -(s - w1) * (s - w2)

            monkeypatch.setattr(spectral, "_factors", factors)
            table.cache_clear()
            stub = spectral._RootProblem(ReducedCoefficients(0.0, 0.0), 0.0)
            roots = real_roots_of(None, 0.0, (lo, 3.0), stub)
            assert len(roots) == 2, (w1, w2)
            for root, w in zip(roots, (w1, w2)):
                assert abs(root - (w * w - 1.0)) <= 1e-15

    def test_root_on_a_scan_sample_is_kept_exactly(self, monkeypatch):
        # G = r - x is exactly 0 at the scan sample r, so no neighbouring
        # pair of samples changes sign across it
        r = float(spectral._scan_points(np.array([0.0]), np.array([1.0]), -1.0)[40])
        monkeypatch.setattr(spectral, "_factors", lambda x, branch: (
            np.sqrt(x - branch), 1.0 + 0.0 * x, x - r))
        fresh_table(monkeypatch)
        stub = spectral._RootProblem(ReducedCoefficients(0.0, 0.0), 0.0)
        assert real_roots_of(None, 0.0, (0.0, 1.0), stub) == [r]

    @pytest.mark.parametrize("gain", [0.0, -0.2, 0.4])
    def test_window_left_of_the_cut_is_clamped(self, gain):
        # G is real only from the branch point -1 - l'(0) and from -1 on;
        # the part of a window left of both holds no root and is not sampled
        edge = max(-1.0, -1.0 - gain)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = real_roots_of(FIG4_COEFFS, gain, (-2.0, 0.0))
        assert roots and roots == real_roots_of(FIG4_COEFFS, gain, (edge, 0.0))


class TestChandrupatla:
    """``spectral._chandrupatla`` in Python floats and
    ``spectral._chandrupatla_array`` on many brackets are one iteration:
    the same root bits after the same evaluations, counted per bracket."""

    XTOL, RTOL = 1e-300, 4.0 * spectral._EPS  # the real-root polish's

    @staticmethod
    def scalar(fs, a, b, xtol, rtol):
        """Per bracket the scalar root, as hex, or the exception's type, and
        the evaluations it made."""
        out = []
        for f, lo, hi in zip(fs, a, b):
            calls = []

            def counted(x, f=f):
                calls.append(x)
                return f(x)

            try:
                root = spectral._chandrupatla(counted, lo, hi, f(lo), f(hi), xtol, rtol).hex()
            except (ValueError, RuntimeError) as exc:
                root = type(exc)
            out.append((root, len(calls)))
        return out

    @staticmethod
    def array(fs, a, b, xtol, rtol, f_rows=None):
        """The same from the array form, with G of the live brackets from
        ``f_rows(x, live)``, or else from ``fs`` one point at a time."""
        a, b = np.array(a), np.array(b)
        if f_rows is None:
            def f_rows(x, live):
                return np.array([fs[k](xk) for k, xk in zip(live.tolist(), x.tolist())])
        fa = np.array([f(x) for f, x in zip(fs, a.tolist())])
        fb = np.array([f(x) for f, x in zip(fs, b.tolist())])
        roots, evals, errors = spectral._chandrupatla_array(f_rows, a, b, fa, fb, xtol, rtol)
        return [(type(exc) if exc else root.hex(), n)
                for root, n, exc in zip(roots.tolist(), evals.tolist(), errors)]

    def test_factors_round_alike_at_a_point_and_in_an_array(self):
        # the forms agree only if G does: at real points right of the
        # branch point, _factors of a Python float equals the array's entry
        rng = np.random.default_rng(26)
        lh = np.concatenate([rng.uniform(-1.0, 3.0, 10_000),
                             -1.0 + 10.0 ** rng.uniform(-12.0, 3.0, 10_000)])
        branch = np.minimum(lh, -1.0 - rng.uniform(-6.0, 0.0, lh.size))
        rows = np.array(spectral._factors(lh, branch)).T.tolist()
        assert [spectral._factors(x, c) for x, c in zip(lh.tolist(), branch.tolist())] \
            == [tuple(row) for row in rows]

    def test_scan_brackets_of_g(self):
        # the brackets of 200 seeded spectra's scans at g = 0 and at random
        # gains, each of its own problem, in one array
        rng = np.random.default_rng(23)
        fs, a, b, alpha, beta, branch = [], [], [], [], [], []
        spectra = 0
        while spectra < 200:
            f_der, nu = rng.uniform(-3.0, 3.0, 2)
            gain = rng.choice([0.0, rng.uniform(-6.0, 0.0)])
            co = reduced_coefficients(ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der))
            lo, hi, _, _ = default_window(co, gain)
            xs = spectral._scan_points(*np.array(spectral._real_subintervals(lo, hi, gain)).T,
                                       max(-1.0, -1.0 - gain))
            prob = spectral._RootProblem(co, gain)
            sign = np.sign(g_on(prob, xs))
            changes = np.flatnonzero(sign[:-1] * sign[1:] < 0)
            spectra += bool(changes.size)
            for i in changes.tolist():
                fs.append(prob.g)
                a.append(float(xs[i]))
                b.append(float(xs[i + 1]))
                alpha.append(prob.alpha)
                beta.append(prob.beta)
                branch.append(prob.branch)
        alpha, beta, branch = map(np.array, (alpha, beta, branch))

        def g_rows(x, live):
            return spectral._g(alpha[live], beta[live], branch[live], x)

        scalar = self.scalar(fs, a, b, self.XTOL, self.RTOL)
        assert all(isinstance(root, str) for root, _ in scalar)
        assert self.array(fs, a, b, self.XTOL, self.RTOL, g_rows) == scalar
        # about Brent's 4.4 evaluations a bracket, and within its budget
        evals = [n for _, n in scalar]
        assert np.mean(evals) < 6.0 and max(evals) < 30

    def test_gain_floor_excess(self, monkeypatch):
        # the brackets _gain_floor hands the scalar form
        calls = []
        scalar = spectral._chandrupatla

        def spy(f, a, b, fa, fb, xtol, rtol):
            calls.append((f, a, b, xtol, rtol))
            return scalar(f, a, b, fa, fb, xtol, rtol)

        monkeypatch.setattr(spectral, "_chandrupatla", spy)
        rng = np.random.default_rng(24)
        for _ in range(60):
            beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
            spectral._gain_floor(-rng.uniform(-4.0, 6.0) * beta, beta)
        assert len(calls) == 60
        monkeypatch.setattr(spectral, "_chandrupatla", scalar)
        fs, a, b, xtol, rtol = zip(*calls)
        assert set(xtol) == set(rtol) == {1e-12}
        out = self.scalar(fs, a, b, 1e-12, 1e-12)
        assert all(isinstance(root, str) for root, _ in out)
        assert self.array(fs, a, b, 1e-12, 1e-12) == out

    def test_steep_flat_and_wiggly_functions(self):
        # brackets where the interpolation is refused and it bisects
        rng = np.random.default_rng(25)
        fs = []
        for make in (lambda r, s: lambda x: math.tanh(s * (x - r)),
                     lambda r, s: lambda x: (x - r) ** 9,
                     lambda r, s: lambda x: math.copysign(abs(x - r) ** 0.1, x - r),
                     lambda r, s: lambda x: math.atan(s * (x - r)) + 0.1 * math.sin(s * x)):
            for _ in range(50):
                f = make(rng.uniform(-0.9, 0.9), 10.0 ** rng.uniform(0.0, 3.0))
                if (f(-1.0) < 0.0) != (f(1.0) < 0.0):
                    fs.append(f)
        assert len(fs) >= 150
        xtol = rtol = 1e-12
        a, b = [-1.0] * len(fs), [1.0] * len(fs)
        scalar = self.scalar(fs, a, b, xtol, rtol)
        assert self.array(fs, a, b, xtol, rtol) == scalar
        for f, (root, _) in zip(fs, scalar):
            # a sign change of f lies within xtol + rtol |x| of the root x
            x = float.fromhex(root)
            tol = xtol + rtol * abs(x)
            assert f(x) == 0.0 or f(x - tol) * f(x + tol) <= 0.0

    def test_zero_at_an_end(self):
        fs = [lambda x: x, lambda x: x, lambda x: x * (x - 1.0)]
        a, b = [0.0, -1.0, 0.0], [1.0, 0.0, 1.0]
        scalar = self.scalar(fs, a, b, 1e-12, 1e-12)
        assert scalar == [(0.0.hex(), 0), (0.0.hex(), 0), (0.0.hex(), 0)]
        assert self.array(fs, a, b, 1e-12, 1e-12) == scalar
        assert spectral._chandrupatla(None, 0.5, 1.0, 3.0, 0.0, 1e-12, 1e-12) == 1.0

    def test_one_bracket_fails_alone(self):
        # ends of one sign or a NaN end raise ValueError, a NaN value met on
        # the way ValueError, and a bracket still open after 100 steps
        # RuntimeError; in the array the other brackets still converge
        def nan_inside(x):
            return math.nan if -0.5 < x < 0.5 else x

        def slow(x):
            # root at 0, where only the absolute tolerance applies
            return math.copysign(abs(x) ** 0.1, x)

        fs = [lambda x: x * x + 1.0, lambda x: x - 0.25, lambda x: math.nan if x > 0 else x,
              nan_inside, slow, math.tanh]
        a, b = [-1.0, -1.0, -1.0, -1.0, -1.0, -0.7], [2.0, 1.0, 1.0, 1.0, 2.0, 0.9]
        scalar = self.scalar(fs, a, b, 1e-300, 4.0 * spectral._EPS)
        assert [root for root, _ in scalar] == [
            ValueError, (0.25).hex(), ValueError, ValueError, RuntimeError, 0.0.hex()]
        assert scalar[4][1] == spectral._MAX_STEPS
        assert self.array(fs, a, b, 1e-300, 4.0 * spectral._EPS) == scalar
        with pytest.raises(ValueError, match="different signs"):
            spectral._chandrupatla(fs[0], -1.0, 2.0, 2.0, 5.0, 1e-12, 1e-12)
        with pytest.raises(ValueError, match="NaN"):
            spectral._chandrupatla(fs[3], -1.0, 1.0, -1.0, 1.0, 1e-12, 1e-12)
        with pytest.raises(RuntimeError, match="100 iterations"):
            spectral._chandrupatla(slow, -1.0, 2.0, slow(-1.0), slow(2.0), 1e-300, 1e-12)


@pytest.mark.parametrize("f_der", [1e-300, -1e-300, -1e-200])
def test_scan_of_huge_coefficients_does_not_overflow(f_der):
    # |alpha| and |beta| near 1e300 put the scan's G samples near 1e300,
    # whose slopes overflowed before each row was scaled by a power of two
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (result,) = spectral.assemble_spectra([ModelParams(1.0, 1.0, f_der, 0.5)])
    assert not isinstance(result, Warning), result
    if f_der < 0.0:
        # the spectrum at f' = 0: 5/4, -3/4, (nu u*)^2 - 1 = -3/4 and the
        # translation eigenvalue 0
        assert result.verdict == "Unstable"
        assert sorted(z.real for z in result.eigenvalues) == \
            pytest.approx([-0.75, -0.75, 0.0, 1.25], abs=1e-12)


@pytest.mark.parametrize("f_der, to_log_der", [(1e-9, -2.0), (1e-8, 0.5)])
def test_spectrum_tends_to_the_unperturbed_one(f_der, to_log_der):
    # as f' -> 0 the eigenvalues tend to those at f' = 0: 5/4 and -3/4,
    # the translation eigenvalue 0, and (nu u*)^2 - 1 for nu u* = T'/T > 0.
    # The unstable root lies within 1e-7 of the pole 5/4, where the scan
    # must look on both sides of the pole
    report = assemble_spectrum(ModelParams(1.0, 1.0, f_der, to_log_der))
    limit = assemble_spectrum(ModelParams(1.0, 1.0, 0.0, to_log_der))
    assert report.verdict == limit.verdict == "Unstable"
    assert len(report.eigenvalues) == len(limit.eigenvalues)
    for z, w in zip(report.eigenvalues, limit.eigenvalues):
        assert abs(z - w) <= 1e-4, (z, w)
    assert 0.0 < report.eigenvalues[0].real - 1.25 <= 1e-7


def test_roots_by_the_poles_at_large_alpha():
    # |alpha| / |beta| = 1.5e9 puts a root within 1e-8 of each pole
    co = ReducedCoefficients(alpha=1.5e9, beta=1.0)
    re0, re1, _, _ = default_window(co, 0.0)
    roots = real_roots_of(co, 0.0, (re0, re1))
    assert len(roots) == 2
    for root, ref in zip(roots, (-0.7500000000650584, 1.250000004879382)):
        assert abs(root - ref) <= 1e-12


def test_real_scan_finds_every_sign_change():
    # the scan's roots are the sign changes of G on a dense grid of the same
    # window: 40,001 uniform points, with 200 geometric offsets from 1e-13
    # to 0.5 in from the left end and either side of each pole
    rng = np.random.default_rng(17)
    geo = np.geomspace(1e-13, 0.5, 200)
    n_roots = 0
    for k in range(400):
        f_der, nu = rng.uniform(-3.0, 3.0, 2)
        gain = rng.uniform(-6.0, 0.0) if k % 2 else 0.0
        co = reduced_coefficients(ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der))
        lo, hi, _, _ = default_window(co, gain)
        x = [np.linspace(lo, hi, 40_001), lo + geo]
        x += [p + s * geo for p in (spectral.POLE_LOW, spectral.POLE_HIGH) if lo < p < hi
              for s in (-1.0, 1.0)]
        x = np.unique(np.concatenate(x))
        x = x[(x >= lo) & (x <= hi)]
        sign = np.sign(g_on(spectral._RootProblem(co, gain), x))
        dense = np.count_nonzero(sign == 0) + np.count_nonzero(sign[:-1] * sign[1:] < 0)
        roots = real_roots_of(co, gain, (lo, hi))
        assert len(roots) == dense, (f_der, nu, gain)
        n_roots += len(roots)
    assert n_roots >= 400


def test_real_scan_finds_a_pair_between_two_samples():
    # G < 0 at every scan sample by -0.61, where a pair of roots 0.016 apart
    # lies between two samples 0.032 apart; the off-axis zone's bottom edge,
    # 1e-6 above them, then winds once more than it holds complex roots
    f_der, nu = 0.8211499522042232, 1.9004557726182156
    params = ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der)
    co = reduced_coefficients(params)
    lo, hi, _, _ = default_window(co, 0.0)
    roots = real_roots_of(co, 0.0, (lo, hi))
    x = np.linspace(-0.7, -0.5, 20_001)
    sign = np.sign(g_on(spectral._RootProblem(co, 0.0), x))
    (i, j) = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    assert len(roots) == 3
    assert x[i] <= roots[0] <= x[i + 1] and x[j] <= roots[1] <= x[j + 1]
    report = assemble_spectrum(params)
    assert all(z.imag == 0.0 for z in report.eigenvalues)
    assert sorted(z.real for z in report.eigenvalues) == [roots[0], roots[1], 0.0, roots[2]]


class TestScanSamples:
    @pytest.mark.parametrize("window, gain", [
        ((-1.0 + 1e-6, 9.3), 0.0), ((-0.5, 3.0), 0.0), ((2.0, 14520.25), -3.0),
        ((-2.0, 5.0), 0.0), ((-5.0, 5.0), -0.3),
    ])
    def test_one_pass_keeps_every_subinterval_sample(self, window, gain):
        # the grid of a scan one subinterval at a time, uniform in
        # w = sqrt(lh - base) and ending on the subinterval's ends
        base = max(-1.0, -1.0 - gain)
        intervals = spectral._real_subintervals(*window, gain)
        pts = []
        for a, b in intervals:
            w = np.linspace(np.sqrt(a - base), np.sqrt(b - base),
                            max(64, min(512, int((b - a) * 16))))
            grid = w * w + base
            grid[0], grid[-1] = a, b
            pts.append(grid)
        a, b = np.array(intervals).T
        xs = spectral._scan_points(a, b, base)
        assert np.all(xs[1:] > xs[:-1])
        assert np.array_equal(xs, np.unique(np.concatenate(pts)))

    def test_pole_by_a_scan_end_splits_off_no_subinterval(self):
        # at this gain the window's left end lies an ulp left of the pole
        # -3/4, where a subinterval's 64 samples would coincide and the
        # parabola pass divide by 0
        gain = -0.24999899999999983
        lo, hi, _, _ = default_window(FIG4_COEFFS, gain)
        assert 0.0 < spectral.POLE_LOW - lo < 1e-15
        assert spectral._real_subintervals(lo, hi, gain)[0] == (lo, spectral.POLE_HIGH)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = assemble_spectrum(ModelParams(1.0, 1.0, -3.0, 8.0, control_slope=gain))
        assert report.verdict == "Unstable"
        assert len(report.eigenvalues) == 3

    def test_winding_sides_are_linspace(self):
        for n in (8, 9, 100, 1999):
            a, b = complex(-0.5, 1e-6), complex(-0.5 + 0.75 * (n - 1), 1e-6)
            assert np.array_equal(spectral._side(a, b),
                                  a + (b - a) * np.linspace(0.0, 1.0, n, endpoint=False))


class TestFindComplexRoots:
    def test_fig4_roots_and_conjugate_closure(self):
        prob, rect = spectral._RootProblem(FIG4_COEFFS, 0.0), (-0.9, 10.0, -8.0, 8.0)
        roots = complex_roots_of(prob, rect)
        assert prob.winding(rect) == len(roots)
        assert roots
        assert max(z.real for z in roots) < 1.28
        for z in roots:
            assert min(abs(np.conj(z) - w) for w in roots) <= 1e-8

    def test_positive_beta_roots_real(self):
        co = ReducedCoefficients(alpha=-1.0, beta=1.0)
        roots = complex_roots_of(spectral._RootProblem(co, 0.0),
                                        (-0.7, 30.0, -5.0, 5.0))
        assert roots
        assert max(abs(z.imag) for z in roots) <= 1e-8

    def test_edge_through_a_root_raises(self):
        # the bottom edge im = 0 runs through the real root 5.769, where the
        # phase of G jumps by pi; the search fails rather than moving the edge
        co = ReducedCoefficients(alpha=-1.0, beta=1.0)
        (real_root,) = real_roots_of(co, 0.0, (4.5, 7.0))
        assert 4.5 < real_root < 7.0
        with pytest.raises(RootIsolationFailure):
            complex_roots_of(spectral._RootProblem(co, 0.0), (4.5, 7.0, 0.0, 1.0))
        # with the edge below the axis the same search finds that root
        roots = complex_roots_of(spectral._RootProblem(co, 0.0), (4.5, 7.0, -1.0, 1.0))
        assert len(roots) == 1 and abs(roots[0] - real_root) <= 1e-10

    def test_zero_sample_fails_only_its_own_count(self, monkeypatch):
        # a group's G with an exact zero in the first row's samples: that
        # row raises, without a warning from its phase steps, and the second
        # row counts as it does alone
        rect = (-0.9, 10.0, -8.0, 8.0)
        g_rows = spectral._g_rows

        def zero_in_first_row(problems, factors):
            vals = g_rows(problems, factors)
            vals[0, 5] = 0.0
            return vals

        alone = spectral._RootProblem(FIG4_COEFFS, 0.0).winding(rect)
        monkeypatch.setattr(spectral, "_g_rows", zero_in_first_row)
        problems = [spectral._RootProblem(FIG4_COEFFS, 0.0) for _ in range(2)]
        counts = [prob.attempt(prob.count, *row)
                  for prob, row in spectral._phase_steps(problems, rect)]
        failed, counted = problems[0].error, counts[1]
        assert isinstance(failed, RootIsolationFailure) and "boundary" in str(failed)
        assert counted == alone >= 2

    def test_deflated_real_roots_leave_the_count_unchanged(self):
        # the Fig. 4 window above the axis holds one root either way, and
        # deflating the real roots saves the phase bisections next to them
        re0, re1, _, im1 = default_window(FIG4_COEFFS, 0.0)
        rect = (re0, re1, 1e-6, im1)
        real_roots = real_roots_of(FIG4_COEFFS, 0.0, (re0, re1))
        assert real_roots
        plain, deflated = (spectral._RootProblem(FIG4_COEFFS, 0.0) for _ in range(2))
        deflated.real_roots = real_roots
        assert plain.winding(rect) == 1
        assert deflated.winding(rect) == 1
        assert deflated.n_eval < plain.n_eval

    def test_lost_root_trips_the_certificate(self, monkeypatch):
        # a winding count on a subrectangle that misses a root leaves the
        # roots found one short of the top rectangle's winding number
        winding = spectral._RootProblem.winding
        top = (-0.9, 10.0, -8.0, 8.0)
        lost = []

        def losing(prob, rect):
            w = winding(prob, rect)
            if rect != top and w > 0 and not lost:
                lost.append(rect)
                return w - 1
            return w

        prob = spectral._RootProblem(FIG4_COEFFS, 0.0)
        roots = complex_roots_of(prob, top)
        assert winding(prob, top) == len(roots) >= 2
        monkeypatch.setattr(spectral._RootProblem, "winding", losing)
        with pytest.raises(RootIsolationFailure, match="winding number"):
            complex_roots_of(spectral._RootProblem(FIG4_COEFFS, 0.0), top)
        assert lost


class TestNewton:
    """Root polishing: the secant iteration on G that the winding search runs
    in a rectangle holding one root."""

    def test_gives_up_once_it_leaves_the_rectangle(self):
        # from the centre of the off-axis window, the secant heads for the
        # real root near -0.774, below the window, and not for the window's
        # one root near -0.83 + 6.53i
        co = ReducedCoefficients(alpha=0.7, beta=-0.56)
        # the window of radius 26 rungs, off the power-of-two ladder: its
        # centre sets the secant off in that direction
        re0, re1, im1 = -0.999999, 8.75, 9.75
        rect = (re0, re1, 1e-6, im1)
        centre = complex(0.5 * (re0 + re1), 0.5 * (1e-6 + im1))
        diam = math.hypot(re1 - re0, im1 - 1e-6)
        start = centre + spectral._SECANT_START * diam
        unbounded = spectral._RootProblem(co, 0.0)
        (real_root,) = [x for x in real_roots_of(co, 0.0, (re0, re1)) if x < 0.0]
        assert abs(unbounded.secant(centre, start, math.inf) - real_root) <= 1e-12
        assert unbounded.n_eval == 21
        prob = spectral._RootProblem(co, 0.0)
        assert prob.secant(centre, start, diam) is None
        assert prob.n_eval == 4
        # subdividing still finds the root
        (root,) = complex_roots_of(prob, rect)
        assert abs(root - (-0.8339082856268758 + 6.529928369768017j)) <= 1e-10

    def test_moment_start_lies_by_the_root(self, monkeypatch):
        # the first moment of the deflated G on the Fig. 4 rectangle above
        # the axis lies within 3e-3 relative of its one root, which the
        # secant from there polishes in 6 evaluations, against 11 from the
        # centre
        re0, re1, _, im1 = default_window(FIG4_COEFFS, 0.0)
        rect = (re0, re1, 1e-6, im1)
        prob = spectral._RootProblem(FIG4_COEFFS, 0.0)
        prob.real_roots = real_roots_of(FIG4_COEFFS, 0.0, (re0, re1))
        ((_, row),) = spectral._phase_steps([prob], rect)
        assert prob.count(*row) == 1
        starts, secant = [], spectral._RootProblem.secant
        monkeypatch.setattr(spectral._RootProblem, "secant",
                            lambda prob, lh0, *args: starts.append(lh0) or secant(prob, lh0, *args))
        n_eval = prob.n_eval
        root = prob.from_moment(rect, *row[:3])
        assert prob.n_eval - n_eval == 6
        pair = complex(1.2423052748579382, 5.385397902204238)
        assert abs(root - pair) <= 1e-12
        assert 0.0 < abs(starts[0] - pair) <= 3e-3 * abs(pair)

    @pytest.mark.parametrize("coeffs, rect, subdivides", [
        # the centre start converges in the rectangle
        (FIG4_COEFFS, (-0.999999, 11.0, 1e-6, 12.0), False),
        # the centre start leaves it, toward a real root below (see above)
        (ReducedCoefficients(alpha=0.7, beta=-0.56), (-0.999999, 8.75, 1e-6, 9.75), True),
    ])
    def test_root_found_where_the_moment_start_fails(self, monkeypatch, coeffs, rect, subdivides):
        real = real_roots_of(coeffs, 0.0, rect[:2])
        (expected,) = complex_roots_of(spectral._RootProblem(coeffs, 0.0), rect, real)
        cls = spectral._RootProblem
        secant, from_moment, winding = cls.secant, cls.from_moment, cls.winding
        in_moment, failed, windings = [], [], []

        def failing_secant(prob, lh0, *args):
            # the secant fails from the moment start only
            if in_moment:
                failed.append(lh0)
                return None
            return secant(prob, lh0, *args)

        def moment(prob, *args):
            in_moment.append(True)
            try:
                return from_moment(prob, *args)
            finally:
                in_moment.pop()

        monkeypatch.setattr(cls, "secant", failing_secant)
        monkeypatch.setattr(cls, "from_moment", moment)
        monkeypatch.setattr(cls, "winding",
                            lambda prob, sub: windings.append(sub) or winding(prob, sub))
        (root,) = complex_roots_of(cls(coeffs, 0.0), rect, real)
        assert len(failed) == 1 and bool(windings) == subdivides
        assert abs(root - expected) <= 1e-12 * abs(expected)


# Reference spectra at seeded points of the (f', nu) plane, u* = f(u*) = 1:
# 16 on [-3, 3]^2 (both signs of f', so of beta), two with |f'| in [3, 8],
# and the Fig. 4 point at gains 0 and -3.  Rows are (f', nu, gain, verdict,
# eigenvalues as (re, im) in report order).  They were computed when real
# roots were still bisected and refined by Newton, so they pin every change
# of the root finders to the same roots.
SEEDED_SPECTRA = [
    (0.229, -0.94, 0.0, "Unstable",
     [(1.4720395245999294, 0.0), (0.0, 0.0), (-0.7543382774267022, 0.0)]),
    (-0.786, -0.753, 0.0, "Unstable",
     [(0.19347525178557923, 0.0), (0.0, 0.0), (-0.6702776341719479, 0.0),
      (-0.9991359707217804, 0.0)]),
    (2.925, 0.797, 0.0, "Unstable",
     [(5.3483400471132825, 0.0), (0.0, 0.0), (-0.7795010022689888, 0.0)]),
    (1.046, -1.02, 0.0, "Unstable",
     [(2.1579059013988804, 0.0), (0.0, 0.0), (-0.7622024573595649, 0.0)]),
    (1.08, -2.262, 0.0, "Unstable",
     [(1.9114078126576377, 0.0), (0.0, 0.0), (-0.7586149973930001, 0.0)]),
    (-2.69, 2.101, 0.0, "Unstable",
     [(1.5510059832241287, -5.1237923057927555),
      (1.5510059832241287, 5.1237923057927555), (0.0, 0.0),
      (-0.7678424820429313, 0.0)]),
    (-2.947, 2.873, 0.0, "Unstable",
     [(3.5278309078480166, -5.384288658508074),
      (3.5278309078480166, 5.384288658508074), (0.0, 0.0),
      (-0.7660005186632048, 0.0)]),
    (1.962, 1.711, 0.0, "Unstable",
     [(6.157434360750915, 0.0), (0.0, 0.0), (-0.8092904200616391, 0.0)]),
    (-2.711, -1.755, 0.0, "NeutrallyStable",
     [(0.0, 0.0), (-0.8339791942315278, 0.0)]),
    (2.099, -0.405, 0.0, "Unstable",
     [(3.29959599004249, 0.0), (0.0, 0.0), (-0.7698154985874208, 0.0)]),
    (0.765, -2.266, 0.0, "Unstable",
     [(1.7250812516180565, 0.0), (0.0, 0.0), (-0.7567286337294652, 0.0)]),
    (-1.882, -0.016, 0.0, "NeutrallyStable",
     [(0.0, 0.0), (-0.7840046852493452, 0.0),
      (-0.9300059920149873, -2.145886101118805),
      (-0.9300059920149873, 2.145886101118805)]),
    (1.557, 0.239, 0.0, "Unstable",
     [(3.303098920658761, 0.0), (0.0, 0.0), (-0.7737466886827089, 0.0)]),
    (-2.359, 2.197, 0.0, "Unstable",
     [(1.8611834244763221, -4.794211422870795),
      (1.8611834244763221, 4.794211422870795), (0.0, 0.0),
      (-0.7666950128767513, 0.0)]),
    (-2.162, -0.362, 0.0, "NeutrallyStable",
     [(0.0, 0.0), (-0.7892223140639305, 0.0)]),
    (0.521, -1.085, 0.0, "Unstable",
     [(1.7138303382339486, 0.0), (0.0, 0.0), (-0.757645800745542, 0.0)]),
    (-4.521, -0.275, 0.0, "NeutrallyStable",
     [(0.0, 0.0), (-0.7809977177032366, 0.0)]),
    (7.16, 0.235, 0.0, "Unstable",
     [(7.633227721087708, 0.0), (0.0, 0.0), (-0.7760269668330848, 0.0)]),
    (-3.0, 2.0, 0.0, "Unstable",
     [(1.2423052748579382, -5.385397902204238),
      (1.2423052748579382, 5.385397902204238), (0.0, 0.0),
      (-0.7688352028740895, 0.0)]),
    (-3.0, 2.0, -3.0, "Stable",
     [(-0.48037384869779265, -4.6637115951112085),
      (-0.48037384869779265, 4.6637115951112085), (-3.0, 0.0)]),
]


class TestAssembleSpectrum:
    def test_no_cancellation_branch(self):
        params = ModelParams(1.0, 1.0, 0.0, 0.0, control_slope=0.9)
        report = assemble_spectrum(params)
        assert report.verdict == "Unstable"
        assert any(abs(z - 2.15) < 1e-12 for z in report.eigenvalues)
        assert report.translation_eigenvalue == 0.9

    def test_no_cancellation_slow_eigenvalue_ignores_gain(self):
        # with f' = 0 the slow zero sqrt(1 + lambda) = nu u* cannot be moved
        # by the control slope
        for gain in (0.0, -10.0, -100.0):
            params = ModelParams(1.0, 1.0, 0.0, 3.0, control_slope=gain)
            report = assemble_spectrum(params)
            assert any(abs(z - 8.0) < 1e-12 for z in report.eigenvalues)
            assert report.verdict == "Unstable"

    def test_fig4_uncontrolled_unstable(self):
        params = ModelParams(1.0, 1.0, -3.0, 8.0)
        report = assemble_spectrum(params)
        assert report.verdict == "Unstable"
        assert report.max_real_part > 0.0
        # the work and the answer are pinned: batching saves overhead only
        assert report.diagnostics == {"function_evaluations": 357}
        pair = sorted((z for z in report.eigenvalues if z.imag != 0.0),
                      key=lambda z: z.imag)
        assert len(pair) == 2
        for z, im in zip(pair, (-5.385397902204238, 5.385397902204238)):
            assert abs(z - complex(1.2423052748579382, im)) <= 1e-12

    def test_fig4_scans_the_real_axis_in_one_call(self, monkeypatch):
        # every real subinterval's samples go through one array call of G,
        # and the polish of a single spectrum's brackets through none
        is_array, per_scan, per_polish = [], [], []
        g, g_rows, g_points = spectral._RootProblem.g, spectral._g_rows, spectral._g

        def counted(prob, lh):
            is_array.append(isinstance(lh, np.ndarray))
            return g(prob, lh)

        def counted_rows(problems, factors):
            is_array.append(True)
            return g_rows(problems, factors)

        def counted_points(alpha, beta, branch, lh):
            is_array.append(isinstance(lh, np.ndarray))
            return g_points(alpha, beta, branch, lh)

        def traced(stage, calls):
            def run(*args, **kwargs):
                start = len(is_array)
                out = stage(*args, **kwargs)
                calls.append(sum(is_array[start:]))
                return out
            return run

        monkeypatch.setattr(spectral._RootProblem, "g", counted)
        monkeypatch.setattr(spectral, "_g_rows", counted_rows)
        monkeypatch.setattr(spectral, "_g", counted_points)
        monkeypatch.setattr(spectral, "_scan_real", traced(spectral._scan_real, per_scan))
        monkeypatch.setattr(spectral, "_polish_real", traced(spectral._polish_real, per_polish))
        report = assemble_spectrum(ModelParams(1.0, 1.0, -3.0, 8.0))
        assert per_scan == [1]
        # its one real root besides the translation eigenvalue
        assert sum(z.imag == 0.0 for z in report.eigenvalues) == 2
        assert per_polish == [0]

    def test_positive_beta_zone_holds_every_complex_root(self):
        # for beta > 0 the off-axis search covers only the zone
        # (re0, -0.35) x (1e-6, 0.6) by the low pole; a search of the whole
        # upper half of the window finds the same roots, all in the zone
        rng = np.random.default_rng(5)
        n_complex = 0
        for _ in range(300):
            f_der, nu = rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0)
            params = ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der)
            report = assemble_spectrum(params)
            co = reduced_coefficients(params)
            assert co.beta > 0.0
            re0, re1, _, im1 = default_window(co, 0.0)
            prob = spectral._RootProblem(co, 0.0)
            real_roots = real_roots_of(co, 0.0, (re0, re1), prob)
            full = complex_roots_of(prob, (re0, re1, 1e-6, im1), real_roots)
            upper = sorted((z for z in report.eigenvalues if z.imag > 0.0),
                           key=lambda z: (z.real, z.imag))
            assert len(full) == len(upper), (f_der, nu)
            for z, w in zip(full, upper):
                assert re0 < z.real < -0.35 and 1e-6 < z.imag < 0.6, (f_der, nu, z)
                assert abs(z - w) <= 1e-10 * abs(w), (f_der, nu, z, w)
            n_complex += len(full)
        assert n_complex >= 20

    def test_positive_beta_zone_bound(self):
        # the proof in assemble_spectrum: where Re lh >= -0.36 or Im lh >= 0.6,
        # (d + 2)^2 times the bracket of the Im R bound is at most the one-
        # variable function below, d = |lh + 3/4| >= 0.39, and W_H exceeds it
        w_h, w_l, w_c = spectral.WEIGHT_HIGH, spectral.WEIGHT_LOW, spectral.WEIGHT_CONTINUUM
        d = np.concatenate([np.linspace(0.39, 10.0, 100_001), np.geomspace(10.0, 1e8, 1_001)])
        scaled = w_l * (1.0 + 2.0 / d) ** 2 + w_c * ((d + 2.0) / np.maximum(0.6, d - 0.25)) ** 2
        assert scaled.max() <= 3.67 + 0.49 < 7.31 <= w_h
        # on a grid of the upper half plane right of -1, Im R stays under
        # Im lh times the bracket, which is positive only inside the zone
        x, y = np.meshgrid(np.linspace(-1.0, 3.0, 801), np.linspace(1e-3, 3.0, 601))
        lh = x + 1j * y
        bracket = w_l / abs(lh + 0.75) ** 2 + w_c / abs(lh + 1.0) ** 2 \
            - w_h / abs(lh - 1.25) ** 2
        r = r_array(lh)
        assert np.all(r.imag <= y * bracket + 1e-13 * np.maximum(1.0, abs(r)))
        positive = bracket > 0.0
        assert x[positive].max() <= -0.539 and y[positive].max() <= 0.25

    def test_large_window_memory_bounded(self):
        # the window reaches Re 3.0e5, and the work is pinned
        params = ModelParams(1.0, 1.0, -300.0, 50.0)
        report = assemble_spectrum(params)
        assert 3.0e5 < report.search_window["re"][1] < 3.1e5
        assert report.diagnostics["function_evaluations"] == 1_614_472
        # one call on a long side of that window: the closed form for R_c
        # holds a few arrays of the call's size at a time, 1 MB each here
        co = reduced_coefficients(params)
        lh = np.linspace(0.0, report.search_window["re"][1], 65_536) + 1e-6j
        tracemalloc.start()
        try:
            g_on(spectral._RootProblem(co, 0.0), lh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_seeded_spectra_agree_with_reference(self):
        for f_der, nu, gain, verdict, eigenvalues in SEEDED_SPECTRA:
            params = ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der, control_slope=gain)
            report = assemble_spectrum(params)
            assert report.verdict == verdict, (f_der, nu, gain)
            assert len(report.eigenvalues) == len(eigenvalues), (f_der, nu, gain)
            for z, (re, im) in zip(report.eigenvalues, eigenvalues):
                assert abs(z - complex(re, im)) <= 1e-10 * abs(complex(re, im)), \
                    (f_der, nu, gain, z)
            # every root satisfies the root equation to rounding
            co = reduced_coefficients(params)
            for z in report.eigenvalues:
                if z == report.translation_eigenvalue:
                    continue
                lh = complex(z) - gain
                r = r_total(lh)
                phi = co.alpha + co.beta * cmath.sqrt(lh + 1.0 + gain) - r
                assert abs(phi) <= 1e-12 * max(1.0, abs(r)), (f_der, nu, gain, z)

    @pytest.mark.parametrize("f_der, nu, pair", [
        (-2.29658178836911, -2.000028720091109,
         (-0.8162307903265754, 0.4514293876874016)),
        (-2.870538256838147, -2.459134330067749,
         (-0.9616723846857161, 0.47936475186086375)),
    ])
    def test_pair_by_the_branch_point(self, f_der, nu, pair):
        # the phase of G turns by more than a full turn between two left-edge
        # samples 0.75 apart next to the branch point; uniform samples alone
        # lose that turn and the pair with it
        report = assemble_spectrum(ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der))
        assert report.verdict == "NeutrallyStable"
        off_axis = sorted((z for z in report.eigenvalues if z.imag != 0.0),
                          key=lambda z: z.imag)
        assert len(off_axis) == 2
        for z, sign in zip(off_axis, (-1.0, 1.0)):
            assert abs(z - complex(pair[0], sign * pair[1])) <= 1e-10
            assert abs(r_total(z) - r_oracle(complex(z))) <= 1e-4

    def test_root_count_holds_under_denser_samples(self, monkeypatch):
        # beta < 0 (f' < 0) spectra, most of them in the corner by the branch
        # point where the winding count used to lose roots
        rng = np.random.default_rng(8)
        points = [(rng.uniform(-3.0, -0.05), rng.uniform(-3.0, 3.0)) for _ in range(160)] \
            + [(rng.uniform(-3.0, -2.0), rng.uniform(-3.0, -1.0)) for _ in range(80)]

        def off_axis_counts():
            counts = []
            for f_der, nu in points:
                params = ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der)
                report = assemble_spectrum(params)
                counts.append(sum(z.imag != 0.0 for z in report.eigenvalues))
                # the top rectangle's winding number is the roots found in it
                co = reduced_coefficients(params)
                re0, re1, _, im1 = default_window(co, 0.0)
                prob = spectral._RootProblem(co, 0.0)
                real_roots_of(co, 0.0, (re0, re1), prob)
                assert 2 * prob.winding((re0, re1, 1e-6, im1)) == counts[-1], (f_der, nu)
            return counts

        counts = off_axis_counts()
        # the spectra sample their rectangles afresh, not from the table
        fresh_table(monkeypatch)
        monkeypatch.setattr(spectral, "_SPACING", spectral._SPACING / 8.0)
        monkeypatch.setattr(spectral, "_MIN_SIDE", spectral._MIN_SIDE * 8)
        assert counts == off_axis_counts()
        assert sum(counts) > 0

    def test_fig4_controlled_stable(self):
        params = ModelParams(1.0, 1.0, -3.0, 8.0, control_slope=-3.0)
        report = assemble_spectrum(params)
        assert report.verdict == "Stable"
        assert all(z.real < 0.0 for z in report.eigenvalues)
        assert report.essential_edge == -1.0

    def test_json_ordering_and_diagnostics(self):
        params = ModelParams(1.0, 1.0, -3.0, 8.0)
        report = assemble_spectrum(params)
        doc = json.loads(report.to_json())
        eigs = [complex(re, im) for re, im in doc["eigenvalues"]]
        assert eigs == sorted(eigs, key=lambda z: (-z.real, z.imag))
        assert doc["verdict"] == "Unstable"
        assert report.diagnostics["function_evaluations"] > 0


class TestAssembleSpectra:
    def test_batched_reports_equal_single_ones(self):
        # both signs of f', |f'| up to 8, f' = 0, and gains from the gain
        # search's scan (so that windows coincide) and arbitrary ones
        rng = np.random.default_rng(21)
        scan = np.linspace(0.0, -64.0, 33)
        params = []
        for k in range(400):
            f_der = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 8.0 if k % 4 else 3.0)
            f_der = 0.0 if k % 25 == 0 else f_der
            nu = rng.uniform(-3.0, 3.0)
            gain = (0.0, float(scan[k % 33]), rng.uniform(-20.0, 0.5))[k % 3]
            params.append(ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der, control_slope=gain))

        def answer(report):
            if isinstance(report, Exception):
                return f"{type(report).__name__}: {report}"
            return report.to_json()

        single = []
        for p in params:
            try:
                single.append(answer(assemble_spectrum(p)))
            except Exception as exc:  # compared with the batch's below
                single.append(answer(exc))
        batched = [answer(r) for r in spectral.assemble_spectra(params)]
        assert batched == single
        # most of the batch shares a window with another spectrum
        windows = Counter(default_window(reduced_coefficients(p), p.control_slope)
                          for p in params if p.f_der != 0.0)
        assert sum(n for n in windows.values() if n > 1) > len(params) // 4


    def test_brackets_at_two_gains_polish_as_one_array(self, monkeypatch):
        # each bracket is polished about its own spectrum's branch point
        rng = np.random.default_rng(24)
        params = [ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der, control_slope=gain)
                  for gain in (0.0, -2.0) for f_der, nu in rng.uniform(-3.0, 3.0, (60, 2))]
        single = [assemble_spectrum(p).to_json() for p in params]
        polished = []
        polish = spectral._polish_real

        def spy(owners, ends):
            polished.append((len(owners), {prob.gain for prob in owners}))
            return polish(owners, ends)

        monkeypatch.setattr(spectral, "_polish_real", spy)
        batched = spectral.assemble_spectra(params)
        ((brackets, gains),) = polished
        assert brackets >= spectral._ARRAY_BRACKETS and gains == {0.0, -2.0}
        assert [report.to_json() for report in batched] == single

    def test_later_stage_failures_stay_with_their_spectrum(self, monkeypatch):
        # one spectrum's real-root polish meets a NaN value of G inside the
        # array iteration, and another's secant fails in every cell of its
        # subdivision; each shares its stage's group
        rng = np.random.default_rng(30)
        params = [ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der)
                  for f_der, nu in rng.uniform(-3.0, 3.0, (120, 2))]
        single = {}
        for p in params:
            co, report = reduced_coefficients(p), assemble_spectrum(p)
            single[co.alpha, co.beta] = report
        groups = {"_scan_real": [], "_complex_roots": [], "_polish_real": []}

        def spy(name, stage):
            def recorded(problems, *args):
                groups[name].append([(prob.alpha, prob.beta) for prob in problems])
                return stage(problems, *args)
            return recorded

        for name in groups:
            monkeypatch.setattr(spectral, name, spy(name, getattr(spectral, name)))
        spectral.assemble_spectra(params)
        # the batch's brackets are polished as one array
        (polished,) = groups["_polish_real"]
        assert len(polished) >= spectral._ARRAY_BRACKETS
        # the first spectrum with a real root (besides the translation
        # eigenvalue) in a shared scan, and with a complex root in a shared
        # winding count
        lose_polish = next(ab for group in groups["_scan_real"] if len(group) > 1
                           for ab in group if any(
                               z.imag == 0.0 and z != single[ab].translation_eigenvalue
                               for z in single[ab].eigenvalues))
        lose_secant = next(ab for group in groups["_complex_roots"] if len(group) > 1
                           for ab in group if ab != lose_polish
                           and any(z.imag != 0.0 for z in single[ab].eigenvalues))
        g, secant = spectral._g, spectral._RootProblem.secant
        array_steps = []

        def failing_g(alpha, beta, branch, lh):
            # NaN at real points of lose_polish, one point at a time or as
            # an array's entries
            out = g(alpha, beta, branch, lh)
            lose = (alpha == lose_polish[0]) & (beta == lose_polish[1])
            if isinstance(out, np.ndarray):
                array_steps.append(np.any(lose))
                return np.where(lose, np.nan, out)
            return math.nan if lose and isinstance(lh, float) else out

        def failing_secant(prob, *args):
            return None if (prob.alpha, prob.beta) == lose_secant else secant(prob, *args)

        monkeypatch.setattr(spectral, "_g", failing_g)
        monkeypatch.setattr(spectral._RootProblem, "secant", failing_secant)
        failed = {}
        batched = spectral.assemble_spectra(params)
        # the fault met lose_polish inside the array iteration
        assert array_steps and array_steps[0]
        for p, report in zip(params, batched):
            co = reduced_coefficients(p)
            ab = co.alpha, co.beta
            if ab in (lose_polish, lose_secant):
                # the error a single spectrum raises under the same faults
                with pytest.raises(Exception) as raised:
                    assemble_spectrum(p)
                assert type(report) is type(raised.value)
                assert str(report) == str(raised.value)
                failed[ab] = report
            else:
                assert report.to_json() == single[ab].to_json()
        assert isinstance(failed[lose_polish], ValueError)
        assert "NaN" in str(failed[lose_polish])
        assert isinstance(failed[lose_secant], RootIsolationFailure)
        assert "secant failed" in str(failed[lose_secant])


class TestFactorMemo:
    """The zero-gain table of sample sets and G's parameter-free factors on
    them (``_zero_gain_set``)."""

    @staticmethod
    def seeded_params(n, seed, gains):
        rng = np.random.default_rng(seed)
        out = []
        for k in range(n):
            f_der, nu = rng.uniform(-3.0, 3.0, 2)
            out.append(ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der,
                                   control_slope=gains(k, rng)))
        return out

    @staticmethod
    def spied_table(monkeypatch):
        """The zero-gain table, emptied, and the sets it hands out from then
        on, by key."""
        table = spectral._zero_gain_set
        table.cache_clear()
        seen = {}
        monkeypatch.setattr(spectral, "_zero_gain_set",
                            lambda key: seen.setdefault(key, table(key)))
        return table, seen

    @staticmethod
    def counted_builds(monkeypatch):
        """The sample sets made from here on, as a list that grows by one
        a set."""
        built = []
        scan_points, boundary_points = spectral._scan_points, spectral._boundary_points
        monkeypatch.setattr(spectral, "_scan_points",
                            lambda *a: built.append(a) or scan_points(*a))
        monkeypatch.setattr(spectral, "_boundary_points",
                            lambda rect: built.append(rect) or boundary_points(rect))
        return built

    def test_reports_do_not_depend_on_the_memo(self, monkeypatch):
        # gains from the gain search's shared scan and arbitrary ones
        scan = np.linspace(0.0, -64.0, 33)
        params = self.seeded_params(120, 16, lambda k, rng: 0.0) \
            + self.seeded_params(120, 17, lambda k, rng: float(
                scan[k % 33] if k % 2 else rng.uniform(-20.0, 0.5)))
        built = self.counted_builds(monkeypatch)
        cold, again = [], []
        for p in params:
            spectral._zero_gain_set.cache_clear()
            cold.append(assemble_spectrum(p).to_json().encode())
            n_built = len(built)
            again.append(assemble_spectrum(p).to_json().encode())
            if p.control_slope == 0.0:
                # straight after itself, a zero-gain spectrum takes every
                # sample set from the table
                assert len(built) == n_built
        # one pass that carries the table from point to point, where spectra
        # with other alpha and beta share sample sets
        spectral._zero_gain_set.cache_clear()
        carried = [assemble_spectrum(p).to_json().encode() for p in params]
        assert cold == again == carried

    def test_memo_arrays_refuse_writes(self, monkeypatch):
        _, seen = self.spied_table(monkeypatch)
        assemble_spectrum(ModelParams(1.0, 1.0, -3.0, 8.0))
        # the real-axis scan and the top rectangle
        assert [key[0] for key in seen] == ["scan", "rect"]
        for points, factors in seen.values():
            for a in (points, *factors):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    a += 1.0

    def test_memo_holds_a_fixed_family(self, monkeypatch):
        # the scan and the off-axis rectangles of the zero-gain windows of
        # rung 2^0, ..., 2^10: one rectangle a rung for beta < 0, and the
        # one zone for beta > 0
        family = set()
        for j in range(11):
            rho = spectral._RUNG * 2 ** j
            window = (-1.0 + 1e-6, -1.0 + rho, -rho, rho)
            family.add(("scan", *spectral._real_subintervals(*window[:2], 0.0)))
            family.update(("rect", *spectral._off_axis(beta, window)) for beta in (-1.0, 1.0))
        assert len(family) == 23
        sizes = [sum(a.nbytes for a in (points, *factors))
                 for points, factors in (spectral._sample_set(key, -1.0) for key in family)]
        assert sum(sizes) < 0.5e6

        table, seen = self.spied_table(monkeypatch)
        # its 1.6M-point sets, past rung 2^10, are made afresh
        assemble_spectrum(ModelParams(1.0, 1.0, -300.0, 50.0))
        assert not seen
        # the gain search's scan gains, and arbitrary gains as its
        # bisection takes them
        scan = np.linspace(0.0, -64.0, 33)
        for p in self.seeded_params(400, 18, lambda k, rng: float(
                scan[k % 33] if k % 3 else rng.uniform(-64.0, 0.5))):
            assemble_spectrum(p)
        # a subdivision, where the centre start leaves the rectangle
        cls = spectral._RootProblem
        windings, winding = [], cls.winding
        monkeypatch.setattr(cls, "winding",
                            lambda prob, sub: windings.append(sub) or winding(prob, sub))
        prob = cls(ReducedCoefficients(alpha=0.7, beta=-0.56), 0.0)
        real_roots_of(None, 0.0, (-1.0 + 1e-6, 11.0), prob)
        prob.roots((-0.999999, 8.75, 1e-6, 9.75), 1)
        assert windings
        regions.sweep_plane(n_f=16, n_nu=16, threads=1)
        assert set(seen) <= family
        assert table.cache_info().currsize == len(seen) <= 23
        for points, factors in seen.values():
            assert not any(a.flags.writeable for a in (points, *factors))

    def test_a_gain_search_evicts_no_zero_gain_set(self, monkeypatch):
        # a search that raises after 257 spectra at 256 gains below 0
        params = ModelParams(1.0, 1.0, -0.13484125328871954,
                             2.1831594715721643 + 2.0 * 0.13484125328871954)
        report = assemble_spectrum(params).to_json()
        with pytest.raises(FloorInsufficient):
            regions.min_control_gain(params)
        built = self.counted_builds(monkeypatch)
        assert assemble_spectrum(params).to_json() == report
        assert not built

    def test_threads_share_the_memo(self, monkeypatch):
        # the table filled from empty by more threads than cores, with
        # thread switches as often as the interpreter allows, amid spectra
        # at other gains
        table, seen = self.spied_table(monkeypatch)
        params = self.seeded_params(40, 19, lambda k, rng: float(
            rng.uniform(-8.0, 0.5) if k % 2 else 0.0))
        serial = [assemble_spectrum(p).to_json() for p in params]
        table.cache_clear()
        seen.clear()
        results, errors = {}, []

        def work(k):
            try:
                results[k] = [assemble_spectrum(p).to_json() for p in params[k:] + params[:k]]
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads) and len(results) == 6
        for k, reports in results.items():
            assert reports == serial[k:] + serial[:k]
        # every kept set is whole: the bits of one made afresh
        assert seen and table.cache_info().currsize == len(seen)
        for key, (points, factors) in seen.items():
            fresh_points, fresh_factors = spectral._sample_set(key, -1.0)
            for a, b in zip((points, *factors), (fresh_points, *fresh_factors)):
                assert a.tobytes() == b.tobytes()
