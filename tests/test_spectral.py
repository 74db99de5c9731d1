"""Spectral layer: the closed-form R, the reduced root equation, root
finders, and verdict assembly."""

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from pulsectrl import spectral
from pulsectrl.errors import (
    EssentialRay,
    PoleAtInput,
    UnstableEssential,
)
from pulsectrl.model import ModelParams, ReducedCoefficients, reduced_coefficients
from pulsectrl.oracle import FastGrid, r_oracle
from pulsectrl.spectral import (
    WEIGHT_LOW,
    assemble_spectrum,
    default_window,
    essential_edges,
    find_real_roots,
    r_discrete,
    r_total,
)

FIG4_COEFFS = ReducedCoefficients(alpha=2.0, beta=-1.0, nu=2.0)


def oracle_extrapolated(lh: complex) -> complex:
    """Richardson-extrapolated brute-force R (kills the O(h^2) grid error)."""
    coarse = r_oracle(lh, FastGrid(-40.0, 40.0, 8001))
    fine = r_oracle(lh, FastGrid(-40.0, 40.0, 16001))
    return (4.0 * fine - coarse) / 3.0


class TestRDiscrete:
    def test_decay_at_infinity(self):
        assert abs(r_discrete(1e6)) < 1e-5

    def test_closed_form_value(self):
        expected = WEIGHT_LOW * (75.0 / 0.75 - 1.0 / 2.75)
        assert r_discrete(2.0) == pytest.approx(expected, rel=1e-12)
        assert r_discrete(2.0) == pytest.approx(9.7233, abs=5e-5)

    def test_pole_inputs(self):
        for pole in (1.25, -0.75):
            with pytest.raises(PoleAtInput) as exc:
                r_discrete(pole)
            assert exc.value.pole == pole

    def test_conjugate_symmetry(self):
        z = 0.4 + 2.3j
        assert r_discrete(np.conj(z)) == pytest.approx(np.conj(r_discrete(z)))


class TestRContinuous:
    """The continuum part R_c, as ``r_total`` evaluates it."""

    def test_essential_ray_rejected(self):
        for lh in (-1.0, -1.5, -40.0, -1.5 + 0.0j):
            with pytest.raises(EssentialRay):
                r_total(lh)
        # just off the ray is fine; the reference is 40-digit mpmath
        val = r_total(-1.5 + 0.1j).r_c
        assert abs(val - complex(0.016050955699934026584, 0.04705480502988777923)) <= 1e-16

    def test_real_input_real_output(self):
        assert r_total(3.0).r_c.imag == 0.0

    def test_small_negative_real_part_on_right_half_plane(self):
        # the continuum part is a small negative correction on Re lh >= 0;
        # its magnitude peaks at lh = 0 (about 1.47e-2)
        for lh in (0.0, 0.5, 1.0, 5.0, 50.0):
            val = r_total(lh).r_c
            assert -1.5e-2 <= val.real < 0.0

    def test_matches_oracle_decomposition(self):
        val = r_total(2.0).r_c
        reference = oracle_extrapolated(2.0) - r_discrete(2.0)
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
        batch = spectral._continuum(lh)
        for z, value in zip(lh, batch):
            ref = continuum_quad(z)
            assert abs(value - ref) <= 1e-13 * abs(ref), z
            # scalar and array arithmetic round apart by a few ulps
            assert abs(r_total(complex(z)).r_c - value) <= 1e-14 * abs(ref), z

    def test_slope_matches_cauchy_integral(self):
        # dR_c/dlh = mean of R_c(z + r e^(it)) e^(-it) / r over the circle:
        # the trapezoid rule on it converges geometrically in the points.
        # Newton divides by dR/dlh, so the error counts against all of it.
        lh = np.concatenate([self.right_half_plane(20, 22),
                             [-0.99 + 0.01j, -1.5 + 0.1j, 1.25 + 1e-3j, -0.75 + 0.3j]])
        theta = 2.0 * np.pi * np.arange(64) / 64.0
        for z in lh:
            r = 0.25 * min(1.0, abs(z + 1.0), abs(z.imag) if z.real < -1.0 else 1.0)
            ref = np.mean(spectral._continuum(z + r * np.exp(1j * theta))
                          * np.exp(-1j * theta)) / r
            r_d_slope = -spectral.WEIGHT_HIGH / (z - spectral.POLE_HIGH) ** 2 \
                + spectral.WEIGHT_LOW / (z - spectral.POLE_LOW) ** 2
            assert abs(spectral._continuum_slope(complex(z)) - ref) \
                <= 1e-12 * max(1.0, abs(ref + r_d_slope)), z

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
            value = r_total(lh).total
            assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), lh

    def test_value_at_zero(self):
        # lambda = 0 solves the root equation on the fold line alpha + beta = R(0)
        assert abs(r_total(0.0).total + 6.0) <= 1e-15 * 6.0

    def test_parts_sum_exactly(self):
        val = r_total(1.0 + 2.0j)
        assert val.total == val.r_d + val.r_c

    def test_imaginary_sign_flip(self):
        assert np.sign(r_total(1.0 + 2.0j).total.imag) == -1.0

    def test_real_axis_decrease(self):
        a, b = r_total(2.0).total, r_total(3.0).total
        assert a.real > b.real > 0.0
        assert a.imag == b.imag == 0.0

    def test_oracle_agreement(self):
        for lh in (2.0, 3.0 + 1.0j, 0.5 + 4.0j):
            assert abs(r_total(lh).total - r_oracle(complex(lh))) <= 1e-4

    def test_conjugate_symmetry(self):
        for lh in (0.5 + 3.0j, 2.0 + 0.7j, -0.2 + 5.0j):
            a = r_total(lh).total
            b = r_total(np.conj(lh)).total
            assert abs(b - np.conj(a)) <= 1e-14 * abs(a)


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
        assert np.all(np.abs(spectral._r_values(lh)) <= self.bound(lh))
        # the continuum part alone
        cont = np.abs(spectral._continuum(lh))
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
            assert np.all(lhs > np.abs(spectral._r_values(lh))), (alpha, beta, gain)

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
                rhs = np.abs(spectral._r_values(1j * omega - gain))
                assert np.all(lhs > rhs), (alpha, beta, gain)

    def test_search_on_a_box_three_times_larger_finds_nothing_outside(self):
        rng = np.random.default_rng(13)
        for k in range(36):
            alpha = rng.uniform(-6.0, 6.0)
            beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
            gain = rng.uniform(-5.0, 0.5) if k % 3 else -(10.0 ** rng.uniform(0.5, 2.5))
            co = ReducedCoefficients(alpha, beta, 0.0)
            re0, re1, _, im1 = default_window(co, gain)
            c = -1.0 - gain
            big = (re0, c + 3.0 * (re1 - c), 1e-6, 3.0 * im1)
            prob = spectral._RootProblem(co, gain)
            real = find_real_roots(co, gain, big[:2], problem=prob)
            roots = real + spectral._complex_roots(prob, big, real)
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
        (ReducedCoefficients(alpha=-1.0, beta=2.0, nu=0.5), -3.0),
    ])
    def test_batch_equals_point_by_point(self, coeffs, gain):
        # batched and scalar arithmetic may round differently, by a few ulps
        def assert_close(values, reference):
            reference = np.asarray(reference)
            assert np.all(np.abs(values - reference)
                          <= 1e-14 * np.maximum(1.0, np.abs(reference)))

        prob = spectral._RootProblem(coeffs, gain)
        sizes = (1, 127, 128, 129, 389)
        for n in sizes:
            lh = np.resize(self.POINTS, n)
            for fn in (prob.phi, prob.g):
                batch = fn(lh)
                assert batch.shape == (n,)
                assert_close(batch, [fn(z) for z in lh])
                real = fn(lh.real)
                assert real.dtype == float
                assert_close(real, [fn(complex(x)).real for x in lh.real])
                assert_close(real, fn(lh.real.astype(complex)).real)
        # n_eval counts points: five evaluations of each point by each function
        assert prob.n_eval == 2 * 5 * sum(sizes)


class TestFindRealRoots:
    def test_root_right_of_high_pole(self):
        co = ReducedCoefficients(alpha=0.0, beta=1.0, nu=0.0)
        win = default_window(co, 0.0)
        roots = find_real_roots(co, 0.0, (win[0], win[1]))
        assert any(r > 1.25 for r in roots)

    def test_large_root_for_negative_alpha(self):
        co = ReducedCoefficients(alpha=-5.0, beta=1.0, nu=5.0)
        win = default_window(co, 0.0)
        roots = find_real_roots(co, 0.0, (win[0], win[1]))
        assert roots and max(roots) > 24.0

    def test_deep_gain_empties_roots(self):
        co = ReducedCoefficients(alpha=2.0, beta=1.0, nu=-2.0)
        win = default_window(co, -20.0)
        assert find_real_roots(co, -20.0, (win[0], win[1])) == []

    def test_close_pair_keeps_both_roots(self):
        # two roots 1e-8 apart by the window's left end, each bracketed by
        # its own pair of geometric samples
        lo = -1.0 + 1e-6
        r1, r2 = lo + 0.5e-8, lo + 1.5e-8
        stub = SimpleNamespace(phi=lambda x: 1e12 * (x - r1) * (x - r2))
        roots = find_real_roots(None, 0.0, (lo, 3.0), problem=stub)
        assert len(roots) == 2
        for root, r in zip(roots, (r1, r2)):
            assert abs(root - r) <= 1e-15

    def test_no_root_from_a_sign_change_across_a_pole(self):
        # the scan's last sample below 5/4 and its first above it differ in
        # sign, but they lie in two subintervals
        stub = SimpleNamespace(phi=lambda x: x - 1.25)
        assert find_real_roots(None, 0.0, (-0.5, 3.0), problem=stub) == []

    def test_root_next_to_an_end_two_subintervals_share(self):
        # the branch point's disk (-1 - 1e-8, -1 + 1e-8) and the subinterval
        # right of it share their end; the root lies between that end and
        # the next sample
        intervals = spectral._real_subintervals(-2.0, 0.0, 0.0)
        shared = intervals[0][1]
        assert intervals[1][0] == shared
        root = shared + 5e-9
        stub = SimpleNamespace(phi=lambda x: x - root)
        (found,) = find_real_roots(None, 0.0, (-2.0, 0.0), problem=stub)
        assert abs(found - root) <= 1e-15


class TestScanSamples:
    @pytest.mark.parametrize("window, gain", [
        ((-1.0 + 1e-6, 9.3), 0.0), ((-0.5, 3.0), 0.0), ((2.0, 14520.25), -3.0),
        ((-2.0, 5.0), 0.0), ((-5.0, 5.0), -0.3),
    ])
    def test_one_pass_keeps_every_subinterval_sample(self, window, gain):
        # the samples of a scan one subinterval at a time
        pts = []
        for a, b in spectral._real_subintervals(*window, gain):
            n = max(64, min(512, int((b - a) * 16)))
            geo = np.geomspace(1e-8, 0.5 * (b - a), 25)
            pts.append(np.unique(np.concatenate([np.linspace(a, b, n), a + geo, b - geo])))
        a, b = np.array(spectral._real_subintervals(*window, gain)).T
        assert np.array_equal(spectral._scan_points(a, b), np.unique(np.concatenate(pts)))

    def test_geomspace_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            start, num = 10.0 ** rng.uniform(-10.0, 0.0), int(rng.integers(2, 60))
            stop = 10.0 ** rng.uniform(-9.0, 6.0, 3)
            assert np.array_equal(spectral._geomspace(start, stop[0], num),
                                  np.geomspace(start, stop[0], num))
            assert np.array_equal(spectral._geomspace(start, stop, num),
                                  np.geomspace(start, stop, num, axis=1))

    def test_winding_sides_are_linspace(self):
        search = spectral._WindingSearch(spectral._RootProblem(FIG4_COEFFS, 0.0))
        for n in (8, 9, 100, 1999):
            a, b = complex(-0.5, 1e-6), complex(-0.5 + 0.75 * (n - 1), 1e-6)
            assert np.array_equal(search._side(a, b, np.empty(0)),
                                  a + (b - a) * np.linspace(0.0, 1.0, n, endpoint=False))


class TestFindComplexRoots:
    def test_fig4_roots_and_conjugate_closure(self):
        roots = spectral._complex_roots(spectral._RootProblem(FIG4_COEFFS, 0.0),
                                        (-0.9, 10.0, -8.0, 8.0))
        assert roots
        assert max(z.real for z in roots) < 1.28
        for z in roots:
            assert min(abs(np.conj(z) - w) for w in roots) <= 1e-8

    def test_positive_beta_roots_real(self):
        co = ReducedCoefficients(alpha=-1.0, beta=1.0, nu=1.0)
        roots = spectral._complex_roots(spectral._RootProblem(co, 0.0),
                                        (-0.7, 30.0, -5.0, 5.0))
        assert roots
        assert max(abs(z.imag) for z in roots) <= 1e-8

    def test_real_root_on_bottom_edge_retried_below_axis(self):
        # the bottom edge im = 0 runs through the real root 5.769; the first
        # search stalls there, and the retry lowers that edge below the axis
        co = ReducedCoefficients(alpha=-1.0, beta=1.0, nu=1.0)
        (real_root,) = find_real_roots(co, 0.0, (4.5, 7.0))
        prob = spectral._RootProblem(co, 0.0)
        roots = spectral._complex_roots(prob, (4.5, 7.0, 0.0, 1.0))
        assert len(roots) == 1
        assert abs(roots[0] - real_root) <= 1e-10
        assert prob.winding_retries == 1


class TestNewton:
    def test_gives_up_once_it_leaves_the_rectangle(self):
        # from the centre of the off-axis window, Newton runs away from the
        # one root near -0.75 + 0.34i and would wander for all 60 steps
        co = ReducedCoefficients(alpha=-3.0, beta=-1.0, nu=0.0)
        re0, re1, _, im1 = default_window(co, 0.0)
        rect = (re0, re1, 1e-6, im1)
        centre = complex(0.5 * (re0 + re1), 0.5 * (1e-6 + im1))
        diam = math.hypot(re1 - re0, im1 - 1e-6)
        unbounded = spectral._RootProblem(co, 0.0)
        assert unbounded.newton(centre, math.inf) is None
        assert unbounded.n_eval == 61
        prob = spectral._RootProblem(co, 0.0)
        assert prob.newton(centre, diam) is None
        assert prob.n_eval <= 3
        # subdividing still finds the root
        (root,) = spectral._complex_roots(prob, rect)
        assert abs(root - (-0.7523620903272242 + 0.33614943901371314j)) <= 1e-10

    @pytest.mark.parametrize("gain", [0.0, -0.5])
    def test_gives_up_at_a_branch_point(self, gain):
        # Phi' is infinite at lh = -1 - l'(0) and at -1
        prob = spectral._RootProblem(FIG4_COEFFS, gain)
        for start in {complex(-1.0 - gain), complex(-1.0)}:
            assert prob.newton(start, 1.0) is None


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
        assert report.diagnostics == {"function_evaluations": 511,
                                      "winding_total": 1, "winding_retries": 0}
        pair = sorted((z for z in report.eigenvalues if z.imag != 0.0),
                      key=lambda z: z.imag)
        assert len(pair) == 2
        for z, im in zip(pair, (-5.385397902204238, 5.385397902204238)):
            assert abs(z - complex(1.2423052748579382, im)) <= 1e-12

    def test_fig4_scans_the_real_axis_in_one_call(self, monkeypatch):
        # every real subinterval's samples go through one array call
        array_calls = []
        phi = spectral._RootProblem.phi

        def counted(prob, lh):
            if isinstance(lh, np.ndarray):
                array_calls.append(lh)
            return phi(prob, lh)

        monkeypatch.setattr(spectral._RootProblem, "phi", counted)
        assemble_spectrum(ModelParams(1.0, 1.0, -3.0, 8.0))
        assert len(array_calls) == 1

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
            real_roots = find_real_roots(co, 0.0, (re0, re1), problem=prob)
            full = spectral._complex_roots(prob, (re0, re1, 1e-6, im1), real_roots)
            upper = sorted((z for z in report.eigenvalues if z.imag > 0.0),
                           key=lambda z: (z.real, z.imag))
            assert len(full) == len(upper), (f_der, nu)
            for z, w in zip(full, upper):
                assert re0 < z.real < -0.35 and 1e-6 < z.imag < 0.6, (f_der, nu, z)
                assert abs(z - w) <= 1e-10 * abs(w), (f_der, nu, z, w)
            n_complex += len(full)
        assert n_complex >= 20

    def test_large_window_memory_bounded(self):
        # the window reaches Re 3.0e5, and the work is pinned
        params = ModelParams(1.0, 1.0, -300.0, 50.0)
        report = assemble_spectrum(params)
        assert 3.0e5 < report.search_window["re"][1] < 3.1e5
        assert report.diagnostics["function_evaluations"] == 1_614_255
        # one call on a long side of that window: the closed form for R_c
        # holds a few arrays of the call's size at a time, 1 MB each here
        co = reduced_coefficients(params)
        lh = np.linspace(0.0, report.search_window["re"][1], 65_536) + 1e-6j
        tracemalloc.start()
        try:
            spectral._RootProblem(co, 0.0).g(lh)
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
            prob = spectral._RootProblem(reduced_coefficients(params), gain)
            for z in report.eigenvalues:
                if z == report.translation_eigenvalue:
                    continue
                lh = complex(z) - gain
                r = spectral._r_values(lh)
                assert abs(prob.phi(lh)) <= 1e-12 * max(1.0, abs(r)), (f_der, nu, gain, z)

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
            assert abs(spectral._r_values(complex(z)) - r_oracle(complex(z))) <= 1e-4

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
                assert 2 * report.diagnostics["winding_total"] == counts[-1], (f_der, nu)
            return counts

        counts = off_axis_counts()
        search = spectral._WindingSearch
        monkeypatch.setattr(search, "SPACING", search.SPACING / 8.0)
        monkeypatch.setattr(search, "MIN_SIDE", search.MIN_SIDE * 8)
        monkeypatch.setattr(search, "ROOT_SAMPLES", search.ROOT_SAMPLES * 8)
        monkeypatch.setattr(search, "BRANCH_SAMPLES", search.BRANCH_SAMPLES * 8)
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
