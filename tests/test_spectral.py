"""Spectral layer: the closed-form R, the reduced root equation, root
finders, and verdict assembly."""

import json
import tracemalloc

import numpy as np
import pytest

from pulsectrl import spectral
from pulsectrl.errors import (
    BranchCut,
    EssentialRay,
    PoleAtInput,
    UnstableEssential,
)
from pulsectrl.model import ModelParams, ReducedCoefficients
from pulsectrl.oracle import FastGrid, r_oracle
from pulsectrl.spectral import (
    WEIGHT_LOW,
    assemble_spectrum,
    default_window,
    essential_edges,
    find_complex_roots,
    find_real_roots,
    lhs,
    r_continuous,
    r_discrete,
    r_total,
    verify_r_bound,
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
    def test_essential_ray_rejected(self):
        for lh in (-1.0, -1.5, -40.0):
            with pytest.raises(EssentialRay):
                r_continuous(lh)
        # just off the ray is fine
        val, err = r_continuous(-1.5 + 0.1j)
        assert np.isfinite(val) and err < 1e-8

    def test_real_input_real_output(self):
        val, _ = r_continuous(3.0)
        assert val.imag == 0.0

    def test_small_negative_real_part_on_right_half_plane(self):
        # the continuum part is a small negative correction on Re lh >= 0;
        # its magnitude peaks at lh = 0 (about 1.47e-2)
        for lh in (0.0, 0.5, 1.0, 5.0, 50.0):
            val, _ = r_continuous(lh)
            assert -1.5e-2 <= val.real < 0.0

    def test_matches_oracle_decomposition(self):
        val, _ = r_continuous(2.0)
        reference = oracle_extrapolated(2.0) - r_discrete(2.0)
        assert abs(val - reference) <= 1e-6

    def test_quadrature_convergence(self):
        lh = 0.3 + 2.1j
        v1, e1 = r_continuous(lh, tol=1e-8)
        v2, _ = r_continuous(lh, tol=5e-9)
        assert abs(v1 - v2) <= e1

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            r_continuous(2.0, tol=0.0)


class TestRTotal:
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

    def test_bound_away_from_poles(self):
        assert verify_r_bound()


class TestLhs:
    def test_reference_values(self):
        assert lhs(-1.0, FIG4_COEFFS, 0.0) == pytest.approx(2.0)
        assert lhs(0.0, FIG4_COEFFS, 0.0) == pytest.approx(2.0 - 1.0)
        assert lhs(3.0, FIG4_COEFFS, 0.0) == pytest.approx(0.0)
        co = ReducedCoefficients(alpha=-1.0, beta=2.0, nu=0.5)
        assert lhs(-1.0 + 3.0, co, -3.0) == pytest.approx(-1.0)
        assert lhs(3.0, co, -3.0) == pytest.approx(-1.0 + 2.0)

    def test_branch_cut(self):
        with pytest.raises(BranchCut):
            lhs(-2.0, FIG4_COEFFS, 0.0)


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
        prob = spectral._RootProblem(coeffs, gain)
        block = spectral._BLOCK
        sizes = (1, block - 1, block, block + 1, 3 * block + 5)
        for n in sizes:
            lh = np.resize(self.POINTS, n)
            for fn in (prob.phi, prob.g):
                batch = fn(lh)
                assert batch.shape == (n,)
                assert np.array_equal(batch, [fn(z) for z in lh])
                real = fn(lh.real)
                assert real.dtype == float
                assert np.array_equal(real, [fn(complex(x)).real for x in lh.real])
                assert np.array_equal(real, fn(lh.real.astype(complex)).real)
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


class TestFindComplexRoots:
    def test_fig4_roots_and_conjugate_closure(self):
        roots = find_complex_roots(FIG4_COEFFS, 0.0, (-0.9, 10.0, -8.0, 8.0))
        assert roots
        assert max(z.real for z in roots) < 1.28
        for z in roots:
            assert min(abs(np.conj(z) - w) for w in roots) <= 1e-8

    def test_positive_beta_roots_real(self):
        co = ReducedCoefficients(alpha=-1.0, beta=1.0, nu=1.0)
        roots = find_complex_roots(co, 0.0, (-0.7, 30.0, -5.0, 5.0))
        assert roots
        assert max(abs(z.imag) for z in roots) <= 1e-8

    def test_real_root_on_bottom_edge_retried_below_axis(self):
        # the bottom edge im = 0 runs through the real root 5.769; the first
        # search stalls there, and the retry lowers that edge below the axis
        co = ReducedCoefficients(alpha=-1.0, beta=1.0, nu=1.0)
        (real_root,) = find_real_roots(co, 0.0, (4.5, 7.0))
        prob = spectral._RootProblem(co, 0.0)
        roots = find_complex_roots(co, 0.0, (4.5, 7.0, 0.0, 1.0), problem=prob)
        assert len(roots) == 1
        assert abs(roots[0] - real_root) <= 1e-10
        assert prob.winding_retries == 1


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
        assert report.diagnostics == {"function_evaluations": 2892,
                                      "winding_total": 1, "winding_retries": 0}
        pair = sorted((z for z in report.eigenvalues if z.imag != 0.0),
                      key=lambda z: z.imag)
        assert len(pair) == 2
        for z, im in zip(pair, (-5.385397902204238, 5.385397902204238)):
            assert abs(z - complex(1.2423052748579382, im)) <= 1e-12

    def test_large_window_memory_bounded(self):
        # the window reaches Re 14,520; the continuum sum must work in blocks
        params = ModelParams(1.0, 1.0, -30.0, 0.5 + 60.0)
        tracemalloc.start()
        try:
            report = assemble_spectrum(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.search_window["re"][1] > 14_000
        assert report.diagnostics["function_evaluations"] == 39_711
        assert peak < 16e6

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
