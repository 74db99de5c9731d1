"""Acceptance suite: the nine primary criteria, one test each.

Each test enforces the stated numerical tolerance and runtime budget; run
with ``pytest -v`` to get one pass/fail line per criterion.
"""

import json
import time

import numpy as np
import pytest

from pulsectrl.model import ModelParams, PowerLawModel, ReducedCoefficients
from pulsectrl.oracle import (
    FastGrid,
    FastOperator,
    eigenfunction_identities,
    r_oracle,
    theta_inner_product,
    theta_reference,
    top_eigenvalues,
)
from pulsectrl.pde_sim import SimConfig, run
from pulsectrl.regions import sweep_plane, sweep_to_dict
from pulsectrl.spectral import (
    _RootProblem,
    _continuum_cleared,
    assemble_spectrum,
    default_window,
    find_real_roots,
    r_total,
)

FIG4 = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0)
POLE_HIGH = 1.25
POLE_LOW = -0.75


def real_roots(coeffs, gain, window):
    """The real roots in ``window`` of one root problem."""
    prob = _RootProblem(coeffs, gain)
    prob.window = window
    find_real_roots([prob])
    if prob.error is not None:
        raise prob.error
    return prob.real_roots


def non_translation_eigs(report):
    return [z for z in report.eigenvalues if z != report.translation_eigenvalue]


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    points = [complex(x) for x in rng.uniform(1.3 + 1e-9, 50.0, 10)]
    for _ in range(10):
        re = rng.uniform(-0.5 + 1e-9, 5.0)
        im = rng.uniform(0.5, 10.0) * rng.choice([-1.0, 1.0])
        points.append(complex(re, im))
    worst = 0.0
    for lh in points:
        err = abs(r_total(lh) - r_oracle(lh))
        worst = max(worst, err)
        assert err <= 1e-4, f"lambda_hat={lh}: |closed form - oracle| = {err:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 1 PASS: 20-point oracle equivalence, worst {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_2_fast_operator_spectrum():
    start = time.monotonic()
    eigs = top_eigenvalues(FastOperator(), 3)
    for computed, reference in zip(eigs, (1.25, 0.0, -0.75)):
        assert abs(computed - reference) <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 2 PASS: top eigenvalues {eigs} within 1e-3, {elapsed:.1f}s")


def test_criterion_3_closed_form_identities():
    records = eigenfunction_identities()
    for name in ("psi0_dot_vp", "psi2_dot_vp", "vp2_dot_psi0", "vp2_dot_psi2"):
        assert records[name]["abs_error"] <= 1e-8, name
    for name in ("norm_psi0", "norm_psi1", "norm_psi2"):
        assert records[name]["abs_error"] <= 1e-10, name
    for mu in (-1.5, -2.0, -5.0):
        err = abs(theta_inner_product(mu) - theta_reference(mu))
        assert err <= 1e-6, f"theta identity at mu={mu}: {err:.3e}"
    print("criterion 3 PASS: inner products 1e-8, norms 1e-10, theta 1e-6")


def test_criterion_4_spectral_function_properties():
    # (I) sign identity off the poles: within disks of radius 0.25 around
    # the low pole the identity is genuinely false (see the design notes),
    # so the sample domain excludes punctured pole disks
    rng = np.random.default_rng(2024)
    count = 0
    while count < 500:
        lh = complex(rng.uniform(-0.99, 60.0), rng.uniform(-60.0, 60.0))
        if lh.imag == 0.0 or abs(lh - POLE_HIGH) < 0.25 or abs(lh - POLE_LOW) < 0.25:
            continue
        count += 1
        value = r_total(lh)
        assert np.sign(value.imag) == -np.sign(lh.imag), lh

    # (II) positive real part right of Re = 1.28
    rng = np.random.default_rng(2025)
    for _ in range(500):
        lh = complex(rng.uniform(1.28, 100.0), rng.uniform(-100.0, 100.0))
        assert r_total(lh).real > 0.0, lh

    # (III) positive and strictly decreasing on the real interval
    grid = np.linspace(POLE_HIGH + 1e-3 + 1e-9, 100.0, 1000)
    values = np.array([r_total(float(x)).real for x in grid])
    assert np.all(values > 0.0)
    assert np.all(np.diff(values) < 0.0)

    # (IV) negative real part on the strip, plus the continuum bound
    rng = np.random.default_rng(2026)
    for _ in range(500):
        lh = complex(rng.uniform(0.0, 1.0), rng.uniform(-10.0, 10.0))
        assert r_total(lh).real < 0.0, lh
        r_c = _continuum_cleared(lh) / ((lh - POLE_HIGH) * (lh - POLE_LOW))
        assert r_c.real <= 9.06e-3, lh
    print("criterion 4 PASS: sign/positivity/monotonicity/strip suites clean")


def test_criterion_5_root_behaviors():
    # (1) positive beta keeps roots real, except for the conjugate pairs
    # that genuinely exist inside the disk of radius 0.3 around the low
    # pole (oracle-verified; their eigenvalues stay left of the axis for
    # any nonpositive gain, so verdicts are unaffected)
    rng = np.random.default_rng(101)
    for _ in range(50):
        beta = rng.uniform(0.1, 12.0)
        alpha = rng.uniform(-12.0, 12.0)
        gain = rng.uniform(-5.0, 0.5)
        f_der = 3.0 / beta
        to_log_der = -(alpha + 6.0) * f_der / 3.0
        params = ModelParams(1.0, 1.0, f_der, to_log_der, control_slope=gain)
        report = assemble_spectrum(params)
        for z in non_translation_eigs(report):
            lh = z - gain
            assert abs(lh.imag) <= 1e-8 or abs(lh - POLE_LOW) <= 0.3, \
                (alpha, beta, gain, lh)

    # (2) alpha <= 0 < beta: a real root right of 5/4 exists
    rng = np.random.default_rng(102)
    for _ in range(50):
        alpha = rng.uniform(-10.0, 0.0)
        beta = rng.uniform(0.1, 10.0)
        gain = rng.uniform(-10.0, 0.5)
        coeffs = ReducedCoefficients(alpha, beta)
        window = default_window(coeffs, gain)
        roots = real_roots(coeffs, gain, (window[0], window[1]))
        assert roots and max(roots) > POLE_HIGH, (alpha, beta, gain)

    # (3) -alpha >= beta > 0: the largest root beats -gain
    rng = np.random.default_rng(103)
    for _ in range(50):
        beta = rng.uniform(0.1, 8.0)
        alpha = -beta * rng.uniform(1.0, 3.0)
        coeffs = ReducedCoefficients(alpha, beta)
        for gain in (0.0, -10.0):
            window = default_window(coeffs, gain)
            roots = real_roots(coeffs, gain, (window[0], window[1]))
            assert roots and max(roots) > -gain, (alpha, beta, gain)

    # (5) alpha, beta > 0: some gain empties the root set
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = rng.uniform(0.05, 10.0)
        beta = rng.uniform(0.1, 10.0)
        coeffs = ReducedCoefficients(alpha, beta)
        emptied = False
        for gain in (-2.0, -5.0, -10.0, -20.0, -50.0, -100.0, -200.0, -400.0):
            window = default_window(coeffs, gain)
            if not real_roots(coeffs, gain, (window[0], window[1])):
                emptied = True
                break
        assert emptied, (alpha, beta)
    print("criterion 5 PASS: root behaviors (1),(2),(3),(5) on 50 draws each")


def test_criterion_6_figure_reference_point():
    start = time.monotonic()
    uncontrolled = assemble_spectrum(FIG4)
    assert uncontrolled.verdict == "Unstable"
    controlled = assemble_spectrum(FIG4.with_control_slope(-3.0))
    assert controlled.verdict == "Stable"
    assert all(z.real < 0.0 for z in controlled.eigenvalues)
    assert controlled.essential_edge == -1.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 6 PASS: reference point verdicts, {elapsed:.2f}s")


def test_criterion_7_region_map():
    from pulsectrl.regions import classify_point

    start = time.monotonic()
    result = sweep_plane(n_f=121, n_nu=121, threads=4)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0

    for cell in result.cells:
        assert cell.theorem_class == classify_point(cell.f_der, cell.nu)

    stable_cells = [c for c in result.cells
                    if not c.error and c.uncontrolled_verdict != "Unstable"]
    assert stable_cells
    for cell in stable_cells:
        assert cell.f_der != 0.0
        assert not (cell.f_der > 0.0 and cell.nu >= 1.0)

    assert len(result.hopf) > 0 and len(result.fold) > 0

    # boundary points must sit between the stable and unstable sets: each
    # refined point lies within reach of one cell of each kind (bridged
    # degenerate cells can put the pair two grid steps apart)
    spacing = result.f_der_values[1] - result.f_der_values[0]
    stable = np.array([[c.f_der, c.nu] for c in stable_cells])
    unstable = np.array([[c.f_der, c.nu] for c in result.cells
                         if not c.error and c.uncontrolled_verdict == "Unstable"])
    for point in result.hopf + result.fold:
        p = np.array(point)
        d_stable = np.min(np.linalg.norm(stable - p, axis=1))
        d_unstable = np.min(np.linalg.norm(unstable - p, axis=1))
        assert max(d_stable, d_unstable) <= 2.2 * spacing, point
    print(f"criterion 7 PASS: 121x121 sweep, {len(result.hopf)} Hopf and "
          f"{len(result.fold)} fold points, {elapsed:.0f}s")


def test_criterion_8_time_domain_cross_validation():
    start = time.monotonic()
    model = PowerLawModel.from_params(FIG4)
    spectral_rate = max(z.real for z in assemble_spectrum(FIG4).eigenvalues)

    unstable = run(SimConfig(model=model, params=FIG4, t_end=6.0))
    assert unstable.fit_r2 >= 0.99
    rel_err = abs(unstable.fitted_rate - spectral_rate) / spectral_rate
    assert rel_err <= 0.15, (unstable.fitted_rate, spectral_rate)

    controlled_params = FIG4.with_control_slope(-3.0)
    controlled = run(SimConfig(model=model, params=controlled_params, t_end=4.0))
    assert controlled.fit_r2 >= 0.99
    assert controlled.fitted_rate < 0.0

    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    print(f"criterion 8 PASS: rate {unstable.fitted_rate:.4f} vs spectral "
          f"{spectral_rate:.4f} ({100 * rel_err:.2f}%), controlled rate "
          f"{controlled.fitted_rate:.4f}, {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    from pulsectrl.cli import dispatch

    # closed-form evaluation
    assert repr(r_total(2.0 + 1.0j)) == repr(r_total(2.0 + 1.0j))

    # spectrum assembly (winding search, Newton refinement)
    a = assemble_spectrum(FIG4).to_json()
    b = assemble_spectrum(FIG4).to_json()
    assert a.encode() == b.encode()

    # concurrent region sweep merges deterministically
    s1 = json.dumps(sweep_to_dict(sweep_plane(n_f=9, n_nu=9, threads=2)))
    s2 = json.dumps(sweep_to_dict(sweep_plane(n_f=9, n_nu=9, threads=2)))
    assert s1.encode() == s2.encode()

    # seeded PDE run
    model = PowerLawModel.from_params(FIG4)
    config = SimConfig(model=model, params=FIG4, t_end=0.03,
                       perturbation_shape="random", seed=3)
    t1, t2 = run(config), run(config)
    assert t1.times.tobytes() == t2.times.tobytes()
    assert t1.deviation_norms.tobytes() == t2.deviation_norms.tobytes()

    # CLI output is byte-identical once the wall-clock timestamp is dropped
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = dispatch(["spectrum", "--f-der", "-3", "--to-log-der", "8",
                         "--gain", "-3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        doc["manifest"].pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True).encode())
    assert docs[0] == docs[1]
    print("criterion 9 PASS: repeated runs byte-identical (timestamp excluded)")
