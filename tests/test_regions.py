"""Region layer: the closed-form trichotomy, minimal-gain search, and the
parameter-plane sweep with boundary tracing."""

import concurrent.futures
import csv
import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from pulsectrl import regions, spectral
from pulsectrl.errors import FloorInsufficient, NotControllable, RootIsolationFailure
from pulsectrl.model import ModelParams, reduced_coefficients
from pulsectrl.regions import (
    CLASS_F_PRIME_NEG,
    CLASS_F_PRIME_ZERO,
    CLASS_NU_LARGE,
    CLASS_NU_SMALL,
    CONTROLLABLE_CLASSES,
    DEEPEST_FLOOR,
    RegionCell,
    classify_point,
    classify_theorem,
    cells_to_csv,
    min_control_gain,
    sweep_plane,
    sweep_to_dict,
    uncontrolled_report,
    uncontrolled_verdict,
)
from pulsectrl.regions import _crosses_polyline
from pulsectrl.spectral import assemble_spectrum

FIG4 = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0)


def grid_params(f_der: float, nu: float) -> ModelParams:
    """Sweep normalization u* = f(u*) = 1: to_log_der = nu - 2 f_der."""
    return ModelParams(1.0, 1.0, f_der, nu - 2.0 * f_der)


def test_classification_cases():
    assert classify_point(0.0, 5.0) == CLASS_F_PRIME_ZERO
    assert classify_theorem(FIG4) == CLASS_F_PRIME_NEG
    # the threshold nu >= 1/u* is inclusive
    assert classify_theorem(ModelParams(1.0, 1.0, 1.0, -1.0)) == CLASS_NU_LARGE
    assert classify_point(1.0, 0.5) == CLASS_NU_SMALL
    assert classify_point(2.0, 0.9, u_star=2.0) == CLASS_NU_LARGE


def test_uncontrolled_verdicts():
    # deep in the nu-large uncontrollable region: real positive eigenvalue
    report = uncontrolled_report(grid_params(0.5, 3.0))
    assert report.verdict == "Unstable"
    assert any(z.real > 0.0 and abs(z.imag) <= 1e-8
               for z in report.eigenvalues)

    assert uncontrolled_verdict(ModelParams(1.0, 1.0, 0.0, 0.0)) == "Unstable"

    # a point of the numerically stable region: only the translation
    # eigenvalue sits on the axis
    report = uncontrolled_report(grid_params(-2.0, -1.0))
    assert report.verdict == "NeutrallyStable"
    others = [z for z in report.eigenvalues
              if z != report.translation_eigenvalue]
    assert all(z.real < 0.0 for z in others)


@pytest.fixture
def searched_gains(monkeypatch):
    """The gains of the spectra the region layer evaluates, in order."""
    gains = []

    def counted(params):
        gains.append(params.control_slope)
        return assemble_spectrum(params)

    monkeypatch.setattr(regions, "assemble_spectrum", counted)
    return gains


class TestMinControlGain:
    def test_fig4_gain(self, searched_gains):
        diag = {}
        gain = min_control_gain(FIG4, diagnostics=diag)
        assert -3.0 <= gain < 0.0
        assert assemble_spectrum(FIG4.with_control_slope(gain)).verdict == "Stable"
        assert assemble_spectrum(
            FIG4.with_control_slope(gain + 1e-3)).verdict == "Unstable"
        assert diag["scan_points"] >= 33
        # g = 0, the scan down to its first stable gain, then the bisection
        assert len(searched_gains) == 14

    def test_guards(self):
        with pytest.raises(NotControllable):
            min_control_gain(ModelParams(1.0, 1.0, 0.0, 0.0))
        with pytest.raises(NotControllable):
            min_control_gain(grid_params(1.0, 2.0))
        with pytest.raises(ValueError):
            min_control_gain(FIG4, tol=0.0)

    def test_already_stable_returns_zero(self):
        diag = {}
        assert min_control_gain(grid_params(-2.0, -1.0), diagnostics=diag) == 0.0

    def test_gain_below_minus_64(self):
        # g* = -125.19 here, so the range reaches past -64, where the least
        # stabilizing gain, about -121.285, lies
        params = grid_params(1.5, 0.97)
        diag = {}
        gain = min_control_gain(params, diagnostics=diag)
        assert diag["gain_floor"] == pytest.approx(-125.19, abs=5e-3)
        assert gain == pytest.approx(-121.285, abs=2e-3)
        assert assemble_spectrum(params.with_control_slope(gain)).verdict == "Stable"
        assert assemble_spectrum(
            params.with_control_slope(gain + 1e-3)).verdict == "Unstable"

    def test_on_the_line_nu_one(self):
        # alpha + beta = 0 exactly: g* is finite only by its rounding floor,
        # and the range stops at -4096
        params = grid_params(-1.0, 1.0)
        coeffs = reduced_coefficients(params)
        assert coeffs.alpha + coeffs.beta == 0.0
        diag = {}
        assert min_control_gain(params, diagnostics=diag) == pytest.approx(-0.375, abs=2e-3)
        assert diag["gain_floor"] < DEEPEST_FLOOR

    def test_floor_insufficient_holds_every_crossing(self, searched_gains):
        # a seeded point with f' < 0 and nu u* > 1: g* = -1.53, so the range
        # is [-64, 0], and the limit (nu u*)^2 - 1 = 3.77 is unstable
        params = grid_params(-0.13484125328871954, 2.1831594715721643)
        with pytest.raises(FloorInsufficient, match="holds every imaginary-axis crossing"):
            min_control_gain(params)
        # g = 0, then 32 gains and 32, 64 and 128 new ones on the denser rungs
        assert len(searched_gains) == len(set(searched_gains)) == 257
        # below g* every gain has the unstable limit's verdict, and no gain
        # of [g*, 0] 1e-3 apart is stable, so the raise is right
        coeffs = reduced_coefficients(params)
        g_star = spectral._gain_floor(coeffs.alpha, coeffs.beta)
        assert g_star == pytest.approx(-1.53027, abs=1e-5)
        for gain in np.linspace(0.0, g_star, int(np.ceil(-g_star / 1e-3)) + 1):
            report = assemble_spectrum(params.with_control_slope(float(gain)))
            assert report.verdict == "Unstable"

    def test_floor_insufficient_below_the_range(self):
        # nu u* just under 1 puts g* far below -4096, where the range stops,
        # so crossings may lie below it
        params = grid_params(8.0, 0.9999)
        diag = {}
        with pytest.raises(FloorInsufficient, match="crossings may lie below the range") as raised:
            min_control_gain(params, diagnostics=diag)
        assert diag["gain_floor"] == pytest.approx(-198352.0, rel=1e-5)
        assert str(raised.value).endswith(f"g* = {diag['gain_floor']:.6g}")

    def test_gain_on_the_densest_rung_evaluates_each_gain_once(self, searched_gains):
        # a seeded point whose first stable sample lies on the 257-point rung
        params = grid_params(-2.4036618328527197, 2.5627610488856476)
        diag = {}
        assert min_control_gain(params, diagnostics=diag) == -4.548828125
        assert diag["scan_points"] == 257
        assert len(searched_gains) == len(set(searched_gains)) == 147


def test_deep_gain_witness_for_positive_beta():
    # draws with 0 <= -alpha < beta (all controllable, f' > 0, nu < 1);
    # some gain below -5/4 must push every root eigenvalue left of zero
    rng = np.random.default_rng(7)
    candidates = list(-1.5 * 2.0 ** np.arange(0, 8))
    for _ in range(10):
        beta = rng.uniform(0.5, 10.0)
        alpha = -beta * rng.uniform(0.0, 0.99)
        f_der = 3.0 / beta
        to_log_der = -(alpha + 6.0) * f_der / 3.0
        params = ModelParams(1.0, 1.0, f_der, to_log_der)
        gains = candidates + list(np.arange(-1.5, -120.0, -2.0))
        found = None
        for gain in gains:
            report = assemble_spectrum(params.with_control_slope(float(gain)))
            others = [z for z in report.eigenvalues
                      if z != report.translation_eigenvalue]
            if all(z.real < 0.0 for z in others):
                found = gain
                break
        assert found is not None and found < -1.25


def test_uncontrollable_spot_check():
    for params in (ModelParams(1.0, 1.0, 0.0, 3.0), grid_params(1.0, 2.0)):
        for gain in (0.0, -1.0, -10.0, -100.0):
            report = assemble_spectrum(params.with_control_slope(gain))
            assert report.verdict == "Unstable"


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return sweep_plane(n_f=13, n_nu=13)

    def test_classes_exact(self, small_sweep):
        for cell in small_sweep.cells:
            assert cell.theorem_class == classify_point(cell.f_der, cell.nu)

    def test_stable_set_respects_trichotomy(self, small_sweep):
        for cell in small_sweep.cells:
            if cell.error or cell.uncontrolled_verdict == "Unstable":
                continue
            assert not (cell.f_der == 0.0)
            assert not (cell.f_der > 0.0 and cell.nu >= 1.0)

    def test_degenerate_cells_recorded_not_fatal(self, small_sweep):
        # the line to_log_der = nu - 2 f' = 1 violates existence nondegeneracy
        assert small_sweep.failures
        for f_der, nu, message in small_sweep.failures:
            assert nu - 2.0 * f_der == pytest.approx(1.0)
            assert "degenerate" in message

    def test_cell_accessor_row_major(self, small_sweep):
        cell = small_sweep.cell(3, 7)
        assert cell.nu == pytest.approx(small_sweep.nu_values[3])
        assert cell.f_der == pytest.approx(small_sweep.f_der_values[7])

    def test_csv_shape(self, small_sweep):
        text = cells_to_csv(small_sweep.cells)
        lines = text.strip().split("\n")
        assert lines[0].startswith("f_der,nu,theorem_class")
        assert len(lines) == 1 + 13 * 13
        # an error message with commas stays one field
        error = "RootIsolationFailure: found 1 roots where the winding number is 2 on (0, 1, 2, 3)"
        cell = regions.RegionCell(-1.0, 0.5, CLASS_F_PRIME_NEG, error=error)
        (row,) = csv.DictReader(io.StringIO(cells_to_csv([cell])))
        assert row["error"] == error and row["min_gain"] == ""

    def test_thread_determinism(self, small_sweep):
        threaded = sweep_plane(n_f=13, n_nu=13, threads=2)
        assert sweep_to_dict(threaded) == sweep_to_dict(small_sweep)

    def test_fold_traced_without_repeated_points(self, small_sweep):
        # the fold line is the degenerate existence line, and it runs through
        # failed cells of this grid
        assert small_sweep.hopf and small_sweep.fold
        points = [tuple(p) for p in small_sweep.hopf + small_sweep.fold]
        assert len(set(points)) == len(points)


@pytest.mark.parametrize("n_f, n_nu", [(1, 5), (5, 1), (0, 0)])
def test_sweep_needs_two_points_per_axis(n_f, n_nu):
    with pytest.raises(ValueError, match="grid resolution must be >= 2"):
        sweep_plane(n_f=n_f, n_nu=n_nu)


def test_sweep_bytes_do_not_depend_on_workers():
    # one process from an empty zero-gain table of sampled factors, then two
    # worker processes, each with its own table
    spectral._zero_gain_set.cache_clear()
    serial = json.dumps(sweep_to_dict(sweep_plane(n_f=9, n_nu=9, threads=1)))
    pooled = json.dumps(sweep_to_dict(sweep_plane(n_f=9, n_nu=9, threads=2)))
    assert serial.encode() == pooled.encode()


def one_at_a_time(params_list):
    """``assemble_spectra`` as single ``assemble_spectrum`` calls."""
    out = []
    for params in params_list:
        try:
            out.append(assemble_spectrum(params))
        except Exception as exc:  # handed back as assemble_spectra does
            out.append(exc)
    return out


@pytest.mark.parametrize("n", [16, 61])
def test_batched_sweep_bytes_equal_single_spectra(monkeypatch, n):
    batched = json.dumps(sweep_to_dict(sweep_plane(n_f=n, n_nu=n, threads=1)))
    monkeypatch.setattr(regions, "assemble_spectra", one_at_a_time)
    single = json.dumps(sweep_to_dict(sweep_plane(n_f=n, n_nu=n, threads=1)))
    assert batched.encode() == single.encode()


def test_a_failing_spectrum_leaves_its_group_alone(monkeypatch):
    # the groups a 16x16 sweep evaluates together, by the (alpha, beta) of
    # their members
    groups = {"_scan_real": [], "_complex_roots": []}

    def spy(name, stage):
        def recorded(problems, *args):
            groups[name].append([(p.alpha, p.beta) for p in problems])
            return stage(problems, *args)
        return recorded

    for name in groups:
        monkeypatch.setattr(spectral, name, spy(name, getattr(spectral, name)))
    before = sweep_plane(n_f=16, n_nu=16, threads=1)
    scan, rect = (max(groups[name], key=len) for name in groups)
    assert len(scan) > 1 and len(rect) > 1
    lose_window = scan[0]
    lose_winding = next(ab for ab in rect if ab != lose_window)

    window, count = spectral.default_window, spectral._RootProblem.count

    def failing_window(coeffs, gain):
        if (coeffs.alpha, coeffs.beta) == lose_window:
            raise ValueError("no window here")
        return window(coeffs, gain)

    def failing_count(prob, *args):
        if (prob.alpha, prob.beta) == lose_winding:
            raise RootIsolationFailure("no winding here")
        return count(prob, *args)

    monkeypatch.setattr(spectral, "default_window", failing_window)
    monkeypatch.setattr(spectral._RootProblem, "count", failing_count)
    after = sweep_plane(n_f=16, n_nu=16, threads=1)

    def coefficients(cell):
        co = reduced_coefficients(grid_params(cell.f_der, cell.nu))
        return co.alpha, co.beta

    failed = []
    for old, new in zip(before.cells, after.cells):
        if old.error is None and old.f_der != 0.0 \
                and coefficients(old) in (lose_window, lose_winding):
            # the error a single spectrum raises under the same faults
            with pytest.raises((ValueError, RootIsolationFailure)) as raised:
                uncontrolled_report(grid_params(old.f_der, old.nu))
            assert new.error == f"{type(raised.value).__name__}: {raised.value}"
            assert new.uncontrolled_verdict is None
            failed.append(new.error)
        else:
            # a failed cell may move the boundary tags next to it, but no
            # other cell's spectrum changes
            assert {**asdict(new), "boundary_tag": None} \
                == {**asdict(old), "boundary_tag": None}
    assert sorted(failed) == ["RootIsolationFailure: no winding here",
                              "ValueError: no window here"]


@pytest.mark.parametrize("u_star, f_val, message", [
    (0.0, 1.0, "u_star must be positive"), (-1.0, 1.0, "u_star must be positive"),
    (np.nan, 1.0, "u_star must be positive"), (np.inf, 1.0, "u_star must be finite"),
    (1.0, 0.0, "f_val must be positive"), (1.0, -2.0, "f_val must be positive"),
    (1.0, np.nan, "f_val must be positive"), (1.0, np.inf, "f_val must be finite")])
def test_sweep_rejects_bad_point_data(u_star, f_val, message):
    # zero divided by zero, and the other values failed every cell
    with pytest.raises(ValueError, match=message):
        sweep_plane(n_f=3, n_nu=3, u_star=u_star, f_val=f_val, threads=1)


def test_worker_pool_capped_by_rows_and_cores(monkeypatch):
    # a process pool starts all its workers at the first task, so a pool of
    # the size asked for could fork any number of processes; this one records
    # its size and maps in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # sweep_plane imports the pool class when it uses one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = sweep_to_dict(sweep_plane(n_f=2, n_nu=3))
    for cores, size in ((64, 3), (2, 2), (None, None)):
        monkeypatch.setattr(regions.os, "cpu_count", lambda cores=cores: cores)
        del sizes[:]
        assert sweep_to_dict(sweep_plane(n_f=2, n_nu=3, threads=100_000)) == serial
        # an unknown core count runs serially, without a pool
        assert sizes == ([] if size is None else [size])


@pytest.fixture(scope="module")
def sweep_16():
    return sweep_plane(n_f=16, n_nu=16)


def test_hopf_points_have_a_pair_on_the_imaginary_axis(sweep_16):
    assert sweep_16.hopf
    for f_der, nu in sweep_16.hopf:
        report = uncontrolled_report(grid_params(f_der, nu))
        assert any(z.imag != 0.0 and abs(z.real) <= 1e-6
                   for z in report.eigenvalues), (f_der, nu)


def test_fold_points_on_the_fold_line(sweep_16):
    # lambda = 0 solves the root equation where nu = 2 f'/f(u*) + 1/u*
    assert sweep_16.fold
    for f_der, nu in sweep_16.fold:
        assert abs(nu - 2.0 * f_der - 1.0) <= 1e-12, (f_der, nu)


@pytest.mark.parametrize("u_star, f_val", [(1.0, 1.0), (2.0, 0.5)])
def test_boundaries_cross_every_disagreeing_edge(u_star, f_val):
    result = sweep_plane(n_f=21, n_nu=21, u_star=u_star, f_val=f_val)
    spacing = result.f_der_values[1] - result.f_der_values[0]
    hopf, fold = np.array(result.hopf), np.array(result.fold)
    for line in (hopf, fold):
        assert len(line) > 1
        assert np.all(np.hypot(*np.diff(line, axis=0).T) <= spacing)
    points = [tuple(p) for p in result.hopf + result.fold]
    assert len(set(points)) == len(points)

    def fold_side(cell):
        return np.sign(cell.nu - 2.0 * cell.f_der / f_val - 1.0 / u_star)

    n = len(result.f_der_values)
    edges = 0
    for i in range(n):
        for j in range(n):
            for ii, jj in ((i, j + 1), (i + 1, j)):
                if ii >= n or jj >= n:
                    continue
                a, b = result.cell(i, j), result.cell(ii, jj)
                if a.error or b.error or (a.uncontrolled_verdict == "Unstable") \
                        == (b.uncontrolled_verdict == "Unstable"):
                    continue
                edges += 1
                p, q = np.array([a.f_der, a.nu]), np.array([b.f_der, b.nu])
                assert fold_side(a) * fold_side(b) <= 0 \
                    or _crosses_polyline(p, q, hopf), (a, b)
    assert edges


def loop_tags(result, u_star, f_val):
    """The boundary tags of ``result``'s cells by a loop over the edges, one
    at a time, the reference for ``regions._edge_tags``, and the numbers of
    edges that bridge a failed cell and that both curves cross."""
    f_values, nu_values = np.array(result.f_der_values), np.array(result.nu_values)
    n_nu, n_f = len(nu_values), len(f_values)
    spacing = min(f_values[1] - f_values[0], nu_values[1] - nu_values[0])
    lo, hi = np.array([f_values[0], nu_values[0]]), np.array([f_values[-1], nu_values[-1]])
    hopf = regions._hopf_arc(lo, hi, u_star, f_val, spacing)
    side = np.array([np.nan if c.error else float(c.uncontrolled_verdict != "Unstable")
                     for c in result.cells]).reshape(n_nu, n_f)
    gap = u_star * (nu_values[:, None] - 2.0 * f_values / f_val) - 1.0
    fold_side = np.where(np.abs(gap) <= 1e-12, 0.0, np.sign(gap))
    tags = [None] * len(result.cells)
    bridged = both = 0
    for i, j in np.argwhere(~np.isnan(side)):
        for di, dj in ((0, 1), (1, 0)):
            ii, jj = i + di, j + dj
            bridge = ii < n_nu and jj < n_f and np.isnan(side[ii, jj])
            if bridge:
                ii, jj = ii + di, jj + dj
            if ii >= n_nu or jj >= n_f or side[ii, jj] != 1.0 - side[i, j]:
                continue
            here, there = result.cell(i, j), result.cell(ii, jj)
            crosses = _crosses_polyline(np.array([here.f_der, here.nu]),
                                        np.array([there.f_der, there.nu]), hopf)
            tag = "Hopf"
            if fold_side[i, j] * fold_side[ii, jj] <= 0.0:
                both += bool(crosses)
                if not crosses:
                    tag = "Fold"
            bridged += bridge
            tags[i * n_f + j] = tags[i * n_f + j] or tag
            tags[ii * n_f + jj] = tags[ii * n_f + jj] or tag
    return tags, bridged, both


def test_array_tags_equal_the_edge_loop():
    bridged = both = 0
    for n, u_star, f_val in ((10, 1.0, 1.0), (13, 1.0, 1.0), (16, 1.0, 1.0),
                             (21, 1.0, 1.0), (21, 2.0, 0.5)):
        result = sweep_plane(n_f=n, n_nu=n, u_star=u_star, f_val=f_val, threads=1)
        tags, n_bridged, n_both = loop_tags(result, u_star, f_val)
        assert [cell.boundary_tag for cell in result.cells] == tags, (n, u_star, f_val)
        assert {"Hopf", "Fold"} <= set(tags), (n, u_star, f_val)
        bridged += n_bridged
        both += n_both
    # the grids hold edges across a failed cell and edges both curves cross
    assert bridged and both


def test_edge_crossed_by_both_curves_tagged_hopf():
    # by the Bogdanov-Takens point the Hopf arc and the fold line both cross
    # the edge between these cells, and the verdict flips at the Hopf arc
    result = sweep_plane(n_f=21, n_nu=21, u_star=2.0, f_val=0.5)
    for i_f in (9, 10):
        cell = result.cell(11, i_f)
        assert (cell.f_der, cell.nu) == pytest.approx((0.3 * i_f - 3.0, 0.3))
        assert cell.boundary_tag == "Hopf", cell


def test_sweep_min_gain_cells():
    result = sweep_plane(f_der_range=(-2.0, 2.0), nu_range=(-2.0, 2.0),
                         n_f=5, n_nu=5, include_min_gain=True)
    saw_negative = False
    for cell in result.cells:
        if cell.min_gain is None:
            continue
        assert cell.theorem_class in CONTROLLABLE_CLASSES
        params = grid_params(cell.f_der, cell.nu)
        if cell.min_gain < 0.0:
            saw_negative = True
            verdict = assemble_spectrum(
                params.with_control_slope(cell.min_gain)).verdict
            assert verdict == "Stable"
        else:
            assert uncontrolled_verdict(params) != "Unstable"
    assert saw_negative
