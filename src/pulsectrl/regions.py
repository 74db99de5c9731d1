"""Parameter-plane classification, stability sweep, and minimal-gain search.

The controllability trichotomy depends only on the sign of f'(u*) and on
nu = 2 f'(u*)/f(u*) + T_o'(u*)/T_o(u*) versus 1/u*:

    f' = 0                    -> unstable, uncontrollable
    f' < 0                    -> controllable
    f' > 0 and nu >= 1/u*     -> unstable, uncontrollable
    f' > 0 and nu <  1/u*     -> controllable

The sweep resolves, inside the plane of (f', nu), the numerically-determined
subset where the uncontrolled pulse is already stable, and traces its
boundary: Hopf segments (a critical eigenvalue pair leaves through the
imaginary axis) and fold segments (a real eigenvalue crosses zero), both
solved in closed form from the root equation on the imaginary axis.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import FloorInsufficient, NotControllable, PulseControlError
from .model import ModelParams, reduced_coefficients
from .spectral import (
    SpectrumReport,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    _gain_floor,
    _imaginary_axis_coefficients,
    assemble_spectra,
    assemble_spectrum,
)

CLASS_F_PRIME_ZERO = "UnstableUncontrollable_fPrimeZero"
CLASS_F_PRIME_NEG = "Controllable_fPrimeNegative"
CLASS_NU_LARGE = "UnstableUncontrollable_NuLarge"
CLASS_NU_SMALL = "Controllable_NuSmall"

CONTROLLABLE_CLASSES = (CLASS_F_PRIME_NEG, CLASS_NU_SMALL)

TAG_HOPF = "Hopf"
TAG_FOLD = "Fold"

# Ends of the gain search's range [max(min(g*, SHALLOWEST_FLOOR),
# DEEPEST_FLOOR), 0], g* from spectral._gain_floor.  Wherever g* >= -64 the
# range is [-64, 0], so there the scan's samples, and the gain it returns, do
# not depend on g*.  Near nu u* = 1, g* grows like W_H / |alpha + beta|
# (-1.4e15 at f' = -1, nu = 1), and at such gains lambda = lh + g has lost
# the digits a verdict needs; -4096 stops the range there.
SHALLOWEST_FLOOR = -64.0
DEEPEST_FLOOR = -4096.0

# A boundary point may lie this many grid spacings past the grid's edge, so a
# boundary reaches the cells on it; the Hopf arc is sampled that finely there.
_EDGE = 0.25


@dataclass(slots=True)
class RegionCell:
    """Classification record for one point of the (f', nu) plane; slotted,
    since a sweep holds one per grid point."""

    f_der: float
    nu: float
    theorem_class: str
    uncontrolled_verdict: str | None = None
    max_real_part: float | None = None
    boundary_tag: str | None = None
    min_gain: float | None = None
    error: str | None = None


@dataclass
class SweepResult:
    """Grid of classified cells plus traced stability-boundary polylines."""

    f_der_values: list
    nu_values: list
    cells: list  # row-major: cells[i_nu * n_f + i_f]
    hopf: list = field(default_factory=list)  # polyline of [f_der, nu] points
    fold: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def classify_point(f_der: float, nu: float, u_star: float = 1.0) -> str:
    """Closed-form trichotomy; the threshold nu >= 1/u* is inclusive."""
    if f_der == 0.0:
        return CLASS_F_PRIME_ZERO
    if f_der < 0.0:
        return CLASS_F_PRIME_NEG
    if nu >= 1.0 / u_star:
        return CLASS_NU_LARGE
    return CLASS_NU_SMALL


def classify_theorem(params: ModelParams) -> str:
    return classify_point(params.f_der, params.nu, params.u_star)


def _root_max_real(report: SpectrumReport) -> float:
    """Largest Re(lambda) over non-translation eigenvalues; edge if none."""
    eigs = list(report.eigenvalues)
    eigs.remove(report.translation_eigenvalue)
    return float(max((z.real for z in eigs), default=report.essential_edge))


def uncontrolled_report(params: ModelParams) -> SpectrumReport:
    return assemble_spectrum(params.with_control_slope(0.0))


def uncontrolled_verdict(params: ModelParams) -> str:
    """Verdict at zero gain; the translation eigenvalue at 0 counts as neutral."""
    return uncontrolled_report(params).verdict


def _stable_at(params: ModelParams, gain: float) -> bool:
    report = assemble_spectrum(params.with_control_slope(gain))
    return report.verdict == VERDICT_STABLE


def min_control_gain(params: ModelParams, tol: float = 1e-3,
                     diagnostics: dict | None = None) -> float:
    """Least-negative stabilizing control slope, located to width ``tol``.

    Below g* = ``spectral._gain_floor(alpha, beta)`` no eigenvalue meets the
    imaginary axis, so every gain there has the verdict of the deep-gain
    limit lambda -> (nu u*)^2 - 1.  A coarse scan of
    [max(min(g*, SHALLOWEST_FLOOR), DEEPEST_FLOOR), 0] runs from zero gain
    down and stops at the first stable gain, and bisection then sharpens the
    transition just above it.  g* is reported as ``gain_floor``, and the
    points of the last scan as ``scan_points``, through ``diagnostics``.

    Raises FloorInsufficient when no scanned gain is stable.  Where
    g* >= DEEPEST_FLOOR the range holds every crossing and ends at the limit's
    verdict, so for nu u* < 1 a stable gain is always found.
    """
    if classify_theorem(params) not in CONTROLLABLE_CLASSES:
        raise NotControllable(
            f"theorem class {classify_theorem(params)} admits no stabilizing gain")
    if not tol > 0:
        raise ValueError("tol must be positive")

    coeffs = reduced_coefficients(params)
    g_star = _gain_floor(coeffs.alpha, coeffs.beta)
    if diagnostics is not None:
        diagnostics["gain_floor"] = g_star
    if uncontrolled_verdict(params) != VERDICT_UNSTABLE:
        return 0.0

    # Stability need not persist as the gain deepens: with alpha > 0 and
    # beta < 0 a real eigenvalue returns to lambda = (alpha/beta)^2 - 1 > 0
    # as l'(0) -> -inf, so stable gains form a window.  Scan with increasing
    # density until a stable sample appears.  A denser rung's even samples
    # are the sparser rung's, bit for bit, all unstable, so after the first
    # rung only the odd ones are evaluated.
    floor = max(min(g_star, SHALLOWEST_FLOOR), DEEPEST_FLOOR)
    stride = 1
    for n_scan in (33, 65, 129, 257):
        gains = np.linspace(0.0, floor, n_scan)
        first_stable = next((i for i in range(1, n_scan, stride)
                             if _stable_at(params, float(gains[i]))), None)
        if first_stable is not None:
            break
        stride = 2
    else:
        found = (f"no stable gain found in [{floor:.6g}, 0] at spacing "
                 f"{abs(floor) / (len(gains) - 1):.3g}")
        if g_star >= DEEPEST_FLOOR:
            limit = (coeffs.alpha / coeffs.beta) ** 2 - 1.0
            raise FloorInsufficient(
                f"{found}; the range holds every imaginary-axis crossing "
                f"(g* = {g_star:.6g}), and below it every gain has the verdict "
                f"of the limit lambda -> (nu u*)^2 - 1 = {limit:.6g}")
        raise FloorInsufficient(
            f"{found}; crossings may lie below the range, down to "
            f"g* = {g_star:.6g}")
    if diagnostics is not None:
        diagnostics["scan_points"] = n_scan
    hi = gains[first_stable - 1]   # unstable, closer to zero
    lo = gains[first_stable]       # stable, deeper
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _stable_at(params, mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


# at most this many cells' spectra are evaluated together, which bounds the
# reports held at once; a 16x16 sweep's fit in one batch
_BATCH_CELLS = 1024


def _sweep_rows(args):
    """The cells of a run of grid rows, their spectra at zero gain (the
    ModelParams default) evaluated together by ``assemble_spectra``, in
    batches of ``_BATCH_CELLS``."""
    nus, f_values, u_star, f_val, include_min_gain = args
    cells = [RegionCell(f_der=float(f_der), nu=float(nu),
                        theorem_class=classify_point(f_der, nu, u_star))
             for nu in nus for f_der in f_values]
    for start in range(0, len(cells), _BATCH_CELLS):
        posed = []
        for cell in cells[start:start + _BATCH_CELLS]:
            try:
                posed.append((cell, ModelParams(u_star=u_star, f_val=f_val, f_der=cell.f_der,
                                                to_log_der=cell.nu - 2.0 * cell.f_der / f_val)))
            except ValueError as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
        reports = assemble_spectra([params for _, params in posed])
        for (cell, params), report in zip(posed, reports):
            try:
                if isinstance(report, Exception):
                    raise report
                cell.uncontrolled_verdict = report.verdict
                cell.max_real_part = _root_max_real(report)
                if include_min_gain and cell.theorem_class in CONTROLLABLE_CLASSES:
                    cell.min_gain = min_control_gain(params)
            except (PulseControlError, ValueError) as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
    return cells


def _fold_line(lo, hi, u_star: float, f_val: float, spacing: float):
    """The fold line from edge to edge of the plane [lo, hi], ``spacing`` apart."""
    slope = 2.0 / f_val
    f_lo = max(lo[0], (lo[1] - 1.0 / u_star) / slope)
    f_hi = min(hi[0], (hi[1] - 1.0 / u_star) / slope)
    n = int(np.ceil((f_hi - f_lo) * np.hypot(1.0, slope) / spacing)) + 1 if f_lo <= f_hi else 0
    f_der = np.linspace(f_lo, f_hi, n)
    return np.column_stack((f_der, 2.0 * f_der / f_val + 1.0 / u_star))


def _hopf_arc(lo, hi, u_star: float, f_val: float, spacing: float):
    """Points where lambda = +-i omega is a root, in omega order from the
    Bogdanov-Takens point on the fold line (omega -> 0).

    A gap that meets the plane [lo, hi] is split at its geometric-mean omega
    until it is at most ``spacing`` wide, ``_EDGE * spacing`` across an edge.
    """
    def plane(omega):
        alpha, beta = _imaginary_axis_coefficients(omega)
        return np.column_stack((3.0 * f_val / (u_star * beta), -alpha / (u_star * beta)))

    # omega = 1e-3 lies 3e-7 from that point at u* = f(u*) = 1; 1e4 far outside
    # any plane of interest, at f' = -3e5 f(u*)/u*
    omega = np.geomspace(1e-3, 1e4, 8)
    points = plane(omega)
    for _ in range(64):
        a, b = points[:-1], points[1:]
        inside = np.all((points >= lo) & (points <= hi), axis=1)
        meets = np.all((np.minimum(a, b) <= hi) & (np.maximum(a, b) >= lo), axis=1)
        widest = np.where(inside[:-1] == inside[1:], spacing, _EDGE * spacing)
        split = np.flatnonzero(meets & (np.hypot(*(b - a).T) > widest))
        if not split.size:
            break
        mid = np.sqrt(omega[split] * omega[split + 1])
        omega = np.insert(omega, split + 1, mid)
        points = np.insert(points, split + 1, plane(mid), axis=0)
    return points


def _crosses_polyline(p, q, line):
    """Whether the segment pq meets a segment of the polyline ``line``; p and
    q are points, or (n, 2) arrays of them for n segments."""
    p, q = np.asarray(p)[..., None, :], np.asarray(q)[..., None, :]
    a, b = line[:-1], line[1:]

    def turn(u, v, w):
        return np.sign((v[..., 0] - u[..., 0]) * (w[..., 1] - u[..., 1])
                       - (v[..., 1] - u[..., 1]) * (w[..., 0] - u[..., 0]))

    return np.any((turn(p, q, a) * turn(p, q, b) <= 0)
                  & (turn(a, b, p) * turn(a, b, q) <= 0), axis=-1)


def _edge_tags(side, fold_side, f_values, nu_values, hopf):
    """The boundary tags of the grid's cells that have one, by flat index.

    An edge joins a non-failed cell to its right or lower neighbour, or to
    the cell past a failed neighbour (the degenerate existence line is the
    fold line, so a fold edge often spans one), where the two verdicts
    differ.  It is a fold edge where the fold line meets it and the Hopf
    arc does not; next to the Bogdanov-Takens point both curves can cross
    one edge, and the verdict then flips where the Hopf arc crosses it.  A
    cell takes the tag of its first edge, in the row-major order of the
    edges' first cells, the right edge before the lower one.  ``side`` is 1
    at stable cells, 0 at unstable ones and NaN at failed ones."""
    n_nu, n_f = side.shape
    flat_side, flat_fold = side.ravel(), fold_side.ravel()
    index = np.arange(side.size).reshape(side.shape)
    sources, targets, orders = [], [], []
    for order, (di, dj) in enumerate(((0, 1), (1, 0))):
        # the neighbour, or where it failed, the cell past it (itself where
        # that lies off the grid, which then joins no edge)
        here, there = index[:n_nu - di, :n_f - dj], index[di:, dj:].copy()
        past = index[2 * di:, 2 * dj:]
        inner = there[:past.shape[0], :past.shape[1]]
        failed = np.isnan(flat_side[inner])
        inner[failed] = past[failed]
        edge = flat_side[there] == 1.0 - flat_side[here]
        sources.append(here[edge])
        targets.append(there[edge])
        orders.append(2 * here[edge] + order)
    here, there, order = (np.concatenate(v) for v in (sources, targets, orders))
    fold = flat_fold[here] * flat_fold[there] <= 0.0
    ends = [np.column_stack((f_values[k % n_f], nu_values[k // n_f]))
            for k in (here[fold], there[fold])]
    fold[fold] = ~_crosses_polyline(*ends, hopf)
    # each cell's first edge: the two ends of an edge share its order
    cells = np.concatenate((here, there))
    first = np.argsort(np.concatenate((order, order)), kind="stable")
    cells, at = np.unique(cells[first], return_index=True)
    folds = np.concatenate((fold, fold))[first[at]]
    return {k: TAG_FOLD if f else TAG_HOPF for k, f in zip(cells.tolist(), folds.tolist())}


def _clip(points, f_values, nu_values, side, lo, hi) -> list:
    """Points in [lo, hi] whose grid square has a stable and an unstable
    non-failed corner; a point outside the grid takes the nearest edge square.
    """
    near = np.all((points >= lo) & (points <= hi), axis=1)
    j = np.clip(np.searchsorted(f_values, points[:, 0]) - 1, 0, len(f_values) - 2)
    i = np.clip(np.searchsorted(nu_values, points[:, 1]) - 1, 0, len(nu_values) - 2)
    corners = side[[i, i, i + 1, i + 1], [j, j + 1, j, j + 1]]
    keep = near & (corners == 1.0).any(axis=0) & (corners == 0.0).any(axis=0)
    return points[keep].tolist()


def sweep_plane(f_der_range=(-3.0, 3.0), nu_range=(-3.0, 3.0),
                n_f: int = 121, n_nu: int = 121,
                u_star: float = 1.0, f_val: float = 1.0,
                threads: int | None = None,
                include_min_gain: bool = False) -> SweepResult:
    """Classify a (f', nu) grid and trace the uncontrolled stability boundary.

    The rows are split into runs, evaluated concurrently by at most
    ``threads`` worker processes and no more than one per row or per core,
    or as one run of every row by one process.  Within a run the cells'
    spectra are evaluated per group that shares a search window
    (``spectral.assemble_spectra``): G on the window's samples is one array
    for the group, and the scans and winding counts on it run once.  Runs
    merge in grid order, and a cell's result does not depend on its group,
    so the output is deterministic for a fixed grid, however the rows are
    split.  Per-cell solver failures are recorded on the cell and in
    ``failures`` rather than raised, and leave the rest of the group alone.
    The Hopf arc and the fold line come from the root equation on the
    imaginary axis, kept where the grid around them changes verdict.
    """
    if n_f < 2 or n_nu < 2:
        raise ValueError("grid resolution must be >= 2 in each axis")
    # ModelParams' checks, before any cell divides by u* or f(u*), and no
    # infinity, at which every cell's spectrum fails
    for name, value in (("u_star", u_star), ("f_val", f_val)):
        if not value > 0:
            raise ValueError(f"{name} must be positive")
        if value == np.inf:
            raise ValueError(f"{name} must be finite")
    f_values = np.linspace(f_der_range[0], f_der_range[1], n_f)
    nu_values = np.linspace(nu_range[0], nu_range[1], n_nu)

    # Python floats, which the cells then share
    f_list = f_values.tolist()
    # the pool starts all its workers at the first task, so it gets no more
    # than there are rows and cores, whatever ``threads`` asks for
    workers = min(threads or 1, n_nu, os.cpu_count() or 1)
    # a job's spectra that share a window are evaluated together, so one
    # process takes every row as one job, and a pool four runs of rows a worker
    n_jobs = min(n_nu, 4 * workers) if workers > 1 else 1
    jobs = [(run.tolist(), f_list, u_star, f_val, include_min_gain)
            for run in np.array_split(nu_values, n_jobs)]
    if workers > 1:
        # imported here, not with the module: the import takes 12-20 ms,
        # which a one-process sweep and a spectrum do not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_rows, jobs))
    else:
        done = list(map(_sweep_rows, jobs))
    cells = [cell for job in done for cell in job]

    result = SweepResult(
        f_der_values=[float(v) for v in f_values],
        nu_values=[float(v) for v in nu_values],
        cells=cells,
        failures=[(c.f_der, c.nu, c.error) for c in cells if c.error],
    )

    spacing = min(f_values[1] - f_values[0], nu_values[1] - nu_values[0])
    lo, hi = np.array([f_values[0], nu_values[0]]), np.array([f_values[-1], nu_values[-1]])
    edge = _EDGE * spacing
    hopf = _hopf_arc(lo, hi, u_star, f_val, spacing)
    fold = _fold_line(lo, hi, u_star, f_val, spacing)

    # 1 at stable cells, 0 at unstable ones, NaN at failed ones
    side = np.array([np.nan if c.error else float(c.uncontrolled_verdict != VERDICT_UNSTABLE)
                     for c in cells]).reshape(n_nu, n_f)
    # lambda = 0 solves the root equation where alpha + beta = R(0) = -6, on
    # the fold line u* T'/T = 1 (the degenerate existence line).  Cells a few
    # ulps off it pass ModelParams, so the sign of u* T'/T - 1 is 0 near it.
    gap = u_star * (nu_values[:, None] - 2.0 * f_values / f_val) - 1.0
    fold_side = np.where(np.abs(gap) <= 1e-12, 0.0, np.sign(gap))
    for k, tag in _edge_tags(side, fold_side, f_values, nu_values, hopf).items():
        cells[k].boundary_tag = tag

    result.hopf = _clip(hopf, f_values, nu_values, side, lo - edge, hi + edge)
    result.fold = _clip(fold, f_values, nu_values, side, lo - edge, hi + edge)
    return result


def cells_to_csv(cells) -> str:
    """CSV rows for plotting, a header and a row per cell, with a column per
    field of ``RegionCell`` in its order; None is an empty field, and a
    field that holds a comma, as an error message may, is quoted."""
    names = [f.name for f in fields(RegionCell)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([getattr(c, name) for name in names] for c in cells)
    return out.getvalue()


def sweep_to_dict(result: SweepResult) -> dict:
    return {
        "f_der_values": result.f_der_values,
        "nu_values": result.nu_values,
        "cells": [asdict(c) for c in result.cells],
        "hopf": result.hopf,
        "fold": result.fold,
        "failures": result.failures,
    }
