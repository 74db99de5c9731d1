"""Parameter-plane classification, stability sweep, and minimal-gain search.

The controllability trichotomy depends only on the sign of f'(u*) and on
nu = 2 f'(u*)/f(u*) + T_o'(u*)/T_o(u*) versus 1/u*:

    f' = 0                    -> unstable, uncontrollable
    f' < 0                    -> controllable
    f' > 0 and nu >= 1/u*     -> unstable, uncontrollable
    f' > 0 and nu <  1/u*     -> controllable

The sweep resolves, inside the plane of (f', nu) at u* = f(u*) = 1, the
numerically-determined subset where the uncontrolled pulse is already
stable, and traces its boundary, splitting it into Hopf segments (critical
eigenvalue pair leaves through the imaginary axis) and fold segments (a
real eigenvalue crosses zero).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import FloorInsufficient, NotControllable, PulseControlError
from .model import ModelParams
from .spectral import (
    SpectrumReport,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    assemble_spectrum,
)

CLASS_F_PRIME_ZERO = "UnstableUncontrollable_fPrimeZero"
CLASS_F_PRIME_NEG = "Controllable_fPrimeNegative"
CLASS_NU_LARGE = "UnstableUncontrollable_NuLarge"
CLASS_NU_SMALL = "Controllable_NuSmall"

CONTROLLABLE_CLASSES = (CLASS_F_PRIME_NEG, CLASS_NU_SMALL)

TAG_HOPF = "Hopf"
TAG_FOLD = "Fold"


@dataclass
class RegionCell:
    """Classification record for one point of the (f', nu) plane."""

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

    def cell(self, i_nu: int, i_f: int) -> RegionCell:
        return self.cells[i_nu * len(self.f_der_values) + i_f]


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
    for i, z in enumerate(eigs):
        if z == report.translation_eigenvalue:
            eigs.pop(i)
            break
    if not eigs:
        return float(report.essential_edge)
    return float(max(z.real for z in eigs))


def uncontrolled_report(params: ModelParams) -> SpectrumReport:
    return assemble_spectrum(params.with_control_slope(0.0))


def uncontrolled_verdict(params: ModelParams) -> str:
    """Verdict at zero gain; the translation eigenvalue at 0 counts as neutral."""
    return uncontrolled_report(params).verdict


def _stable_at(params: ModelParams, gain: float) -> bool:
    report = assemble_spectrum(params.with_control_slope(gain))
    return report.verdict == VERDICT_STABLE


def min_control_gain(params: ModelParams, gain_floor: float = -64.0,
                     tol: float = 1e-3, diagnostics: dict | None = None) -> float:
    """Least-negative stabilizing control slope, located to width ``tol``.

    A coarse scan of [gain_floor, 0] finds the stable-to-unstable transition
    closest to zero gain, which bisection then sharpens.  Stability is not
    assumed monotone in the gain: the scan counts every transition it sees
    and reports extras through ``diagnostics``.
    """
    if classify_theorem(params) not in CONTROLLABLE_CLASSES:
        raise NotControllable(
            f"theorem class {classify_theorem(params)} admits no stabilizing gain")
    if not gain_floor < 0:
        raise ValueError("gain_floor must be negative")
    if not tol > 0:
        raise ValueError("tol must be positive")

    if uncontrolled_verdict(params) != VERDICT_UNSTABLE:
        if diagnostics is not None:
            diagnostics.update({"transitions": 0, "non_monotone": False})
        return 0.0

    # Stability need not persist as the gain deepens: with alpha > 0 and
    # beta < 0 a real eigenvalue returns to lambda = (alpha/beta)^2 - 1 > 0
    # as l'(0) -> -inf, so stable gains form a window.  Scan with increasing
    # density until a stable sample appears.
    gains = None
    stable_flags = None
    for n_scan in (33, 65, 129, 257):
        gains = np.linspace(0.0, gain_floor, n_scan)
        stable_flags = [False] + [_stable_at(params, float(g)) for g in gains[1:]]
        if any(stable_flags):
            break
    if not any(stable_flags):
        raise FloorInsufficient(
            f"no stable gain found in [{gain_floor}, 0] at spacing "
            f"{abs(gain_floor) / (len(gains) - 1):.3g}")
    transitions = sum(1 for a, b in zip(stable_flags[:-1], stable_flags[1:])
                      if a != b)
    if diagnostics is not None:
        diagnostics.update({"transitions": transitions,
                            "non_monotone": transitions > 1,
                            "scan_points": len(gains)})
    first_stable = stable_flags.index(True)
    hi = gains[first_stable - 1]   # unstable, closer to zero
    lo = gains[first_stable]       # stable, deeper
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _stable_at(params, mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def min_control_gain_deepening(params: ModelParams, gain_floor: float = -64.0,
                               floor_limit: float = -4096.0,
                               tol: float = 1e-3,
                               diagnostics: dict | None = None) -> float:
    """min_control_gain with the floor doubled on FloorInsufficient."""
    floor = gain_floor
    while True:
        try:
            return min_control_gain(params, floor, tol, diagnostics)
        except FloorInsufficient:
            floor *= 2.0
            if floor < floor_limit:
                raise


def _grid_params(f_der: float, nu: float, u_star: float, f_val: float,
                 eps: float) -> ModelParams:
    to_log_der = nu - 2.0 * f_der / f_val
    return ModelParams(u_star=u_star, f_val=f_val, f_der=f_der,
                       to_log_der=to_log_der, eps=eps)


def _sweep_row(args):
    i_nu, nu, f_values, u_star, f_val, eps, include_min_gain = args
    row = []
    for f_der in f_values:
        cls = classify_point(f_der, nu, u_star)
        cell = RegionCell(f_der=float(f_der), nu=float(nu), theorem_class=cls)
        try:
            params = _grid_params(f_der, nu, u_star, f_val, eps)
            report = uncontrolled_report(params)
            cell.uncontrolled_verdict = report.verdict
            cell.max_real_part = _root_max_real(report)
            if include_min_gain and cls in CONTROLLABLE_CLASSES:
                cell.min_gain = min_control_gain_deepening(params)
        except (PulseControlError, ValueError) as exc:
            cell.error = f"{type(exc).__name__}: {exc}"
        row.append(cell)
    return i_nu, row


def _refine_edge(p_stable, p_unstable, u_star, f_val, eps, tol=1e-4):
    """Bisect the verdict flip along a grid edge; returns (point, tag).

    The tag is Hopf if the rightmost non-translation eigenvalue at the
    unstable end is complex.  It is read from the spectrum of the last
    unstable midpoint, so a spectrum at ``p_unstable`` itself is computed
    only if the bisection never moved that end.
    """
    a = np.array(p_stable, dtype=float)
    b = np.array(p_unstable, dtype=float)
    report = None  # spectrum at b once b has moved
    try:
        while np.max(np.abs(b - a)) > tol:
            m = 0.5 * (a + b)
            mid_report = uncontrolled_report(
                _grid_params(m[0], m[1], u_star, f_val, eps))
            if _root_max_real(mid_report) > 0.0:
                b, report = m, mid_report
            else:
                a = m
        if report is None:
            report = uncontrolled_report(
                _grid_params(b[0], b[1], u_star, f_val, eps))
    except (PulseControlError, ValueError):
        return None
    eigs = [z for z in report.eigenvalues if z != report.translation_eigenvalue]
    hopf = bool(eigs) and abs(max(eigs, key=lambda z: z.real).imag) > 1e-6
    mid = 0.5 * (a + b)
    return ([float(mid[0]), float(mid[1])], TAG_HOPF if hopf else TAG_FOLD)


def _chain_points(points):
    """Greedy nearest-neighbor ordering into a single polyline."""
    if not points:
        return []
    remaining = sorted(points)
    chain = [remaining.pop(0)]
    while remaining:
        last = chain[-1]
        idx = min(range(len(remaining)),
                  key=lambda i: ((remaining[i][0] - last[0]) ** 2
                                 + (remaining[i][1] - last[1]) ** 2,
                                 remaining[i]))
        chain.append(remaining.pop(idx))
    return chain


def sweep_plane(f_der_range=(-3.0, 3.0), nu_range=(-3.0, 3.0),
                n_f: int = 121, n_nu: int = 121,
                u_star: float = 1.0, f_val: float = 1.0, eps: float = 0.02,
                threads: int | None = None,
                include_min_gain: bool = False) -> SweepResult:
    """Classify a (f', nu) grid and trace the uncontrolled stability boundary.

    Cells are independent and evaluated concurrently; results merge by row
    index, so the output is deterministic for a fixed grid.  Per-cell solver
    failures are recorded on the cell and in ``failures`` rather than raised.
    """
    if n_f < 2 or n_nu < 2:
        raise ValueError("grid resolution must be >= 2 in each axis")
    f_values = np.linspace(f_der_range[0], f_der_range[1], n_f)
    nu_values = np.linspace(nu_range[0], nu_range[1], n_nu)

    jobs = [(i, nu, f_values, u_star, f_val, eps, include_min_gain)
            for i, nu in enumerate(nu_values)]
    rows = [None] * n_nu
    if threads is not None and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for i_nu, row in pool.map(_sweep_row, jobs, chunksize=4):
                rows[i_nu] = row
    else:
        for job in jobs:
            i_nu, row = _sweep_row(job)
            rows[i_nu] = row
    cells = [cell for row in rows for cell in row]

    result = SweepResult(
        f_der_values=[float(v) for v in f_values],
        nu_values=[float(v) for v in nu_values],
        cells=cells,
        failures=[(c.f_der, c.nu, c.error) for c in cells if c.error],
    )

    def stable_side(cell):
        if cell.error or cell.uncontrolled_verdict is None:
            return None
        return cell.uncontrolled_verdict != VERDICT_UNSTABLE

    hopf_pts, fold_pts = [], []
    for i in range(n_nu):
        for j in range(n_f):
            here = result.cell(i, j)
            s_here = stable_side(here)
            if s_here is None:
                continue
            for di, dj in ((0, 1), (1, 0)):
                ii, jj = i + di, j + dj
                if ii >= n_nu or jj >= n_f:
                    continue
                there = result.cell(ii, jj)
                s_there = stable_side(there)
                if s_there is None:
                    # bridge a single failed cell so a boundary hugging the
                    # degenerate existence line is still traced
                    ii, jj = i + 2 * di, j + 2 * dj
                    if ii >= n_nu or jj >= n_f:
                        continue
                    there = result.cell(ii, jj)
                    s_there = stable_side(there)
                if s_there is None or s_here == s_there:
                    continue
                stable_cell, unstable_cell = (here, there) if s_here else (there, here)
                refined = _refine_edge((stable_cell.f_der, stable_cell.nu),
                                       (unstable_cell.f_der, unstable_cell.nu),
                                       u_star, f_val, eps)
                if refined is None:
                    continue
                point, tag = refined
                here.boundary_tag = here.boundary_tag or tag
                there.boundary_tag = there.boundary_tag or tag
                (hopf_pts if tag == TAG_HOPF else fold_pts).append(tuple(point))

    result.hopf = [list(p) for p in _chain_points(hopf_pts)]
    result.fold = [list(p) for p in _chain_points(fold_pts)]
    return result


def cells_to_csv(cells) -> str:
    """CSV rows for plotting: f_der, nu, class, verdict, max Re, min gain."""
    lines = ["f_der,nu,theorem_class,uncontrolled_verdict,max_real_part,min_gain"]
    for c in cells:
        verdict = c.uncontrolled_verdict if c.uncontrolled_verdict else ""
        max_re = "" if c.max_real_part is None else repr(c.max_real_part)
        min_gain = "" if c.min_gain is None else repr(c.min_gain)
        lines.append(f"{c.f_der!r},{c.nu!r},{c.theorem_class},{verdict},"
                     f"{max_re},{min_gain}")
    return "\n".join(lines) + "\n"


def sweep_to_dict(result: SweepResult) -> dict:
    return {
        "f_der_values": result.f_der_values,
        "nu_values": result.nu_values,
        "cells": [asdict(c) for c in result.cells],
        "hopf": result.hopf,
        "fold": result.fold,
        "failures": result.failures,
    }
