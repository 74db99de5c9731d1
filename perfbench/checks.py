"""Correctness checks, run outside the timed region.

Each check appends ``(name, ok, detail)`` to a ``CheckLog``; the benchmark
exits nonzero if any entry is not ok.
"""

from __future__ import annotations

import numpy as np

from pulsectrl import oracle, regions, spectral
from pulsectrl.errors import NearEigenvalue
from pulsectrl.model import reduced_coefficients

from workloads import FIG4

FIG4_PAIR = complex(1.2423, 5.3854)
PAIR_TOL = 1e-4            # the reference is quoted to four decimals
FIG4_GAIN = -2.1963
FIG4_GAIN_TOL = 1e-3
GAIN_SEARCH_TOL = 1e-3     # min_control_gain's default width
# The oracle matches the closed-form R to 1e-4 (criterion 1); its error grows
# with |R|, so the residual is compared with ORACLE_TOL * max(1, |R|).  Two
# kinds of shift are counted as skipped, not checked: those within
# POLE_CLEARANCE of a pole of R (the fast eigenvalues 5/4 and -3/4), where the
# oracle's discretisation moves the pole, and those so close to the essential
# edge lh = -1 that the resolvent decays by less than exp(-EDGE_DECAY) across
# the oracle's truncated domain.
ORACLE_TOL = 1e-4
POLE_CLEARANCE = 0.15
EDGE_DECAY = 8.0
PDE_RATE_REL_TOL = 0.15
PDE_R2_MIN = 0.99


class CheckLog:
    def __init__(self):
        self.entries = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.entries.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.entries)


def fig4(log: CheckLog):
    """The paper's Fig. 4 point: its unstable pair and its minimal gain."""
    report = spectral.assemble_spectrum(FIG4)
    for ref in (FIG4_PAIR, FIG4_PAIR.conjugate()):
        nearest = min(report.eigenvalues, key=lambda z: abs(z - ref))
        log.record(f"fig4_eigenvalue {ref.real:.4f}{ref.imag:+.4f}i",
                   abs(nearest - ref) <= PAIR_TOL, f"nearest {nearest:.6f}")
    gain = regions.min_control_gain(FIG4)
    log.record("fig4_min_gain", abs(gain - FIG4_GAIN) <= FIG4_GAIN_TOL, f"{gain:.6f}")
    return report, gain


def oracle_roots(log: CheckLog, spectra) -> dict:
    """Each located eigenvalue solves the root equation with r_oracle for R.

    ``spectra`` holds ``(params, report)`` pairs.  Returns the counts and the
    largest relative residual
    |alpha + beta sqrt(1 + lh + g) - r_oracle(lh)| / max(1, |r_oracle(lh)|).
    """
    checked = skipped = 0
    worst = 0.0
    bad = []
    xi_max = oracle.FastGrid().xi_max
    for params, report in spectra:
        eigs = list(report.eigenvalues)
        eigs.remove(report.translation_eigenvalue)
        if params.f_der == 0.0:  # no reduced equation: the fast spectrum survives
            skipped += len(eigs)
            continue
        coeffs = reduced_coefficients(params)
        gain = params.control_slope
        for z in eigs:
            lh = z - gain
            if min(abs(lh - spectral.POLE_HIGH), abs(lh - spectral.POLE_LOW)) < POLE_CLEARANCE \
                    or np.sqrt(complex(1.0 + lh)).real * xi_max < EDGE_DECAY:
                skipped += 1
                continue
            try:
                r = oracle.r_oracle(lh)
            except NearEigenvalue:
                skipped += 1
                continue
            residual = abs(coeffs.alpha + coeffs.beta * np.sqrt(complex(lh + 1.0 + gain)) - r)
            relative = residual / max(1.0, abs(r))
            checked += 1
            worst = max(worst, relative)
            if relative > ORACLE_TOL:
                bad.append(f"f'={params.f_der:.4g} nu={params.nu:.4g} lh={lh:.5g}: {relative:.2e}")
    log.record("oracle_root_equation", not bad,
               f"{checked} checked, {skipped} skipped, max residual {worst:.2e}"
               + (f"; failing: {bad[:5]}" if bad else ""))
    return {"checked": checked, "skipped": skipped, "max_residual": worst}


def gains_bracketed(log: CheckLog, found) -> None:
    """Each gain g found is stable at g and not stable at g + tol."""
    bad = []
    for params, gain in found:
        at = spectral.assemble_spectrum(params.with_control_slope(gain)).verdict
        above = spectral.assemble_spectrum(
            params.with_control_slope(gain + GAIN_SEARCH_TOL)).verdict
        if at != spectral.VERDICT_STABLE or above == spectral.VERDICT_STABLE:
            bad.append(f"f'={params.f_der:.4g} nu={params.nu:.4g} g={gain:.6g}: {at}/{above}")
    log.record("gains_bracketed", not bad,
               f"{len(found)} gains" + (f"; failing: {bad[:5]}" if bad else ""))


def region_map(log: CheckLog, result) -> None:
    """The criterion-7 assertions on one sweep."""
    cells = result.cells
    log.record("region_theorem_classes",
               all(c.theorem_class == regions.classify_point(c.f_der, c.nu) for c in cells))
    stable = [c for c in cells if not c.error and c.uncontrolled_verdict != spectral.VERDICT_UNSTABLE]
    unstable = [c for c in cells if not c.error and c.uncontrolled_verdict == spectral.VERDICT_UNSTABLE]
    log.record("region_stable_cells_allowed",
               bool(stable) and all(c.f_der != 0.0 and not (c.f_der > 0.0 and c.nu >= 1.0)
                                    for c in stable),
               f"{len(stable)} stable cells")
    log.record("region_boundaries_traced", len(result.hopf) > 0 and len(result.fold) > 0,
               f"{len(result.hopf)} Hopf, {len(result.fold)} fold points")
    if not stable or not unstable:
        return
    spacing = result.f_der_values[1] - result.f_der_values[0]
    stable_xy = np.array([[c.f_der, c.nu] for c in stable])
    unstable_xy = np.array([[c.f_der, c.nu] for c in unstable])
    far = []
    for point in result.hopf + result.fold:
        p = np.array(point)
        reach = max(np.min(np.linalg.norm(stable_xy - p, axis=1)),
                    np.min(np.linalg.norm(unstable_xy - p, axis=1)))
        if reach > 2.2 * spacing:
            far.append(point)
    log.record("region_boundary_between_sets", not far, f"{len(far)} points too far")


def pde_rate(log: CheckLog, trace, spectral_rate: float) -> float:
    """Fitted PDE growth rate against the spectral max Re; returns rel. error."""
    rel_err = abs(trace.fitted_rate - spectral_rate) / abs(spectral_rate)
    log.record("pde_rate", rel_err <= PDE_RATE_REL_TOL and trace.fit_r2 >= PDE_R2_MIN,
               f"rate {trace.fitted_rate:.5f} vs spectral {spectral_rate:.5f} "
               f"({100 * rel_err:.2f}%), r2 {trace.fit_r2:.5f}")
    return rel_err
