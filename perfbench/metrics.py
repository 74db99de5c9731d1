"""Metric definitions and their computation from a run's outcomes and spans.

``REPORT_END_TO_END`` are the nine user-facing metrics; the report prints them
all, ``n/a`` where one does not apply.  ``END_TO_END`` are the
metrics of the result line (BENCHMARK.json ``end_to_end``), which every
workload reports, with ``latency_ms_*`` measured on the workload's primary
call (see ``PRIMARY``).  They use the mean, not the median: spectrum costs are
bimodal in the sign of f' and the median of a run's spectra falls between the
two modes.  ``PER_LAYER`` come from the traced run; a layer a workload does
not reach reads 0.
"""

from __future__ import annotations

import numpy as np

import tracer as tr

ALL = ("point_queries", "region_map", "pde_crosscheck")
PQ, RM, PDE = ALL

REPORT_END_TO_END = [
    ("setup_s", "s"),
    ("spectrum_ms_p50", "ms"),
    ("spectrum_ms_p90", "ms"),
    ("gain_s_p50", "s"),
    ("queries_per_s", "1/s"),
    ("sweep_cells_per_s", "1/s"),
    ("pde_time_to_rate_s", "s"),
    ("fail_ratio", "1"),
    ("peak_rss_mb", "MB"),
]

END_TO_END = [
    ("setup_s", "s"),
    ("latency_ms_mean", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

# The call latency_ms_* measure on each workload.
PRIMARY = {
    PQ: "spectral.assemble_spectrum",
    RM: "regions.sweep_plane",
    PDE: "pde_sim.run",
}

PER_LAYER = [
    ("spectral.self_ms", "ms", "lower"),
    ("spectral.spectra", "count", "lower"),
    ("spectral.r_evals_total", "count", "lower"),
    ("spectral.r_evals_per_spectrum_p50", "count", "lower"),
    ("spectral.r_eval_us", "us", "lower"),
    ("spectral.real_scan_ms_total", "ms", "lower"),
    ("spectral.complex_search_ms_total", "ms", "lower"),
    ("spectral.window_re_max_p90", "1", "lower"),
    ("regions.self_ms", "ms", "lower"),
    ("regions.gain_spectra_per_search_p50", "count", "lower"),
    ("regions.gain_scan_points_p50", "count", "lower"),
    ("regions.gain_wasted_spectra_share", "1", "lower"),
    ("regions.cell_ms_total", "ms", "lower"),
    ("regions.boundary_spectra", "count", "lower"),
    ("regions.boundary_ms_total", "ms", "lower"),
    ("regions.boundary_share_pct", "%", "lower"),
    ("regions.boundary_points", "count", "higher"),
    ("pde_sim.self_ms", "ms", "lower"),
    ("pde_sim.steps", "count", "lower"),
    ("pde_sim.step_us", "us", "lower"),
    ("pde_sim.relax_ms", "ms", "lower"),
    ("pde_sim.grid_points", "count", "lower"),
    ("pde_sim.bytes_per_step_computed", "B", "lower"),
    ("pde_sim.rate_rel_err", "1", "lower"),
    ("oracle.solves", "count", "higher"),
    ("oracle.solve_ms_p50", "ms", "lower"),
    ("oracle.max_residual", "1", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.first_query_ms", "ms", "lower"),
    ("bench.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Float64 arrays one explicit IMEX step touches, counted from the code of
# pde_sim.step: u, v and v_ref read; du, dv and the two explicit updates
# written; two 3-row band matrices read; u_new, v_new written.
PDE_ARRAYS_PER_STEP = 3 + 4 + 2 * 3 + 2


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values) -> float:
    return pct(values, 50)


# ----------------------------------------------------------------------------
# failures

def _expected(kind: str, name: str, f_der: float, nu: float) -> bool:
    """Raises the package documents for these inputs.

    FloorInsufficient from a gain search means no stable gain lies above the
    default floor (near nu = 1/u* for f' > 0 the gain needed diverges; for
    f' < 0, nu > 1 the stable gains form a window the scan can miss).
    ValueError marks a grid cell on the degenerate existence line
    u* T'/T = 1, tested as sweep_plane computes T'/T.
    """
    if name == "FloorInsufficient":
        return kind == "gain"
    if name == "ValueError":
        return kind == "cell" and nu - 2.0 * f_der / 1.0 == 1.0
    return False


def failures(outcomes) -> tuple[int, list]:
    """(operations attempted, one record per operation that raised)."""
    attempted = 0
    records = []
    for out in outcomes:
        call = out.call
        if out.error is not None:
            attempted += 1
            if call.kind in ("spectrum", "gain"):
                f_der, nu = call.key
            elif call.params is not None:
                f_der, nu = call.params.f_der, call.params.nu
            else:
                f_der = nu = float("nan")
            name = type(out.error).__name__
            records.append({"kind": call.kind, "exception": name, "f_der": f_der, "nu": nu,
                            "message": str(out.error),
                            "expected": _expected(call.kind, name, f_der, nu)})
        elif call.kind == "sweep":
            attempted += len(out.result.cells)
            for cell in out.result.cells:
                if cell.error:
                    name, _, message = cell.error.partition(": ")
                    records.append({"kind": "cell", "exception": name, "f_der": cell.f_der,
                                    "nu": cell.nu, "message": message,
                                    "expected": _expected("cell", name, cell.f_der, cell.nu)})
        else:
            attempted += 1
    return attempted, records


# ----------------------------------------------------------------------------
# end to end, from the untraced pass

def end_to_end(workload: str, outcomes, wall: float, setup: dict, rss_mb: float,
               attempted: int, failed: list) -> dict:
    """Report metrics: name -> (value or None, base description)."""
    ok = [o for o in outcomes if o.error is None]
    out = {name: (None, "not measured on this workload") for name, _ in REPORT_END_TO_END}
    out["setup_s"] = (setup["setup_s"], f"median of {setup['runs']} fresh interpreters")
    out["fail_ratio"] = (len(failed) / attempted,
                         f"{len(failed)} raised of {attempted} attempted, "
                         f"{sum(f['expected'] for f in failed)} expected")
    out["peak_rss_mb"] = (rss_mb, "ru_maxrss of the benchmark process")
    if workload == PQ:
        spectra = [1e3 * o.seconds for o in outcomes if o.call.kind == "spectrum"]
        gains = [o.seconds for o in outcomes if o.call.kind == "gain"]
        out["spectrum_ms_p50"] = (median(spectra), f"{len(spectra)} spectra")
        out["spectrum_ms_p90"] = (pct(spectra, 90), f"{len(spectra)} spectra")
        out["gain_s_p50"] = (median(gains), f"{len(gains)} searches, failed included")
        out["queries_per_s"] = (len(ok) / wall, f"{len(ok)} calls completed in {wall:.2f} s")
    elif workload == RM:
        cells = sum(len(o.result.cells) for o in ok)
        busy = sum(o.seconds for o in outcomes)
        out["sweep_cells_per_s"] = (cells / busy,
                                    f"{cells} cells in {len(outcomes)} sweeps, {busy:.2f} s")
    else:
        runs = [o.seconds for o in outcomes]
        out["pde_time_to_rate_s"] = (median(runs), f"{len(runs)} runs")
    return out


def result_line(workload: str, outcomes, reported: dict) -> dict:
    """BENCHMARK.json end_to_end metrics: name -> value."""
    kind = "spectrum" if workload == PQ else outcomes[0].call.kind
    latency = [1e3 * o.seconds for o in outcomes if o.call.kind == kind]
    return {"setup_s": reported["setup_s"][0],
            "latency_ms_mean": float(np.mean(latency)),
            "latency_ms_p90": pct(latency, 90),
            "peak_rss_mb": reported["peak_rss_mb"][0]}


# ----------------------------------------------------------------------------
# per layer, from the traced pass

def per_layer(spans, traced, untraced_wall: float, traced_wall: float,
              check_spans, stats: dict, setup: dict, cell_keys: set) -> dict:
    """Per-layer metrics from the spans of the traced loop (``spans``) and of
    the correctness pass (``check_spans``).

    In a sweep, the leading run of ``uncontrolled_report`` calls at grid cells
    (``cell_keys``) classifies the cells; every later call traces the boundary.
    """
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    self_s = tr.self_times(spans)
    for layer in ("spectral", "regions", "pde_sim"):
        m[f"{layer}.self_ms"] = 1e3 * self_s.get(layer, 0.0)
    root_time = sum(tr.duration(s) for s in spans if s[3] < 0)
    m["bench.self_ms"] = 1e3 * (traced_wall - root_time)
    m["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)

    root_of = tr.roots(spans)
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)

    spectra = [i for i, s in enumerate(spans) if s[0] == "spectral.assemble_spectrum"
               and s[5] and "evals" in s[5]]
    if spectra:
        evals = [spans[i][5]["evals"] for i in spectra]
        spectrum_time = sum(tr.duration(spans[i]) for i in spectra)
        scan = [i for i, s in enumerate(spans) if s[0] == "spectral.find_real_roots"]
        scan_time = sum(tr.duration(spans[i]) for i in scan)
        windows = [spans[i][5]["re_max"] for i in spectra if spans[i][5]["re_max"] is not None]
        m["spectral.spectra"] = len(spectra)
        m["spectral.r_evals_total"] = sum(evals)
        m["spectral.r_evals_per_spectrum_p50"] = median(evals)
        m["spectral.r_eval_us"] = 1e6 * spectrum_time / max(1, sum(evals))
        m["spectral.real_scan_ms_total"] = 1e3 * scan_time
        m["spectral.complex_search_ms_total"] = 1e3 * (spectrum_time - scan_time)
        m["spectral.window_re_max_p90"] = pct(windows, 90)

    searches = [i for i, s in enumerate(spans) if s[0] == "regions.min_control_gain"]
    if searches:
        per_search = {i: 0 for i in searches}
        for i in spectra:
            if root_of[i] in per_search:
                per_search[root_of[i]] += 1
        wasted = sum(n for i, n in per_search.items() if spans[i][5].get("raised"))
        scan_points = [spans[i][5]["scan_points"] for i in searches
                       if not spans[i][5].get("raised") and spans[i][5]["scan_points"]]
        m["regions.gain_spectra_per_search_p50"] = median(list(per_search.values()))
        m["regions.gain_scan_points_p50"] = median(scan_points)
        m["regions.gain_wasted_spectra_share"] = wasted / max(1, sum(per_search.values()))

    sweeps = [i for i, s in enumerate(spans) if s[0] == "regions.sweep_plane"]
    if sweeps:
        cell_s = boundary_s = 0.0
        boundary_n = 0
        in_cell_phase = {}
        for i, s in enumerate(spans):
            if s[0] != "regions.uncontrolled_report":
                continue
            on_grid = tuple(s[5]["key"]) in cell_keys
            if in_cell_phase.setdefault(root_of[i], True) and on_grid:
                cell_s += tr.duration(s)
            else:
                in_cell_phase[root_of[i]] = False
                boundary_s += tr.duration(s)
                boundary_n += 1
        sweep_time = sum(tr.duration(spans[i]) for i in sweeps)
        m["regions.cell_ms_total"] = 1e3 * cell_s
        m["regions.boundary_spectra"] = boundary_n
        m["regions.boundary_ms_total"] = 1e3 * boundary_s
        m["regions.boundary_share_pct"] = 100.0 * boundary_s / sweep_time
        m["regions.boundary_points"] = sum(spans[i][5]["boundary_points"] for i in sweeps
                                           if spans[i][5] and "boundary_points" in spans[i][5])

    runs = [i for i, s in enumerate(spans) if s[0] == "pde_sim.run"]
    if runs:
        steps = [j for i in runs for j in children.get(i, []) if spans[j][0] == "pde_sim.step"]
        relax = [tr.duration(spans[j]) for i in runs for j in children.get(i, [])
                 if spans[j][0] == "pde_sim.relax_profile"]
        diagnostics = [o.result.diagnostics for o in traced
                       if o.call.kind == "pde_run" and o.error is None]
        m["pde_sim.step_us"] = 1e6 * sum(tr.duration(spans[j]) for j in steps) / max(1, len(steps))
        m["pde_sim.relax_ms"] = 1e3 * median(relax)
        if diagnostics:
            grid_points = diagnostics[0]["grid_points"]
            m["pde_sim.steps"] = median([d["n_steps"] for d in diagnostics])
            m["pde_sim.grid_points"] = grid_points
            m["pde_sim.bytes_per_step_computed"] = 8 * PDE_ARRAYS_PER_STEP * grid_points
        m["pde_sim.rate_rel_err"] = stats["pde_rel_err"]

    solves = [1e3 * tr.duration(s) for s in check_spans if s[0] == "oracle.r_oracle"]
    m["oracle.solves"] = len(solves)
    m["oracle.solve_ms_p50"] = median(solves)
    m["oracle.max_residual"] = stats["max_residual"]
    m["cli.import_s"] = setup["import_s"]
    m["cli.first_query_ms"] = setup["first_query_ms"]
    return m
