"""The three benchmark workloads.

Every workload is a closed loop with one client: one process makes the next
call only after the previous one has returned.  Each call goes through the
package's public functions, looked up on their modules at call time, so the
traced run can see the same calls the untraced run makes.

A workload's ``measure`` runs calls through a ``Pass`` until ``seconds`` have
gone by and returns the loop's wall time.  The traced run replays the same
calls, in the same order, through a second ``Pass`` that records spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from pulsectrl import pde_sim, regions, spectral
from pulsectrl.model import ModelParams, PowerLawModel

FIG4 = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0)

# point_queries: blocks of points from a seeded, randomly shifted R2
# low-discrepancy sequence, so each point is uniform on its range while any
# prefix of a block covers the plane evenly (the slow regions, such as the
# FloorInsufficient corner at f' < 0, nu near 3, get a steady share per run).
BLOCK = 384
PLANE = 3.0
# One point in 16 has a large |f'|, log-uniform in LARGE_F_DER, either sign.
# The search window grows like f'^2; at |f'| = 8 a gain search already takes
# about 4 s, so a larger bound would let one point dominate a run.
LARGE_EVERY = 16
LARGE_F_DER = (3.0, 8.0)
_PLASTIC = 1.324717957244746
_R2_STEP = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2])

# region_map: a 16x16 grid; (16 - 1) divisible by 3 puts grid cells exactly on
# the degenerate existence line nu - 2 f' = 1, which the sweep must survive.
SWEEP_GRID = 16

# The self-test's tiny sizes: smaller blocks and grid, same code paths (the
# 10x10 grid still crosses the degenerate line and traces both boundaries).
TINY_BLOCK = 16
TINY_SWEEP_GRID = 10

# pde_crosscheck: physical inputs only; dx and dt stay at the SimConfig
# defaults so a change of scheme or step size shows up in the timing.  At
# eps = 0.1, t_end = 4 one run fits the rate to about 2% in a few seconds; the
# default eps = 0.02 needs minutes per run.
PDE_EPS = 0.1
PDE_T_END = 4.0
PDE_GAIN = 0.0


@dataclass
class Call:
    """One operation of a workload: a call into the package."""

    kind: str                 # "spectrum", "gain", "sweep" or "pde_run"
    key: tuple                # (f', nu) of a point, or (index,)
    span: str                 # name of the package function it enters
    fn: Callable[[], object]
    params: ModelParams | None = None
    attrs_of: Callable | None = None


@dataclass
class Outcome:
    call: Call
    seconds: float
    result: object
    error: Exception | None


class Pass:
    """Runs calls one after another, timing each; a raise is recorded as the
    call's outcome and never retried."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.outcomes: list[Outcome] = []

    def run(self, call: Call) -> Outcome:
        tracer = self.tracer
        if tracer is not None:
            tracer.query_id = len(self.outcomes)
        start = perf_counter()
        try:
            if tracer is None:
                result = call.fn()
            else:
                result = tracer.call(call.span, call.fn, call.attrs_of)
            error = None
        except Exception as exc:  # any raise is a failed operation
            result, error = None, exc
        outcome = Outcome(call, perf_counter() - start, result, error)
        self.outcomes.append(outcome)
        return outcome

    def replay(self, calls) -> float:
        start = perf_counter()
        for call in calls:
            self.run(call)
        return perf_counter() - start


def point_params(f_der: float, nu: float) -> ModelParams:
    return ModelParams(u_star=1.0, f_val=1.0, f_der=f_der, to_log_der=nu - 2.0 * f_der)


def point_stream(seed: int):
    """(f', nu) points: the Fig. 4 point, then the shifted R2 sequence.

    Every LARGE_EVERY-th point is a large-|f'| point instead, drawn from its
    own shifted R2 sequence with alternating sign, so each run gets the same
    share of both signs and an even spread of magnitudes.
    """
    rng = np.random.default_rng(seed)
    shift, large_shift = rng.random(2), rng.random(2)
    yield FIG4.f_der, FIG4.nu
    n = k = 0
    lo, hi = LARGE_F_DER
    while True:
        n += 1
        if n % LARGE_EVERY:
            u, v = (shift + n * _R2_STEP) % 1.0
            f_der = PLANE * (2.0 * u - 1.0)
        else:
            k += 1
            u, v = (large_shift + k * _R2_STEP) % 1.0
            f_der = (-1.0) ** k * lo * (hi / lo) ** u
        yield float(f_der), float(PLANE * (2.0 * v - 1.0))


def spectrum_attrs(report) -> dict:
    window = report.search_window.get("re")
    return {"evals": report.diagnostics["function_evaluations"],
            "re_max": window[1] if window else None}


def _gain_attrs(result) -> dict:
    return {"scan_points": result[1].get("scan_points")}


def _gain_call(params: ModelParams):
    diagnostics = {}
    return regions.min_control_gain(params, diagnostics=diagnostics), diagnostics


class PointQueries:
    """Per-point questions: is the pulse stable, and what is the weakest gain.

    Each block first asks for the spectrum at g = 0 of every point, then the
    minimal gain of every point that is unstable and in a controllable class,
    with the default floor, until the time is up.  Asking all spectra of a
    block first puts BLOCK spectra in every run, spread over about half of
    it, so their latency averages over the machine's slower and faster spells.
    """

    name = "point_queries"

    def __init__(self, seed: int, tiny: bool = False):
        self.points = point_stream(seed)
        self.block = TINY_BLOCK if tiny else BLOCK

    def measure(self, run: Pass, seconds: float) -> float:
        start = perf_counter()
        deadline = start + seconds
        gains = 0
        while True:
            controllable_unstable = []
            for _ in range(self.block):
                f_der, nu = next(self.points)
                params = point_params(f_der, nu)
                out = run.run(Call("spectrum", (f_der, nu), "spectral.assemble_spectrum",
                                   lambda p=params: spectral.assemble_spectrum(p),
                                   params, spectrum_attrs))
                if out.error is None and out.result.verdict == spectral.VERDICT_UNSTABLE \
                        and regions.classify_theorem(params) in regions.CONTROLLABLE_CLASSES:
                    controllable_unstable.append((f_der, nu, params))
            for f_der, nu, params in controllable_unstable:
                if gains and perf_counter() >= deadline:
                    return perf_counter() - start
                run.run(Call("gain", (f_der, nu), "regions.min_control_gain",
                             lambda p=params: _gain_call(p), params, _gain_attrs))
                gains += 1
            if perf_counter() >= deadline:
                return perf_counter() - start


class RegionMap:
    """Repeated sweep_plane over the default [-3, 3]^2 plane, one process."""

    name = "region_map"

    def __init__(self, seed: int, tiny: bool = False):
        self.grid = TINY_SWEEP_GRID if tiny else SWEEP_GRID  # the seed changes no input

    def measure(self, run: Pass, seconds: float) -> float:
        start = perf_counter()
        index = 0
        while True:
            run.run(Call("sweep", (index,), "regions.sweep_plane",
                         lambda: regions.sweep_plane(n_f=self.grid, n_nu=self.grid,
                                                     threads=1),
                         attrs_of=lambda r: {"boundary_points": len(r.hopf) + len(r.fold)}))
            index += 1
            if perf_counter() - start >= seconds:
                return perf_counter() - start

    def cell_keys(self) -> set:
        """(f', T'/T) of every grid cell, computed as sweep_plane computes them."""
        values = np.linspace(-PLANE, PLANE, self.grid)
        return {(f_der, nu - 2.0 * f_der / 1.0) for f_der in values for nu in values}


def pde_config() -> pde_sim.SimConfig:
    params = ModelParams(FIG4.u_star, FIG4.f_val, FIG4.f_der, FIG4.to_log_der,
                         eps=PDE_EPS, control_slope=PDE_GAIN)
    return pde_sim.SimConfig(model=PowerLawModel.from_params(params), params=params,
                             t_end=PDE_T_END)


class PdeCrosscheck:
    """Repeated pde_sim.run on the Fig. 4 point."""

    name = "pde_crosscheck"

    def __init__(self, seed: int, tiny: bool = False):
        pass  # the inputs are fixed; neither the seed nor tiny changes them

    def measure(self, run: Pass, seconds: float) -> float:
        start = perf_counter()
        index = 0
        while True:
            config = pde_config()
            run.run(Call("pde_run", (index,), "pde_sim.run",
                         lambda c=config: pde_sim.run(c), config.params))
            index += 1
            if perf_counter() - start >= seconds:
                return perf_counter() - start


WORKLOADS = {w.name: w for w in (PointQueries, RegionMap, PdeCrosscheck)}
