"""Command-line front end: reproducible spectrum, region, simulation, and
verification runs with machine-readable output.

Exit codes: 0 success, 1 domain error (invalid parameters), 2 numerical
failure (memory running out included), 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    FloorInsufficient,
    NearEigenvalue,
    NumericalBlowup,
    PulseControlError,
    RootIsolationFailure,
)
from .model import ModelParams, PowerLawModel
from .regions import cells_to_csv, sweep_plane, sweep_to_dict
from .spectral import assemble_spectrum, r_total

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


def _manifest(subcommand: str, echo: dict) -> dict:
    blob = json.dumps(echo, sort_keys=True).encode()
    return {
        "subcommand": subcommand,
        "parameters": echo,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_hash": hashlib.sha256(blob).hexdigest(),
    }


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


# the type of each config value whose flag does not take a number
_CONFIG_TYPES = {"grid": int, "threads": int, "seed": int, "min-gain": bool, "shape": str}


def _merged(args: argparse.Namespace, keys) -> dict:
    """Config-file values, each of its flag's JSON type, overridden by
    explicitly set flags."""
    merged = dict(_load_config(getattr(args, "config", None)))
    unread = sorted(set(merged) - set(keys))
    if unread:
        raise argparse.ArgumentError(
            None, f"{args.subcommand} does not read config keys {unread}")
    # a JSON number loads as an int or a float, a boolean as a bool, which
    # is also an int
    mistyped = sorted(key for key, value in merged.items()
                      if not isinstance(value, _CONFIG_TYPES.get(key, (int, float)))
                      or isinstance(value, bool) != (_CONFIG_TYPES.get(key) is bool))
    if mistyped:
        raise argparse.ArgumentError(
            None, f"config keys {mistyped} do not have their flags' types")
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            merged[key] = val
    return merged


def _params_from(merged: dict) -> ModelParams:
    return ModelParams(
        u_star=float(merged.get("u-star", 1.0)),
        f_val=float(merged.get("f-val", 1.0)),
        f_der=float(merged.get("f-der", 0.0)),
        to_log_der=float(merged.get("to-log-der", 0.0)),
        eps=float(merged.get("eps", 0.02)),
        control_slope=float(merged.get("gain", 0.0)),
    )


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


PARAM_KEYS = ("u-star", "f-val", "f-der", "to-log-der", "gain")


def _cmd_spectrum(args) -> int:
    merged = _merged(args, PARAM_KEYS)
    params = _params_from(merged)
    report = assemble_spectrum(params)
    payload = {"manifest": _manifest("spectrum", merged), **report.to_dict()}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_region(args) -> int:
    merged = _merged(args, ("u-star", "f-val", "grid", "threads", "min-gain"))
    grid = merged.get("grid", 121)
    threads = merged.get("threads", 1)
    if threads < 1:
        raise argparse.ArgumentError(None, f"threads must be at least 1, not {threads}")
    result = sweep_plane(
        n_f=grid, n_nu=grid,
        u_star=float(merged.get("u-star", 1.0)),
        f_val=float(merged.get("f-val", 1.0)),
        threads=threads,
        include_min_gain=merged.get("min-gain", False),
    )
    payload = _manifest("region", merged)
    if args.out:
        base = args.out
        csv_path = base if base.endswith(".csv") else base + ".csv"
        json_path = (base[:-4] if base.endswith(".csv") else base) + "_boundaries.json"
        with open(csv_path, "w") as handle:
            handle.write(cells_to_csv(result.cells))
        with open(json_path, "w") as handle:
            json.dump({"manifest": payload, "hopf": result.hopf,
                       "fold": result.fold}, handle, indent=2)
        print(json.dumps({"manifest": payload, "csv": csv_path,
                          "boundaries": json_path,
                          "cells": len(result.cells),
                          "failures": len(result.failures)}))
    else:
        doc = sweep_to_dict(result)
        doc["manifest"] = payload
        print(json.dumps(doc))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # pde_sim loads SciPy, which the other subcommands but verify do without
    from .pde_sim import SimConfig, run as run_sim

    merged = _merged(args, PARAM_KEYS + ("eps", "t-end", "eta", "seed", "shape"))
    params = _params_from(merged)
    model = PowerLawModel.from_params(params)
    config = SimConfig(
        model=model,
        params=params,
        t_end=float(merged.get("t-end", 5.0)),
        eta=float(merged.get("eta", 1e-4)),
        perturbation_shape=merged.get("shape", "even_bump"),
        seed=merged.get("seed", 0),
    )
    trace = run_sim(config)
    # an early exit settles the verdict; its rate may come from too few
    # samples to fit (then 0.0)
    if trace.early_exit is not None:
        verdict = trace.early_exit.capitalize()
    else:
        verdict = "Unstable" if trace.fitted_rate > 0 else "Stable"
    payload = {
        "manifest": _manifest("simulate", merged),
        "fitted_rate": float(trace.fitted_rate),
        "fit_r2": float(trace.fit_r2),
        "verdict": verdict,
        "early_exit": trace.early_exit,
        "diagnostics": trace.diagnostics,
    }
    if args.out:
        csv_path = args.out if args.out.endswith(".csv") else args.out + ".csv"
        lines = ["t,deviation_norm"]
        lines += [f"{float(t)!r},{float(n)!r}"
                  for t, n in zip(trace.times, trace.deviation_norms)]
        with open(csv_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        payload["trace_csv"] = csv_path
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_verify(args) -> int:
    # oracle loads SciPy, which the other subcommands but simulate do without
    from .oracle import (
        FastGrid,
        FastOperator,
        eigenfunction_identities,
        r_oracle,
        theta_inner_product,
        theta_reference,
        top_eigenvalues,
    )

    merged = _merged(args, ("tol",))
    tol = float(merged.get("tol", 1e-4))
    if not 0.0 < tol < math.inf:
        # inf passes every check it bounds, and 0, a negative or NaN none
        raise ValueError(f"tol must be positive and finite, not {tol}")
    grid = FastGrid()
    checks = []

    def record(name, computed, reference, tolerance):
        err = abs(computed - reference)
        checks.append({
            "name": name,
            "computed": [float(np.real(computed)), float(np.imag(computed))],
            "reference": [float(np.real(reference)), float(np.imag(reference))],
            "abs_error": float(err),
            "tolerance": float(tolerance),
            "pass": bool(err <= tolerance),
        })

    evs = top_eigenvalues(FastOperator(grid), 3)
    for ev, ref in zip(evs, (1.25, 0.0, -0.75)):
        record(f"eigenvalue_{ref}", ev, ref, 1e-3)
    for name, rec in eigenfunction_identities(grid).items():
        tolerance = 1e-10 if name.startswith("norm") else 1e-8
        if name == "psi1_dot_vp":
            tolerance = 1e-12
        record(name, rec["computed"], rec["reference"], tolerance)
    for mu in (-1.5, -2.0, -5.0):
        record(f"theta_mu_{mu}", theta_inner_product(mu, grid),
               theta_reference(mu), 1e-6)
    for lh in (2.0, 3.0, 10.0, 1.5 + 1j, 0.5 + 4j, 3 + 1j):
        record(f"oracle_equivalence_{lh}", r_total(lh),
               r_oracle(lh, grid), tol)

    payload = {
        "manifest": _manifest("verify", merged),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _emit(payload, args.out)
    return EXIT_OK if payload["all_pass"] else EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative decimal number as a
    value, where argparse's own pattern takes -3e0 or -1E-4 for a flag."""

    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the subparsers are made of this class too
        self._negative_number_matcher = self._NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pulsectrl",
        description="Stability and controllability of a two-component "
                    "reaction-diffusion pulse under proportional feedback.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output file path")

    p_spec = sub.add_parser("spectrum", help="locate eigenvalues and classify stability")
    for key in PARAM_KEYS:
        p_spec.add_argument("--" + key, type=float)
    add_common(p_spec)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_reg = sub.add_parser("region", help="sweep the (f', nu) parameter plane")
    p_reg.add_argument("--u-star", type=float)
    p_reg.add_argument("--f-val", type=float)
    p_reg.add_argument("--grid", type=int, help="points per axis (default 121)")
    p_reg.add_argument("--threads", type=int, help="worker processes (default 1)")
    p_reg.add_argument("--min-gain", action="store_true", default=None,
                       help="also search the minimal stabilizing gain per cell")
    add_common(p_reg)
    p_reg.set_defaults(func=_cmd_region)

    p_sim = sub.add_parser("simulate", help="time-integrate the controlled system")
    for key in PARAM_KEYS + ("eps",):
        p_sim.add_argument("--" + key, type=float)
    p_sim.add_argument("--t-end", type=float)
    p_sim.add_argument("--eta", type=float, help="perturbation amplitude")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--shape", choices=("even_bump", "random"))
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the brute-force oracle checks")
    p_ver.add_argument("--tol", type=float,
                       help="tolerance of the oracle-equivalence checks (default 1e-4)")
    add_common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; remap to 64, keep 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RootIsolationFailure, NearEigenvalue, NumericalBlowup,
            FloorInsufficient, ArithmeticError, np.linalg.LinAlgError,
            MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, PulseControlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main():
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
