"""pulsectrl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
``src/``.  One run measures one workload for ``--seconds`` seconds:

* ``--trace 0`` times the calls into the unmodified package and reports the
  end-to-end metrics;
* ``--trace 1`` makes the same untraced pass, replays its calls with spans
  around the package functions, and reports the per-layer metrics.

Correctness checks follow the timed region; if any fails the command exits 1.
The human-readable report comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts operations that raised an exception the package does not
document for their input; every raise, expected or not, is listed in the
report and counted in ``fail_ratio``.  Results and spans are written to
``perfbench/results/``.  ``--workload all`` runs every workload untraced and
traced, each in its own interpreter, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


def import_package():
    """Import pulsectrl from this checkout's source tree, or exit with a message."""
    if not (SRC / "pulsectrl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'pulsectrl'}")
    sys.path.insert(0, str(SRC))
    import pulsectrl

    if not Path(pulsectrl.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported pulsectrl from {pulsectrl.__file__}, not {SRC}")


def measure_setup(checks) -> dict:
    """Median wall time of SETUP_RUNS fresh interpreters that import pulsectrl
    and answer the Fig. 4 spectrum through cli.dispatch."""
    walls, docs = [], []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        docs.append(json.loads(proc.stdout.splitlines()[-1]))
    pair = [complex(*z) for z in docs[0]["eigenvalues"]]
    nearest = min(pair, key=lambda z: abs(z - checks.FIG4_PAIR))
    checks_log = [("setup_fig4_answer",
                   all(d["exit_code"] == 0 and d["verdict"] == "Unstable"
                       and d["eigenvalues"] == docs[0]["eigenvalues"] for d in docs)
                   and abs(nearest - checks.FIG4_PAIR) <= checks.PAIR_TOL,
                   f"verdict {docs[0]['verdict']}, nearest {nearest:.6f}")]
    return {"setup_s": statistics.median(walls), "runs": SETUP_RUNS,
            "import_s": statistics.median(d["import_s"] for d in docs),
            "first_query_ms": statistics.median(d["first_query_ms"] for d in docs),
            "walls": walls, "checks": checks_log}


def install_tracing(tracer) -> None:
    from pulsectrl import oracle, pde_sim, regions, spectral

    import workloads

    tracer.wrap(spectral, "find_real_roots")
    tracer.wrap(regions, "assemble_spectrum",
                lambda args, result: workloads.spectrum_attrs(result) if result else {})
    tracer.wrap(regions, "uncontrolled_report",
                lambda args, result: {"key": (args[0].f_der, args[0].to_log_der)})
    tracer.wrap(pde_sim, "step")
    tracer.wrap(pde_sim, "relax_profile")
    tracer.wrap(oracle, "r_oracle")


def same_outputs(a, b) -> bool:
    """Traced and untraced passes gave the same answers to the same calls."""
    from pulsectrl.regions import sweep_to_dict

    def answer(out):
        if out.error is not None:
            return type(out.error).__name__
        kind, result = out.call.kind, out.result
        if kind == "spectrum":
            return result.to_json()
        if kind == "gain":
            return result[0]
        if kind == "sweep":
            return json.dumps(sweep_to_dict(result))
        return result.deviation_norms.tobytes()

    return len(a) == len(b) and all(answer(x) == answer(y) for x, y in zip(a, b))


def run_checks(workload: str, log, outcomes) -> dict:
    """Correctness pass; returns numbers the per-layer metrics need."""
    import checks

    fig4_report, fig4_gain = checks.fig4(log)
    spectra = [(checks.FIG4, fig4_report)]
    found = [(checks.FIG4, fig4_gain)]
    pde_rel_err = 0.0
    ok = [o for o in outcomes if o.error is None]
    if workload == "point_queries":
        spectra += [(o.call.params, o.result) for o in ok if o.call.kind == "spectrum"]
        found += [(o.call.params, o.result[0]) for o in ok if o.call.kind == "gain"]
    elif workload == "region_map":
        for o in ok:
            checks.region_map(log, o.result)
    else:
        rates = [checks.pde_rate(log, o.result, fig4_report.max_real_part) for o in ok]
        pde_rel_err = max(rates, default=0.0)
    stats = checks.oracle_roots(log, spectra)
    checks.gains_bracketed(log, found)
    stats["pde_rel_err"] = pde_rel_err
    return stats


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args) -> int:
    import_package()
    import checks
    import metrics
    import tracer as tr
    import workloads
    from pulsectrl import spectral

    RESULTS.mkdir(exist_ok=True)
    setup = measure_setup(checks)
    spectral.assemble_spectrum(workloads.FIG4)  # warm caches before timing
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)

    untraced = workloads.Pass()
    wall = workload.measure(untraced, args.seconds)

    log = checks.CheckLog()
    for entry in setup["checks"]:
        log.record(*entry)
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        install_tracing(tracer)
        try:
            traced = workloads.Pass(tracer)
            traced_wall = traced.replay([o.call for o in untraced.outcomes])
            loop_spans = len(tracer.spans)
            tracer.query_id = -1
            stats = run_checks(args.workload, log, untraced.outcomes)
        finally:
            tracer.restore()
        log.record("trace_changes_no_answer", same_outputs(untraced.outcomes, traced.outcomes))
    else:
        stats = run_checks(args.workload, log, untraced.outcomes)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = metrics.failures(untraced.outcomes)
    reported = metrics.end_to_end(args.workload, untraced.outcomes, wall, setup, rss_mb,
                                  attempted, failed)
    e2e = metrics.result_line(args.workload, untraced.outcomes, reported)
    layer = None
    if tracer is not None:
        layer = metrics.per_layer(tracer.spans[:loop_spans], traced.outcomes, wall,
                                  traced_wall, tracer.spans[loop_spans:], stats, setup,
                                  getattr(workload, "cell_keys", set)())

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# pulsectrl benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', tiny' if args.tiny else ''}; "
          f"closed loop, one client")
    print(f"end-to-end (untraced loop {wall:.3f} s):")
    for name, unit in metrics.REPORT_END_TO_END:
        value, base = reported[name]
        print(f"  {name:<34} {fmt(value):>12} {unit:<5} {base}")
    for f in failed:
        print(f"  raised: {f['kind']} {f['exception']} at f'={f['f_der']:.6g} nu={f['nu']:.6g}"
              f" ({'expected' if f['expected'] else 'UNEXPECTED'}): {f['message']}")
    print(f"result-line metrics (latency of one {metrics.PRIMARY[args.workload]} call):")
    for name, unit in metrics.END_TO_END:
        print(f"  {name:<34} {fmt(e2e[name]):>12} {unit}")
    if layer is not None:
        self_total = sum(layer[f"{n}.self_ms"] for n in ("spectral", "regions", "pde_sim"))
        print(f"per-layer (traced replay {traced_wall:.3f} s, "
              f"{len(tracer.spans)} spans written to results/{tag}-spans.json):")
        for name, unit, _ in metrics.PER_LAYER:
            print(f"  {name:<34} {fmt(layer[name]):>12} {unit}")
        print(f"  self time: spectral {layer['spectral.self_ms']:.1f} ms, regions "
              f"{layer['regions.self_ms']:.1f} ms, pde_sim {layer['pde_sim.self_ms']:.1f} ms, "
              f"benchmark {layer['bench.self_ms']:.1f} ms; package layers account for "
              f"{100 * self_total / (1e3 * traced_wall):.1f}% of the traced loop")
        if layer["pde_sim.steps"]:
            runs = sum(1 for s in tracer.spans[:loop_spans] if s[0] == "pde_sim.run")
            print(f"  pde_sim.steps x pde_sim.step_us = "
                  f"{layer['pde_sim.steps'] * layer['pde_sim.step_us'] / 1e3:.1f} ms of "
                  f"{1e3 * traced_wall / runs:.1f} ms per traced run")
        tracer.write(RESULTS / f"{tag}-spans.json", workload=args.workload, seed=args.seed,
                     loop_spans=loop_spans)
    print("checks:")
    for name, ok, detail in log.entries:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    shown, units = (layer, metrics.PER_LAYER) if layer is not None \
        else (e2e, metrics.END_TO_END)
    line = {"correct": log.ok, "attempted": attempted,
            "failed": sum(1 for f in failed if not f["expected"]),
            "metrics": {spec[0]: {"value": shown[spec[0]], "unit": spec[1]}
                        for spec in units}}
    with open(RESULTS / f"{tag}.json", "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "end_to_end": {n: v for n, (v, _) in reported.items()},
                   "result_line_end_to_end": e2e, "per_layer": layer, "failures": failed,
                   "setup": setup, "checks": log.entries, "result": line,
                   "operations": [[o.call.kind, list(o.call.key), o.seconds,
                                   type(o.error).__name__ if o.error else None]
                                  for o in untraced.outcomes]}, handle, indent=1)
    print(json.dumps(line))
    return 0 if log.ok else 1


def run_all(args) -> int:
    """Each workload untraced then traced, in fresh interpreters; one table."""
    import metrics

    status = 0
    docs = {}
    for name in metrics.ALL:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            path = RESULTS / f"{name}-seed{args.seed}-trace{trace}.json"
            if proc.returncode in (0, 1) and path.is_file():
                docs[name, trace] = json.loads(path.read_text())
    print(f"\n# summary, seed {args.seed}, {args.seconds:g} s per run")
    print(f"{'metric':<36}{'unit':<7}" + "".join(f"{w:>16}" for w in metrics.ALL))
    rows = [(n, u, "end_to_end", 0) for n, u in metrics.REPORT_END_TO_END]
    rows += [(n, u, "result_line_end_to_end", 0) for n, u in metrics.END_TO_END[1:3]]
    rows += [(n, u, "per_layer", 1) for n, u, _ in metrics.PER_LAYER]
    for name, unit, part, trace in rows:
        cells = [fmt((docs.get((w, trace)) or {}).get(part, {}).get(name))
                 for w in metrics.ALL]
        print(f"{name:<36}{unit:<7}" + "".join(f"{c:>16}" for c in cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("point_queries", "region_map", "pde_crosscheck", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the self-test; not a measurement")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
