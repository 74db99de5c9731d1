"""Command-line front end: exit codes, JSON payloads, config merging, and
file outputs."""

import csv
import json
import warnings

import pytest

from pulsectrl import cli
from pulsectrl.cli import (
    EXIT_DOMAIN,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    dispatch,
)
from pulsectrl.model import ModelParams
from pulsectrl.regions import sweep_plane, sweep_to_dict
from pulsectrl.spectral import assemble_spectrum

FIG4_FLAGS = ["--u-star", "1", "--f-val", "1", "--f-der", "-3",
              "--to-log-der", "8"]


def run_json(capsys, argv):
    code = dispatch(argv)
    return code, json.loads(capsys.readouterr().out)


def test_usage_errors():
    assert dispatch(["spectrum", "--bogus-flag", "1"]) == EXIT_USAGE
    assert dispatch([]) == EXIT_USAGE
    assert dispatch(["--help"]) == EXIT_OK


def test_domain_error_exit(capsys):
    code = dispatch(["spectrum"] + FIG4_FLAGS + ["--gain", "1.5"])
    assert code == EXIT_DOMAIN
    assert "essential" in capsys.readouterr().err


def test_deep_gain_is_a_domain_error(capsys):
    # past about l'(0) = -2^34 no search window is posed: one line, not a traceback
    code = dispatch(["spectrum"] + FIG4_FLAGS + ["--gain", "-1e20"])
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: no finite search window") and err.count("\n") == 1


def test_numerical_error_exit(capsys):
    # an absurd perturbation amplitude drives the state non-finite within the
    # first step, before the first sample can end the run as growth; the
    # step's finiteness checks report it, so numpy must not warn on the way.
    # (1e50 no longer does: f^2 T_o = u^2 at Fig. 4, taken as one power,
    # keeps the new state finite, near 1e198, and the run ends as growth)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(["simulate"] + FIG4_FLAGS +
                        ["--eta", "1e100", "--t-end", "0.01"])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_relaxation_stall_exit(capsys):
    # at eps = 0.002 the profile relaxation stalls above its tolerance: a
    # numerical failure that names the relaxation, not a non-finite state
    code = dispatch(["simulate"] + FIG4_FLAGS + ["--eps", "0.002", "--t-end", "0.001"])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "pulse relaxation stalled" in err and "non-finite" not in err


def test_bad_point_data_is_a_domain_error(capsys):
    # a sweep divided by u* or f(u*) (exit 2), or failed every cell (exit
    # 0); a simulation turned an infinite t_end into a step count (exit 2)
    for flag, value in (("--u-star", "0"), ("--u-star", "-1"), ("--u-star", "nan"),
                        ("--u-star", "inf"), ("--f-val", "0"), ("--f-val", "-2"),
                        ("--f-val", "inf")):
        assert dispatch(["region", "--grid", "3", flag, value]) == EXIT_DOMAIN, (flag, value)
        assert flag[2:].replace("-", "_") + " must be" in capsys.readouterr().err
    assert dispatch(["simulate"] + FIG4_FLAGS + ["--t-end", "inf"]) == EXIT_DOMAIN
    assert "t_end must be positive and finite" in capsys.readouterr().err


def test_spectrum_fig4_controlled(capsys):
    code, doc = run_json(capsys, ["spectrum"] + FIG4_FLAGS + ["--gain", "-3"])
    assert code == EXIT_OK
    assert doc["verdict"] == "Stable"
    assert doc["essential_edge"] == -1.0
    assert doc["manifest"]["subcommand"] == "spectrum"
    assert doc["manifest"]["parameters"]["gain"] == -3.0
    assert all(re < 0.0 for re, _ in doc["eigenvalues"])
    eigs = doc["eigenvalues"]
    assert eigs == sorted(eigs, key=lambda p: (-p[0], p[1]))


def test_spectrum_json_is_the_report_json(capsys):
    # one serializer: the CLI payload is the report's own JSON plus manifest
    code, doc = run_json(capsys, ["spectrum"] + FIG4_FLAGS + ["--gain", "-3"])
    assert code == EXIT_OK
    doc.pop("manifest")
    report = assemble_spectrum(ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0,
                                           to_log_der=8.0, control_slope=-3.0))
    assert doc == json.loads(report.to_json())


def test_spectrum_uncontrolled_default_unstable(capsys):
    # default f_der = 0: the fast eigenvalue 5/4 survives
    code, doc = run_json(capsys, ["spectrum"])
    assert code == EXIT_OK
    assert doc["verdict"] == "Unstable"
    assert [1.25, 0.0] in doc["eigenvalues"]


def test_config_file_merging(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"f-der": -3.0, "to-log-der": 8.0,
                                  "gain": 0.0}))
    code, doc = run_json(capsys, ["spectrum", "--config", str(config),
                                  "--gain", "-3"])
    assert code == EXIT_OK
    # the explicit flag overrides the config value
    assert doc["manifest"]["parameters"]["gain"] == -3.0
    assert doc["verdict"] == "Stable"


def test_config_keys_the_subcommand_does_not_read(tmp_path, capsys):
    config = tmp_path / "run.json"
    for key, value in (("tol", 1e-3), ("bogus", 1), ("eps", 0.1)):
        config.write_text(json.dumps({"f-der": -3.0, key: value}))
        assert dispatch(["spectrum", "--config", str(config)]) == EXIT_USAGE, key
        assert key in capsys.readouterr().err
    # verify reads tol from a config file as from its flag
    config.write_text(json.dumps({"tol": 1e-30}))
    code, doc = run_json(capsys, ["verify", "--config", str(config)])
    assert code == EXIT_NUMERICAL
    assert doc["manifest"]["parameters"] == {"tol": 1e-30}
    oracle = [c for c in doc["checks"]
              if c["name"].startswith("oracle_equivalence")]
    assert oracle and all(c["tolerance"] == 1e-30 for c in oracle)


def test_region_outputs(tmp_path, capsys):
    out = tmp_path / "plane"
    code, doc = run_json(capsys, ["region", "--grid", "16", "--out", str(out)])
    assert code == EXIT_OK
    # every field of every cell, None as an empty field; this grid has
    # boundary tags and degenerate-line errors
    cells = sweep_to_dict(sweep_plane(n_f=16, n_nu=16, threads=1))["cells"]
    assert any(cell["boundary_tag"] for cell in cells)
    assert any(cell["error"] for cell in cells)
    with open(tmp_path / "plane.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(cells) == 256
    for row, cell in zip(rows, cells):
        assert list(row) == list(cell)
        assert row == {k: "" if v is None else str(v) for k, v in cell.items()}
    boundaries = json.loads((tmp_path / "plane_boundaries.json").read_text())
    assert set(boundaries) == {"manifest", "hopf", "fold"}
    assert doc["cells"] == 256


def test_out_of_memory_is_a_numerical_failure(monkeypatch, capsys):
    def out_of_memory(params):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr(cli, "assemble_spectrum", out_of_memory)
    assert dispatch(["spectrum"] + FIG4_FLAGS) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "numerical failure: Unable to allocate 1.00 TiB for an array\n"


def test_region_without_out_prints_the_sweep(capsys):
    code, doc = run_json(capsys, ["region", "--grid", "5", "--min-gain"])
    assert code == EXIT_OK
    manifest = doc.pop("manifest")
    assert manifest["subcommand"] == "region"
    assert manifest["parameters"] == {"grid": 5, "min-gain": True}
    sweep = sweep_plane(n_f=5, n_nu=5, include_min_gain=True)
    assert doc == json.loads(json.dumps(sweep_to_dict(sweep)))
    assert any(cell["min_gain"] for cell in doc["cells"])


def test_simulate_quick_run(tmp_path, capsys):
    out = tmp_path / "trace"
    code, doc = run_json(capsys, ["simulate"] + FIG4_FLAGS +
                         ["--t-end", "0.05", "--out", str(out)])
    assert code == EXIT_OK
    assert doc["verdict"] in ("Stable", "Unstable")
    assert doc["diagnostics"]["n_steps"] > 0
    assert doc["diagnostics"]["relax_steps"] >= 1
    assert doc["diagnostics"]["relax_residual"] <= doc["diagnostics"]["relax_tol"]
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "t,deviation_norm"
    assert len(lines) > 5


def test_simulate_verdict_follows_early_exit(capsys):
    # --eta 5 leaves the linear regime within a few steps, too few samples
    # to fit a rate (reported as 0.0); the run still grew
    code, doc = run_json(capsys, ["simulate"] + FIG4_FLAGS +
                         ["--eps", "0.1", "--t-end", "0.5", "--eta", "5"])
    assert code == EXIT_OK
    assert doc["early_exit"] == "unstable"
    assert doc["fitted_rate"] == 0.0
    assert doc["verdict"] == "Unstable"


def test_simulate_refuses_a_deviation_below_the_floor(capsys):
    # the run would end as stable at its first step, though Fig. 4 at zero
    # gain is unstable
    code = dispatch(["simulate"] + FIG4_FLAGS +
                    ["--eps", "0.1", "--t-end", "1", "--eta", "1e-13"])
    assert code == EXIT_DOMAIN
    assert "eta = 1e-13" in capsys.readouterr().err


def test_simulate_decay_to_the_floor_is_stable(capsys):
    # Fig. 4 under gain -3, past its minimal gain: the deviation decays
    # below the relaxation floor 1e-12 before t_end, which ends the run
    code, doc = run_json(capsys, ["simulate"] + FIG4_FLAGS +
                         ["--gain", "-3", "--eps", "0.1", "--t-end", "30",
                          "--eta", "1e-11"])
    assert code == EXIT_OK
    assert doc["early_exit"] == "stable"
    assert doc["verdict"] == "Stable"
    assert doc["fitted_rate"] < 0.0


def test_tol_only_on_verify(capsys):
    # spectrum, region and simulate have no tolerance to set, and the
    # spectrum and the sweep no eps; the other flags keep each run short
    # should one be accepted
    for argv in (["spectrum", "--tol", "1e-3"],
                 ["region", "--grid", "2", "--tol", "1e-3"],
                 ["simulate"] + FIG4_FLAGS + ["--t-end", "0.01", "--tol", "1e-3"],
                 ["region", "--grid", "2", "--eps", "1"],
                 ["spectrum", "--eps", "1"]):
        assert dispatch(argv) == EXIT_USAGE, argv
    # verify applies it to the oracle-equivalence checks
    code, doc = run_json(capsys, ["verify", "--tol", "1e-30"])
    assert code == EXIT_NUMERICAL
    assert doc["manifest"]["parameters"] == {"tol": 1e-30}
    oracle = [c for c in doc["checks"]
              if c["name"].startswith("oracle_equivalence")]
    assert oracle and all(c["tolerance"] == 1e-30 for c in oracle)
    assert not any(c["pass"] for c in oracle)


def test_negative_numbers_with_an_exponent(capsys):
    # argparse's own pattern reads -3e0 as a flag, not as a number
    def payload(argv):
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK, argv
        doc["manifest"].pop("timestamp")
        return doc

    fig4 = ["--u-star", "1", "--f-val", "1", "--to-log-der", "8"]
    for argv, plain in (
            (["spectrum", "--f-der", "-3e0"] + fig4, ["spectrum", "--f-der", "-3"] + fig4),
            (["spectrum", "--gain", "-3E0"] + FIG4_FLAGS, ["spectrum", "--gain", "-3"] + FIG4_FLAGS),
            (["simulate", "--eta", "-1e-4", "--t-end", "0.01"] + FIG4_FLAGS,
             ["simulate", "--eta", "-0.0001", "--t-end", "0.01"] + FIG4_FLAGS)):
        assert payload(argv) == payload(plain), argv
    assert dispatch(["spectrum", "--f-der", "-x"]) == EXIT_USAGE


def test_verify_tol_must_be_positive_and_finite(tmp_path, capsys):
    # inf would pass the oracle-equivalence checks whatever their error,
    # and 0, a negative or NaN none: each is refused before the checks run
    config = tmp_path / "run.json"
    for tol in ("inf", "nan", "0", "-1"):
        assert dispatch(["verify", "--tol", tol]) == EXIT_DOMAIN, tol
        assert "tol must be positive and finite" in capsys.readouterr().err
        config.write_text(json.dumps({"tol": float(tol)}))
        assert dispatch(["verify", "--config", str(config)]) == EXIT_DOMAIN, tol
        assert "tol must be positive and finite" in capsys.readouterr().err


def test_verify_all_pass(capsys):
    code, doc = run_json(capsys, ["verify"])
    assert code == EXIT_OK
    assert doc["all_pass"] is True
    assert len(doc["checks"]) >= 20
    for check in doc["checks"]:
        assert check["pass"], check["name"]


def test_config_must_hold_an_object(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("[1, 2]")
    assert dispatch(["spectrum", "--config", str(config)]) == EXIT_DOMAIN
    assert "config file must hold a JSON object" in capsys.readouterr().err


def test_config_values_have_their_flags_types(tmp_path, capsys):
    # a number for a float flag, an integer for grid, threads and seed, a
    # boolean for min-gain and a string for shape; nothing is coerced
    config = tmp_path / "run.json"
    for argv, data in ((["region"], {"min-gain": "false", "grid": 2}),
                       (["region"], {"grid": 3.9}),
                       (["region"], {"grid": True}),
                       (["region"], {"grid": 2, "threads": 1.0}),
                       (["region"], {"grid": 2, "min-gain": 1}),
                       (["region"], {"grid": 2, "u-star": "1"}),
                       (["spectrum"], {"f-der": "-3"}),
                       (["spectrum"], {"gain": False}),
                       (["spectrum"], {"gain": None}),
                       (["simulate", "--t-end", "0.01"], {"seed": 1.5}),
                       (["simulate", "--t-end", "0.01"], {"shape": 1}),
                       (["verify"], {"tol": [1e-4]})):
        config.write_text(json.dumps(data))
        assert dispatch(argv + ["--config", str(config)]) == EXIT_USAGE, data
        assert "types" in capsys.readouterr().err, data
    # JSON integers are numbers, so they serve float flags
    config.write_text(json.dumps({"f-der": -3, "to-log-der": 8, "gain": -3}))
    code, doc = run_json(capsys, ["spectrum", "--config", str(config)])
    assert code == EXIT_OK and doc["verdict"] == "Stable"


def test_threads_below_one_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"grid": 2, "threads": 0}))
    assert dispatch(["region", "--config", str(config)]) == EXIT_USAGE
    assert dispatch(["region", "--grid", "2", "--threads", "-1"]) == EXIT_USAGE
    assert "threads" in capsys.readouterr().err
