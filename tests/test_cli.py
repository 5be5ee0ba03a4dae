"""Command-line interface, exercised in process through main() and once in a
fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dimcert import cli
from dimcert.cli import main
from dimcert.states import rho_w, write_state_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- boundary -------------------------------------------------------------

def test_boundary_csv_layout(capsys):
    code, out, _ = run(capsys, "boundary", "--d", "3", "--grid", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    assert config["command"] == "boundary"
    assert config["d"] == 3 and config["grid"] == 5
    assert lines[1] == "s2,f_r1,f_r2,f_r3,outer"
    assert len(lines) == 2 + 5
    # r=1 curve ends at s2=1: the last grid point (s2=2) must be nan there
    last = lines[-1].split(",")
    assert last[1] == "nan"
    assert abs(float(last[3]) - 5 / 3) < 1e-12


def test_boundary_csv_full_precision(capsys):
    _, out, _ = run(capsys, "boundary", "--d", "3", "--grid", "3",
                    "--r", "3")
    row = out.strip().split("\n")[-1].split(",")
    # round-trip through 17 significant digits is exact for doubles
    assert float(row[1]) == 5 / 3


def test_boundary_json_and_r_subset(capsys):
    code, out, _ = run(capsys, "boundary", "--d", "4", "--grid", "4",
                       "--r", "2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["s2", "f_r2", "f_r3"]
    assert len(payload["rows"]) == 4
    assert payload["config"]["r"] == [2, 3]


def test_boundary_out_file(tmp_path, capsys):
    target = tmp_path / "b.csv"
    code, out, _ = run(capsys, "boundary", "--d", "3", "--grid", "4",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# config: ")


# --- certify --------------------------------------------------------------

@pytest.mark.parametrize("argv", [("--r", "1,x"), ("--r", "4"), ("--r", "0"),
                                  ("--grid", "1")],
                         ids=["r-not-int", "r-above-d", "r-zero", "grid-1"])
def test_boundary_rejects_bad_r_list_and_grid(capsys, argv):
    code, out, err = run(capsys, "boundary", "--d", "3", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_certify_rho_w(capsys):
    code, out, _ = run(capsys, "certify", "--state", "rho-w")
    assert code == 0
    payload = json.loads(out)
    report = payload["report"]
    assert report["best_bound"] == 3
    by_id = {c["criterion_id"]: c for c in report["certificates"]}
    assert by_id["ccnr"]["certified_lower_bound"] == 3
    assert by_id["trace_norm"]["certified_lower_bound"] == 3
    assert by_id["fidelity"]["certified_lower_bound"] <= 2


def test_certify_family_b(capsys):
    code, out, _ = run(capsys, "certify", "--state", "family-b",
                       "--lambda", "0.9")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["lambda"] == 0.9
    assert payload["report"]["best_bound"] >= 2


def test_certify_state_file_round_trip(tmp_path, capsys):
    path = tmp_path / "state.json"
    write_state_json(rho_w(), str(path))
    code, out, _ = run(capsys, "certify", "--state-file", str(path))
    assert code == 0
    assert json.loads(out)["report"]["best_bound"] == 3


def test_certify_reruns_identical(capsys):
    _, out_a, _ = run(capsys, "certify", "--state", "isotropic",
                      "--d", "3", "--p", "0.25")
    _, out_b, _ = run(capsys, "certify", "--state", "isotropic",
                      "--d", "3", "--p", "0.25")
    assert out_a == out_b


# --- simulate -------------------------------------------------------------

def test_simulate_me3_detects_three(capsys):
    code, out, _ = run(capsys, "simulate", "--state", "max-entangled",
                       "--d", "3", "--n", "10000", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["seed"] == 1
    res = payload["result"]
    assert res["certificate"]["certified_lower_bound"] == 3
    assert res["estimate"]["n_samples"] == 10000
    assert abs(res["estimate"]["s2"] - 2.0) < 0.3


def test_simulate_seeded_reruns_identical(capsys):
    args = ("simulate", "--state", "isotropic", "--d", "3", "--p", "0.2",
            "--n", "2000", "--seed", "77")
    _, out_a, _ = run(capsys, *args)
    _, out_b, _ = run(capsys, *args)
    assert out_a == out_b


def test_simulate_defaulted_seed_echoed_and_replayable(capsys):
    code, out, _ = run(capsys, "simulate", "--state", "max-entangled",
                       "--d", "3", "--n", "1000")
    assert code == 0
    seed = json.loads(out)["config"]["seed"]
    code2, out2, _ = run(capsys, "simulate", "--state", "max-entangled",
                         "--d", "3", "--n", "1000", "--seed", str(seed))
    assert code2 == 0
    assert out2 == out


def test_simulate_samples_out(tmp_path, capsys):
    target = tmp_path / "x.csv"
    code, out, _ = run(capsys, "simulate", "--state", "max-entangled",
                       "--d", "3", "--n", "500", "--seed", "3",
                       "--samples-out", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert lines[1] == "x"
    assert len(lines) == 2 + 500
    vals = np.array([float(v) for v in lines[2:]])
    assert np.all(np.isfinite(vals))
    # sanity: the JSON estimate must be reproducible from the raw dump
    s2 = json.loads(out)["result"]["estimate"]["s2"]
    assert abs(16 * np.mean(vals ** 2) - s2) < 1e-12


# --- scatter --------------------------------------------------------------

def test_scatter_csv(capsys):
    code, out, _ = run(capsys, "scatter", "--d", "3", "--n", "20",
                       "--seed", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "s2,s4,kind,rank"
    assert len(lines) == 2 + 20
    first = lines[2].split(",")
    assert first[2] in ("pure", "mixed")
    assert int(first[3]) >= 1


def test_scatter_seeded_rerun_identical(capsys):
    args = ("scatter", "--d", "3", "--n", "15", "--seed", "6")
    _, out_a, _ = run(capsys, *args)
    _, out_b, _ = run(capsys, *args)
    assert out_a == out_b


# --- noise tolerance ------------------------------------------------------

def test_noise_tolerance_small_run(capsys):
    code, out, _ = run(capsys, "noise-tolerance", "--d", "3", "--r", "3",
                       "--n", "1000", "--seed", "2", "--k", "1")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["analytic_threshold"] == 0.375
    assert 0.0 <= res["simulated_threshold"] <= 1.0
    assert len(res["evaluations"]) >= 3


# --- JSON shape -----------------------------------------------------------

_CERTIFICATE = ("criterion_id", "certified_lower_bound", "margin", "details")
_SIMULATE_KEYS = {
    "": {("config", "result")},
    "/config": {("command", "state", "d", "p", "n", "seed", "k", "path")},
    "/result": {("certificate", "estimate", "k_sigma")},
    "/result/certificate": {_CERTIFICATE},
    "/result/certificate/details": {("per_r", "mode", "k_sigma")},
    "/result/certificate/details/per_r/*": {
        ("r", "endpoint", "curve_value", "cap_margin", "curve_margin",
         "sigma_curve", "violated")},
    # the raw samples go to --samples-out only
    "/result/estimate": {("s2", "s4", "n_samples", "path", "seed", "std_s2",
                          "std_s4", "cov_s2s4")},
}
_SIMULATE = ["simulate", "--state", "isotropic", "--d", "3", "--p", "0.2",
             "--n", "1000", "--seed", "1"]
_JSON_SHAPES = {
    "certify": (["certify", "--state", "rho-w"], {
        "": {("config", "report")},
        "/config": {("command", "state")},
        "/report": {("dim_a", "dim_b", "best_bound", "certificates")},
        "/report/certificates/*": {_CERTIFICATE},
        "/report/certificates/*/details": {
            ("per_r", "su_trace_norm"), ("per_r", "xi_sum"),
            ("per_r", "su_two_norm_sq"),
            ("per_r", "fidelity", "target_schmidt_coefficients", "target",
             "targets_tested"),
            ("per_r",), ("per_r", "cross_trace_norm", "purity_a", "purity_b")},
        "/report/certificates/*/details/per_r/*": {
            ("r", "lhs", "rhs", "violated"), ("r", "violated"),
            ("r", "min_eigenvalue", "violated")},
    }),
    "simulate-haar": (_SIMULATE + ["--path", "haar"], _SIMULATE_KEYS),
    "simulate-bloch": (_SIMULATE + ["--path", "bloch"], _SIMULATE_KEYS),
    "noise-tolerance": (["noise-tolerance", "--d", "3", "--r", "3", "--n",
                         "1000", "--seed", "2", "--k", "1"], {
        "": {("config", "result")},
        "/config": {("command", "d", "r", "n", "seed", "k", "path")},
        "/result": {("dim", "target_bound", "n_tot", "k_sigma", "path",
                     "simulated_threshold", "analytic_threshold",
                     "evaluations")},
        "/result/evaluations/*": {("p", "bound")},
    }),
}
# the JSON type of a value by its key: counts are ints, names strings,
# verdicts bools and every other value a float
_INT_KEYS = {"d", "n", "r", "seed", "dim", "dim_a", "dim_b", "best_bound",
             "certified_lower_bound", "n_samples", "target_bound", "n_tot",
             "bound"}
_STR_KEYS = {"command", "state", "path", "criterion_id", "target",
             "targets_tested", "mode"}


def _key_lists(value, path, keys, leaves):
    """Collect the key lists of the objects in a JSON document by path, an
    item of a list under its list's path plus "/*", and every other value
    with its path."""
    if isinstance(value, dict):
        keys.setdefault(path, set()).add(tuple(value))
        for key, item in value.items():
            _key_lists(item, f"{path}/{key}", keys, leaves)
    elif isinstance(value, list):
        for item in value:
            _key_lists(item, f"{path}/*", keys, leaves)
    else:
        leaves.append((path, value))


@pytest.mark.parametrize("name", _JSON_SHAPES)
def test_json_key_lists_and_value_types(tmp_path, capsys, name):
    argv, expected = _JSON_SHAPES[name]
    if argv[0] == "simulate":
        argv = argv + ["--samples-out", str(tmp_path / "x.csv")]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    keys, leaves = {}, []
    _key_lists(json.loads(out), "", keys, leaves)
    assert keys == expected
    for path, value in leaves:
        key = path.replace("/*", "").rsplit("/", 1)[-1]
        kind = (bool if key == "violated" else int if key in _INT_KEYS
                else str if key in _STR_KEYS else float)
        assert type(value) is kind, (path, value)


# --- failure modes --------------------------------------------------------

def test_unknown_state_exits_one(capsys):
    code, _, err = run(capsys, "certify", "--state", "bogus")
    assert code == 1
    assert "error" in err


def test_missing_required_dimension_exits_one(capsys):
    code, _, err = run(capsys, "certify", "--state", "max-entangled")
    assert code == 1
    assert "--d" in err


def test_both_state_flags_exit_one(tmp_path, capsys):
    path = tmp_path / "s.json"
    write_state_json(rho_w(), str(path))
    code, _, err = run(capsys, "certify", "--state", "rho-w",
                       "--state-file", str(path))
    assert code == 1
    assert "exactly one" in err


def test_csv_format_rejected_for_certify(capsys):
    code, _, err = run(capsys, "certify", "--state", "rho-w",
                       "--format", "csv")
    assert code == 1
    assert "format" in err


@pytest.mark.parametrize("argv", [
    ["certify", "--state", "rho-w"],
    ["simulate", "--state", "isotropic", "--d", "3", "--p", "0.2",
     "--n", "1000", "--seed", "1"],
    ["noise-tolerance", "--d", "3", "--r", "2", "--n", "200", "--seed", "1"],
], ids=["certify", "simulate", "noise-tolerance"])
def test_format_rejected_where_output_is_json_only(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert out == ""
    assert "--format" in err


@pytest.mark.parametrize("argv", [
    ["boundary", "--d", "3", "--grid", "4"],
    ["scatter", "--d", "3", "--n", "5", "--seed", "2"],
], ids=["boundary", "scatter"])
def test_format_picks_the_table_of_boundary_and_scatter(capsys, argv):
    default, csv, js, bad = (run(capsys, *argv, *fmt) for fmt in (
        [], ["--format", "csv"], ["--format", "json"], ["--format", "xml"]))
    assert default == csv and csv[0] == js[0] == 0
    lines = csv[1].strip().split("\n")
    payload = json.loads(js[1])
    assert payload["config"]["format"] == "json"
    assert payload["columns"] == lines[1].split(",")
    assert len(payload["rows"]) == len(lines) - 2
    assert bad[0] == 1 and "--format" in bad[2]


def test_corrupt_state_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "certify", "--state-file", str(bad))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("content", [b"5", b"null", b"\xff\xfe{}"],
                         ids=["int", "null", "undecodable"])
def test_state_file_not_a_json_object_exits_one(tmp_path, capsys, content):
    path = tmp_path / "odd.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "certify", "--state-file", str(path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err


def test_non_finite_state_file_exits_one(tmp_path, capsys):
    path = tmp_path / "nan.json"
    mat = np.eye(9) / 9
    mat[4, 4] = np.nan
    path.write_text(json.dumps({"dim_a": 3, "dim_b": 3, "re": mat.tolist(),
                                "im": np.zeros((9, 9)).tolist()}))
    code, out, err = run(capsys, "certify", "--state-file", str(path))
    assert code == 1
    assert out == ""
    assert "non-finite" in err
    assert "Traceback" not in err


def test_linear_algebra_failure_exits_two(monkeypatch, capsys):
    import dimcert.cli

    def fail(rho):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(dimcert.cli, "compare_all", fail)
    code, _, err = run(capsys, "certify", "--state", "rho-w")
    assert code == 2
    assert err.strip() == "numerical failure: SVD did not converge"


def test_numerical_consistency_failure_exits_two(monkeypatch, capsys):
    # a basis that is not orthonormal fails the correlation build's check
    # of ||X||_F^2 = tr(rho^2)
    from dimcert import correlations

    basis = correlations._basis_matrix
    monkeypatch.setattr(correlations, "_basis_matrix",
                        lambda d: basis(d) * 1.01)
    code, out, err = run(capsys, "certify", "--state", "rho-w")
    assert code == 2
    assert out == ""
    assert err.startswith("numerical consistency failure")


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)",
     "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
    ("", "out of memory"),
])
def test_memory_error_exits_one(monkeypatch, capsys, message, shown):
    # stands in for numpy's allocation error on a huge --n; nothing large
    # is allocated here
    import dimcert.cli

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(dimcert.cli, "detect_with_confidence", fail)
    code, out, err = run(capsys, "simulate", "--state", "isotropic",
                         "--d", "3", "--p", "0.1", "--n", "1000000000000",
                         "--seed", "1")
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: {shown}"


def test_missing_state_file_exits_one(tmp_path, capsys):
    code, _, _ = run(capsys, "certify",
                     "--state-file", str(tmp_path / "absent.json"))
    assert code == 1


@pytest.mark.parametrize("d", ["0", "-1"])
def test_boundary_dimension_below_two_exits_one(capsys, d):
    code, out, err = run(capsys, "boundary", "--d", d, "--grid", "3")
    assert code == 1
    assert out == ""
    assert "--d" in err


def test_unwritable_out_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "boundary", "--d", "3", "--grid", "3",
                       "--out", str(tmp_path / "no" / "dir" / "f.csv"))
    assert code == 1
    assert "I/O" in err


def test_negative_seed_exits_one(capsys):
    code, _, err = run(capsys, "simulate", "--state", "max-entangled",
                       "--d", "3", "--n", "1000", "--seed", "-4")
    assert code == 1
    assert "seed" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0


@pytest.mark.parametrize("bad", [
    ["simulate", "--state", "isotropic", "--d", "3", "--path", "uniform"],
    ["simulate", "--state", "isotropic", "--d", "3", "--p", "0.5",
     "--n", "10", "--seed", "1"],
], ids=["parse-error", "run-error"])
def test_reused_parser_matches_fresh_parsers(capsys, bad):
    # main builds its parser once per process; a failed call must not leave
    # anything behind that changes the next one
    good = ["simulate", "--state", "isotropic", "--d", "3", "--p", "0.5",
            "--n", "1000", "--seed", "4"]
    fresh = []
    for argv in (bad, good):
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    reused = [run(capsys, *argv) for argv in (bad, good)]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [1, 0]
    assert cli._parser() is cli._parser()


_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    import numpy
    lazy_random = "numpy.random" not in sys.modules
    import dimcert, dimcert.cli
    with contextlib.redirect_stdout(io.StringIO()):
        certify = dimcert.cli.main(["certify", "--state", "rho-w"])
        loaded = sorted(m for m in ("concurrent.futures", "secrets", "numpy.random")
                        if m in sys.modules)
        simulate = dimcert.cli.main(["simulate", "--state", "isotropic",
                                     "--d", "3", "--p", "0.2", "--n", "1000"])
    print(json.dumps({"lazy_random": lazy_random, "certify": certify,
                      "loaded": loaded, "simulate": simulate,
                      "random_after": "numpy.random" in sys.modules}))
""")


def test_exact_run_leaves_sampling_stack_unloaded():
    # a fresh interpreter: an exact certify loads no thread pool, no secrets
    # and, where numpy loads it lazily (numpy >= 2), no numpy.random
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    probe = json.loads(res.stdout)
    assert probe["certify"] == 0 and probe["simulate"] == 0
    unloaded = {"concurrent.futures", "secrets"}
    if probe["lazy_random"]:
        unloaded.add("numpy.random")
    assert not unloaded & set(probe["loaded"]), probe["loaded"]
    assert probe["random_after"]
