import json
import platform

import numpy as np
import pytest
import scipy

from minvec import cli
from minvec.cli import main
from minvec.errors import NumericalError


def run(argv):
    return main(argv)


def test_verify_pass_and_report(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--pn", "3,1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"]
    assert doc["results"][0]["theta_count"] == 8
    assert doc["results"][0]["convolution"]["density"] == "1/6"
    assert "config_hash" in doc
    assert doc["versions"]["python"] == platform.python_version()
    assert doc["versions"]["numpy"] == np.__version__


def test_verify_error_entries_name_their_type(tmp_path):
    # a size guard reads apart from a failed check; passing entries carry no type
    out = tmp_path / "r.json"
    assert run(["verify", "--pn", "3,1;3,5", "--out", str(out)]) == 1
    passed, guarded = json.loads(out.read_text())["results"]
    assert passed["ok"] and "error_type" not in passed
    assert not guarded["ok"] and guarded["error_type"] == "SizeGuard"
    assert "exceeds configured bound" in guarded["error"]


def test_verify_size_guards_keep_their_texts(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--pn", "3,1;59,1;3,4;11,2;101,1", "--out", str(out)]) == 1
    results = json.loads(out.read_text())["results"]
    assert results[0]["ok"]
    assert [(r["error_type"], r["error"]) for r in results[1:]] == [
        ("SizeGuard", "unit enumeration for p=59, m=2 exceeds configured bound"),
        ("SizeGuard", "unit enumeration for p=3, m=8 exceeds configured bound"),
        ("SizeGuard", "unit enumeration for p=11, m=4 exceeds configured bound"),
        ("SizeGuard", "unit enumeration for p=101, m=2 exceeds configured bound"),
    ]


def test_verify_samples_pairs_beyond_10_to_the_5_units(tmp_path):
    # unit groups of 129960, 375000 and 472392 elements, within the enumeration bound
    out = tmp_path / "r.json"
    assert run(["verify", "--pn", "19,1;5,2;3,3", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert [(r["p"], r["n"], r["theta_count"]) for r in results] == [
        (19, 1, 360), (5, 2, 600), (3, 3, 648)]
    for r in results:
        conv = r["convolution"]
        assert r["ok"] and conv["mode"] == "random" and conv["pairs"] == 100000
        assert conv["closure_violations"] == conv["multiplicativity_violations"] == 0


@pytest.mark.parametrize("N", [19, 25])
def test_scan_supnorm_beyond_10_to_the_5_units(tmp_path, N):
    # levels 19 and 25 are ramified at (19,1) and (5,2)
    out = tmp_path / "r.json"
    assert run(["scan-supnorm", "--N", str(N), "--k", "12", "--out", str(out),
                "--samples", str(tmp_path / "s.csv")]) == 0
    doc = json.loads(out.read_text())
    assert np.isfinite(doc["sup"]) and doc["sup"] >= doc["witness"] > 0


def test_invalid_even_prime_exits_config(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--pn", "2,1", "--out", str(out)]) == 2


def test_bad_theta_index_exits_config(tmp_path):
    out = tmp_path / "r.json"
    assert run(["whittaker", "--p", "3", "--n", "1", "--theta-index", "99",
                "--out", str(out), "--samples", str(tmp_path / "s.csv")]) == 2


def test_whittaker_subcommand_support(tmp_path):
    out = tmp_path / "r.json"
    samples = tmp_path / "s.csv"
    assert run(["whittaker", "--p", "3", "--n", "1",
                "--out", str(out), "--samples", str(samples)]) == 0
    doc = json.loads(out.read_text())
    assert doc["support_classes"] == [doc["support_unit"]]
    assert samples.read_text().startswith("unit_class,")


def test_character_table_deterministic(tmp_path):
    args = ["character-table", "--p", "3", "--n", "1"]
    out1, s1 = tmp_path / "a.json", tmp_path / "a.csv"
    out2, s2 = tmp_path / "b.json", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1), "--samples", str(s1)]) == 0
    assert run(args + ["--out", str(out2), "--samples", str(s2)]) == 0
    assert s1.read_text() == s2.read_text()
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["config_hash"] == d2["config_hash"]
    assert d1["a_theta"] == d2["a_theta"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("# settings\np = 5\nn = 1\nout = unused.json\n")
    out = tmp_path / "r.json"
    samples = tmp_path / "s.csv"
    # flag --p 3 must beat the config file's p = 5
    assert run(["--config", str(cfg), "character-table", "--p", "3",
                "--out", str(out), "--samples", str(samples)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["p"] == 3
    assert doc["config"]["n"] == 1  # n came from the config file


def test_malformed_config_exits_config(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("this line has no equals sign\n")
    assert run(["--config", str(cfg), "verify"]) == 2


def test_missing_config_file_exits_config(tmp_path):
    assert run(["--config", str(tmp_path / "nope.ini"), "verify"]) == 2


def test_scan_requires_weight_or_spectral(tmp_path):
    assert run(["scan-supnorm", "--N", "1", "--out", str(tmp_path / "r.json"),
                "--samples", str(tmp_path / "s.csv")]) == 2


def test_scan_supnorm_runs_and_reports(tmp_path):
    out = tmp_path / "r.json"
    samples = tmp_path / "s.csv"
    assert run(["scan-supnorm", "--N", "3", "--k", "12",
                "--out", str(out), "--samples", str(samples)]) == 0
    doc = json.loads(out.read_text())
    assert doc["sup"] >= doc["witness"] > 0
    assert samples.read_text().startswith("y,")
    # counters: terms summed and transform points computed over all rows
    assert isinstance(doc["terms"], int) and isinstance(doc["fft_points"], int)
    rows = len(samples.read_text().splitlines()) - 1
    assert doc["fft_points"] >= 2 * doc["terms"] - rows > 0
    assert set(doc["versions"]) == {"python", "numpy", "scipy"}
    assert doc["versions"]["scipy"] == scipy.__version__


def test_maass_scan_whose_largest_cutoff_is_above_the_bottom_row_reports(tmp_path):
    # at N = 3, t = 5 a row near y = 0.97 needs R = 67, more than the bottom
    # row's 59; the scan sieves up to its plan's largest cutoff and finishes
    out, samples = tmp_path / "r.json", tmp_path / "s.csv"
    assert run(["scan-supnorm", "--N", "3", "--t", "5",
                "--out", str(out), "--samples", str(samples)]) == 0
    doc = json.loads(out.read_text())
    assert np.isfinite(doc["sup"]) and doc["sup"] >= doc["witness"] > 0
    lines = samples.read_text().splitlines()
    assert lines[0].startswith("y,") and len(lines) > 1


def test_que_subcommand(tmp_path):
    out = tmp_path / "r.json"
    assert run(["que", "--grid", "3,1;5,1", "--a3", "0,1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert row["distinguished"] == (row["a3"] % 2 == 0)


def test_numerical_error_exits_one(monkeypatch, tmp_path, capsys):
    def fail(args):
        raise NumericalError("tail instability")
    monkeypatch.setitem(cli._DISPATCH, "verify", fail)
    assert run(["verify", "--pn", "3,1", "--out", str(tmp_path / "r.json")]) == 1
    assert "verification failure: tail instability" in capsys.readouterr().err


def test_maass_normalization_underflow_exits_one(monkeypatch, tmp_path, capsys):
    def no_bessel(t, x):
        raise AssertionError("the scan must stop before any Bessel quadrature")
    monkeypatch.setattr("minvec.global_whittaker.bessel_K_imag", no_bessel)
    out = tmp_path / "r.json"
    assert run(["scan-supnorm", "--N", "1", "--t", "500", "--out", str(out),
                "--samples", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert "verification failure: archimedean normalization at t = 500" in err
    assert not out.exists()


# each argv ends in a flag its command does not read, and that flag's value
@pytest.mark.parametrize("argv", [["character-table", "--seed", "1"], ["whittaker", "--seed", "1"],
                                  ["scan-supnorm", "--N", "1", "--k", "12", "--seed", "1"],
                                  ["que", "--seed", "1"], ["matrix-coeff", "--samples", "s.csv"]])
def test_seed_is_a_usage_error_where_unread(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


# runs covering every subcommand, as config-file keys and values: a value
# from the config file goes through the flag's converter, so the report does
# not depend on where a value came from
SAME_RUN = [("verify", {"pn": "3,1", "seed": "2"}),
            ("character-table", {"p": "3", "n": "1", "theta_index": "1"}),
            ("whittaker", {"p": "5", "n": "1", "theta_index": "1"}),
            ("matrix-coeff", {"p": "3", "n": "1", "theta_index": "1", "seed": "3"}),
            ("scan-supnorm", {"N": "3", "k": "12", "coeffs": "sato-tate:1"}),
            ("scan-supnorm", {"N": "1", "t": "2"}),
            ("que", {"grid": "3,1", "a3": "0,2"})]


@pytest.mark.parametrize("command, values", SAME_RUN,
                         ids=[f"{c}-{'-'.join(v)}" for c, v in SAME_RUN])
def test_flags_and_config_file_give_the_same_report(command, values, tmp_path):
    samples = [] if command in ("verify", "matrix-coeff", "que") else ["samples"]
    flags = [command]
    for key, value in values.items():
        flags += ["--" + key.replace("_", "-"), value]
    for name in ["out", *samples]:
        flags += ["--" + name, str(tmp_path / f"flag_{name}")]
    cfg = tmp_path / "run.ini"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items())
                   + "".join(f"{name} = {tmp_path / f'file_{name}'}\n" for name in ["out", *samples]))
    assert run(flags) == 0
    assert run(["--config", str(cfg), command]) == 0
    by_flag = json.loads((tmp_path / "flag_out").read_text())
    by_file = json.loads((tmp_path / "file_out").read_text())
    assert by_flag["config"] == by_file["config"]
    assert by_flag["config_hash"] == by_file["config_hash"]
    by_flag.pop("samples_file", None), by_file.pop("samples_file", None)
    assert by_flag == by_file
    for name in samples:
        assert (tmp_path / f"flag_{name}").read_text() == (tmp_path / f"file_{name}").read_text()


@pytest.mark.parametrize("config, argv", [("p = x\n", ["character-table"]),
                                          ("", ["que", "--a3", "x"]),
                                          ("", ["verify", "--pn", "3"]),
                                          ("", ["scan-supnorm", "--k", "12", "--coeffs", "sato-tate:x"])],
                         ids=["config-p", "a3", "pn", "coeffs"])
def test_malformed_value_exits_config(config, argv, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "r.json"
    assert run(["--config", str(cfg), *argv, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


# values that parse but lie outside their option's range: p an odd prime, n and
# each level of pn and grid at least 1, N a positive odd integer, seed at least 0
@pytest.mark.parametrize("config, argv", [("", ["character-table", "--n", "0"]),
                                          ("", ["character-table", "--p", "4"]),
                                          ("", ["character-table", "--p", "9"]),
                                          ("n = 0\n", ["whittaker"]),
                                          ("", ["verify", "--pn", "3,0"]),
                                          ("", ["que", "--grid", "3,0"]),
                                          ("", ["que", "--grid", "3,1;9,1"]),
                                          ("", ["scan-supnorm", "--N", "0", "--k", "12"]),
                                          ("", ["scan-supnorm", "--N", "-3", "--k", "12"]),
                                          ("", ["scan-supnorm", "--N", "6", "--k", "12"]),
                                          ("", ["verify", "--pn", "3,2", "--seed", "-1"]),
                                          ("", ["verify", "--pn", "3,1", "--seed", "-1"]),
                                          ("", ["matrix-coeff", "--p", "3", "--n", "2",
                                                "--seed", "-1"]),
                                          ("", ["matrix-coeff", "--p", "3", "--n", "1",
                                                "--seed", "-7"]),
                                          ("seed = -2\n", ["verify", "--pn", "3,2"])],
                         ids=["n0", "p4", "p9", "config-n0", "pn-n0", "grid-n0", "grid-p9",
                              "N0", "N-3", "N6", "verify-random-seed-1", "verify-exhaustive-seed-1",
                              "matrix-coeff-random-seed-1", "matrix-coeff-exhaustive-seed-7",
                              "config-seed-2"])
def test_out_of_range_value_exits_config(config, argv, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out, samples = tmp_path / "r.json", tmp_path / "s.csv"
    paths = ["--out", str(out)]
    if any(name == "samples" for name, _, _ in cli.OPTIONS[argv[0]]):
        paths += ["--samples", str(samples)]
    assert run(["--config", str(cfg), *argv, *paths]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists() and not samples.exists()


# scan inputs that the option converters accept but the scan cannot use: a
# non-finite t, both --k and --t, a negative Sato-Tate seed
@pytest.mark.parametrize("argv", [["--t", "nan"], ["--t", "inf"], ["--t=-inf"],
                                  ["--k", "12", "--t", "3"],
                                  ["--k", "12", "--coeffs", "sato-tate:-1"]],
                         ids=["t-nan", "t-inf", "t-minus-inf", "k-and-t", "negative-seed"])
def test_unusable_scan_input_exits_config(argv, tmp_path, capsys):
    out, samples = tmp_path / "r.json", tmp_path / "s.csv"
    assert run(["scan-supnorm", "--N", "1", *argv, "--out", str(out),
                "--samples", str(samples)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists() and not samples.exists()


# coefficient files that CoefficientSource.from_file refuses: a delta line
# with no value (once an IndexError traceback) and a NaN lambda (once a
# "sup": NaN report with exit 0)
@pytest.mark.parametrize("text", ["# delta\n1\t1.0\n", "1\tnan\n"], ids=["delta-no-value", "nan"])
def test_bad_coefficient_file_exits_config(text, tmp_path, capsys):
    coeffs, out = tmp_path / "coeffs.tsv", tmp_path / "r.json"
    coeffs.write_text(text)
    assert run(["scan-supnorm", "--N", "1", "--k", "12", "--coeffs", f"file:{coeffs}",
                "--out", str(out)]) == 2
    assert f"{coeffs}, line" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config_hash", [
    (["character-table", "--p", "3", "--n", "1"], "39a6cf313bfb9d55"),
    (["verify", "--pn", "3,1;5,1;3,2"], "3db741cc10c114e0"),
    (["que"], "7d0af2516b0dfff1"),
    (["scan-supnorm", "--N", "15", "--k", "12"], "e42e365bac3146b7"),
], ids=["character-table", "verify", "que", "scan-supnorm"])
def test_range_checked_options_keep_the_config_hash(argv, config_hash):
    values = cli._options(cli.build_parser().parse_args(argv), {})
    config = {k: v for k, v in values.items() if k not in cli._OUTPUT_PATHS}
    assert cli._config_hash(config) == config_hash


def test_seed_accepted_by_verify_and_matrix_coeff(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--pn", "3,1", "--seed", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 5
    assert run(["matrix-coeff", "--p", "3", "--n", "1", "--seed", "5",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 5


def test_pair_mode_follows_the_exhaustive_bound():
    modes = {pn: cli._pair_mode(*pn) for pn in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)]}
    assert modes == {(3, 1): "exhaustive", (5, 1): "exhaustive", (7, 1): "exhaustive",
                     (3, 2): "random", (11, 1): "random"}
