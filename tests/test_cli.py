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


def test_que_subcommand(tmp_path):
    out = tmp_path / "r.json"
    assert run(["que", "--grid", "3,1;5,1", "--a3", "0,1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert row["distinguished"] == (row["a3"] % 2 == 0)


def test_numerical_error_exits_one(monkeypatch, tmp_path, capsys):
    def fail(args, cfg):
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


@pytest.mark.parametrize("argv", [["character-table"], ["whittaker"],
                                  ["scan-supnorm", "--N", "1", "--k", "12"], ["que"]])
def test_seed_is_a_usage_error_where_unread(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", "1", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


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
