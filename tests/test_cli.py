import json
import os

import pytest

from rudlab.cli import main
from rudlab.config import RunConfig, load_config_file, parse_coeffs
from rudlab.coeffs import DomainError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_examples(capsys):
    code, out, _ = run(capsys, "norm", "--space", "summing", "--coeffs", "1,1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "norm", "--space", "james", "--coeffs", "1,-1")
    assert code == 0 and out.strip().startswith("2.2360679")
    code, out, _ = run(capsys, "norm", "--space", "lp:2", "--coeffs", "3,4")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "norm", "--space", "summing_dual", "--coeffs", "3/2")
    assert code == 0 and out.strip() == "3"


def test_norm_domain_error(capsys):
    code, _, err = run(capsys, "norm", "--space", "nope", "--coeffs", "1")
    assert code == 2 and "unknown space" in err
    code, _, err = run(capsys, "norm", "--space", "lp:2", "--coeffs", "1,,x")
    assert code == 2


def test_expect_json(capsys):
    code, out, _ = run(capsys, "expect", "--space", "summing",
                       "--coeffs", "1,1", "--method", "exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1.5 and payload["method"] == "exact"
    assert set(payload) == {"value", "method", "samples", "seed", "bracket", "confidence"}
    code, out, _ = run(capsys, "expect", "--space", "summing", "--coeffs", "1,1",
                       "--method", "mc", "--samples", "2000", "--set", "seed=42")
    payload = json.loads(out)
    assert payload["bracket"][0] <= 1.5 <= payload["bracket"][1]
    assert payload["seed"] == 42


def test_expect_cap_error(capsys):
    coeffs = ",".join(["1"] * 30)
    code, _, err = run(capsys, "expect", "--space", "lp:1", "--coeffs", coeffs)
    assert code == 2 and "expect_mc" in err


def test_certify_report_reproducible(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code, text, _ = run(capsys, "certify", "parallelogram", "--out", str(out1))
    assert code == 0
    assert "PASS parallelogram.3-4" in text
    code, _, _ = run(capsys, "certify", "parallelogram", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema"] == "rudlab/1"
    assert payload["config"]["seed"] == RunConfig().seed
    assert payload["passed"] is True


def test_certify_csv_and_svg(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "zmr.csv"
    code, _, _ = run(capsys, "certify", "zmr", "--out", str(out),
                     "--set", "format=csv", "--set", "plot=svg",
                     "--set", "samples=2000")
    assert code == 0
    head = out.read_text().splitlines()[0]
    assert head == "id,statement,measured,bound,verdict,exact"
    svg = tmp_path / "curves-zmr.svg"
    assert svg.exists() and svg.read_text().startswith("<svg")


def test_certify_unknown(capsys):
    code, _, err = run(capsys, "certify", "nosuch")
    assert code == 2 and "unknown experiment" in err


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("RUDLAB_SEED", "777")
    code, out, _ = run(capsys, "expect", "--space", "summing", "--coeffs", "1,1",
                       "--method", "mc", "--samples", "500")
    assert code == 0 and json.loads(out)["seed"] == 777


def test_config_file_and_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment\nseed=9\nmr.levels=2,4\n")
    pairs = load_config_file(str(cfgfile))
    cfg = RunConfig().with_overrides(pairs)
    assert cfg.seed == 9 and cfg.mr_levels == (2, 4)
    with pytest.raises(DomainError, match="unknown config key"):
        RunConfig().with_overrides({"nope": "1"})
    code, _, err = run(capsys, "norm", "--space", "lp:1", "--coeffs", "1",
                       "--set", "bogus=3")
    assert code == 2 and "unknown config key" in err


def test_parse_coeffs_exact_decimals():
    from fractions import Fraction as F

    a = parse_coeffs("3/2,-1,0.25")
    assert [v for _, v in a.entries] == [F(3, 2), F(-1), F(1, 4)]
    b = parse_coeffs("1,0,2")  # zeros are dropped, indices kept
    assert b.support == (0, 2)


def test_float_arithmetic_mode(capsys):
    code, out, _ = run(capsys, "norm", "--space", "lp:2", "--coeffs", "3,4",
                       "--set", "arithmetic=float")
    assert code == 0 and out.strip() == "5.0"


def test_expect_other_methods(capsys):
    code, out, _ = run(capsys, "expect", "--space", "lp:1", "--coeffs", "1,1",
                       "--method", "subsets")
    assert code == 0 and json.loads(out)["value"] == 1.0
    code, out, _ = run(capsys, "expect", "--space", "summing", "--coeffs", "1,2",
                       "--method", "perm")
    assert code == 0 and json.loads(out)["method"] == "permutation"


@pytest.mark.parametrize("item", [
    "cap=abc", "confidence=x", "bd.lambda=x", "bd.b=1/0", "mr.levels=a,b",
    "format=xml", "arithmetic=fuzzy", "plot=png",
])
def test_malformed_config_value_is_domain_error(capsys, item):
    """A malformed value exits 2 with one error line naming the key,
    before any experiment runs."""
    code, out, err = run(capsys, "certify", "parallelogram", "--set", item)
    key, _, raw = item.partition("=")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert repr(key) in err and repr(raw) in err


def test_malformed_env_seed_is_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("RUDLAB_SEED", "zz")
    code, _, err = run(capsys, "norm", "--space", "lp:1", "--coeffs", "1")
    assert code == 2 and "'seed'" in err and "'zz'" in err


def test_norm_refuses_wrapping_denominators(capsys):
    """The common denominator 2^64 - 1 of these entries does not fit the
    exact integer path: the norm refuses instead of printing 0."""
    code, out, err = run(capsys, "norm", "--space", "lp:1",
                         "--coeffs", "1/4294967297,1/4294967295")
    assert code == 2 and out == "" and "26 bits" in err
    code, out, _ = run(capsys, "norm", "--space", "norming_set",
                       "--coeffs", "1/4294967297,1/4294967295")
    assert code == 0 and out.strip() == "8589934592/18446744073709551615"
