import json
import os

import pytest
from hypothesis import given, settings, strategies as st

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


def test_renorm_norm_is_exact_to_the_cap_and_refused_past_it(capsys):
    """The renorm norm of 21 and of 24 ones is its exact value (21 ones
    were once a Monte-Carlo mean, 26.3003); 25 ones exit 2 with one error
    line naming the renorm inner average and the cap."""
    argv = ("norm", "--space", "renorm:summing:1", "--coeffs")
    for k, want in ((21, "13783025/524288"), (24, "248994781/8388608")):
        code, out, err = run(capsys, *argv, ",".join(["1"] * k))
        assert code == 0 and out.strip() == want and err == ""
    code, out, err = run(capsys, *argv, ",".join(["1"] * 25))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "renorm inner sign average" in err and "enumeration cap 24" in err


def test_expect_cap_error(capsys):
    coeffs = ",".join(["1"] * 30)
    code, _, err = run(capsys, "expect", "--space", "lp:1", "--coeffs", coeffs)
    assert code == 2 and "support of size 30 exceeds the enumeration cap 24" in err
    assert "expect_mc" not in err


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
    with pytest.raises(DomainError, match="unknown config key"):
        RunConfig().with_overrides({"mr_levels": "2,4"})
    code, _, err = run(capsys, "norm", "--space", "lp:1", "--coeffs", "1",
                       "--set", "bogus=3")
    assert code == 2 and "unknown config key" in err


@pytest.mark.parametrize("argv", [
    ("norm", "--space", "zmr", "--coeffs", "1", "--set", "mr.universe=-1"),
    ("norm", "--space", "zrud", "--coeffs", "1", "--set", "mr.universe=40"),
    ("certify", "zmr", "--set", "mr.max_n=0"),
])
def test_mr_context_out_of_range_is_domain_error(tmp_path, capsys, argv):
    """A coded universe outside [0, 24] or a tuple length below 1 exits 2
    with one error line, instead of a traceback (or, at universe 40, an
    attempt to allocate the 2^40-entry sigma table)."""
    code, out, err = run(capsys, *argv, *(("--out", str(tmp_path / "r.json"))
                                          if argv[0] == "certify" else ()))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_negative_sign_width_is_domain_error(tmp_path, capsys):
    """A negative mr.width is refused with exit 2 and an error naming the
    key; before, width -1 silently gave the width-1 norms."""
    code, out, err = run(capsys, "certify", "zrud", "--set", "mr.width=-1",
                         "--out", str(tmp_path / "r.json"))
    assert code == 2 and out == "" and not (tmp_path / "r.json").exists()
    assert err.count("\n") == 1 and err.startswith("error: ") and "mr.width" in err


_EXPECT = ("expect", "--space", "summing", "--coeffs", "1,-1", "--method", "mc",
           "--samples", "100")


@pytest.mark.parametrize("item,accepted", [
    ("cap=0", False), ("cap=1", True), ("cap=2", True),
    ("cap=23", True), ("cap=24", True), ("cap=25", False), ("cap=-1", False),
    ("confidence=-0.1", False), ("confidence=0", False), ("confidence=0.1", True),
    ("confidence=0.9", True), ("confidence=1", False), ("confidence=1.1", False),
    ("confidence=nan", False),
    ("bd.levels=0", False), ("bd.levels=1", True), ("bd.levels=2", True),
    ("samples=99", False), ("samples=100", True), ("samples=101", True), ("samples=-1", False),
    ("mr.universe=-1", False), ("mr.universe=0", True), ("mr.universe=1", True),
    ("mr.universe=23", True), ("mr.universe=24", True), ("mr.universe=25", False),
    ("mr.max_n=0", False), ("mr.max_n=1", True), ("mr.max_n=2", True),
    ("mr.width=-1", False), ("mr.width=0", True), ("mr.width=1", True),
    ("mr.levels=5,3", False), ("mr.levels=2,2", False), ("mr.levels=2,4", True),
    ("bd.cap=1", False), ("bd.cap=2", True),
])
def test_config_domains_are_checked_where_parsed(capsys, item, accepted):
    """cap in [1, 24], samples >= 100, confidence in (0, 1), mr.universe
    in [0, 24], mr.max_n >= 1, mr.width >= 0, mr.levels strictly
    increasing even integers >= 2, bd.levels >= 1 and bd.cap >= 2: a value
    at a boundary or one step off it runs (exit 0) or exits 2 with one
    error line naming the key and the value, before any work."""
    key, _, raw = item.partition("=")
    argv = (("norm", "--space", "bd", "--coeffs", "1,1") if key == "bd.levels"
            else _EXPECT if key == "confidence"
            else _EXPECT[:-2] if key == "samples"
            else ("expect", "--space", "summing", "--coeffs", "-1"))
    code, out, err = run(capsys, *argv, "--set", item)
    if accepted:
        assert code == 0 and out and err == ""
    else:
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert repr(key) in err and repr(raw) in err
        with pytest.raises(DomainError, match=key):
            RunConfig().with_overrides({key: raw})


@pytest.mark.parametrize("item", ["bd.levels=0", "bd.levels=1", "confidence=2", "cap=-1"])
def test_certify_refuses_out_of_range_config(tmp_path, capsys, item):
    """These once ended in an IndexError traceback (exit 1: a failed
    certificate) or ran with the value in the report (exit 0).  The bd
    experiment's chain growth needs two levels, so bd.levels=1 is refused
    there, naming the key."""
    name = "bd" if item.startswith("bd.") else "zmr"
    code, out, err = run(capsys, "certify", name, "--set", item,
                         "--out", str(tmp_path / "r.json"))
    assert code == 2 and out == "" and not (tmp_path / "r.json").exists()
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert repr(item.partition("=")[0]) in err


@pytest.mark.parametrize("item,accepted", [
    ("bd.lambda=1", False), ("bd.lambda=199/100", False), ("bd.lambda=2", True),
    ("bd.lambda=201/100", True), ("bd.b=0", False), ("bd.b=1/100", True),
    ("bd.b=1/4", True), ("bd.b=13/50", False), ("bd.b=1/2", False), ("bd.b=1", False),
])
def test_bd_tree_parameters_are_checked_where_parsed(capsys, item, accepted):
    """bd.lambda and bd.b are checked together, by the predicate BDParams
    applies: beside b = 1/4, 1 + 2*b*lambda <= lambda needs lambda >= 2,
    and beside lambda = 2 it needs b <= 1/4.  A refused pair exits 2 with
    one error line naming both keys and the values."""
    from rudlab.bd import BDParams

    code, out, err = run(capsys, "norm", "--space", "lp:1", "--coeffs", "1", "--set", item)
    if accepted:
        assert code == 0 and out and err == ""
        cfg = RunConfig().with_overrides(dict([item.split("=")]))
        BDParams(lam=cfg.bd_lambda, b=cfg.bd_b)
    else:
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "'bd.lambda'" in err and "'bd.b'" in err and item in err
        with pytest.raises(DomainError, match="bd.lambda"):
            RunConfig().with_overrides(dict([item.split("=")]))


@pytest.mark.parametrize("item", ["samples=5", "mr.universe=99", "mr.max_n=0", "mr.width=-1",
                                  "bd.b=1", "bd.lambda=1"])
def test_certify_refuses_config_the_experiment_does_not_read(tmp_path, capsys, item):
    """These once exited 0 with the value written into the report of an
    experiment that never reads the key."""
    code, out, err = run(capsys, "certify", "parallelogram", "--set", item,
                         "--out", str(tmp_path / "r.json"))
    assert code == 2 and out == "" and not (tmp_path / "r.json").exists()
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert repr(item.partition("=")[0]) in err


#: raw ``--set`` text: number lists, fractions and stray characters
_RAW = st.one_of(
    st.lists(st.integers(-3, 12), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.builds("{}/{}".format, st.integers(-3, 9), st.integers(-2, 9)),
    st.text(alphabet="0123456789,-/.x ", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(["mr.levels", "bd.lambda", "bd.b", "bd.levels", "bd.cap",
                            "bd.seed"]), raw=_RAW)
def test_mr_levels_and_bd_values_accepted_only_where_they_build(key, raw):
    """Every raw ``--set`` value of mr.levels or a bd key that the config
    accepts builds the level sequence and the tree parameters, and every
    value it refuses raises a DomainError naming the key."""
    from rudlab.bd import BDParams
    from rudlab.mr import LevelSequence

    try:
        cfg = RunConfig().with_overrides({key: raw})
    except DomainError as exc:
        assert repr(key) in str(exc)
        return
    LevelSequence(cfg.mr_levels)
    BDParams(lam=cfg.bd_lambda, b=cfg.bd_b, levels=cfg.bd_levels, cap=cfg.bd_cap,
             seed=cfg.bd_seed)


def test_bd_experiment_runs_at_two_levels(tmp_path, capsys):
    code, _, err = run(capsys, "certify", "bd", "--set", "bd.levels=2",
                       "--out", str(tmp_path / "r.json"))
    assert code in (0, 1) and err == ""


def test_unreadable_config_file_is_domain_error(tmp_path, capsys):
    """A missing config file, a directory and a file that is not text exit
    2 with an error naming the path, not with a traceback (exit 1 means an
    assertion failed)."""
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"seed=1\n\xff\xfe\n")
    for path in (tmp_path / "missing.cfg", tmp_path, binary):
        code, out, err = run(capsys, "norm", "--space", "lp:1", "--coeffs", "1,2",
                             "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read config file") and str(path) in err


def test_config_keys_round_trip():
    """Every key of to_dict(), in its printed form, parses back to an equal
    config, at the defaults and at values off them."""
    for cfg in (RunConfig(), RunConfig().with_overrides(
            {"seed": "0x2a", "confidence": "0.9", "mr.levels": "2,6", "bd.b": "1/8",
             "format": "csv", "mr.max_n": "2"})):
        text = {k: str(v) for k, v in cfg.to_dict().items()}
        assert RunConfig().with_overrides(text) == cfg
    assert list(RunConfig().to_dict())[-5:] == ["bd.lambda", "bd.b", "bd.levels",
                                                "bd.cap", "bd.seed"]


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
    # argparse refuses any other method with its usage error
    with pytest.raises(SystemExit) as exc:
        main(["expect", "--space", "summing", "--coeffs", "1,2", "--method", "foo"])
    assert exc.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_expect_mc_refuses_confidence_outside_unit_interval(capsys):
    """A confidence outside (0, 1) is named in the error, instead of
    surfacing as a NaN bracket that "must contain the estimate"."""
    code, out, err = run(capsys, "expect", "--space", "summing", "--coeffs", "1,1,1",
                         "--method", "mc", "--set", "confidence=1.5")
    assert code == 2 and out == ""
    assert "confidence" in err and "bracket" not in err


@pytest.mark.parametrize("samples", ["0", "99", "-5"])
def test_expect_mc_refuses_too_few_samples(capsys, samples):
    """An explicit sample count under 100, 0 included, is refused; it does
    not fall back to the configured count."""
    code, out, err = run(capsys, "expect", "--space", "summing", "--coeffs", "1,1,1",
                         "--method", "mc", "--samples", samples)
    assert code == 2 and out == ""
    assert "at least 100 samples" in err


def test_expect_mc_takes_the_configured_samples_by_default(capsys):
    code, out, _ = run(capsys, "expect", "--space", "summing", "--coeffs", "1,1,1",
                       "--method", "mc", "--set", "samples=300")
    assert code == 0 and json.loads(out)["samples"] == 300
    code, out, _ = run(capsys, "expect", "--space", "summing", "--coeffs", "1,1,1",
                       "--method", "mc", "--set", "samples=300", "--samples", "200")
    assert code == 0 and json.loads(out)["samples"] == 200


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


def test_norm_takes_denominators_past_int64(capsys):
    """The common denominator 2^64 - 1 of these entries does not fit int64:
    every exact engine computes over Python ints instead of wrapping."""
    for spec in ("lp:1", "norming_set"):
        code, out, _ = run(capsys, "norm", "--space", spec,
                           "--coeffs", "1/4294967297,1/4294967295")
        assert code == 0 and out.strip() == "8589934592/18446744073709551615"
    code, out, _ = run(capsys, "expect", "--space", "lp:1",
                       "--coeffs", "1/18446744073709551619,1/3")
    assert code == 0 and json.loads(out)["method"] == "exact"


@pytest.mark.parametrize("spec", ["norming_set", "zmr", "lp:2", "renorm:summing:1"])
@pytest.mark.parametrize("command", ["norm", "expect"])
def test_past_the_float_range_is_domain_error(capsys, spec, command):
    """A common denominator past the float range that tie location reads
    exits 2 with the named refusal, not an OverflowError traceback."""
    code, out, err = run(capsys, command, "--space", spec, "--coeffs", f"1/{3**700},1,2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "float range" in err


@pytest.mark.parametrize("command", ["norm", "expect"])
@pytest.mark.parametrize("coeff", ["1e400", "-1e400", "1e-400"])
def test_float_coefficient_past_the_float_range_is_domain_error(capsys, command, coeff):
    """In float arithmetic a coefficient past the float range exits 2 with
    a one-line refusal, as in exact arithmetic, not an OverflowError
    traceback; nor does one below it underflow to 0.0 and leave the
    vector."""
    code, out, err = run(capsys, command, "--space", "summing", "--coeffs", f"1,{coeff}",
                         "--set", "arithmetic=float")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "float range" in err


@pytest.mark.parametrize("spec", ["lp:1", "linf", "summing", "walsh"])
def test_linear_engines_take_values_past_the_squared_bound(capsys, spec):
    """Every value a sum or max engine holds is at most its input's scale,
    so 2^600 has an exact norm although its square passes 2^1000."""
    code, out, _ = run(capsys, "norm", "--space", spec, "--coeffs", str(1 << 600))
    assert code == 0 and out.strip() == str(1 << 600)


@pytest.mark.parametrize("spec,coeffs", [("lp:2", str(1 << 600)),
                                         ("lp:1", f"1/{1 << 1100}")])
def test_batches_refuse_what_they_would_hold_past_the_float_range(capsys, spec, coeffs):
    """lp:2 would hold the radicand 2^1200, lp:1 the scale 2^1100: both
    exit 2 with the named refusal."""
    code, out, err = run(capsys, "norm", "--space", spec, "--coeffs", coeffs)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "float range" in err


@pytest.mark.parametrize("spec", ["lp:3", "james_x:3", "smax:1.5"])
def test_float_engines_refuse_underflow(capsys, spec):
    """An entry whose float is 0.0 gives a float-only engine no norm: it
    exits 2 instead of printing the norm 0.0 of a nonzero vector."""
    code, out, err = run(capsys, "norm", "--space", spec, "--coeffs", f"1/{1 << 1100}")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "underflow" in err


@pytest.mark.parametrize("spec", [
    "lp:x", "lp:0", "lp:-1", "lp:0.5", "lp:nan", "smax:3/2", "james_x:x",
    "james_x:0", "renorm:summing:x", "renorm:summing:1/0",
])
def test_malformed_engine_spec_is_domain_error(capsys, spec):
    """A malformed or out-of-range engine parameter exits 2 with one error
    line naming the spec, instead of a traceback or a value that is not a
    norm."""
    code, out, err = run(capsys, "norm", "--space", spec, "--coeffs", "1,1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and repr(spec) in err


@pytest.mark.parametrize("spec", ["james_x:3", "smax:1.5", "lp:3"])
def test_engine_without_exact_batch_walks_floats(capsys, spec):
    """Off their exact exponents these engines have only a float batch, and
    an exact-method walk over an exact vector takes it: the float mean of
    the per-pattern norms."""
    from rudlab.coeffs import Coeffs, apply_signs, enumerate_sign_patterns
    from rudlab.config import SpaceFactory

    code, out, _ = run(capsys, "expect", "--space", spec, "--coeffs", "1,2,3",
                       "--method", "exact")
    assert code == 0
    space = SpaceFactory(RunConfig()).space(spec)
    a = Coeffs.from_values([1, 2, 3])
    norms = [space.norm(apply_signs(a, e)) for e in enumerate_sign_patterns(a.support)]
    assert all(isinstance(x, float) for x in norms)
    assert json.loads(out)["value"] == pytest.approx(sum(norms) / len(norms), rel=1e-12)
