"""Suite runner determinism, report contracts, JSON round trips, and the
command line front end."""
import hashlib
import json
from dataclasses import asdict
from fractions import Fraction as F

import pytest

from arcbar import barcalc, circle, cli, cyclic, jsonio
from arcbar.cyclic import CyclicWord, Gen
from arcbar.rational import InvariantViolation
from arcbar.report import Report
from arcbar.suites import SUITES, RunConfig, run_suite

_REPORT_KEYS = {"suite", "config", "cases", "failures", "ok", "elapsed_s"}


def test_unknown_suite():
    with pytest.raises(InvariantViolation) as err:
        run_suite(RunConfig(suite="nope"))
    assert "cyclic-relations" in str(err.value)


def test_bad_config():
    with pytest.raises(InvariantViolation):
        RunConfig(suite="operad-laws", trials=0)


def test_suite_determinism():
    cfg = RunConfig(suite="embed-compose", seed=5, trials=40)
    a = run_suite(cfg).to_json()
    b = run_suite(cfg).to_json()
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


# sha256 of the sorted-key JSON report without `elapsed_s`, recorded before the
# exact-rational hot paths moved to integer arithmetic
_REPORT_DIGESTS = {
    ("operad-laws", 3): "f41ad28973d72bfe3dd08d359a2dca452ae9b4e32cdb30ba7951c38bd4ace2fa",
    ("operad-laws", 17): "e5838e5ab286bd05620cadda8e3827ded1fec3b74d9ae9dd9a0f62ead3c67fa7",
    ("embed-compose", 3): "35b0dd7d38d72c10a4aa1732d49b25c700cbab55399d68f31500670257a66663",
    ("embed-compose", 17): "da6b2fc02d83e8f414317c061bcee6842c76b546322a403ec234fd4a57653419",
    ("lambda-iso", 3): "1060e63c209d77b1b39017f43e01d94e911b60e449c5b6b15e05341afc9bf484",
    ("lambda-iso", 17): "53548639d67971549d990d028dc611b8995e0044fb9db652f35cc5366cf795fe",
    ("thm-cycbar", 3): "8503f85f5e8937318d5cee71afa99d14f90e0e50c96fcd5c18f1c905760275ed",
    ("thm-cycbar", 17): "4c27807438dec94dc68c959ffb4d13f721202e31a92a9cae7b0054f008cc0913",
}


@pytest.mark.parametrize("suite, seed", sorted(_REPORT_DIGESTS))
def test_report_digest_unchanged(suite, seed):
    doc = run_suite(RunConfig(suite=suite, seed=seed, trials=8, n_max=2,
                              q_max=2, m_max=2)).to_json()
    doc.pop("elapsed_s")
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _REPORT_DIGESTS[suite, seed], doc


def test_all_suites_pass_small():
    for name in SUITES:
        cfg = RunConfig(suite=name, seed=1, trials=25, n_max=2, q_max=2,
                        m_max=2, den=2)
        rep = run_suite(cfg)
        assert rep.ok, (name, rep.failures[:3])
        assert rep.cases > 0


def test_report_exit_contract(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["suite", "operad-laws", "--seed", "0", "--trials", "20",
                     "--out", str(out)])
    data = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == data
    assert code == (0 if data["ok"] else 1)
    assert data["suite"] == "operad-laws"
    assert data["failures"] == []


def test_failing_report_shape():
    rep = Report("demo", {})
    rep.fail("law", "witness", "want", "got")
    assert not rep.ok
    assert rep.to_json()["failures"][0]["law"] == "law"


# -- JSON round trips ---------------------------------------------------------

def test_rat_normalization():
    assert jsonio.element_round_trip("2/4") == "1/2"
    assert jsonio.element_round_trip({"kind": "rat", "value": "6/4"}) == \
        {"kind": "rat", "value": "3/2"}


def test_arc_system_roundtrip_and_errors():
    obj = {"m": 2, "variant": "uEc",
           "pairs": [{"zeta": "0", "r": "1/8"}, {"zeta": "1/4", "r": "2/16"}],
           "phi": ["1/4", "1/4"]}
    out = jsonio.element_round_trip(obj)
    assert out["pairs"][1]["r"] == "1/8"
    bad = {"m": 2, "variant": "uEc",
           "pairs": [{"zeta": "0", "r": "0"}, {"zeta": "1/4", "r": "0"}],
           "phi": ["1/4", "1/2"]}
    with pytest.raises(jsonio.SchemaError) as err:
        jsonio.element_round_trip(bad)
    assert "gap-sum" in str(err.value)
    with pytest.raises(jsonio.SchemaError):
        jsonio.element_round_trip({"m": 2, "variant": "uEc", "pairs": []})


def test_wreath_and_point_roundtrip():
    w = {"perm": [2, 1, 3], "members": [{"order": 2, "exponent": 1},
                                        {"order": 2, "exponent": 0},
                                        {"order": 2, "exponent": 3}]}
    out = jsonio.element_round_trip(w)
    assert out["members"][2]["exponent"] == 1
    p = {"m": 2, "rbar": "5/2", "simplex": ["1/2", "1/2"]}
    out = jsonio.element_round_trip(p)
    assert out["rbar"] == "1/2"
    with pytest.raises(jsonio.SchemaError):
        jsonio.element_round_trip({"m": 2, "rbar": "0", "simplex": ["1/2"]})


def test_operad_elem_roundtrip():
    obj = {"instance": "dc", "perm": [2, 1],
           "pairs": [{"v": "0", "r": "0"}, {"v": "0", "r": "0"}]}
    assert jsonio.element_round_trip(obj)["instance"] == "dc"
    with pytest.raises(jsonio.SchemaError):
        jsonio.element_round_trip({"instance": "dR",
                                   "pairs": [{"v": "0", "r": "2"}]})
    framed = {"instance": "framed-c12",
              "pairs": [{"v": "-1/2", "r": "1/4", "h": {"order": 12, "exponent": 5}},
                        {"v": "1/3", "r": "1/6", "h": {"order": 12, "exponent": 0}}]}
    assert jsonio.element_round_trip(framed) == framed


def test_monoid_roundtrip():
    from arcbar.barcalc import pointed_cyclic_monoid
    table = jsonio.monoid_to_json(pointed_cyclic_monoid("c2", 2, 2))
    assert jsonio.element_round_trip(table) == table
    table["sigma"] = ["*", "g1", "g0"]  # no longer fixes the unit
    with pytest.raises(jsonio.SchemaError):
        jsonio.element_round_trip(table)


# -- the CLI ------------------------------------------------------------------

def test_cli_suite_and_exit(capsys):
    assert cli.main(["suite", "operad-laws", "--trials", "20"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and data["suite"] == "operad-laws"


def test_cli_operad_verify_instance_prints_a_report(capsys):
    # the instance decides whether nullary elements are sampled
    for name, nullary in [("dR", False), ("dc", True)]:
        assert cli.main(["operad", "verify", "--instance", name,
                         "--trials", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == _REPORT_KEYS
        assert data["ok"] and data["cases"] == 5
        assert data["config"]["allow_nullary"] is nullary


def test_cli_cyclic_verify_monoid_fails_with_a_report(monkeypatch, capsys):
    def bad_degeneracy(R, i, t):  # inserts the unit at i instead of i + 1
        return barcalc.collapse(R, t[:i] + (R.unit,) + t[i:])

    monoid = json.dumps(jsonio.monoid_to_json(barcalc.pointed_cyclic_monoid("c2", 2, 2)))
    argv = ["bar", "cyclic-verify", "--monoid", monoid, "--qmax", "2"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    monkeypatch.setattr(barcalc, "cyclic_degeneracy", bad_degeneracy)
    assert cli.main(argv) == 1
    data = json.loads(capsys.readouterr().out)
    assert set(data) == _REPORT_KEYS
    assert data["suite"] == "cyclic-relations[c2, m=2]"
    assert data["cases"] == 3 ** 2 + 3 ** 3
    assert not data["ok"] and data["failures"]


def test_cli_embed_compose(capsys):
    outer = json.dumps({"m": 1, "variant": "uEc",
                        "pairs": [{"zeta": "0", "r": "1/8"},
                                  {"zeta": "1/2", "r": "1/8"}],
                        "phi": ["1/2", "1/2"]})
    code = cli.main(["embed", "compose", "--outer", outer,
                     "--inner", "[[\"0\", \"1/2\"]]",
                     "--inner", "[[\"1/2\", \"1/4\"]]"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phi"] == ["9/16", "7/16"]


def test_cli_cyclic_normalize(capsys):
    assert cli.main(["cyclic", "normalize", "--word", "s0.t1",
                     "--m", "2", "--q", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["normal_form"] == "t2.t2.s1"


def test_cli_cyclic_act(capsys):
    # the twist subtracts the last coordinate from the base angle: at m=1 the
    # result 1/4 - 1 reduces back to 1/4 mod 1
    point = json.dumps({"m": 1, "rbar": "1/4", "simplex": ["1"]})
    assert cli.main(["cyclic", "act", "--word", "t0", "--point", point]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rbar"] == "1/4"
    point = json.dumps({"m": 3, "rbar": "1/4", "simplex": ["1"]})
    assert cli.main(["cyclic", "act", "--word", "t0", "--point", point]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rbar"] == "9/4"
    assert data["simplex"] == ["1"]


def test_cli_retract(capsys):
    sys_json = json.dumps({"m": 1, "variant": "uCc",
                           "pairs": [{"zeta": "0", "r": "0"},
                                     {"zeta": "0", "r": "0"}],
                           "phi": ["1", "0"]})
    assert cli.main(["embed", "retract", "--system", sys_json,
                     "--steps", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phi"] == ["1/2", "1/2"]


def test_cli_element_roundtrip(capsys):
    assert cli.main(["element", "roundtrip", "--json", "\"2/4\""]) == 0
    assert json.loads(capsys.readouterr().out) == "1/2"


def test_cli_error_exit(capsys):
    bad = json.dumps({"m": 1, "variant": "uEc",
                      "pairs": [{"zeta": "0", "r": "0"}], "phi": ["1/2"]})
    assert cli.main(["embed", "retract", "--system", bad]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_operad_compose(capsys):
    outer = json.dumps({"instance": "dR", "pairs": [{"v": "0", "r": "1/2"}]})
    inner = json.dumps({"instance": "dR", "pairs": [{"v": "1/2", "r": "1/4"}]})
    assert cli.main(["operad", "compose", "--instance", "dR",
                     "--outer", outer, "--inner", inner]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pairs"] == [{"v": "1/4", "r": "1/8"}]


def test_cli_operad_compose_offers_only_instances_with_a_json_form(capsys):
    # semidirect-c2 elements have no JSON form, so compose refuses the
    # instance while verify still checks its laws
    with pytest.raises(SystemExit) as exc:
        cli.main(["operad", "compose", "--instance", "semidirect-c2",
                  "--outer", "{}", "--inner", "{}"])
    assert exc.value.code == 2
    assert "invalid choice: 'semidirect-c2'" in capsys.readouterr().err
    assert cli.main(["operad", "verify", "--instance", "semidirect-c2",
                     "--trials", "5"]) == 0


def test_cli_workbench_seed_env(monkeypatch, capsys):
    # read on each call: every report carries the seed of its own call
    for seed in (7, 9):
        monkeypatch.setenv("WORKBENCH_SEED", str(seed))
        assert cli.main(["suite", "embed-compose", "--trials", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["seed"] == seed


_SYSTEM = {"m": 1, "variant": "uEc", "pairs": [{"zeta": "0", "r": "1/8"}],
           "phi": ["1"]}
_DISKS = {"instance": "dR", "pairs": [{"v": "0", "r": "1/2"}]}
_ASSOC = {"instance": "assoc", "perm": [1]}
_COMPACT = {"instance": "dc", "perm": [1], "pairs": [{"v": "0", "r": "1/2"}]}
_MONOID = {"elements": ["*", "e"], "unit": "e", "m": 1,
           "mul": [["*", "*"], ["*", "e"]], "sigma": ["*", "e"]}


@pytest.mark.parametrize("argv, suite", [
    pytest.param(["operad", "verify", "--instance", "dR", "--trials", "5"],
                 "dR", id="operad-verify-instance"),
    pytest.param(["bar", "cyclic-verify", "--qmax", "2", "--trials", "5",
                  "--monoid", json.dumps(_MONOID)], "cyclic-relations[monoid, m=1]",
                 id="bar-cyclic-verify-monoid"),
])
def test_cli_out_writes_the_printed_report(tmp_path, capsys, argv, suite):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data == json.loads(capsys.readouterr().out)
    assert data["suite"] == suite and data["ok"]

# arc systems whose variant label or gap list the boundary rejects, each with
# the text its error names
_BAD_SYSTEMS = {
    "system-variant-E": ({"m": 1, "variant": "E", "pairs": _SYSTEM["pairs"]},
                         "missing field 'phi'"),
    "system-variant-uEprime": ({**_SYSTEM, "variant": "uEprime"},
                               "variant 'uEprime' is not 'uEc'"),
    "system-uEc-zero-radii": ({**_SYSTEM, "pairs": [{"zeta": "0", "r": "0"}]},
                              "variant 'uEc' is not 'uCc'"),
    "system-uCc-no-arcs": ({"m": 1, "variant": "uCc", "pairs": [], "phi": []},
                           "variant 'uCc' is not 'uEc'"),
    "system-phi-null": ({**_SYSTEM, "phi": None}, "field 'phi'"),
}
# monoid tables the validator rejects, each with the invariant its error names
_BAD_MONOIDS = {
    "monoid-m-0": ({**_MONOID, "m": 0}, "m must be >= 1"),
    "monoid-m-neg": ({**_MONOID, "m": -1}, "m must be >= 1"),
    "monoid-product-q": ({**_MONOID, "elements": ["*", "e", "a"],
                          "mul": [["*", "*", "*"], ["*", "e", "a"], ["*", "a", "q"]],
                          "sigma": ["*", "e", "a"]},
                         "product a*a = 'q' not among the elements"),
    **{f"monoid-{tag}": (obj, "monoids are {elements, unit, m, mul, sigma} objects")
       for tag, obj in (("list", []), ("string", "0"), ("nested-list", [[]]))},
}

# requests that parse but break an invariant the boundary checks, each with
# the text its error names
_ZERO_RADIUS_SYSTEM = {"m": 1, "variant": "uCc", "pairs": [{"zeta": "0", "r": "0"}],
                       "phi": ["1"]}
_BAD_REQUESTS = {
    "inner-center-outside": (["embed", "compose", "--outer", json.dumps(_SYSTEM),
                              "--inner", '[["4", "0"]]'], "leaves [-1,1]"),
    "retract-steps-neg": (["embed", "retract", "--system",
                           json.dumps(_ZERO_RADIUS_SYSTEM), "--steps", "-3"],
                          "--steps must be >= 0"),
    "framed-h-order-5": (["element", "roundtrip", "--json", json.dumps(
        {"instance": "framed-c2",
         "pairs": [{"v": "0", "r": "1/2", "h": {"order": 5, "exponent": 1}}]})],
                         "group member from a different group"),
    # JSON floats and booleans are no exact scalars
    "dR-v-float": (["operad", "compose", "--instance", "dR", "--outer",
                    json.dumps({"instance": "dR", "pairs": [{"v": 0.1, "r": "1/2"}]}),
                    "--inner", json.dumps(_DISKS)], "field 'v'"),
    "system-m-float": (["element", "roundtrip", "--json", json.dumps({**_SYSTEM, "m": 1.9})],
                       "field 'm'"),
    "system-phi-float": (["element", "roundtrip", "--json",
                          json.dumps({**_SYSTEM, "phi": [1.0]})], "not a rational: 1.0"),
    "turn-value-true": (["element", "roundtrip", "--json",
                         json.dumps({"value": True, "modulus": "1"})], "field 'value'"),
    "framed-h-exponent-true": (["element", "roundtrip", "--json", json.dumps(
        {"instance": "framed-c2",
         "pairs": [{"v": "0", "r": "1/2", "h": {"order": 2, "exponent": True}}]})],
                               "field 'exponent'"),
    "inner-float": (["embed", "compose", "--outer", json.dumps(_SYSTEM),
                     "--inner", '[[0.5, "1/2"]]'], "invalid --inner: not a rational: 0.5"),
    # a framed order is a canonical positive decimal, or the instance is unknown
    **{f"framed-instance-{tag}": (["element", "roundtrip", "--json", json.dumps(
        {"instance": name, "pairs": []})], f"unknown operad instance {name!r}")
       for tag, name in (("leading-zero", "framed-c02"), ("plus", "framed-c+2"),
                         ("space", "framed-c 2"), ("underscore", "framed-c2_0"),
                         ("letter", "framed-cx"), ("zero", "framed-c0"))},
}


@pytest.mark.parametrize("argv, env_seed", [
    pytest.param(["cyclic", "normalize", "--word", "dx", "--m", "2", "--q", "1"],
                 None, id="word-dx"),
    pytest.param(["cyclic", "normalize", "--word", "t9x", "--m", "2", "--q", "1"],
                 None, id="word-t9x"),
    pytest.param(["cyclic", "normalize", "--word", "s0..t1", "--m", "2", "--q", "1"],
                 None, id="word-empty-token"),
    pytest.param(["cyclic", "act", "--word", "dx.t0", "--point",
                  json.dumps({"m": 1, "rbar": "0", "simplex": ["1"]})],
                 None, id="act-word-dx"),
    pytest.param(["embed", "compose", "--outer", json.dumps(_SYSTEM),
                  "--inner", '[["1/0", "1/2"]]'], None, id="inner-1/0"),
    pytest.param(["embed", "act", "--system", json.dumps(_SYSTEM), "--theta", "1/0"],
                 None, id="theta-1/0"),
    pytest.param(["embed", "act", "--system", json.dumps({**_SYSTEM, "m": "two"})],
                 None, id="system-m-two"),
    pytest.param(["embed", "retract", "--system", "no-such-file.json"],
                 None, id="system-missing-file"),
    pytest.param(["operad", "compose", "--instance", "dR",
                  "--outer", json.dumps({**_DISKS, "pairs": 3}),
                  "--inner", json.dumps(_DISKS)], None, id="outer-pairs-int"),
    pytest.param(["operad", "compose", "--instance", "dR",
                  "--outer", json.dumps(_ASSOC), "--inner", json.dumps(_ASSOC)],
                 None, id="compose-assoc-under-dR"),
    pytest.param(["operad", "compose", "--instance", "dR",
                  "--outer", json.dumps(_DISKS), "--inner", json.dumps(_COMPACT)],
                 None, id="compose-dc-inner-under-dR"),
    pytest.param(["operad", "verify", "--instance", "dR", "--trials", "-5"],
                 None, id="operad-verify-trials-neg"),
    pytest.param(["bar", "cyclic-verify", "--monoid", json.dumps(_MONOID),
                  "--qmax", "-3"], None, id="monoid-qmax-neg"),
    pytest.param(["element", "roundtrip", "--json",
                  json.dumps({"instance": "framed-c0", "pairs": []})],
                 None, id="framed-order-0"),
    pytest.param(["element", "roundtrip", "--json", json.dumps({"instance": 5})],
                 None, id="operad-instance-int"),
    pytest.param(["element", "roundtrip", "--json",
                  json.dumps({"perm": [2, 1], "members": [[1], [1]]})],
                 None, id="wreath-perm-members"),
    pytest.param(["element", "roundtrip", "--json",
                  json.dumps({"base": {**_SYSTEM, "variant": "uE", "phi": None},
                              "perm": [1]})],
                 None, id="system-with-perm"),
    pytest.param(["suite", "embed-compose", "--trials", "1"], "seven",
                 id="env-seed-seven"),
    pytest.param(["cyclic", "normalize", "--word", "t0", "--m", "1", "--q", "0"],
                 "seven", id="env-seed-seven-not-a-verdict"),
    pytest.param(["suite", "embed-compose", "--trials", "1",
                  "--out", "no-such-dir/report.json"], None, id="out-unwritable"),
    *(pytest.param(["element", "roundtrip", "--json", json.dumps(obj)],
                   None, id=name) for name, (obj, _) in _BAD_SYSTEMS.items()),
    *(pytest.param(["bar", "cyclic-verify", "--qmax", "2", "--monoid", json.dumps(obj)],
                   None, id=name) for name, (obj, _) in _BAD_MONOIDS.items()),
    *(pytest.param(["element", "roundtrip", "--kind", "monoid", "--json", json.dumps(obj)],
                   None, id=f"roundtrip-{name}") for name, (obj, _) in _BAD_MONOIDS.items()),
    *(pytest.param(argv, None, id=name) for name, (argv, _) in _BAD_REQUESTS.items()),
])
def test_cli_malformed_input_exits_2(monkeypatch, capsys, argv, env_seed):
    if env_seed is not None:
        monkeypatch.setenv("WORKBENCH_SEED", env_seed)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_system_errors_name_the_invariant(capsys):
    for obj, text in _BAD_SYSTEMS.values():
        assert cli.main(["element", "roundtrip", "--json", json.dumps(obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err, err


def test_cli_monoid_errors_name_the_invariant(capsys):
    for obj, text in _BAD_MONOIDS.values():
        argv = ["bar", "cyclic-verify", "--qmax", "2", "--monoid", json.dumps(obj)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err, err


def test_cli_boundary_errors_name_the_invariant(capsys):
    for argv, text in _BAD_REQUESTS.values():
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err, err


@pytest.mark.parametrize("argv", [
    pytest.param(["bar", "cyclic-verify", "--monoid", ""], id="monoid"),
    pytest.param(["embed", "act", "--system", json.dumps(_SYSTEM), "--wreath", ""],
                 id="wreath"),
    pytest.param(["embed", "act", "--system", json.dumps(_SYSTEM), "--theta", ""],
                 id="theta"),
])
def test_cli_empty_option_value_is_refused(capsys, argv):
    # an empty value is given, not left out: it is parsed and refused
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and not out.out


# -- repeated calls in one process, options read per call --------------------

def test_cli_repeated_calls_do_not_share_appended_options(capsys):
    two = json.dumps({"m": 1, "variant": "uEc",
                      "pairs": [{"zeta": "0", "r": "1/8"}, {"zeta": "1/2", "r": "1/8"}],
                      "phi": ["1/2", "1/2"]})
    assert cli.main(["embed", "compose", "--outer", two, "--inner", '[["0", "1/2"]]',
                     "--inner", '[["1/2", "1/4"]]']) == 0
    assert len(json.loads(capsys.readouterr().out)["pairs"]) == 2
    assert cli.main(["embed", "compose", "--outer", json.dumps(_SYSTEM),
                     "--inner", '[["0", "1/2"]]']) == 0
    want = circle.compose_uec(jsonio.arc_system_from_json(_SYSTEM),
                              [((F(0), F(1, 2)),)])
    assert json.loads(capsys.readouterr().out) == jsonio.arc_system_to_json(want)


def test_cli_verdict_option_left_out_takes_the_run_config_default(monkeypatch, capsys):
    monkeypatch.delenv("WORKBENCH_SEED", raising=False)
    assert cli.main(["embed", "verify", "--trials", "2"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {**asdict(RunConfig("embed-compose")), "trials": 2}


# -- a defect found after validation is a failing report, not exit 2 ---------

_NORMALIZE_WORD = cyclic.normalize_word


def _normal_form_keeping_j(w):
    """The normal form with every degeneracy index raised by one: the slip of
    a rewrite of d_k s_j, k < j, to s_j d_k rather than s_{j-1} d_k."""
    nf = _NORMALIZE_WORD(w)
    return CyclicWord(nf.m, nf.source, tuple(
        Gen("s", g.index + 1, g.degree) if g.kind == "s" else g for g in nf.gens))


def _overlap_when_touching(arcs, period=None):
    """The overlap scan with <= for <: arcs that only touch overlap."""
    pairs = list(zip(arcs, arcs[1:]))
    if period is not None and len(arcs) > 1:
        c, r, name = arcs[0]
        pairs.append((arcs[-1], (c + period, r, name)))
    for (c1, r1, n1), (c2, r2, n2) in pairs:
        if c2 - c1 <= r1 + r2:
            return n1, n2
    return None


@pytest.mark.parametrize("module, name, mutant, suite, text", [
    pytest.param(cyclic, "normalize_word", _normal_form_keeping_j, "cyclic-relations",
                 "degeneracy s_3 invalid at degree 2", id="rewrite-keeps-j"),
    pytest.param(circle, "first_overlap", _overlap_when_touching, "embed-compose",
                 "overlap with positive radius", id="touching-arcs-overlap"),
])
def test_cli_defect_is_a_failing_report(monkeypatch, capsys, module, name,
                                        mutant, suite, text):
    monkeypatch.setattr(module, name, mutant)
    assert cli.main(["suite", suite, "--seed", "9", "--trials", "60"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert set(data) == _REPORT_KEYS and not data["ok"]
    assert any(text in f["witness"] for f in data["failures"]), data["failures"]


def test_word_shape_law_kills_a_normal_form_left_as_written(monkeypatch):
    # a "normal form" equal to the input word acts like it, so only the
    # shape law sees that it is not canonical
    monkeypatch.setattr(cyclic, "normalize_word", lambda w: w)
    rep = run_suite(RunConfig("cyclic-relations", seed=9, trials=60))
    laws = {f["law"] for f in rep.failures}
    assert "word-shape" in laws and "word-action-consistency" not in laws, laws
