import json

import pytest

from relqft import operators as ops
from relqft import runner
from relqft.cli import main
from relqft.scenarios import CHECKS


def test_verify_fast_check(capsys):
    assert main(["verify", "restriction-duality"]) == 0
    out = capsys.readouterr().out
    assert "restriction-duality" in out
    assert "verified" in out


def test_verify_json_output(capsys):
    assert main(["verify", "spectral-condition", "--format", "json",
                 "--seed", "77"]) == 0
    data = runner.load_report(capsys.readouterr().out)
    assert data["seed"] == 77
    assert data["checks"][0]["name"] == "spectral-condition"
    assert data["checks"][0]["verdict"] == "verified"


def test_verify_json_writes_booleans(capsys):
    assert main(["verify", "vacuum-orthogonality", "--format", "json"]) == 0
    check = runner.load_report(capsys.readouterr().out)["checks"][0]
    assert check["details"]["monotone"] is True
    monotone = [m for m in check["measurements"] if m["name"] == "monotone"]
    assert monotone[0]["value"] is True
    assert monotone[0]["bound"] is True


def test_verify_unknown_target_exits_2(capsys):
    assert main(["verify", "no-such-check"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "modle": {}\n}', encoding="utf-8")
    assert main(["verify", "restriction-duality", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "bad.json:2" in err


def test_a_window_other_than_the_lifted_chart_exits_2(tmp_path, capsys):
    p = tmp_path / "narrow.json"
    p.write_text('{"model": {"N": 5}, "window": 1}', encoding="utf-8")
    assert main(["verify", "restriction-duality", "--config", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error:" in err and "lifted chart" in err


def test_a_config_value_of_the_wrong_type_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "model": {"N": "x"}\n}', encoding="utf-8")
    assert main(["verify", "restriction-duality", "--config", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error:" in err
    assert 'bad.json:2: N must be an integer, got "x"' in err


def test_oversized_check_exits_2_naming_it(monkeypatch, capsys):
    # with the tensor-product guard lowered to 15, relativizing the default
    # system (dimension 4) on the Lorentz frame (dimension 4) would need a
    # 16-dimensional tensor product, which the guard refuses before
    # allocation; the regular frame before it forms no such product
    monkeypatch.setattr(ops, "MAX_DIM", 15)
    assert main(["verify", "channel-laws"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "config error: check 'channel-laws': tensor product dimension 16"
        " exceeds 15"]
    assert "Traceback" not in err


def test_irreducibility_at_n11(tmp_path, capsys):
    # the field span reads its unit weights from the frame's seed, so the
    # (1210, 121, 121) effect array of the fiber-uniform frame is never built
    p = tmp_path / "n11.json"
    p.write_text(json.dumps({"model": {"N": 11, "s": 2}, "system": {
        "momenta": [[k, 0] for k in range(1, 11)]}}), encoding="utf-8")
    assert main(["verify", "irreducibility", "--config", str(p),
                 "--format", "json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["verdict"] == "verified"
    assert check["details"]["span_dim"] == 11


def test_irreducibility_is_vacuous_on_a_one_dimensional_system(tmp_path,
                                                               capsys):
    # every algebra on C^1 is irreducible, so the identity contrast cannot
    # hold there: no premise, not a failure
    p = tmp_path / "dim1.json"
    p.write_text(json.dumps({"model": {"N": 3, "s": 1}, "window": 1,
                             "system": {"momenta": [[0, 1]]}}),
                 encoding="utf-8")
    assert main(["verify", "irreducibility", "--config", str(p),
                 "--format", "json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["verdict"] == "vacuous"
    assert check["details"]["system_dim"] == 1


def test_channel_laws_verify_with_a_trivial_boost_group(tmp_path, capsys):
    # at N = 5, s = 1 the smeared regular frame is small enough for the
    # unrestricted relativization, whose Kadison-Schwarz order
    # Phi(x^dag x) >= Phi(x)^dag Phi(x) must hold there too
    p = tmp_path / "s1.json"
    p.write_text(json.dumps({"model": {"N": 5, "s": 1},
                             "system": {"momenta": [[1, 0], [2, 0]]}}),
                 encoding="utf-8")
    assert main(["verify", "channel-laws", "--config", str(p),
                 "--format", "json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["verdict"] == "verified"
    gaps = {m["name"]: m["value"] for m in check["measurements"]}
    assert gaps["order_gap_unrestricted"] >= -1e-9


def test_config_file_seed_applies(tmp_path, capsys):
    p = tmp_path / "scenario.json"
    p.write_text('{"seed": 31}', encoding="utf-8")
    assert main(["verify", "restriction-duality", "--config", str(p),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 31


def test_tol_flag_round_trips(capsys):
    assert main(["verify", "restriction-duality", "--format", "json",
                 "--tol", "eq=1e-8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["tolerances"] == {"tol_eq": 1e-8}


def test_verify_tight_tolerance_fails_on_its_measurement(capsys):
    # covariance is about 3.5e-16, so a 1e-17 bound must fail the check
    assert main(["verify", "relational-covariance", "--tol", "eq=1e-17"]) == 1
    header, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(), row.split()))
    assert cells["verdict"] == "failed"
    assert cells["measurement"] == "covariance"
    assert cells["bound"] == "<=1.000e-17"
    assert float(cells["margin"]) < 0.0


def test_bad_tol_flag_exits_2(capsys):
    assert main(["verify", "restriction-duality", "--tol", "slack=1"]) == 2
    assert "unknown tolerance" in capsys.readouterr().err


def test_list_checks_covers_registry(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for name, check in CHECKS.items():
        assert name in out
        assert check.anchor in out


def test_verbs_reject_flags_they_do_not_read(capsys):
    for argv in (["list-checks", "--seed", "1"], ["list-checks", "--tol", "eq=1"],
                 ["demo", "vacuum-orthogonality", "--format", "json"],
                 ["demo", "vacuum-orthogonality", "--config", "X"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


DEMO_TABLE = """\
Born weight of the site (0,0) under the maximally mixed
preparation of a boost-uniform frame, against 1/N^2:

  N                  weight                   1/N^2      error
  3      0.1111111111111111      0.1111111111111111    0.0e+00
  5      0.0400000000000000      0.0400000000000000    0.0e+00
  7      0.0204081632653061      0.0204081632653061    3.5e-18
  9      0.0123456790123457      0.0123456790123457    3.5e-18

largest deviation: 3.5e-18
"""


def test_demo_vacuum_orthogonality(capsys):
    assert main(["demo", "vacuum-orthogonality"]) == 0
    assert capsys.readouterr().out == DEMO_TABLE


@pytest.mark.parametrize("momenta, message", [
    ([[1, 0], [1, 0], [2, 0], [4, 0], [3, 0]],
     "momentum (1, 0) listed twice"),
    ([[6, 0], [2, 0], [4, 0], [3, 0]],
     "momentum (6, 0) outside 0 <= u, v < 5"),
    ([[-1, 0], [2, 0], [4, 0], [3, 0]],
     "momentum (-1, 0) outside 0 <= u, v < 5"),
], ids=["repeated", "too-large", "negative"])
def test_malformed_momenta_exit_2(tmp_path, capsys, momenta, message):
    # a malformed momentum list is a config error, not a false
    # counterexample or a traceback
    p = tmp_path / "momenta.json"
    p.write_text(json.dumps({"system": {"momenta": momenta}}), encoding="utf-8")
    assert main(["verify", "relational-covariance", "--config", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"config error: config cannot build a system model: {message}"]


def test_an_n3_config_without_window_verifies_every_check(tmp_path, capsys):
    # the omitted window is (N - 1) // 2 = 1, the only one N = 3 admits
    p = tmp_path / "n3.json"
    p.write_text('{"model": {"N": 3, "s": 2},'
                 ' "system": {"momenta": [[1, 0], [2, 0]]}}', encoding="utf-8")
    assert main(["verify", "all", "--config", str(p), "--format", "json"]) == 0
    checks = runner.load_report(capsys.readouterr().out)["checks"]
    assert len(checks) == len(CHECKS)
    assert {c["verdict"] for c in checks} == {"verified"}
