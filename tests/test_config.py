import dataclasses
import json

import pytest

from relqft.config import (ConfigError, DEFAULT_CONFIG, SCHEMA_VERSION,
                           ScenarioConfig, load_config, normalize_tolerances,
                           parse_config, parse_tol_flags, with_overrides)
from relqft.lattice import LatticePoint, ModelParams
from relqft.tolerances import TOLERANCE_KEYS, defaults


def test_default_round_trip():
    text = json.dumps(DEFAULT_CONFIG.to_dict())
    assert parse_config(text) == DEFAULT_CONFIG


def test_empty_document_is_the_default():
    assert parse_config("{}") == DEFAULT_CONFIG


def test_partial_document_merges():
    cfg = parse_config('{"model": {"N": 3}, "window": 1, "seed": 7}')
    assert cfg.N == 3
    assert cfg.s == DEFAULT_CONFIG.s
    assert cfg.seed == 7
    assert cfg.frames == DEFAULT_CONFIG.frames


def test_window_must_fit_the_model():
    with pytest.raises(ConfigError, match="invalid model parameters"):
        parse_config('{"model": {"N": 3}, "window": 2}')


@pytest.mark.parametrize("N, window", [(5, 1), (7, 2), (9, 1), (9, 3)])
def test_a_window_narrower_than_the_lattice_is_refused(N, window):
    with pytest.raises(ConfigError, match="lifted chart"):
        parse_config(f'{{"model": {{"N": {N}}}, "window": {window}}}')


@pytest.mark.parametrize("N, window", [(3, 1), (5, 2), (7, 3), (9, 4)])
def test_an_omitted_window_is_the_largest_the_model_admits(N, window):
    # the key sets nothing: a config with the lifted chart's window is the
    # config without the key, and to_dict writes none
    cfg = parse_config(f'{{"model": {{"N": {N}}}}}')
    assert parse_config(f'{{"model": {{"N": {N}}}, "window": {window}}}') == cfg
    assert "window" not in cfg.to_dict()


def test_momenta_parse_to_lattice_points():
    cfg = parse_config('{"system": {"momenta": [[1, 0], [2, 0]]}}')
    assert cfg.momenta == (LatticePoint(1, 0), LatticePoint(2, 0))


@pytest.mark.parametrize("doc, key", [
    ('{"model": {"N": "x"}}', "N"),
    ('{"model": {"N": null}}', "N"),
    ('{"model": {"N": 5.7}}', "N"),
    ('{"model": {"N": 5.0}}', "N"),
    ('{"model": {"s": true}}', "s"),
    ('{"window": null}', "window"),
    ('{"window": 2.0}', "window"),
    ('{"seed": "abc"}', "seed"),
    ('{"seed": false}', "seed"),
    ('{"seed": 7.5}', "seed"),
    ('{"schema": 3.0}', "schema"),
    ('{"system": {"momenta": [[1.5, 0]]}}', "momenta"),
    ('{"system": {"momenta": [[1, "0"]]}}', "momenta"),
    ('{"system": {"momenta": [[1, null]]}}', "momenta"),
])
def test_integer_keys_reject_other_json_types(doc, key):
    # a float is not truncated, nor a string, bool or null converted
    with pytest.raises(ConfigError, match=rf"<config>:1: {key} must be an integer"):
        parse_config(doc)


def test_integer_keys_accept_integers():
    cfg = parse_config('{"model": {"N": 7, "s": 3}, "window": 3, "seed": 0, '
                       '"system": {"momenta": [[1, 0], [0, -2]]}}')
    assert (cfg.N, cfg.s, cfg.seed) == (7, 3, 0)
    assert cfg.momenta == (LatticePoint(1, 0), LatticePoint(0, -2))


def test_unknown_top_key_reports_line():
    text = '{\n  "model": {"N": 5},\n  "modle": {}\n}'
    with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'modle'"):
        parse_config(text)


def test_unknown_model_key_reports_line():
    text = '{\n  "model": {\n    "M": 5\n  }\n}'
    with pytest.raises(ConfigError, match=r":3: unknown key 'M' in model"):
        parse_config(text)


def test_bad_json_reports_line():
    with pytest.raises(ConfigError, match=r"<config>:2:"):
        parse_config('{\n  "seed": ,\n}')


def test_unsupported_schema_rejected():
    with pytest.raises(ConfigError, match="unsupported schema"):
        parse_config('{"schema": 99}')
    with pytest.raises(ConfigError, match="unsupported schema 1"):
        parse_config('{"schema": 1}')
    with pytest.raises(ConfigError, match="unsupported schema 2"):
        parse_config('{"schema": 2}')


def test_schema_is_a_constant_not_a_setting():
    # one schema is accepted, so a config carries no schema field and the
    # report writes the version this build reads
    assert "schema" not in {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert parse_config('{"schema": 3}') == DEFAULT_CONFIG
    assert DEFAULT_CONFIG.to_dict()["schema"] == SCHEMA_VERSION == 3


def test_unknown_system_kind_rejected():
    # schema 2 dropped system.kind: it had one allowed value
    with pytest.raises(ConfigError, match=r"unknown key 'kind' in system"):
        parse_config('{"system": {"kind": "character-orbit"}}')


def test_unknown_phi_spec_rejected():
    # schema 3 dropped system.phi: every check draws a random seed observable
    for phi in ("random", "identity"):
        with pytest.raises(ConfigError, match=r"unknown key 'phi' in system"):
            parse_config(f'{{"system": {{"phi": "{phi}"}}}}')


def test_malformed_momenta_rejected():
    with pytest.raises(ConfigError, match="momenta must be"):
        parse_config('{"system": {"momenta": [[1, 0, 0]]}}')
    with pytest.raises(ConfigError, match="momenta must be"):
        parse_config('{"system": {"momenta": []}}')


def test_unknown_state_spec_rejected():
    # schema 3 dropped states: every check draws random preparations
    for states in ('{"preparation": "random"}',
                   '{"preparation": "maximally-mixed"}', '{}'):
        with pytest.raises(ConfigError,
                           match=r"unknown key 'states' in the top level"):
            parse_config(f'{{"states": {states}}}')


def test_empty_suites_rejected():
    with pytest.raises(ConfigError, match="suites must be"):
        parse_config('{"suites": []}')


def test_empty_frames_rejected():
    # no frame would let the frame batteries verify after checking nothing
    with pytest.raises(ConfigError,
                       match="frames must be a non-empty list of names"):
        parse_config('{"frames": []}')


def test_invalid_model_parameters_rejected():
    # even N breaks invertibility of the boost action
    with pytest.raises(ConfigError, match="invalid model parameters"):
        parse_config('{"model": {"N": 4}}')


def test_tolerances_accept_both_spellings():
    out = normalize_tolerances({"eq": "1e-8", "tol_psd": 1e-7})
    assert out == {"tol_eq": 1e-8, "tol_psd": 1e-7}


def test_tolerances_reject_unknown_and_nonpositive():
    with pytest.raises(ConfigError, match="unknown tolerance"):
        normalize_tolerances({"slack": 1e-6})
    # fixed guards, not overrides: no check decides with them
    with pytest.raises(ConfigError, match="unknown tolerance 'herm'"):
        parse_config('{"tolerances": {"herm": 1e-9}}')
    with pytest.raises(ConfigError, match="unknown tolerance 'tol_trace'"):
        normalize_tolerances({"tol_trace": 1e-9})
    with pytest.raises(ConfigError, match="must be positive"):
        normalize_tolerances({"eq": 0.0})
    with pytest.raises(ConfigError, match="not a number"):
        normalize_tolerances({"eq": "tight"})
    with pytest.raises(ConfigError, match="not a number"):
        normalize_tolerances({"eq": None})


@pytest.mark.parametrize("value", ["true", "false"])
def test_a_boolean_tolerance_is_rejected(value):
    # float(True) would run with tol_eq = 1.0
    with pytest.raises(ConfigError, match="tolerance 'eq' is a boolean"):
        parse_config(f'{{"tolerances": {{"eq": {value}}}}}')
    # strings stay accepted, since --tol passes them
    assert normalize_tolerances({"eq": "1e-9"}) == {"tol_eq": 1e-9}


def test_tol_flag_parsing():
    assert parse_tol_flags(["eq=1e-9", "tol_feas = 1e-6 "]) == {
        "tol_eq": 1e-9, "tol_feas": 1e-6}
    assert parse_tol_flags(None) == {}
    with pytest.raises(ConfigError, match="KEY=VAL"):
        parse_tol_flags(["eq:1e-9"])
    with pytest.raises(ConfigError, match="unknown tolerance 'trace'"):
        parse_tol_flags(["trace=1e-9"])


def test_tol_lookup_uses_overrides():
    cfg = parse_config('{"tolerances": {"eq": 1e-6}}')
    assert cfg.tol("tol_eq") == 1e-6
    assert cfg.tol("tol_psd") == defaults()["tol_psd"]
    with pytest.raises(KeyError):
        cfg.tol("tol_unknown")
    with pytest.raises(KeyError):
        cfg.tol("tol_herm")
    assert set(TOLERANCE_KEYS) == {"tol_eq", "tol_psd", "tol_supp",
                                   "tol_feas", "tol_dft"}


def test_with_overrides():
    base = parse_config('{"seed": 1, "tolerances": {"eq": 1e-6}}')
    out = with_overrides(base, seed=99, tolerances={"tol_feas": 1e-5})
    assert out.seed == 99
    assert out.tolerances == {"tol_eq": 1e-6, "tol_feas": 1e-5}
    # no overrides: an equal copy
    assert with_overrides(base) == base


def test_load_config(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text('{"seed": 123}', encoding="utf-8")
    assert load_config(str(p)).seed == 123
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.json"))


def test_model_constructors():
    cfg = ScenarioConfig(N=5, s=2)
    assert cfg.model() == ModelParams(5, 2)
    # the constructor's one-value fields name the same model
    assert cfg.model() == ModelParams(5, 2, causal_mode="lifted", window=2)
