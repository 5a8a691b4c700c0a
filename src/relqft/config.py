"""Scenario configuration for the verification runner.

A scenario is a small JSON document choosing the model scale, the momenta
of the system and the frames for the generic batteries, the suites to run,
tolerance overrides, and the seed for every randomized draw.  Parsing is
strict: unknown keys are rejected with the line they appear on, so a typo
in a config never silently degrades a run.  A ``window`` key sets
nothing: the model's one causal structure is the lifted chart of
half-width (N - 1) // 2, and any other value is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from relqft.lattice import LatticePoint, ModelParams
from relqft.tolerances import TOLERANCE_KEYS, defaults


class ConfigError(ValueError):
    """A scenario config that fails to parse or validate."""


_TOP_KEYS = {"schema", "model", "window", "system", "frames", "suites",
             "tolerances", "seed"}
_MODEL_KEYS = {"N", "s"}
_SYSTEM_KEYS = {"momenta"}

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters; see DEFAULT_CONFIG for the shape."""

    N: int = 5
    s: int = 2
    momenta: tuple = (LatticePoint(1, 0), LatticePoint(2, 0),
                      LatticePoint(4, 0), LatticePoint(3, 0))
    frames: tuple = ("smeared-regular", "smeared-regular-strong",
                     "smeared-lorentz", "smeared-spacetime", "sharp-regular")
    suites: tuple = ("all",)
    tolerances: dict = field(default_factory=dict)
    seed: int = 20260819

    def model(self) -> ModelParams:
        return ModelParams(self.N, self.s)

    def tol(self, name: str) -> float:
        base = defaults()
        if name not in base:
            raise KeyError(f"unknown tolerance {name!r}")
        return float(self.tolerances.get(name, base[name]))

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "model": {"N": self.N, "s": self.s},
            "system": {"momenta": [[p.u, p.v] for p in self.momenta]},
            "frames": list(self.frames),
            "suites": list(self.suites),
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
        }


DEFAULT_CONFIG = ScenarioConfig()


def _find_line(text: str, key: str) -> int:
    """Best-effort line number of a key token in the raw config text."""
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return 0


def _reject_unknown(section: dict, allowed: set, where: str, text: str,
                    path: str) -> None:
    for key in section:
        if key not in allowed:
            line = _find_line(text, key)
            raise ConfigError(
                f"{path}:{line}: unknown key {key!r} in {where} "
                f"(allowed: {', '.join(sorted(allowed))})")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _integer(value, key: str, text: str, path: str) -> int:
    """The value of a key that must be a JSON integer: a bool, a float, a
    string or null is a ConfigError naming the key's line."""
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{path}:{_find_line(text, key)}: {key} must be an integer, "
             f"got {json.dumps(value)}")
    return value


def parse_config(text: str, path: str = "<config>") -> ScenarioConfig:
    """Parse and structurally validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), f"{path}:1: top level must be an object")
    _reject_unknown(doc, _TOP_KEYS, "the top level", text, path)

    cfg = DEFAULT_CONFIG
    kwargs: dict = {}

    schema = _integer(doc.get("schema", SCHEMA_VERSION), "schema", text, path)
    _require(schema == SCHEMA_VERSION,
             f"{path}:{_find_line(text, 'schema')}: unsupported schema "
             f"{schema!r} (this build reads schema {SCHEMA_VERSION})")

    model = doc.get("model", {})
    _require(isinstance(model, dict),
             f"{path}:{_find_line(text, 'model')}: model must be an object")
    _reject_unknown(model, _MODEL_KEYS, "model", text, path)
    kwargs["N"] = _integer(model.get("N", cfg.N), "N", text, path)
    kwargs["s"] = _integer(model.get("s", cfg.s), "s", text, path)
    window = (_integer(doc["window"], "window", text, path)
              if "window" in doc else None)

    system = doc.get("system", {})
    _require(isinstance(system, dict),
             f"{path}:{_find_line(text, 'system')}: system must be an object")
    _reject_unknown(system, _SYSTEM_KEYS, "system", text, path)
    momenta = system.get("momenta")
    if momenta is None:
        kwargs["momenta"] = cfg.momenta
    else:
        _require(isinstance(momenta, list) and momenta
                 and all(isinstance(p, list) and len(p) == 2 for p in momenta),
                 f"{path}:{_find_line(text, 'momenta')}: momenta must be a "
                 "non-empty list of [u, v] pairs")
        kwargs["momenta"] = tuple(
            LatticePoint(*(_integer(c, "momenta", text, path) for c in p))
            for p in momenta)

    frames = doc.get("frames", list(cfg.frames))
    _require(isinstance(frames, list) and frames
             and all(isinstance(f, str) for f in frames),
             f"{path}:{_find_line(text, 'frames')}: frames must be a "
             "non-empty list of names")
    kwargs["frames"] = tuple(frames)

    suites = doc.get("suites", list(cfg.suites))
    _require(isinstance(suites, list) and suites
             and all(isinstance(sn, str) for sn in suites),
             f"{path}:{_find_line(text, 'suites')}: suites must be a "
             "non-empty list of names")
    kwargs["suites"] = tuple(suites)

    tolerances = doc.get("tolerances", {})
    _require(isinstance(tolerances, dict),
             f"{path}:{_find_line(text, 'tolerances')}: tolerances must be "
             "an object")
    kwargs["tolerances"] = normalize_tolerances(tolerances, path=path, text=text)

    kwargs["seed"] = _integer(doc.get("seed", cfg.seed), "seed", text, path)

    out = ScenarioConfig(**kwargs)
    try:
        ModelParams(out.N, out.s, window=window)
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid model parameters: {exc}") from exc
    return out


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, path=path)


def normalize_tolerances(overrides: dict, path: str = "<tol>",
                         text: str = "") -> dict:
    """Validate tolerance overrides, accepting names with or without the
    tol_ prefix; values must be positive numbers, or strings of them as
    ``--tol`` passes, but not booleans."""
    out = {}
    for key, value in overrides.items():
        name = key if key.startswith("tol_") else f"tol_{key}"
        if name not in TOLERANCE_KEYS:
            line = _find_line(text, key)
            raise ConfigError(
                f"{path}:{line}: unknown tolerance {key!r} "
                f"(allowed: {', '.join(TOLERANCE_KEYS)})")
        if isinstance(value, bool):
            raise ConfigError(f"{path}: tolerance {key!r} is a boolean, "
                              "not a number")
        try:
            val = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}: tolerance {key!r} is not a number: {value!r}") from exc
        if not val > 0:
            raise ConfigError(f"{path}: tolerance {key!r} must be positive")
        out[name] = val
    return out


def parse_tol_flags(pairs) -> dict:
    """Parse repeated KEY=VAL command-line overrides."""
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--tol expects KEY=VAL, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return normalize_tolerances(overrides)


def with_overrides(cfg: ScenarioConfig, seed: int | None = None,
                   tolerances: dict | None = None) -> ScenarioConfig:
    """A copy of cfg with command-line overrides applied."""
    merged = {**cfg.tolerances, **(tolerances or {})}
    return replace(cfg, seed=cfg.seed if seed is None else int(seed),
                   tolerances=merged)
