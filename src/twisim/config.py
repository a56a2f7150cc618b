"""Experiment configuration: versioned JSON schema, validation, round-trip.

A config names an experiment kind, a scenario (for the simulation kinds), a
window spec, trial/seed settings and an output path.  Validation reports the
offending field path; defaults are filled in so minimal configs stay small.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Optional, Union

from twisim.core import MODEL_KINDS, Empirical, ParameterError, TransmissionTimeModel
from twisim.inputs import SensorMode, SensorSpec
from twisim.mc import CausalChainScenario, FanOutScenario, LinkInput
from twisim.twi import TwiSpec

SCHEMA_VERSION = 1
KINDS = ("analytic", "chain_sim", "fanout_sim", "bounds_check", "plan", "reproduce")

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 1


class ConfigError(ValueError):
    """Invalid configuration; the message names the violated field."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        _fail(f"{path}.{key}", "missing required field")
    return obj[key]


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "number too large for a float")


def _as_numbers(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        _fail(path, f"expected a list of numbers, got {value!r}")
    if set(map(type, value)) <= {int, float}:  # one pass over long traces
        try:
            return tuple(map(float, value))
        except OverflowError:
            pass
    return tuple(_as_number(v, path) for v in value)  # names the first bad value


def _as_choice(value: Any, path: str, choices: tuple) -> Any:
    if value not in choices:
        _fail(path, f"expected one of {choices}, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {value!r}")
    return value


def _as_optional_str(value: Any, path: str) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _as_csv_field(value: Any, path: str) -> str:
    if not isinstance(value, str) or any(c in value for c in ',"\r\n'):
        _fail(path, f"expected a string without commas, quotes or line breaks, got {value!r}")
    return value


def _as_int(value: Any, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


# ---------------------------------------------------------------------------
# Transmission-time models
# ---------------------------------------------------------------------------

# Model fields a config may omit beyond those with a default in the class.
_MODEL_FIELD_DEFAULTS = {"shift": 0.0}


def model_from_dict(obj: Any, path: str = "model") -> TransmissionTimeModel:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {obj!r}")
    kind = _require(obj, "kind", path)
    cls = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        _fail(f"{path}.kind", f"unknown model kind {kind!r}")
    args = []
    for f in fields(cls):
        default = _MODEL_FIELD_DEFAULTS.get(f.name, f.default)
        value = _require(obj, f.name, path) if default is MISSING else obj.get(f.name, default)
        read = _as_numbers if f.name == "values" else _as_number
        args.append(read(value, f"{path}.{f.name}"))
    try:
        return cls(*args)
    except ParameterError as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# Scenario inputs
# ---------------------------------------------------------------------------


_SENSOR_MODES = tuple(m.value for m in SensorMode)


def _input_from_dict(obj: Any, path: str) -> Union[LinkInput, SensorSpec]:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {obj!r}")
    kind = _require(obj, "type", path)
    try:
        if kind == "link":
            return LinkInput(
                model_from_dict(_require(obj, "model", path), f"{path}.model"),
                _as_number(obj.get("delay", 0.0), f"{path}.delay"),
            )
        if kind == "sensor":
            mode = _as_choice(obj.get("mode", "synchronous"), f"{path}.mode", _SENSOR_MODES)
            return SensorSpec(
                t_s=_as_number(_require(obj, "t_s", path), f"{path}.t_s"),
                tau_s=_as_number(obj.get("tau_s", 0.0), f"{path}.tau_s"),
                mode=SensorMode(mode),
                sensor_id=_as_optional_str(obj.get("sensor_id"), f"{path}.sensor_id"),
            )
    except ParameterError as exc:
        _fail(path, str(exc))
    _fail(f"{path}.type", f"unknown input type {kind!r}")


def _input_to_dict(inp: Union[LinkInput, SensorSpec], model_to_dict: Callable[[Any], dict]) -> dict:
    if isinstance(inp, LinkInput):
        return {"type": "link", "model": model_to_dict(inp.model), "delay": inp.delay}
    out = {
        "type": "sensor",
        "t_s": inp.t_s,
        "tau_s": inp.tau_s,
        "mode": inp.mode.value,
    }
    if inp.sensor_id is not None:
        out["sensor_id"] = inp.sensor_id
    return out


def _twi_from_dict(obj: Any, path: str) -> TwiSpec:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {obj!r}")
    window = _as_number(obj.get("window", 0.0), f"{path}.window")
    offset = obj.get("offset", 0.0)
    offset = None if offset == "random" else _as_number(offset, f"{path}.offset")
    try:
        return TwiSpec(window, offset=offset)
    except ParameterError as exc:
        _fail(path, str(exc))


def _twi_to_dict(twi: TwiSpec) -> dict:
    return {"window": twi.window, "offset": "random" if twi.random_offset else twi.offset}


# params fields of analytic ops and plan sections that are not plain numbers
_PARAM_READERS = {
    "model": model_from_dict,
    "arrivals": _as_numbers,
    "cause": lambda value, path: _as_choice(value, path, ("physical", "digital")),
    "common_random_numbers": _as_bool,
    "figure": lambda value, path: _as_choice(value, path, (7, 8)),
}


def read_params(params: dict, spec: dict[str, Any]) -> dict[str, Any]:
    """Checked values of the ``params`` fields in ``spec``, which maps each
    name to its default: ``MISSING`` if required, ``None`` if it has none."""
    out = {}
    for name, default in spec.items():
        if name in params:
            out[name] = _PARAM_READERS.get(name, _as_number)(params[name], f"params.{name}")
        elif default is MISSING:
            _fail(f"params.{name}", "missing required field")
        else:
            out[name] = default
    return out


# ---------------------------------------------------------------------------
# Experiment config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    threads: int = 1
    twi: Optional[TwiSpec] = None
    scenario: Optional[Union[CausalChainScenario, FanOutScenario]] = None
    w_sweep: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)
    output: Optional[str] = None
    scenario_id: str = "run"


def config_from_dict(obj: Any, path: str = "config") -> ExperimentConfig:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {obj!r}")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        _fail(f"{path}.schema_version", f"unsupported version {version!r}")
    kind = _as_choice(_require(obj, "kind", path), f"{path}.kind", KINDS)

    trials = _as_int(obj.get("trials", DEFAULT_TRIALS), f"{path}.trials", 1)
    threads = _as_int(obj.get("threads", 1), f"{path}.threads", 1)
    seed = _as_int(obj.get("seed", DEFAULT_SEED), f"{path}.seed", 0)

    twi = _twi_from_dict(obj["twi"], f"{path}.twi") if "twi" in obj else None
    if twi is None and kind in ("chain_sim", "fanout_sim", "bounds_check"):
        twi = TwiSpec(0.0, 0.0)

    scenario = None
    if kind in ("chain_sim", "bounds_check", "fanout_sim"):
        chain = kind != "fanout_sim"
        sc = _require(obj, "scenario", path)
        if not isinstance(sc, dict):
            _fail(f"{path}.scenario", "expected an object")
        inputs = _require(sc, "inputs", f"{path}.scenario")
        if not isinstance(inputs, list) or len(inputs) < 1 + chain:
            _fail(
                f"{path}.scenario.inputs",
                "expected a list of at least two inputs" if chain else "expected a nonempty list of inputs",
            )
        if chain:
            action_times = _require(sc, "action_times", f"{path}.scenario")
            action_times = _as_numbers(action_times, f"{path}.scenario.action_times")
        inputs = tuple(
            _input_from_dict(inp, f"{path}.scenario.inputs[{i}]") for i, inp in enumerate(inputs)
        )
        try:
            if chain:
                anchor = _as_bool(
                    sc.get("anchor_first_arrival", False), f"{path}.scenario.anchor_first_arrival"
                )
                scenario = CausalChainScenario(action_times, inputs, anchor)
            else:
                scenario = FanOutScenario(inputs)
        except ParameterError as exc:
            _fail(f"{path}.scenario", str(exc))

    sweep = _as_numbers(obj.get("w_sweep", []), f"{path}.w_sweep")
    if sweep and any(b <= a for a, b in zip(sweep, sweep[1:])):
        _fail(f"{path}.w_sweep", "values must be strictly increasing")

    params = obj.get("params", {})
    if not isinstance(params, dict):
        _fail(f"{path}.params", "expected an object")

    return ExperimentConfig(
        kind=kind,
        seed=seed,
        trials=trials,
        threads=threads,
        twi=twi,
        scenario=scenario,
        w_sweep=sweep,
        params=dict(params),
        output=_as_optional_str(obj.get("output"), f"{path}.output"),
        scenario_id=_as_csv_field(obj.get("scenario_id", "run"), f"{path}.scenario_id"),
    )


def config_to_dict(
    cfg: ExperimentConfig, model_to_dict: Callable[[Any], dict] = lambda m: m.to_dict()
) -> dict:
    """The config as JSON-ready data; ``model_to_dict`` encodes the models
    of scenario inputs (``params`` are kept as given)."""
    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "threads": cfg.threads,
        "scenario_id": cfg.scenario_id,
    }
    if cfg.twi is not None:
        out["twi"] = _twi_to_dict(cfg.twi)
    if isinstance(cfg.scenario, CausalChainScenario):
        out["scenario"] = {
            "action_times": list(cfg.scenario.action_times),
            "inputs": [_input_to_dict(inp, model_to_dict) for inp in cfg.scenario.inputs],
            "anchor_first_arrival": cfg.scenario.anchor_first_arrival,
        }
    elif isinstance(cfg.scenario, FanOutScenario):
        out["scenario"] = {"inputs": [_input_to_dict(inp, model_to_dict) for inp in cfg.scenario.inputs]}
    if cfg.w_sweep:
        out["w_sweep"] = list(cfg.w_sweep)
    if cfg.params:
        out["params"] = cfg.params
    if cfg.output is not None:
        out["output"] = cfg.output
    return out


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(obj, path)


def _hashed_model(model: TransmissionTimeModel) -> dict:
    if isinstance(model, Empirical):  # a trace enters by its bytes, not as text
        digest = hashlib.sha256(model.array.astype("<f8", copy=False)).hexdigest()
        return {"kind": model.kind, "values_sha256": digest}
    return model.to_dict()


def config_sha256(cfg: ExperimentConfig) -> str:
    """SHA-256 of the config as compact JSON with sorted keys, in which each
    ``Empirical`` scenario model is the SHA-256 of its little-endian float64
    values; the manifest records it."""
    text = json.dumps(config_to_dict(cfg, _hashed_model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
