"""Experiment configuration: versioned JSON schema and its strict reader.

A config names an experiment kind, a scenario (for the simulation kinds), a
window spec, trial/seed settings and an output path.  Every JSON object in
it, ``params`` included, is read by one reader from a field spec: a missing
required field, a value of the wrong type and any unknown key are errors
that name the offending field path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Optional, Union

from twisim.core import MODEL_KINDS, ParameterError, TransmissionTimeModel, _shown, ensure_duration
from twisim.inputs import SENSOR_MODES, ScenarioInput, sensor
from twisim.mc import CausalChainScenario, FanOutScenario
from twisim.twi import TwiSpec

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message names the violated field."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


# A field spec maps each field name to (reader, default).  reader(value, path)
# checks a present JSON value and returns what the field holds; the default
# is what an absent field holds, MISSING if the field is required.
Reader = Callable[[Any, str], Any]
Spec = dict[str, tuple[Reader, Any]]


def _read_object(obj: Any, path: str, spec: Spec) -> dict[str, Any]:
    """The fields of the JSON object ``obj`` at ``path``, read by ``spec``."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {_shown(obj)}")
    for key in obj:
        if key not in spec:
            _fail(f"{path}.{key}", "unknown field")
    out = {}
    for name, (read, default) in spec.items():
        if name in obj:
            out[name] = read(obj[name], f"{path}.{name}")
        elif default is MISSING:
            _fail(f"{path}.{name}", "missing required field")
        else:
            out[name] = default
    return out


def _read_tagged(obj: Any, path: str, tag: str, specs: dict[str, Spec]) -> tuple[str, dict[str, Any]]:
    """The required ``tag`` field of the JSON object ``obj``, which picks
    its spec from ``specs``, and the object's other fields read by it."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {_shown(obj)}")
    if tag not in obj:
        _fail(f"{path}.{tag}", "missing required field")
    name = _as_choice(obj[tag], f"{path}.{tag}", tuple(specs))
    return name, _read_object({k: v for k, v in obj.items() if k != tag}, path, specs[name])


def _build(cls: Callable, args: dict[str, Any], path: str) -> Any:
    """``cls(**args)``; a violated invariant is a config error at ``path``."""
    try:
        return cls(**args)
    except ParameterError as exc:
        _fail(path, str(exc))


def _as_object(cls: Callable, spec: Spec) -> Reader:
    """A reader of a JSON object that builds ``cls`` from its fields."""
    return lambda value, path: _build(cls, _read_object(value, path, spec), path)


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "number too large for a float")


def _as_numbers(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        _fail(path, f"expected a list of numbers, got {_shown(value)}")
    types = set(map(type, value))  # one pass over long traces
    if types <= {float}:
        return tuple(value)  # float(x) is x itself for a float
    if types <= {int, float}:
        try:
            return tuple(map(float, value))
        except OverflowError:
            pass
    return tuple(_as_number(v, path) for v in value)  # names the first bad value


def _as_choice(value: Any, path: str, choices: tuple) -> Any:
    if value not in choices:
        _fail(path, f"expected one of {choices}, got {_shown(value)}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {_shown(value)}")
    return value


def _as_optional_str(value: Any, path: str) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        _fail(path, f"expected a string, got {_shown(value)}")
    return value


def _as_csv_field(value: Any, path: str) -> str:
    if not isinstance(value, str) or any(c in value for c in ',"\r\n'):
        _fail(path, f"expected a string without commas, quotes or line breaks, got {_shown(value)}")
    try:
        value.encode("utf-8")  # a lone surrogate is valid JSON and cannot be written
    except UnicodeEncodeError:
        _fail(path, f"expected a string encodable as UTF-8, got {_shown(value)}")
    return value


def _as_int(value: Any, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {_shown(value)}")
    if value < minimum:
        _fail(path, f"must be >= {minimum}, got {_shown(value)}")
    return value


# Model fields a config may omit beyond those with a default in the class.
_MODEL_FIELD_DEFAULTS = {"shift": 0.0}

_MODEL_SPECS = {
    kind: {
        f.name: (_as_numbers if f.name == "values" else _as_number, _MODEL_FIELD_DEFAULTS.get(f.name, f.default))
        for f in fields(cls)
    }
    for kind, cls in MODEL_KINDS.items()
}


def model_from_dict(obj: Any, path: str = "model") -> TransmissionTimeModel:
    kind, args = _read_tagged(obj, path, "kind", _MODEL_SPECS)
    return _build(MODEL_KINDS[kind], args, path)


_INPUT_SPECS = {
    "link": {"model": (model_from_dict, MISSING), "delay": (_as_number, 0.0)},
    "sensor": {
        "t_s": (_as_number, MISSING),
        "tau_s": (_as_number, 0.0),
        "mode": (lambda value, path: _as_choice(value, path, SENSOR_MODES), "synchronous"),
        "sensor_id": (_as_optional_str, None),
    },
}
_INPUT_TYPES = {"link": ScenarioInput, "sensor": sensor}


def _input_from_dict(obj: Any, path: str) -> ScenarioInput:
    kind, args = _read_tagged(obj, path, "type", _INPUT_SPECS)
    return _build(_INPUT_TYPES[kind], args, path)


def _as_inputs(value: Any, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of inputs")
    return tuple(_input_from_dict(inp, f"{path}[{i}]") for i, inp in enumerate(value))


_CHAIN_SPEC = {
    "action_times": (_as_numbers, MISSING),
    "inputs": (_as_inputs, MISSING),
    "anchor_first_arrival": (_as_bool, False),
}
_FANOUT_SPEC = {"inputs": (_as_inputs, MISSING)}
_TWI_SPEC = {
    "window": (_as_number, 0.0),
    "offset": (lambda value, path: None if value == "random" else _as_number(value, path), 0.0),
}


# params fields of the runners that are not plain numbers
_PARAM_READERS = {
    "op": lambda value, path: value,  # the analytic runner has matched it to an op
    "model": model_from_dict,
    "arrivals": _as_numbers,
    "cause": lambda value, path: _as_choice(value, path, ("physical", "digital")),
    "common_random_numbers": _as_bool,
    "figure": lambda value, path: _as_choice(value, path, (7, 8)),
}


def read_params(params: dict, spec: dict[str, Any]) -> dict[str, Any]:
    """The ``params`` fields in ``spec``, which maps each name to its default
    (``MISSING`` if required, ``None`` if it has none); any other key in
    ``params`` is an error."""
    return _read_object(
        params, "params", {name: (_PARAM_READERS.get(name, _as_number), d) for name, d in spec.items()}
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config.  ``twi``, ``w_sweep`` and ``scenario`` keep their
    defaults for the kinds that do not read them.  ``sha256`` is the SHA-256
    of the JSON bytes it was read from, ``None`` for one built by
    ``config_from_dict``."""

    kind: str
    seed: int
    trials: int
    threads: int
    params: dict
    output: Optional[str]
    scenario_id: str
    twi: TwiSpec = TwiSpec(0.0)
    w_sweep: tuple[float, ...] = ()
    scenario: Optional[Union[CausalChainScenario, FanOutScenario]] = None
    sha256: Optional[str] = None


def _as_schema_version(value: Any, path: str) -> int:
    if type(value) is not int or value != SCHEMA_VERSION:  # not true, not 1.0
        _fail(path, f"unsupported version {_shown(value)}")
    return value


def _as_sweep(value: Any, path: str) -> tuple[float, ...]:
    sweep = _as_numbers(value, path)
    for w in sweep:
        try:
            ensure_duration(w, "width")
        except ParameterError as exc:
            _fail(path, str(exc))
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        _fail(path, "values must be strictly increasing")
    return sweep


def _as_params(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {_shown(value)}")
    return value


# The top-level fields of each kind: every kind takes the common ones (seed,
# trials and threads too, though only the simulation kinds draw), and a
# field only some kinds read is unknown to the others.
_COMMON_SPEC = {
    "schema_version": (_as_schema_version, SCHEMA_VERSION),
    "seed": (lambda value, path: _as_int(value, path, 0), 1),
    "trials": (lambda value, path: _as_int(value, path, 1), 100_000),
    "threads": (lambda value, path: _as_int(value, path, 1), 1),
    "params": (_as_params, {}),  # read by the kind's runner, never written to
    "output": (_as_optional_str, None),
    "scenario_id": (_as_csv_field, "run"),
}
_TWI_FIELD = {"twi": (_as_object(TwiSpec, _TWI_SPEC), TwiSpec(0.0))}
_CHAIN_FIELD = {"scenario": (_as_object(CausalChainScenario, _CHAIN_SPEC), MISSING)}
_CONFIG_SPECS = {
    "analytic": _COMMON_SPEC,
    # a chain_sim with a w_sweep runs the sweep and does not read twi
    "chain_sim": {**_COMMON_SPEC, **_TWI_FIELD, "w_sweep": (_as_sweep, ()), **_CHAIN_FIELD},
    "fanout_sim": {
        **_COMMON_SPEC, **_TWI_FIELD, "scenario": (_as_object(FanOutScenario, _FANOUT_SPEC), MISSING)
    },
    "bounds_check": {**_COMMON_SPEC, **_TWI_FIELD, **_CHAIN_FIELD},
    "plan": _COMMON_SPEC,
    "reproduce": _COMMON_SPEC,
}


def config_from_dict(obj: Any, path: str = "config", **overrides: Any) -> ExperimentConfig:
    """Read a config; fields in ``overrides``, checked by the caller, replace what it reads."""
    kind, args = _read_tagged(obj, path, "kind", _CONFIG_SPECS)
    del args["schema_version"]  # checked; there is only one
    return ExperimentConfig(kind=kind, **{**args, **overrides})


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The JSON object of ``pairs``; a key given twice is a ``ValueError``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()  # linear: a config's objects come from outside
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {_shown(key)}")
            seen.add(key)
    return obj


# json.loads with a hook builds a decoder per call; this one is shared.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _parse_json(data: bytes, path: str) -> tuple[Any, str]:
    """The JSON value of the UTF-8 bytes ``data`` and their SHA-256.  Each
    buffer is dropped once read: bytes that the caller does not keep are
    freed before the text is parsed, and the text before a model is built."""
    sha256 = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
        del data
        if text.startswith("\ufeff"):  # json.loads's check, which the decoder lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text), sha256
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # a duplicate key, or an integer literal beyond the interpreter's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc


def config_from_json(data: bytes, path: str = "config", **overrides: Any) -> ExperimentConfig:
    """Parse and validate a config from its UTF-8 JSON bytes; ``path`` names
    it in errors.  The config's ``sha256`` is the SHA-256 of ``data``."""
    obj, sha256 = _parse_json(data, path)
    return config_from_dict(obj, path, sha256=sha256, **overrides)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc


def load_config(path: str, **overrides: Any) -> ExperimentConfig:
    """Parse and validate a JSON config file; ``overrides`` replace fields.
    The file's bytes are passed on unnamed, so only the parser holds them."""
    obj, sha256 = _parse_json(_read_bytes(path), path)
    return config_from_dict(obj, path, sha256=sha256, **overrides)
