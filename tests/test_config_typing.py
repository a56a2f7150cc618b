"""Strict typing over every config field.

Each base config below is valid and gives every field its kind reads: the
top level, ``twi``, the scenario, a link of each model kind, a sensor, and
the ``params`` of each analytic op and plan section.  Replacing any one of
its fields with a JSON value of a type that field does not accept must exit
2 with ``config error: <path>`` naming that field, and print no traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twisim.cli import main

MODELS = [
    {"kind": "constant", "value": 0.5},
    {"kind": "uniform", "low": 0.1, "high": 0.4},
    {"kind": "shifted_exponential", "shift": 0.1, "rate": 5.0},
    {"kind": "two_point", "value_a": 0.1, "value_b": 0.3, "p_a": 0.5},
    {"kind": "empirical", "values": [0.1, 0.2]},
]
INPUTS = [{"type": "link", "model": m, "delay": 0.1} for m in MODELS] + [
    {"type": "sensor", "t_s": 0.2, "tau_s": 0.01, "mode": "synchronous", "sensor_id": "s"}
]
CHAIN = {"action_times": [0.1] * (len(INPUTS) - 1), "inputs": INPUTS, "anchor_first_arrival": False}
COMMON = {"schema_version": 1, "seed": 1, "trials": 10, "threads": 1, "output": "unused.csv", "scenario_id": "run"}
RECEIVER = {"t_s": 0.01, "tau_s": 0.001, "tau_a": 0.002, "w": 0.005}
OPS = {
    "two_sensor_min_window": {"t_s1": 0.1, "t_s2": 0.1, "tau_s1": 0.0, "tau_s2": 0.01},
    "sim_violation_n": {"arrivals": [0.1, 0.2], "w": 0.5},
    "cv_physical_cause": {"t_s": 0.1, "t_d": 0.2, "w": 0.5},
    "cv_digital_cause": {"t_s": 0.1, "t_d": 0.2, "w": 0.5},
    "conditions_physical_cause": {**RECEIVER, "t_min": 0.0, "t_max": 1.0, "t_ab": 0.005},
    "conditions_digital_cause": {**RECEIVER, "t_min": 0.0, "t_max": 1.0, "t_ab": 0.005},
    "expected_cv_two_input": {**RECEIVER, "model": MODELS[1], "cause": "digital"},
    "event_throughput_loss": {"w": 0.5, "t_0": 1.0},
}
PLAN = {
    "t_s": 0.01, "tau_a": 0.0, "tau_s": 0.0, "sender_budget": 0.005, "model": MODELS[4], "w": 0.1, "slot": 0.5, "t": 1.0
}

# name: (command, a valid config that gives every field of its kind)
BASES = {
    "chain_sim": (
        "simulate",
        {
            "kind": "chain_sim",
            **COMMON,
            "twi": {"window": 0.5, "offset": 0.1},
            "w_sweep": [0.0, 0.5],
            "scenario": CHAIN,
            "params": {"common_random_numbers": True},
        },
    ),
    "fanout_sim": (
        "simulate",
        {"kind": "fanout_sim", **COMMON, "twi": {"window": 0.5, "offset": "random"}, "scenario": {"inputs": INPUTS}},
    ),
    "bounds_check": ("bounds", {"kind": "bounds_check", **COMMON, "twi": {"window": 0.5}, "scenario": CHAIN}),
    "plan": ("plan", {"kind": "plan", **COMMON, "params": PLAN}),
    "reproduce": ("reproduce", {"kind": "reproduce", **COMMON, "params": {"figure": 7}}),
    **{
        op: ("analytic", {"kind": "analytic", **COMMON, "params": {"op": op, **fields}})
        for op, fields in OPS.items()
    },
}

NULLABLE = {"output", "sensor_id"}  # fields that take null as well as their own type
OFFSET = ("twi", "offset")  # takes a number or the one string "random", in any base
BAD_VALUES = (True, None, "0.5", [], {})


def _json_type(value):
    return type(value) if type(value) in (bool, str, list, dict, type(None)) else float


def _fields(obj, path, shown):
    """(path, shown path, value) of every field below ``obj``: the keys of
    each object and the items of each list.  A bad item of a list of
    numbers is reported at the list, one of a list of objects at its index."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(obj, dict):
            # params fields are named from ``params``, not from the file
            child = f"params.{key}" if path == ("params",) else f"{shown}.{key}"
        else:
            child = f"{shown}[{key}]" if isinstance(value, dict) else shown
        yield path + (key,), child, value
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,), child)


FIELDS = [(name, *field) for name, (_, cfg) in BASES.items() for field in _fields(cfg, (), "CFG")]


def _accepts_type(field, value):
    """Whether ``value`` has the JSON type of the field's valid value, or is
    a null that the field takes; twi.offset takes numbers and "random"."""
    path, valid = field[1], field[3]
    if path == OFFSET:
        return _json_type(value) is float or value == "random"
    return _json_type(value) is _json_type(valid) or (value is None and path[-1] in NULLABLE)


def _replaced(obj, path, value):
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _misread(field, bad, directory):
    """None if the base config with ``field`` set to ``bad`` exits 2 with a
    config error at that field and no traceback, else what it printed."""
    name, path, shown, _ = field
    command, cfg = BASES[name]
    cfg_path = directory / "cfg.json"
    cfg_path.write_text(json.dumps(_replaced(cfg, path, bad)))
    code, err = _run([command, str(cfg_path), "--out", str(directory / "out.csv")])
    prefix = "config error: " + shown.replace("CFG", str(cfg_path), 1)
    if code == 2 and err.startswith(prefix) and err[len(prefix)] in ":.[" and "Traceback" not in err:
        return None
    return (shown, bad, code, err)


@pytest.mark.parametrize("name", BASES)
def test_every_base_config_is_valid(tmp_path, name):
    command, cfg = BASES[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run([command, str(path), "--out", str(tmp_path / "out.csv")]) == (0, "")


def test_the_fields_cover_every_kind_of_field():
    shown = {field[2].replace("CFG", "") for field in FIELDS}
    for key in ("kind", "seed", "output", "twi.offset", "w_sweep", "scenario.anchor_first_arrival"):
        assert f".{key}" in shown, key
    for key in ("mode", "sensor_id", "delay", "model.kind", "model.rate", "model.p_a", "model.values"):
        assert any(s.startswith(".scenario.inputs[") and s.endswith(f"].{key}") for s in shown), key
    for key in ("op", "arrivals", "t_max", "model.low", "cause", "slot", "figure", "common_random_numbers"):
        assert f"params.{key}" in shown, key


def test_each_field_rejects_true_null_a_string_a_list_and_an_object(tmp_path):
    cases = [(field, bad) for field in FIELDS for bad in BAD_VALUES if not _accepts_type(field, bad)]
    assert len(cases) > 1000
    assert [m for field, bad in cases if (m := _misread(field, bad, tmp_path))] == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=6,
)


@given(st.sampled_from(FIELDS), JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_any_value_of_another_type_exits_2_naming_its_field(tmp_path_factory, field, value):
    assume(not _accepts_type(field, value))
    assert _misread(field, value, tmp_path_factory.mktemp("typing")) is None
