"""The benchmark records at the repository root: every ``BENCH_*.json``
carries the fields a reader compares a change by, for every workload and
end-to-end metric that ``BENCHMARK.json`` declares."""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_record_has_the_medians_of_every_workload_and_metric(path):
    record = json.loads(path.read_text())
    for key in ("change", "parent", "host", "end_to_end_pairs"):
        assert key in record, f"{path.name}: no {key}"
    pairs = record["end_to_end_pairs"]
    for workload in BENCHMARK["workloads"]:
        for metric in BENCHMARK["end_to_end"]:
            where = f"{path.name}: end_to_end_pairs.{workload['name']}.{metric['name']}"
            entry = pairs.get(workload["name"], {}).get(metric["name"])
            assert isinstance(entry, dict), f"{where} missing"
            for side in ("parent_median", "change_median"):
                value = entry.get(side)
                assert isinstance(value, Real) and not isinstance(value, bool), f"{where}.{side} is {value!r}"
