"""Guards of the service layer's one durable record format.

Nothing under ``repro.service`` or ``repro.campaign`` may load pickles; every
campaign result of every registered fault model must survive the records
codec unchanged; and a record naming a type off the codec's allow-list is
damage, never code to run.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import pytest
from test_golden_campaign import CASES, GOLDEN_DIR

from repro.analysis_static.diagnostics import Severity
from repro.campaign import Campaign, CampaignSpec, registered_models
from repro.campaign.circuits import resolve_circuit
from repro.faults.base import FaultList
from repro.logic import GateType
from repro.service import SCHEMA_VERSION, ResultCache
from repro.service.cache import CACHE_SCHEMA
from repro.service.records import decode, encode, encode_record

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


@pytest.mark.parametrize("package", ["service", "campaign"])
def test_no_module_imports_pickle(package):
    modules = sorted((SRC / package).glob("*.py"))
    assert modules
    offenders = [
        path.name for path in modules
        if any(name.split(".")[0] in ("pickle", "cPickle", "dill")
               for name in _imported_modules(path))
    ]
    assert offenders == []


def _round_trip(value):
    return decode(json.loads(json.dumps(encode(value))))


def _assert_same_result(result, back):
    for field in dataclasses.fields(result):
        expected, actual = getattr(result, field.name), getattr(back, field.name)
        if isinstance(expected, FaultList):
            expected, actual = list(expected), list(actual)
        assert actual == expected, field.name
    assert back.as_dict() == result.as_dict()


@pytest.mark.parametrize("model", registered_models())
def test_every_registered_model_round_trips(model):
    """A new Fault type (or any result part) missing from the allow-list
    fails here, at encode time, instead of on some later cache read."""
    spec = CampaignSpec(
        model=model, circuit="c17", pattern_source="random", pattern_count=4, seed=3,
    )
    result = Campaign(spec).run()
    assert result.faults, model
    _assert_same_result(result, _round_trip(result))


def test_codec_keeps_enums_big_ints_and_key_types():
    value = {
        "severity": Severity.ERROR,
        "gates": [GateType.NAND2],
        "word": 1 << 4500,  # beyond int->str's default 4,300-digit limit
        "negative": -(2**60),
        "histogram": {0: 3, 2: 1},
        "pair": ((0, 1), (1, 0)),
    }
    encoded = json.dumps(encode(value))
    back = decode(json.loads(encoded))
    assert back == value
    assert back["severity"] is Severity.ERROR and back["gates"][0] is GateType.NAND2
    assert type(back["pair"]) is tuple and type(back["pair"][0]) is tuple


def test_bit_tuples_are_stored_as_one_string():
    pattern = (0, 1, 1, 0)
    assert encode(pattern) == {"#": "bits", "bits": "0110"}
    assert _round_trip(pattern) == pattern
    assert type(_round_trip(pattern)[0]) is int


@pytest.mark.parametrize("value", [(True, False), (0, 2), (1, None), ((0, 1),)])
def test_other_tuples_keep_the_tuple_tag(value):
    assert encode(value)["#"] == "tuple"
    back = _round_trip(value)
    assert back == value and [type(item) for item in back] == [type(item) for item in value]


def test_empty_tuple_round_trips():
    assert encode(()) == {"#": "tuple", "items": []}
    assert _round_trip(()) == ()


def test_nodrop_mult_result_round_trips():
    """The largest benchmark result: 8,192 twelve-bit tests in two lists."""
    spec = CampaignSpec(model="stuck-at", circuit="mult:6", pattern_source="random",
                        pattern_count=8192, seed=0, engine="numpy")
    result = Campaign(spec).run()
    encoded = encode(result)
    assert encoded["pattern_phase"]["tests"][0]["#"] == "bits"
    _assert_same_result(result, decode(json.loads(json.dumps(encoded))))


def test_types_off_the_allow_list_are_refused():
    with pytest.raises(TypeError, match="allow-list"):
        encode(Path("x"))
    with pytest.raises(ValueError, match="allow-list"):
        decode({"#": "posix.system", "command": "true"})


def test_cache_record_naming_a_foreign_type_is_a_quarantined_miss(tmp_path):
    spec = CampaignSpec(model="stuck-at", circuit="c17", pattern_source="random",
                        pattern_count=4, seed=1)
    cache = ResultCache(tmp_path)
    key = cache.key_for(None, spec)
    marker = tmp_path / "ran"
    path = tmp_path / f"{key}.json"
    path.write_text(encode_record({
        "schema": CACHE_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "key": key,
        "result": {"#": "posix.system", "command": f"touch {marker}"},
    }))
    assert cache.get(key) is None
    assert cache.stats.quarantined == 1 and cache.stats.misses == 1
    assert not path.exists() and not marker.exists()
    assert [p.name for p in (tmp_path / "quarantine").iterdir()] == [path.name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_results_round_trip_through_the_cache(name, tmp_path):
    bench, spec = CASES[name]
    result = Campaign(spec).run(resolve_circuit(GOLDEN_DIR / bench))
    cache = ResultCache(tmp_path)
    cache.put(name, result)
    _assert_same_result(result, cache.get(name))
    assert cache.stats.hits == 1
