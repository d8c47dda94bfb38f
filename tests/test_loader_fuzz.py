"""Every file loader, fed arbitrary input, either loads it or raises an
AudioKvError: never a KeyError, OverflowError or any other exception, which
the CLI would report as an internal error (exit 1) instead of exit 2."""

import argparse
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from audiokv.budget import load_plan
from audiokv.cli import _config_from_args
from audiokv.errors import AudioKvError
from audiokv.eviction import load_result
from audiokv.heads import load_scores
from audiokv.trace import AttentionTrace, DecodingStep, load_alignment, load_trace, write_trace

HUGE = 10**400  # overflows float()

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([HUGE, -HUGE, 2**63, 2**64])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def objects(*keys):
    """Arbitrary JSON values, and objects that hold the loader's keys."""
    return json_values | st.fixed_dictionaries({key: json_values for key in keys})


FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def loads_or_raises_audiokv_error(load, path, value):
    path.write_text(json.dumps(value))
    try:
        load(path)
    except AudioKvError:
        pass


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def read_config(path):
    return _config_from_args(argparse.Namespace(config=str(path)))


@FUZZ
@given(st.lists(objects("word", "start", "end", "score"), max_size=3) | json_values)
@example([{"word": "a", "start": HUGE, "end": 1.0, "score": 0.9}])
@example([{"word": "a", "start": 0.0, "end": 1.0, "score": HUGE}])
def test_alignment_file(work, value):
    loads_or_raises_audiokv_error(load_alignment, work / "alignment.json", value)


@FUZZ
@given(objects("num_layers", "num_heads", "num_samples", "scores"))
def test_scores_file(work, value):
    loads_or_raises_audiokv_error(load_scores, work / "scores.json", value)


@FUZZ
@given(objects("window", "base", "budget", "mode", "capacities"))
def test_plan_file(work, value):
    loads_or_raises_audiokv_error(load_plan, work / "plan.json", value)


@FUZZ
@given(objects("policy", "context_length", "retained"))
@example({"policy": "p", "context_length": 10**15, "retained": [[[]]]})
def test_result_file(work, value):
    loads_or_raises_audiokv_error(load_result, work / "result.json", value)


@FUZZ
@given(
    objects("tau", "top_k", "window", "base_fraction", "cutoff_ratio", "mix_alpha")
    | st.fixed_dictionaries({"retention_ratios": json_values})
)
@example({"retention_ratios": [HUGE]})
def test_config_file(work, value):
    loads_or_raises_audiokv_error(read_config, work / "config.json", value)


@pytest.fixture(scope="module")
def two_step_trace(work):
    steps = tuple(
        DecodingStep(i, "", np.full((1, 1, 2 + i), 1 / (2 + i), dtype=np.float32))
        for i in range(2)
    )
    path = work / "two-step.akvt"
    write_trace(AttentionTrace(1, 1, steps, 0, 2, 1.0), path)
    return path


@FUZZ
@given(st.lists(json_values, min_size=2, max_size=2) | json_values)
def test_tokens_sidecar(two_step_trace, value):
    sidecar = two_step_trace.with_name(two_step_trace.name + ".tokens.json")
    try:
        loads_or_raises_audiokv_error(lambda _: load_trace(two_step_trace), sidecar, value)
    finally:
        sidecar.unlink()


HEADER = struct.Struct("<4sIIIIIId")
u32 = st.integers(0, 3) | st.integers(0, 2**32 - 1)


@FUZZ
@given(
    st.binary(max_size=80)
    | st.builds(lambda rest: b"AKVT\x01\x00\x00\x00" + rest, st.binary(max_size=80))
    | st.builds(
        lambda fields, duration, rest: HEADER.pack(b"AKVT", 1, *fields, duration) + rest,
        st.tuples(u32, u32, u32, u32, u32),
        st.floats(),
        st.binary(max_size=80),
    )
)
@example(HEADER.pack(b"AKVT", 1, 1, 1, 2**32 - 1, 0, 0, 1.0))  # steps the file cannot hold
@example(HEADER.pack(b"AKVT", 1, 0, 2**32 - 1, 1, 0, 0, 1.0) + struct.pack("<I", 2**32 - 1))
def test_trace_file(work, data):
    path = work / "trace.akvt"
    path.write_bytes(data)
    try:
        load_trace(path)
    except AudioKvError:
        pass
