"""Property tests that fuzz the three parsers of outside input: the
scenario config, the ``allocate`` profile CSV and the parameter
checkpoint.  Each must turn bad input into its own error type (and so
into a CLI exit code), never into another exception."""

import copy
import csv
import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from race_wfl.cli import _PROFILE_COLUMNS, main
from race_wfl.config import _SECTIONS, config_from_dict
from race_wfl.errors import CheckpointError, ConfigError
from race_wfl.simulation import MappoPolicy, World
from race_wfl.tsfen import load_params, save_params

# small enough that building World and MappoPolicy takes milliseconds
SMALL = {
    "platoon": {"n_followers": 6},
    "selection": {"n_subchannels": 2, "subperiods": 3},
    "task": {"model_dim": 40},
    "mappo": {"d_model": 8, "n_heads": 2, "squeeze_dim": 3,
              "lstm_hidden": 6, "fc_hidden": 6},
}

FIELDS = [(section, f.name, f.default)
          for section, cls in _SECTIONS.items()
          for f in dataclasses.fields(cls)]


def _edge_values(default):
    values = [0, -1, math.nan, math.inf, -math.inf, "abc", [1, 2], default]
    if isinstance(default, (int, float)):
        values.append(2 * default)
    return values


field_edits = st.lists(
    st.sampled_from(FIELDS).flatmap(
        lambda fld: st.tuples(st.just(fld[:2]),
                              st.sampled_from(_edge_values(fld[2])))),
    max_size=3)


@settings(max_examples=150, deadline=None)
@given(field_edits)
def test_config_edge_values_raise_only_config_error(edits):
    data = copy.deepcopy(SMALL)
    for (section, name), value in edits:
        data.setdefault(section, {})[name] = value
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    World(cfg)
    MappoPolicy(cfg, 0)


# the profile columns, then a bandwidth column
_GOOD_ROW = ["100", "1e7", "0.5e9", "1e-28", "0.0316", "0.1", "1e6", "1e6",
             "1e6"]

profile_field = st.one_of(
    st.sampled_from(["", "abc", "nan", "inf", "-inf", "-1", "0", "1.5",
                     " 2", "1e400", "-0", "1,5", "-10", "-1e6", "0.0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=4),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(st.tuples(st.integers(0, 8), profile_field),
                         max_size=3), min_size=1, max_size=3))
# a negative gain and a negative bandwidth: their product passes the
# feasibility test, and this row then reached the bisection
@example(edits=[[(2, "5e9"), (5, "1"), (7, "-10"), (8, "-1e6")]])
# so many samples that the interior CPU fraction underflows to 0
@example(edits=[[(0, "6.629076639110102e+217")]])
def test_fuzzed_profile_csv_exits_with_a_documented_code(tmp_path, caplog,
                                                          edits):
    path = tmp_path / "profiles.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_PROFILE_COLUMNS + ("bandwidth",))
        for row_edits in edits:
            row = list(_GOOD_ROW)
            for col, text in row_edits:
                row[col] = text
            writer.writerow(row)
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        code = main(["allocate", "--profiles", str(path), "--out",
                     str(tmp_path / "out.csv")])
    assert code in (0, 2, 3, 4)
    if code == 4:
        # the solver's own failure, not a parse failure: one of the causes
        # that test_allocate_solver_failure_exits_4 pins, on a named row
        assert caplog.records[-1].getMessage().startswith(tuple(
            f"profile row {idx}: {cause}" for idx in range(len(edits))
            for cause in (
                "allocation solver failed to converge: a binding solve "
                "spends ",
                "tx_time must be > 0",
                "tx_time below the minimum achievable transmission time")))


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small.bin"
    rng = np.random.default_rng(0)
    save_params(path, {"a.W": rng.standard_normal((2, 3)),
                       "b": rng.standard_normal(4)}, meta={"k": 1})
    return path.read_bytes()


def test_truncated_checkpoint_raises_checkpoint_error(checkpoint,
                                                      tmp_path):
    path = tmp_path / "cut.bin"
    for keep in range(len(checkpoint)):
        path.write_bytes(checkpoint[:keep])
        with pytest.raises(CheckpointError):
            load_params(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_flipped_header_bytes_raise_only_checkpoint_error(checkpoint,
                                                          tmp_path, data):
    header_end = 12 + int.from_bytes(checkpoint[8:12], "little")
    blob = bytearray(checkpoint)
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, header_end - 1))
        blob[pos] ^= data.draw(st.integers(1, 255))
    path = tmp_path / "flipped.bin"
    path.write_bytes(bytes(blob))
    try:
        params, meta = load_params(path)
    except CheckpointError:
        return
    assert isinstance(meta, dict)
    assert all(isinstance(v, np.ndarray) for v in params.values())


@pytest.fixture(scope="module")
def policy_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "policy.bin"
    MappoPolicy(config_from_dict(SMALL), 0, train=False).save(path)
    return path.read_bytes()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_checkpoint_leaves_the_policy_untouched(policy_checkpoint,
                                                        tmp_path, data):
    # a loaded checkpoint goes straight into the live arrays, so every
    # rejection must come before the first byte is written
    blob = bytearray(policy_checkpoint)
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, header_end - 1))
            blob[pos] ^= data.draw(st.integers(1, 255))
    path = tmp_path / "damaged.bin"
    path.write_bytes(bytes(blob))
    policy = MappoPolicy(config_from_dict(SMALL), 1, train=False)
    live = policy._params()
    before = {name: p.tobytes() for name, p in live.items()}
    try:
        policy.load(path)
    except CheckpointError:
        assert {name: p.tobytes() for name, p in live.items()} == before
    # loaded or not (a flip in the JSON whitespace or the unread dtype
    # field leaves a valid file), the networks hold the same arrays
    assert all(p is live[name] for name, p in policy._params().items())
