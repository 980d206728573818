"""Checksummed artifact files: round trip, integrity checks, frozen bytes."""

import hashlib
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch import artifacts, memstore
from objsearch.artifacts import IntegrityError
from objsearch.embed import EmbedderConfig
from objsearch.homesim import generate_world, patrol, write_stream

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
headers = st.dictionaries(st.text(), json_values, max_size=5)


@settings(max_examples=150, deadline=None)
@given(header=headers, records=st.lists(json_values, max_size=8))
def test_round_trip(header, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.jsonl")
        artifacts.write(path, header, records)
        assert artifacts.read(path) == ({**header, "count": len(records)}, records)


def small_file(tmp_path):
    path = str(tmp_path / "a.jsonl")
    artifacts.write(path, {"kind": "xé"}, [{"a": [1, 2.5]}, "r s", None])
    return path


def test_any_changed_body_byte_is_rejected(tmp_path):
    path = small_file(tmp_path)
    data = open(path, "rb").read()
    body = data.rfind(b"\n", 0, len(data) - 1) + 1
    for i in range(body):
        for new in {data[i] ^ 1, data[i] ^ 0x80, ord("\r"), ord("\n")} - {data[i]}:
            open(path, "wb").write(data[:i] + bytes([new]) + data[i + 1:])
            with pytest.raises(IntegrityError):
                artifacts.read(path)


@pytest.mark.parametrize("cut", ["", "trailer", "last record"])
def test_truncation_is_rejected(tmp_path, cut):
    path = small_file(tmp_path)
    lines = open(path, "rb").read().splitlines(keepends=True)
    keep = {"": 0, "trailer": len(lines) - 1, "last record": len(lines) - 2}[cut]
    open(path, "wb").write(b"".join(lines[:keep]) + (lines[-1] if cut == "last record" else b""))
    with pytest.raises(IntegrityError):
        artifacts.read(path)


def test_writer_owns_count_and_reader_checks_header(tmp_path):
    path = str(tmp_path / "a.jsonl")
    artifacts.write(path, {"count": 99, "format": "f"}, [1, 2])
    assert artifacts.read(path, expect={"format": "f"}, require=("count",)) == (
        {"count": 2, "format": "f"}, [1, 2])
    with pytest.raises(IntegrityError, match="unsupported format 'f', expected 'g'"):
        artifacts.read(path, expect={"format": "g"})
    with pytest.raises(IntegrityError, match="malformed header: missing 'version'"):
        artifacts.read(path, require=("version",))

    def decode(record):
        if record != 1:
            raise ValueError("boom")
        return record

    with pytest.raises(IntegrityError, match="record 1: boom"):
        artifacts.read(path, decode)


def frozen_stream():
    world, schedule = generate_world(0, 1)
    return patrol(world, schedule, days=3)[:40]


def sha256_of(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_memory_file_bytes_are_frozen(tmp_path):
    """These bytes change only together with memstore.FORMAT_VERSION."""
    path = str(tmp_path / "memory.jsonl")
    memory = memstore.build(frozen_stream(), EmbedderConfig(d=16), snapshot_every=7)
    memstore.persist(memory, path, extra_header={"config_hash": "0123456789abcdef"})
    assert memstore.FORMAT_VERSION == 2
    assert sha256_of(path) == "518d185db091776ead132ef30aeef1db53a32f57bf5a81b0e3d5920c66f67a37"


MEMORY_V1 = os.path.join(os.path.dirname(__file__), "data", "memory_v1.jsonl")


def test_memory_file_v1_still_loads(tmp_path):
    """The same memory as persisted by format version 1, bytes frozen."""
    assert sha256_of(MEMORY_V1) == "2d393cd22c45d90583a54b695c8c51c404d7c9627c671e97f7e35ec557a93a90"
    memory = memstore.build(frozen_stream(), EmbedderConfig(d=16), snapshot_every=7)
    loaded = memstore.load(MEMORY_V1)
    assert list(loaded.records) == list(memory.records)
    assert (loaded.d, loaded.ticks_per_day, loaded.snapshot_every, loaded.embedder_id, loaded.mode) == (
        memory.d, memory.ticks_per_day, memory.snapshot_every, memory.embedder_id, memory.mode)
    path = str(tmp_path / "memory.jsonl")
    memstore.persist(loaded, path, extra_header={"config_hash": "0123456789abcdef"})
    assert list(memstore.load(path).records) == list(memory.records)


def test_memory_file_v1_loads_with_shared_raws(tmp_path):
    """A v1 line carries its own raw; load shares equal non-keyframe raws
    of consecutive records, so re-persisting writes no more raw lines than
    persisting the build."""
    memory = memstore.build(frozen_stream(), EmbedderConfig(d=16), snapshot_every=7)
    loaded = memstore.load(MEMORY_V1)
    assert list(loaded.records) == list(memory.records)
    path = str(tmp_path / "memory.jsonl")
    memstore.persist(loaded, path)
    header, _ = artifacts.verify(path)
    assert header["count"] == 40 and header["raws"] <= len(memory._raws) == 13
    assert list(memstore.load(path).records) == list(memory.records)


def test_tables_come_before_records_and_are_counted(tmp_path):
    path = str(tmp_path / "a.jsonl")
    artifacts.write(path, {"kind": "k"}, [1, 2], tables={"a": ["x"], "b": [[0], [1], [2]]})
    header, lines = artifacts.verify(path)
    assert header == {"kind": "k", "a": 1, "b": 3, "count": 2}
    assert artifacts.sections(header, lines, tables={"a": str.upper, "b": len}) == [["X"], [1, 1, 1], [1, 2]]
    with pytest.raises(IntegrityError, match="record count mismatch: header says 2, found 6"):
        artifacts.sections(header, lines)
    with pytest.raises(IntegrityError, match="b 0: object of type 'int' has no len"):
        artifacts.sections(header, lines, tables={"a": str, "b": lambda row: len(row[0])})
    with pytest.raises(IntegrityError, match="malformed header: 'c' must be a line count, got None"):
        artifacts.sections(header, lines, tables={"c": str})


def test_stream_file_bytes_are_frozen(tmp_path):
    """These bytes change only together with the stream format version."""
    path = str(tmp_path / "stream.jsonl")
    write_stream(path, frozen_stream(), meta={"config": {"ticks_per_day": 200}})
    assert sha256_of(path) == "06813ebdfe576949a12434871dc2662ef35695e576c0c32dd3366ac9730dac05"
