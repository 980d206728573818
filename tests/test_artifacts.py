"""Checksummed artifact files: round trip, integrity checks, frozen bytes."""

import hashlib
import os
import re
import tempfile

import pytest
from conftest import rewrite_header
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch import artifacts, memstore
from objsearch.artifacts import IntegrityError
from objsearch.embed import EmbedderConfig
from objsearch.homesim import generate_world, patrol, read_stream, write_stream

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


MEMORY_V5_SHA256 = "e7c0fa32dfe5df01ffc987a983cc1ef6475cad775b7e9bb6f31e74067ab27e38"


def test_memory_file_bytes_are_frozen(tmp_path):
    """These bytes change only together with memstore.FORMAT_VERSION."""
    path = str(tmp_path / "memory.jsonl")
    memory = memstore.build(frozen_stream(), EmbedderConfig(d=16), snapshot_every=7)
    memstore.persist(memory, path, extra_header={"config_hash": "0123456789abcdef"})
    assert memstore.FORMAT_VERSION == 5
    assert sha256_of(path) == MEMORY_V5_SHA256


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_memory_file_v4_still_loads(tmp_path):
    """The frozen v4 file of the same memory loads equal to the build,
    tables included, and re-persists as the frozen v5 bytes."""
    path = os.path.join(DATA, "memory_v4.jsonl")
    assert sha256_of(path) == "2c062c2a8373d1dc64843bcce352b4b0a8bf5fa42147d13259340158577b5f05"
    assert artifacts.verify(path)[0]["format_version"] == 4
    memory = memstore.build(frozen_stream(), EmbedderConfig(d=16), snapshot_every=7)
    loaded = memstore.load(path)
    assert list(loaded.records) == list(memory.records)
    assert (loaded.d, loaded.ticks_per_day, loaded.snapshot_every, loaded.embedder_id, loaded.mode) == (
        memory.d, memory.ticks_per_day, memory.snapshot_every, memory.embedder_id, memory.mode)
    assert (loaded._k, loaded._raws) == (memory._k, memory._raws)
    again = str(tmp_path / "memory.jsonl")
    memstore.persist(loaded, again, extra_header={"config_hash": "0123456789abcdef"})
    assert sha256_of(again) == MEMORY_V5_SHA256


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


@pytest.mark.parametrize("kind", ["memory", "stream"])
@pytest.mark.parametrize("count", [40.0, 3.0, True, "40", None, -1])
def test_count_must_be_a_json_integer(tmp_path, kind, count):
    """A checksummed file whose header count is not a non-negative JSON
    integer is refused, even where it equals the line count as a number."""
    path = str(tmp_path / "file.jsonl")
    if kind == "memory":
        memstore.persist(memstore.build(frozen_stream(), EmbedderConfig(d=16)), path)
        load = memstore.load
    else:
        write_stream(path, frozen_stream())
        load = read_stream
    assert artifacts.verify(path)[0]["count"] == (12 if kind == "memory" else 3)  # column lines or runs
    load(path)
    rewrite_header(path, lambda header: header.update({"count": count}))
    message = f"malformed header: 'count' must be a line count, got {count!r}"
    with pytest.raises(IntegrityError, match=re.escape(message)):
        load(path)


STREAM_V2_SHA256 = "5ecdd2504e5c30cf02d4716aa154c634cb1f6ac1d430c7f749713e9f9a8287b0"


def test_stream_file_bytes_are_frozen(tmp_path):
    """These bytes change only together with the stream format version."""
    path = str(tmp_path / "stream.jsonl")
    write_stream(path, frozen_stream(), meta={"config": {"ticks_per_day": 200}})
    assert sha256_of(path) == STREAM_V2_SHA256


def test_stream_file_v1_still_reads(tmp_path):
    """The frozen v1 file (one line per tick) of the same stream reads as
    its ticks and runs, and re-writes as the frozen v2 bytes."""
    path = os.path.join(DATA, "stream_v1.jsonl")
    assert sha256_of(path) == "06813ebdfe576949a12434871dc2662ef35695e576c0c32dd3366ac9730dac05"
    header, stream = read_stream(path)
    assert (header["version"], header["count"]) == (1, 40)
    assert stream == frozen_stream()
    assert list(stream.runs()) == list(frozen_stream().runs())
    again = str(tmp_path / "stream.jsonl")
    write_stream(again, stream, meta={"config": header["config"]})
    assert sha256_of(again) == STREAM_V2_SHA256
