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
        data = open(path, "rb").read()
        body = data[: data.rfind(b"\n", 0, len(data) - 1) + 1]
        assert artifacts.read(path) == ({**header, "count": len(records)}, records, hashlib.sha256(body).hexdigest())
        assert artifacts.verify(path)[2] == artifacts.read(path)[2]


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
    assert artifacts.read(path, expect={"format": "f"}, require=("count",))[:2] == (
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


MEMORY_V8_SHA256 = "0579ca3fe58899f1abaa14ed17c9fd70b4b9d10701824a3bab99227ed00c3761"


def test_memory_file_bytes_are_frozen(tmp_path):
    """These bytes change only together with memstore.FORMAT_VERSION."""
    path = str(tmp_path / "memory.jsonl")
    memory = memstore.build(frozen_stream(), EmbedderConfig(d=16))
    memstore.persist(memory, path, extra_header={"config_hash": "0123456789abcdef"})
    assert memstore.FORMAT_VERSION == 8
    assert sha256_of(path) == MEMORY_V8_SHA256


def test_tables_come_before_records_and_are_counted(tmp_path):
    path = str(tmp_path / "a.jsonl")
    artifacts.write(path, {"kind": "k"}, [1, 2], tables={"a": ["x"], "b": [[0], [1], [2]]})
    header, lines, _ = artifacts.verify(path)
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
    assert artifacts.verify(path)[0]["count"] == (11 if kind == "memory" else 3)  # column lines or runs
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


@pytest.mark.parametrize("kind, version", [("memory", 4), ("memory", 5), ("stream", 1)])
def test_older_files_are_refused_with_the_command_that_remakes_them(tmp_path, kind, version):
    """Memory files v4 and v5 and stream files v1 are not read: a memory is
    rebuilt from its stream, and a stream regenerated from its world."""
    path = str(tmp_path / "file.jsonl")
    if kind == "memory":
        memstore.persist(memstore.build(frozen_stream(), EmbedderConfig(d=16)), path)
        rewrite_header(path, lambda header: header.update(format_version=version, snapshot_every=25))
        load, hint = memstore.load, "rebuild the memory from its stream with `objsearch build-memory`"
    else:
        write_stream(path, frozen_stream())
        rewrite_header(path, lambda header: header.update(version=version))
        load, hint = read_stream, "regenerate the stream with `objsearch patrol`"
    with pytest.raises(IntegrityError, match=re.escape(hint)):
        load(path)
