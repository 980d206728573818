"""Checksummed line files, the on-disk format of memories (memstore.persist),
patrol streams (homesim.write_stream), task suites (bench.write_tasks) and
scene-graph exports (homesim.write_graphs); episode logs are not.

A header line, then the lines of each named table, then one record per line,
then a trailer ``{"sha256": <hex>}``, all canonical JSON ending in a bare
newline. The digest covers every byte before the trailer, so any changed
byte fails the read. The writer sets the header's ``count``, the number of
record lines, and one key per table holding its number of lines.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, Mapping, Optional

from .core import canonical_dumps, canonical_loads


class IntegrityError(ValueError):
    """An artifact file failed validation on read."""


def _identity(value: Any) -> Any:
    return value


def write(path: str, header: Mapping[str, Any], records: Iterable[Any],
          tables: Optional[Mapping[str, Iterable[Any]]] = None) -> None:
    """Write header, tables, records and checksum trailer; header["count"]
    and one size key per table are set here."""
    table_lines = {name: [canonical_dumps(row) for row in rows] for name, rows in (tables or {}).items()}
    lines = [canonical_dumps(record) for record in records]
    sizes = {name: len(rows) for name, rows in table_lines.items()}
    head = canonical_dumps({**header, **sizes, "count": len(lines)})
    body = "\n".join([head, *(line for rows in table_lines.values() for line in rows), *lines]) + "\n"
    data = body.encode("utf-8")
    trailer = canonical_dumps({"sha256": hashlib.sha256(data).hexdigest()}) + "\n"
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(trailer.encode("utf-8"))


def verify(path: str, *, expect: Optional[Mapping[str, Any]] = None,
           require: Iterable[str] = ()) -> tuple[dict, list[str], str]:
    """Read a file written by write and check the checksum, then a header
    that holds "count", the keys in require and the values in expect. Return
    the header, the undecoded lines after it (see sections) and the file's
    checksum, the hex sha256 of its trailer, which names its contents."""
    expect = expect or {}
    with open(path, "rb") as fh:
        data = fh.read()
    cut = data.rfind(b"\n", 0, len(data) - 1) + 1  # start of the trailer line
    if cut == 0:
        raise IntegrityError("file too short: missing header or checksum")
    try:
        stored = canonical_loads(data[cut:].decode("utf-8"))["sha256"]
    except (ValueError, TypeError, KeyError) as exc:
        raise IntegrityError(f"missing or malformed checksum line: {exc}") from exc
    body = memoryview(data)[:cut]
    if hashlib.sha256(body).hexdigest() != stored:
        raise IntegrityError("checksum mismatch: file corrupt or truncated")
    try:
        lines = str(body, "utf-8").splitlines()
        header = canonical_loads(lines[0])
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise IntegrityError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise IntegrityError("malformed header: not a JSON object")
    for key in ("count", *expect, *require):
        if key not in header:
            raise IntegrityError(f"malformed header: missing {key!r}")
    for key, value in expect.items():
        # Of the same JSON type too: true == 1 and 2.0 == 2 in Python.
        if type(header[key]) is not type(value) or header[key] != value:
            raise IntegrityError(f"unsupported {key} {header[key]!r}, expected {value!r}")
    return header, lines[1:], stored


def sections(header: Mapping[str, Any], lines: list[str], decode: Callable[[Any], Any] = _identity,
             tables: Optional[Mapping[str, Callable[[Any], Any]]] = None, name: str = "record") -> list[list]:
    """Split the lines that verify returned into the named tables, in order,
    each as long as its header key says, and the records, which must number
    header["count"]; pass each line through its table's decoder or decode.
    Every size is a JSON integer (no float or boolean) and non-negative.
    Return the decoded tables, then the records. A failure raises
    IntegrityError naming the table (or name, for a record line) and the
    line's index in it."""
    tables = tables or {}
    sizes = []
    for key in (*tables, "count"):
        size = header.get(key)
        if type(size) is not int or size < 0:
            raise IntegrityError(f"malformed header: {key!r} must be a line count, got {size!r}")
        sizes.append(size)
    *sizes, count = sizes
    found = len(lines) - sum(sizes)
    if count != found:
        raise IntegrityError(f"{name} count mismatch: header says {count}, found {found}")
    out, start = [], 0
    for (part, fn), size in zip([*tables.items(), (name, decode)], [*sizes, found]):
        decoded = []
        for i, line in enumerate(lines[start:start + size]):
            try:
                decoded.append(fn(canonical_loads(line)))
            except Exception as exc:  # noqa: BLE001 - any decode failure is a corrupt line
                raise IntegrityError(f"{part} {i}: {exc}") from exc
        out.append(decoded)
        start += size
    return out


def read(path: str, decode: Callable[[Any], Any] = _identity, *,
         expect: Optional[Mapping[str, Any]] = None, require: Iterable[str] = (),
         name: str = "record") -> tuple[dict, list, str]:
    """Read a file of records with no tables: verify it, then pass each
    record through decode. Return the header, the records and the checksum
    (see verify). Any failure raises IntegrityError (see sections)."""
    header, lines, sha256 = verify(path, expect=expect, require=require)
    [records] = sections(header, lines, decode, name=name)
    return header, records, sha256


__all__ = ["IntegrityError", "read", "sections", "verify", "write"]
