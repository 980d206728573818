"""Checksummed line files, the on-disk format of memories and patrol streams.

A header line, one record per line and a trailer ``{"sha256": <hex>}``, all
canonical JSON ending in a bare newline. The digest covers every byte before
the trailer, so any changed byte fails the read. The writer sets the header's
``count``, the number of record lines.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, Mapping, Optional

from .core import canonical_dumps, canonical_loads


class IntegrityError(ValueError):
    """An artifact file failed validation on read."""


def write(path: str, header: Mapping[str, Any], records: Iterable[Any]) -> None:
    """Write header, records and checksum trailer; header["count"] is set here."""
    lines = [canonical_dumps(record) for record in records]
    lines.insert(0, canonical_dumps({**header, "count": len(lines)}))
    body = ("\n".join(lines) + "\n").encode("utf-8")
    trailer = canonical_dumps({"sha256": hashlib.sha256(body).hexdigest()}) + "\n"
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(trailer.encode("utf-8"))


def read(path: str, decode: Callable[[Any], Any] = lambda record: record, *,
         expect: Optional[Mapping[str, Any]] = None, require: Iterable[str] = ()) -> tuple[dict, list]:
    """Read a file written by write: verify the checksum, then a header that
    holds "count", the keys in require and the values in expect, then pass
    each record through decode. Any failure raises IntegrityError."""
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
        if header[key] != value:
            raise IntegrityError(f"unsupported {key} {header[key]!r}, expected {value!r}")
    if header["count"] != len(lines) - 1:
        raise IntegrityError(f"record count mismatch: header says {header['count']}, found {len(lines) - 1}")
    records = []
    for i, line in enumerate(lines[1:]):
        try:
            records.append(decode(canonical_loads(line)))
        except Exception as exc:  # noqa: BLE001 - any decode failure is a corrupt record
            raise IntegrityError(f"record {i}: {exc}") from exc
    return header, records


__all__ = ["IntegrityError", "read", "write"]
