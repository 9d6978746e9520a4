"""The one line framing every on-disk format shares — saved tables and
delta logs (``engine/persist.py``), journal segments
(``replication/wal.py``) and spill runs (``resources/spill.py``):
``crc32hex SP payload``, so a flipped bit or a torn tail is detected
per line.  What a bad frame *means* (torn tail, corruption, a typed
query error) is each reader's call."""

import zlib


def frame(payload: str) -> str:
    """One framed line: the payload's CRC32 (8 hex chars), a space, the payload."""
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


def unframe(line: str) -> str | None:
    """The payload of one framed line, or None when the frame is bad."""
    if len(line) < 10 or line[8] != " ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    return payload
