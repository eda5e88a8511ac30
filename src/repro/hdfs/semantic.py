"""Semantic chunking: respect record boundaries (§6.3).

Content-based chunking is oblivious to the input's structure, so a chunk
boundary could fall in the middle of a record.  The paper's Inc-HDFS
reuses the job's ``InputFormat`` to snap boundaries to record delimiters
so every split holds whole records.

:func:`snap_cuts_to_records` moves each content-defined cut forward to
the next delimiter, preserving the content-defined *stability* (a cut's
final position depends only on bytes near it) while guaranteeing
record-aligned splits.
"""

from __future__ import annotations

__all__ = ["snap_cuts_to_records", "split_records"]


def snap_cuts_to_records(
    data: bytes, cuts: list[int], delimiter: bytes = b"\n"
) -> list[int]:
    """Move each cut forward to just after the next ``delimiter``.

    The final cut stays at ``len(data)`` (the last record may be
    unterminated).  Cuts that collapse onto the same position merge, so
    the result is strictly increasing.
    """
    if not cuts:
        return []
    n = len(data)
    snapped: list[int] = []
    for cut in cuts:
        if cut >= n:
            pos = n
        else:
            # A cut right after a delimiter is already record-aligned:
            # search from where that delimiter would start.
            nxt = data.find(delimiter, max(0, cut - len(delimiter)))
            pos = n if nxt == -1 else nxt + len(delimiter)
        if not snapped or pos > snapped[-1]:
            snapped.append(pos)
    if snapped[-1] != n:
        snapped.append(n)
    return snapped


def split_records(data: bytes, delimiter: bytes = b"\n") -> list[bytes]:
    """Records of a split (without delimiters); tolerates a missing final
    delimiter."""
    if not data:
        return []
    records = data.split(delimiter)
    if records and records[-1] == b"":
        records.pop()
    return records
