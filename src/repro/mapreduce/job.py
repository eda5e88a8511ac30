"""MapReduce job specification.

A job bundles the user functions (map, reduce, optional combine) with an
input format that parses a split's bytes into records.  The combiner must
be associative and commutative — Incoop's contraction tree (§6.1) relies
on that to reuse partial reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.hdfs.semantic import split_records

__all__ = ["MapReduceJob", "text_input_format"]

#: Parses split bytes into an iterable of records.
InputFormat = Callable[[bytes], Iterable[Any]]
#: map(record) -> iterable of (key, value) pairs.
MapFn = Callable[[Any], Iterable[tuple[Any, Any]]]
#: reduce(key, values) -> final value for the key.
ReduceFn = Callable[[Any, list[Any]], Any]
#: combine(key, values) -> partial value (same domain as map output values).
CombineFn = Callable[[Any, list[Any]], Any]


def text_input_format(data: bytes) -> list[bytes]:
    """Newline-delimited records (the Hadoop TextInputFormat analogue)."""
    return split_records(data)


@dataclass(frozen=True)
class MapReduceJob:
    """A complete job description.

    ``params`` feeds job-level configuration into the map function (e.g.
    the current centroids for K-means); it participates in memoization
    keys so results are reused only for identical parameters.
    """

    name: str
    map_fn: MapFn
    reduce_fn: ReduceFn
    combine_fn: CombineFn | None = None
    input_format: InputFormat = text_input_format
    n_reducers: int = 4
    params: tuple = field(default_factory=tuple)
    #: Relative per-record map cost (1.0 = Word-Count-like parsing+emit;
    #: K-means distance evaluation is several times heavier).
    compute_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.n_reducers < 1:
            raise ValueError("n_reducers must be >= 1")
        if not self.name:
            raise ValueError("job needs a name")
        if self.compute_weight <= 0:
            raise ValueError("compute_weight must be positive")
