"""Run-length fetch traces.

An in-order front-end fetches a basic block's instructions "one after
another", so a fetch trace is mostly sequential.  :class:`FetchTrace`
stores it as the sequence of its *maximal sequential runs*: one
``(entry_pc, length)`` pair per stretch of fetches at consecutive word
addresses.  The nine registry traces hold 21k-120k fetches but only
484-13,824 runs, and 5-15 distinct ones, so
consumers that need counts (profiling, transition measurement, the
strict decode walk) read them per distinct run instead of per fetch.
Consumers that need every fetch iterate it or call :meth:`expand`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Iterable, Iterator


class FetchTrace:
    """A recorded instruction-fetch stream, as maximal sequential runs.

    ``starts[i]`` is the first PC of run ``i`` and ``lengths[i]`` its
    fetch count; run ``i + 1`` never starts at run ``i``'s end (runs
    are maximal), so two traces are equal exactly when their runs are.
    ``len`` and iteration are per fetch.  The derived counts are
    computed once, cached and shared with every caller (treat them as
    read-only); :meth:`append_runs`, the only mutator, drops them.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.lengths: list[int] = []
        self._fetches = 0
        self._cache: dict = {}

    @classmethod
    def from_addresses(cls, addresses: Iterable[int]) -> "FetchTrace":
        """Compress a plain PC list into its maximal sequential runs."""
        starts: list[int] = []
        lengths: list[int] = []
        expected = None
        for pc in addresses:
            if pc == expected:
                lengths[-1] += 1
            else:
                starts.append(pc)
                lengths.append(1)
            expected = pc + 4
        trace = cls()
        trace.append_runs(starts, lengths)
        return trace

    @classmethod
    def of(cls, trace: Iterable[int]) -> "FetchTrace":
        """``trace`` itself if it is a :class:`FetchTrace`, else its
        compressed copy: the one conversion a list-holding caller pays."""
        return trace if isinstance(trace, cls) else cls.from_addresses(trace)

    def append_runs(self, starts: list[int], lengths: list[int]) -> None:
        """Append maximal runs (positive lengths, none continuing the
        one before it) in fetch order; the first merges into the
        current last run when it continues it."""
        if not starts:
            return
        self._fetches += sum(lengths)
        self._cache.clear()
        if self.starts and starts[0] == self.starts[-1] + 4 * self.lengths[-1]:
            self.lengths[-1] += lengths[0]
            starts, lengths = starts[1:], lengths[1:]
        self.starts.extend(starts)
        self.lengths.extend(lengths)

    # ------------------------------------------------------------------
    # Per fetch
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._fetches

    def __iter__(self) -> Iterator[int]:
        for start, length in zip(self.starts, self.lengths):
            yield from range(start, start + 4 * length, 4)

    def __eq__(self, other) -> bool:
        if isinstance(other, FetchTrace):
            return self.starts == other.starts and self.lengths == other.lengths
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FetchTrace(fetches={self._fetches}, runs={len(self.starts)})"

    def expand(self) -> list[int]:
        """Every fetched PC, in order (the per-fetch view)."""
        out: list[int] = []
        extend = out.extend
        for start, length in zip(self.starts, self.lengths):
            extend(range(start, start + 4 * length, 4))
        return out

    # ------------------------------------------------------------------
    # Counts (per distinct run)
    # ------------------------------------------------------------------

    def run_counts(self) -> Counter:
        """``{(entry_pc, length): occurrences}`` over the distinct runs,
        in order of first occurrence."""
        counts = self._cache.get("runs")
        if counts is None:
            counts = self._cache["runs"] = Counter(zip(self.starts, self.lengths))
        return counts

    def fetch_counts(self) -> Counter:
        """Times each text address was fetched."""
        counts = self._cache.get("fetches")
        if counts is None:
            counts = Counter()
            for (start, length), times in self.run_counts().items():
                for pc in range(start, start + 4 * length, 4):
                    counts[pc] += times
            self._cache["fetches"] = counts
        return counts

    def edge_counts(self) -> Counter:
        """Counts of consecutive ``(from, to)`` fetch address pairs:
        the sequential pairs inside each distinct run, times its
        occurrences, plus the jumps from each run's last fetch to the
        next run's first."""
        counts = self._cache.get("edges")
        if counts is None:
            counts = Counter()
            for (start, length), times in self.run_counts().items():
                for pc in range(start, start + 4 * (length - 1), 4):
                    counts[pc, pc + 4] += times
            lasts = [
                start + 4 * (length - 1)
                for start, length in zip(self.starts, self.lengths)
            ]
            counts.update(zip(lasts, self.starts[1:]))
            self._cache["edges"] = counts
        return counts


def window(addresses: Sequence[int], start: int, length: int) -> Iterable[int]:
    """A slice helper for inspecting trace regions in examples."""
    return addresses[start : start + length]
