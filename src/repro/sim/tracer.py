"""Run-length fetch traces, grouped by back-to-back repeats.

An in-order front-end fetches a basic block's instructions "one after
another", so a fetch trace is mostly sequential, and a hot loop fetches
the same stretch again and again.  :class:`FetchTrace` stores it as
*run groups*: ``(entry_pc, length, repeats)`` is one maximal sequential
run (a stretch of fetches at consecutive word addresses) fetched
``repeats`` times back to back.  The nine registry traces at their
default sizes hold 21k-120k fetches in 484-13,824 runs, but only
66-1,728 groups (6,982 in all, against 47,649 runs) and 5-15 distinct
runs, so consumers that need counts (profiling, transition
measurement, the decode walk, the per-region selector) read
them per distinct run or per group instead of per fetch.  Consumers
that need every fetch iterate it or call :meth:`expand`.

:class:`DecodedTrace` is a decoded fetch stream in the same group
structure (one occurrence's words and a repeat count per entry), which
:meth:`FetchTrace.matches` compares one group at a time.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import eq, mul
from typing import Iterable, Iterator

#: Closes the last run of :meth:`FetchTrace.from_addresses`.
_END = object()


class FetchTrace:
    """A recorded instruction-fetch stream, as groups of maximal runs.

    Entry ``i`` is run ``(starts[i], lengths[i])`` fetched
    ``repeats[i]`` times back to back.  Entries are canonical: no run
    continues the one before it (runs are maximal) and no two adjacent
    entries are the same run (groups are maximal), so two traces are
    equal exactly when their entries are.  ``len`` and iteration are
    per fetch.  The derived counts are computed once, cached and shared
    with every caller (treat them as read-only); :meth:`append_runs`,
    the only mutator, drops them.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.lengths: list[int] = []
        self.repeats: list[int] = []
        self._fetches = 0
        self._cache: dict = {}

    @classmethod
    def from_addresses(cls, addresses: Iterable[int]) -> "FetchTrace":
        """Compress a plain PC list into its run groups."""
        starts: list[int] = []
        lengths: list[int] = []
        repeats: list[int] = []
        run_start = expected = None
        run_length = 0
        for pc in chain(addresses, (_END,)):
            if pc == expected:
                run_length += 1
                expected += 4
                continue
            if run_length:
                if starts and run_start == starts[-1] and run_length == lengths[-1]:
                    repeats[-1] += 1
                else:
                    starts.append(run_start)
                    lengths.append(run_length)
                    repeats.append(1)
            if pc is _END:
                break
            run_start, run_length, expected = pc, 1, pc + 4
        trace = cls()
        trace.append_runs(starts, lengths, repeats)
        return trace

    @classmethod
    def of(cls, trace: Iterable[int]) -> "FetchTrace":
        """``trace`` itself if it is a :class:`FetchTrace`, else its
        compressed copy: the one conversion a list-holding caller pays."""
        return trace if isinstance(trace, cls) else cls.from_addresses(trace)

    def append_runs(
        self, starts: list[int], lengths: list[int], repeats: list[int]
    ) -> None:
        """Append run groups in fetch order: ``repeats[i]`` back-to-back
        occurrences of run ``(starts[i], lengths[i])``.  The groups are
        canonical among themselves (positive lengths and repeats, no run
        continuing or repeating the one before it); the first one's
        first occurrence merges into this trace's last run when it
        continues it, and the group merges into the last group when it
        repeats its run."""
        if not starts:
            return
        self._fetches += sum(map(mul, lengths, repeats))
        self._cache.clear()
        self._push(starts[0], lengths[0], repeats[0])
        if len(starts) > 1:
            # The second group can repeat a first run that merged.
            self._push(starts[1], lengths[1], repeats[1])
            self.starts += starts[2:]
            self.lengths += lengths[2:]
            self.repeats += repeats[2:]

    def _push(self, start: int, length: int, times: int) -> None:
        """Append ``times`` occurrences of a run, keeping the entries
        canonical (fetch total and cache are the caller's)."""
        starts, lengths, repeats = self.starts, self.lengths, self.repeats
        if starts:
            if start == starts[-1] + 4 * lengths[-1]:
                # The first occurrence continues the last one: split it
                # off its group (or take the group) and extend it.
                head, merged = starts[-1], lengths[-1] + length
                if repeats[-1] > 1:
                    repeats[-1] -= 1
                else:
                    del starts[-1], lengths[-1], repeats[-1]
                self._push(head, merged, 1)
                times -= 1
                if not times:
                    return
            elif start == starts[-1] and length == lengths[-1]:
                repeats[-1] += times
                return
        starts.append(start)
        lengths.append(length)
        repeats.append(times)

    # ------------------------------------------------------------------
    # Per fetch
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._fetches

    def __iter__(self) -> Iterator[int]:
        for start, length, times in zip(self.starts, self.lengths, self.repeats):
            run = range(start, start + 4 * length, 4)
            for _ in range(times):
                yield from run

    def __eq__(self, other) -> bool:
        if isinstance(other, FetchTrace):
            return (
                self.starts == other.starts
                and self.lengths == other.lengths
                and self.repeats == other.repeats
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"FetchTrace(fetches={self._fetches}, "
            f"runs={sum(self.repeats)}, groups={len(self.starts)})"
        )

    def expand(self) -> list[int]:
        """Every fetched PC, in order (the per-fetch view)."""
        out: list[int] = []
        for start, length, times in zip(self.starts, self.lengths, self.repeats):
            out += list(range(start, start + 4 * length, 4)) * times
        return out

    def matches(self, decoded: "DecodedTrace", words: list[int], base: int) -> bool:
        """Whether ``decoded`` is the image ``words`` (based at ``base``)
        read over this trace: the per-fetch compare's verdict, reached
        without a per-fetch list when ``decoded`` has one entry per
        group (as the decode walk returns it unless a fault split a
        group).  Each distinct run's expected slice is cut once and
        compared once per group.  A stream grouped any other way is
        compared one run occurrence at a time over its expansion."""
        if len(decoded) != self._fetches:
            return False
        runs = list(zip(self.starts, self.lengths))
        expected = {}
        for start, length in dict.fromkeys(runs):
            first = (start - base) >> 2
            expected[start, length] = words[first : first + length]
        wanted = map(expected.__getitem__, runs)
        got = decoded.words
        if decoded.repeats == self.repeats and list(map(len, got)) == self.lengths:
            return all(map(eq, got, wanted))
        flat = decoded.expand()
        offset = 0
        for want, length, times in zip(wanted, self.lengths, self.repeats):
            for _ in range(times):
                if flat[offset : offset + length] != want:
                    return False
                offset += length
        return True

    # ------------------------------------------------------------------
    # Counts (per distinct run, per group)
    # ------------------------------------------------------------------

    def run_counts(self) -> Counter:
        """``{(entry_pc, length): occurrences}`` over the distinct runs,
        in order of first occurrence."""
        counts = self._cache.get("runs")
        if counts is None:
            counts = self._cache["runs"] = Counter()
            for run, times in zip(zip(self.starts, self.lengths), self.repeats):
                counts[run] += times
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
        occurrences, then the jumps in order of first occurrence: into
        each group from the previous group's last fetch, and ``r - 1``
        from a group's last fetch back to its start for a group of
        ``r`` repeats."""
        counts = self._cache.get("edges")
        if counts is None:
            counts = Counter()
            for (start, length), times in self.run_counts().items():
                for pc in range(start, start + 4 * (length - 1), 4):
                    counts[pc, pc + 4] += times
            last = None
            for start, length, times in zip(self.starts, self.lengths, self.repeats):
                if last is not None:
                    counts[last, start] += 1
                last = start + 4 * (length - 1)
                if times > 1:
                    counts[last, start] += times - 1
            self._cache["edges"] = counts
        return counts


class DecodedTrace:
    """A decoded fetch stream, in run groups: entry ``i`` is one
    occurrence's decoded words ``words[i]``, delivered ``repeats[i]``
    (at least 1) times back to back.

    The decode walk returns one entry per :class:`FetchTrace` group
    (split where a group's occurrences decode differently), and the
    entries of one run share one list (treat them as read-only).
    ``len`` and iteration are per fetch, :meth:`expand` is the
    per-fetch list, and two streams are equal when their fetches are.
    """

    __slots__ = ("words", "repeats", "_fetches")

    def __init__(self, words: list[list[int]], repeats: list[int]) -> None:
        if len(words) != len(repeats):
            raise ValueError("one repeat count per decoded entry")
        if repeats and min(repeats) < 1:
            raise ValueError("repeat counts must be positive")
        self.words = words
        self.repeats = repeats
        self._fetches = sum(map(mul, map(len, words), repeats))

    def __len__(self) -> int:
        return self._fetches

    def __iter__(self) -> Iterator[int]:
        for words, times in zip(self.words, self.repeats):
            for _ in range(times):
                yield from words

    def expand(self) -> list[int]:
        """Every decoded word, in fetch order (the per-fetch view)."""
        out: list[int] = []
        for words, times in zip(self.words, self.repeats):
            out += words * times
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, DecodedTrace):
            return self.expand() == other.expand()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DecodedTrace(fetches={self._fetches}, groups={len(self.words)})"
