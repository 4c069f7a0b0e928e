"""Common protocol for bus-encoding backends (the "encoder zoo").

Every competing scheme — the four classic baselines, the two
related-work encoders, and (via an adapter in the pipeline selector)
the paper's own TT/BBIT transformation — implements one interface so
the per-region selector, the verify campaign, and the fault campaign
can treat them uniformly:

* ``fit(words)``       — profile-driven backends learn their tables
                         from the :class:`TrafficCounts` of a word
                         sequence (or of a trace region)
* ``encode(words)``    — produce an :class:`EncodedStream` of driven
                         bus values (data lines plus any extra
                         signalling lines, packed into one int per
                         transfer)
* ``decode(stream)``   — recover the original words exactly
* ``transitions(words)`` — measured toggle cost of driving the stream
* ``budget()``         — :class:`HardwareBudget` the scheme requires
* ``config_digest()``  — deterministic sha256 over scheme + config so
                         bundles and reports can pin exact tables

Two families exist and the distinction matters for deployment:

* **deployable** (stateless word recoders: gray, memoryless codebook,
  full-dictionary frequency): each stored word is rewritten in the
  image and decoded independently at fetch time via ``decode_word``.
* **bus codecs** (stateful: bus-invert, T0, low-weight transition
  signalling): the image stays raw; the codec lives on the bus drivers
  and its correctness is checked by trace-order roundtrips.

The first transfer of any stream is free (no previous bus state),
matching :mod:`repro.core.transitions` and the trace counters.  A bus
codec can also pick a stream up mid-way: ``encode(words, state)`` and
``decode(stream, state)`` continue from the state an earlier stream
reports as its ``exit``, and the continued stream counts the toggles
of its first transfer against the lines that state left driven, so
cutting a stream into pieces never changes its cost.
"""

from __future__ import annotations

import abc
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Hashable, Sequence, Tuple

from repro.core.transitions import word_transitions
from repro.errors import EncodingError


@dataclass(frozen=True)
class HardwareBudget:
    """Hardware the decoder side must provision for a scheme.

    ``table_bits`` counts mapping/codebook storage (encode and decode
    sides), ``extra_lines`` counts bus lines beyond the 32 data lines,
    and ``stateful`` marks bus codecs whose decoder needs the previous
    transfer (so the scheme cannot be burned into the stored image).
    """

    table_bits: int = 0
    extra_lines: int = 0
    stateful: bool = False

    def fits(self, max_table_bits: int, max_extra_lines: int) -> bool:
        return self.table_bits <= max_table_bits and self.extra_lines <= max_extra_lines


@dataclass(frozen=True)
class TrafficCounts:
    """Everything a ``fit`` reads from its traffic: how often each word
    is transferred, in order of its first transfer (frequency's tie
    order), and how often each ordered word pair is transferred back
    to back."""

    words: Dict[int, int]
    pairs: Dict[Tuple[int, int], int]

    @classmethod
    def of(cls, words: Sequence[int] | TrafficCounts) -> TrafficCounts:
        """``words`` itself if it is already counted, else its counts."""
        if isinstance(words, cls):
            return words
        return cls(Counter(words), Counter(zip(words, words[1:])))


@dataclass
class EncodedStream:
    """Driven bus values for one transfer sequence.

    ``width`` is the total number of driven lines (data + extra); each
    entry of ``driven`` packs all lines of one transfer into an int.
    ``entry`` is the value the lines held before the first transfer
    (``None``: a fresh stream, whose first transfer is free) and
    ``exit`` the codec state to continue from (``None`` for stateless
    schemes).
    """

    scheme: str
    width: int
    driven: list[int] = field(default_factory=list)
    entry: int | None = None
    exit: Hashable = None

    def transitions(self) -> int:
        total = word_transitions(self.driven)
        if self.entry is not None and self.driven:
            total += (self.entry ^ self.driven[0]).bit_count()
        return total


class Encoder(abc.ABC):
    """Base class for every bus-encoding backend."""

    scheme: ClassVar[str] = ""
    #: stateless word recoders can patch the stored image and decode
    #: each fetched word independently via :meth:`decode_word`.
    deployable: ClassVar[bool] = False

    width: int = 32

    def fit(self, words: Sequence[int] | TrafficCounts) -> "Encoder":
        """Learn profile-driven tables from ``words`` (a sequence or its
        :class:`TrafficCounts`); returns self."""
        return self

    @abc.abstractmethod
    def encode(self, words: Sequence[int]) -> EncodedStream:
        """Encode a word sequence into driven bus values.  A bus codec
        takes an optional second argument, the ``state`` to continue
        from (an earlier stream's ``exit``)."""

    @abc.abstractmethod
    def decode(self, stream: EncodedStream) -> list[int]:
        """Recover the original words from a driven stream.  A bus
        codec takes the ``state`` the stream was encoded from as an
        optional second argument."""

    def state_after(self, driven: int, word: int) -> Hashable:
        """A bus codec's state once ``driven`` carried ``word``: the
        least its next transfer needs.  Stateless schemes have none."""
        return None

    @abc.abstractmethod
    def budget(self) -> HardwareBudget:
        """Hardware cost metadata for the selector's budget check."""

    def transitions(self, words: Sequence[int]) -> int:
        """Measured toggle cost of driving ``words`` through this scheme."""
        return self.encode(words).transitions()

    # -- deployable (stateless) interface ------------------------------
    def encode_word(self, word: int) -> int:
        raise EncodingError(f"scheme {self.scheme!r} is not a stateless word recoder")

    def decode_word(self, word: int) -> int:
        raise EncodingError(f"scheme {self.scheme!r} is not a stateless word recoder")

    # -- configuration / identity --------------------------------------
    def to_config(self) -> Dict[str, Any]:
        """JSON-serialisable configuration (tables, widths, mappings)."""
        return {"width": self.width}

    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "Encoder":
        """Rebuild an encoder from :meth:`to_config` output."""
        return cls(width=int(config.get("width", 32)))  # type: ignore[call-arg]

    def config_digest(self) -> str:
        payload = json.dumps(
            {"scheme": self.scheme, "config": self.to_config()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} scheme={self.scheme!r} width={self.width}>"


#: scheme name -> Encoder subclass, populated by :func:`register_encoder`.
ENCODER_REGISTRY: Dict[str, type] = {}


def register_encoder(cls: type) -> type:
    """Class decorator adding an Encoder subclass to the registry."""
    if not cls.scheme:
        raise ValueError(f"{cls.__name__} must set a non-empty scheme name")
    ENCODER_REGISTRY[cls.scheme] = cls
    return cls


def registered_schemes() -> tuple[str, ...]:
    return tuple(sorted(ENCODER_REGISTRY))


def make_encoder(scheme: str, **kwargs: Any) -> Encoder:
    try:
        cls = ENCODER_REGISTRY[scheme]
    except KeyError:
        raise EncodingError(f"unknown encoder scheme {scheme!r}") from None
    return cls(**kwargs)


def encoder_from_config(scheme: str, config: Dict[str, Any]) -> Encoder:
    """Rebuild a fitted encoder from a bundle's region config payload."""
    try:
        cls = ENCODER_REGISTRY[scheme]
    except KeyError:
        raise EncodingError(f"unknown encoder scheme {scheme!r}") from None
    return cls.from_config(config)


_REFERENCE_COUNTERS: Dict[str, Callable[[Encoder, Sequence[int]], int]] = {}


def register_reference_counter(
    scheme: str,
) -> Callable[[Callable[[Encoder, Sequence[int]], int]], Callable[[Encoder, Sequence[int]], int]]:
    """Register an independent transition counter for differential checks.

    The verify campaign compares ``encoder.transitions(words)`` (the
    fast path: encode then count packed toggles) against this slower
    reference implementation; any disagreement is a reported mismatch.
    """

    def deco(fn: Callable[[Encoder, Sequence[int]], int]) -> Callable[[Encoder, Sequence[int]], int]:
        _REFERENCE_COUNTERS[scheme] = fn
        return fn

    return deco


def reference_transitions(encoder: Encoder, words: Sequence[int]) -> int:
    """Independent transition count for ``encoder`` on ``words``.  A
    scheme without a registered counter is an error: re-running
    ``encode`` would only count the fast path twice."""
    fn = _REFERENCE_COUNTERS.get(encoder.scheme)
    if fn is None:
        raise EncodingError(f"scheme {encoder.scheme!r} has no reference transition counter")
    return fn(encoder, words)
