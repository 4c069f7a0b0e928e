"""Two-input boolean functions and their algebra.

The paper restricts decode transformations to functions of the current
encoded bit and one bit of history, ``x_n = tau(x_tilde_n, x_{n-1})``
(Section 5.1).  There are ``2**(2**2) == 16`` such functions; this
module enumerates them, names them, and implements the global-inversion
duality the paper uses in Section 5.2 to argue the symmetry of the
code tables ("interchanging XOR with XNOR, and NOR with NAND, while
retaining intact inversion and identity").

A function is identified by its 4-bit truth table: bit ``2*x + y`` of
the table holds ``f(x, y)``.  Throughout the package the *first*
argument ``x`` is the encoded (stored) bit and the *second* argument
``y`` is the history bit (the previously decoded original bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

#: Number of distinct two-input boolean functions.
NUM_FUNCTIONS = 16

# Truth-table indices of the named functions (bit 2*x + y = f(x, y)).
TT_ZERO = 0b0000  # f = 0
TT_NOR = 0b0001  # f = NOT (x OR y)
TT_AND_NX_Y = 0b0010  # f = (NOT x) AND y
TT_NOT_X = 0b0011  # f = NOT x              (the paper's "inversion")
TT_AND_X_NY = 0b0100  # f = x AND (NOT y)
TT_NOT_Y = 0b0101  # f = NOT y              (history inversion)
TT_XOR = 0b0110  # f = x XOR y
TT_NAND = 0b0111  # f = NOT (x AND y)
TT_AND = 0b1000  # f = x AND y
TT_XNOR = 0b1001  # f = NOT (x XOR y)
TT_Y = 0b1010  # f = y                  (history passthrough)
TT_IMPLIES = 0b1011  # f = (NOT x) OR y
TT_X = 0b1100  # f = x                  (the paper's "identity")
TT_OR_X_NY = 0b1101  # f = x OR (NOT y)
TT_OR = 0b1110  # f = x OR y
TT_ONE = 0b1111  # f = 1

_NAMES = {
    TT_ZERO: "0",
    TT_NOR: "nor",
    TT_AND_NX_Y: "~x&y",
    TT_NOT_X: "~x",
    TT_AND_X_NY: "x&~y",
    TT_NOT_Y: "~y",
    TT_XOR: "xor",
    TT_NAND: "nand",
    TT_AND: "and",
    TT_XNOR: "xnor",
    TT_Y: "y",
    TT_IMPLIES: "~x|y",
    TT_X: "x",
    TT_OR_X_NY: "x|~y",
    TT_OR: "or",
    TT_ONE: "1",
}

_NAME_TO_TT = {name: tt for tt, name in _NAMES.items()}


@dataclass(frozen=True)
class BoolFunc:
    """A two-input boolean function identified by its truth table.

    ``truth_table`` is a 4-bit integer; bit ``2*x + y`` holds
    ``f(x, y)``.
    """

    truth_table: int

    def __post_init__(self) -> None:
        if not 0 <= self.truth_table < NUM_FUNCTIONS:
            raise ValueError(
                f"truth table must be in [0, 16), got {self.truth_table}"
            )

    def __call__(self, x: int, y: int) -> int:
        """Evaluate ``f(x, y)`` for single-bit arguments."""
        return (self.truth_table >> (2 * (x & 1) + (y & 1))) & 1

    @property
    def name(self) -> str:
        """Short algebraic name, e.g. ``"xor"`` or ``"~y"``."""
        return _NAMES[self.truth_table]

    @classmethod
    def from_name(cls, name: str) -> "BoolFunc":
        """Look a function up by its short name."""
        try:
            return cls(_NAME_TO_TT[name])
        except KeyError:
            raise KeyError(
                f"unknown boolean function {name!r}; "
                f"valid names: {sorted(_NAME_TO_TT)}"
            ) from None

    def solve_x(self, result: int, y: int) -> tuple[int, ...]:
        """Return every ``x`` with ``f(x, y) == result``.

        This is the encoder's fundamental step: given the original bit
        (``result``) and the history bit ``y``, which stored bits ``x``
        decode correctly?  The answer is ``()`` (impossible), ``(0,)``
        or ``(1,)`` (forced), or ``(0, 1)`` (free choice — the encoder
        picks whichever minimises transitions).
        """
        return tuple(x for x in (0, 1) if self(x, y) == result)

    def depends_on_x(self) -> bool:
        """True if the output can change with the stored bit ``x``."""
        return any(self(0, y) != self(1, y) for y in (0, 1))

    def depends_on_y(self) -> bool:
        """True if the output can change with the history bit ``y``."""
        return any(self(x, 0) != self(x, 1) for x in (0, 1))

    def is_decodable(self) -> bool:
        """True if every (original, history) pair has a stored bit.

        A transformation is usable for encoding only when for each
        history value ``y`` the map ``x -> f(x, y)`` is surjective onto
        the values the original stream may take; constants in ``x``
        (e.g. AND with history 0) can still be usable when the original
        bit happens to equal the constant, so decodability is checked
        per-block by the solver rather than globally here.  This
        predicate reports the stronger property that ``x -> f(x, y)``
        is a bijection for every ``y`` (always encodable).
        """
        return all(
            {self(0, y), self(1, y)} == {0, 1} for y in (0, 1)
        )

    def __repr__(self) -> str:
        return f"BoolFunc({self.truth_table:#06b} {self.name!r})"


def all_functions() -> Iterator[BoolFunc]:
    """Iterate over all sixteen two-input boolean functions."""
    for tt in range(NUM_FUNCTIONS):
        yield BoolFunc(tt)


def dual(func: BoolFunc) -> BoolFunc:
    """The global-inversion dual ``g(x, y) = NOT f(NOT x, NOT y)``.

    Section 5.2: inverting all bits of the original and encoded
    sequences maps each optimal (code word, transformation) pair to the
    optimal pair of the complemented block word, with XOR <-> XNOR and
    NOR <-> NAND while identity and inversion are self-dual.
    """
    table = 0
    for x in (0, 1):
        for y in (0, 1):
            value = 1 - func(1 - x, 1 - y)
            table |= value << (2 * x + y)
    return BoolFunc(table)
