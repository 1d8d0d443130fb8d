"""Exact arithmetic primitives for dyadic rationals in [1/2, 1).

Every odd integer embeds into [1/2, 1) as a terminating binary fraction
whose expansion starts and ends with a 1 bit.  The pair (numerator, length)
pins that value down exactly, so the whole package can run on plain integer
arithmetic.  No floats anywhere; rational values use fractions.Fraction,
imported only by the functions that build one, so that importing the
package (and the CLI) loads neither ``fractions`` nor ``decimal``.
"""

from __future__ import annotations

__all__ = [
    "BinaryFraction",
    "GROUND_STATE",
    "compare",
    "to_decimal",
    "two_adic_valuation",
]


class _Record:
    """A plain record class: its fields are the names its class body annotates, in order.

    The package's result and configuration records derive from it, in place
    of ``dataclasses``, whose import and class decoration cost every CLI
    process several milliseconds.  ``__init__`` takes the fields by position
    or keyword; a field with a class attribute defaults to it, and an empty
    dict or list default is copied, so each instance gets its own.  The
    ``repr`` has the dataclasses format, ``Name(field=value!r, ...)``,
    without the fields named in the class keyword ``hide``.  Two records are
    equal when they are of one class and all their fields are equal, and a
    record is not hashable.
    """

    def __init_subclass__(cls, hide: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._shown = tuple(name for name in cls._fields if name not in hide)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if args:
            named = len(kwargs)
            kwargs.update(zip(cls._fields, args))
            if len(args) > len(cls._fields) or len(kwargs) < named + len(args):
                raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} fields, "
                                "each at most once, by position or keyword")
        if kwargs.keys() != cls._names:
            for name in cls._fields:
                if name not in kwargs:
                    if name not in cls._defaults:
                        raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
                    default = cls._defaults[name]
                    kwargs[name] = default.copy() if isinstance(default, (dict, list)) else default
            if len(kwargs) > len(cls._fields):
                unknown = min(kwargs.keys() - cls._names)
                raise TypeError(f"{cls.__name__}() has no field {unknown!r}")
        self.__dict__ = kwargs

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return [getattr(self, n) for n in self._fields] == [getattr(other, n) for n in self._fields]


def two_adic_valuation(n: int) -> int:
    """Return the largest v such that 2**v divides n.

    >>> two_adic_valuation(40)
    3
    """
    if n < 1:
        raise ValueError("two_adic_valuation is defined for positive integers")
    return (n & -n).bit_length() - 1


class BinaryFraction:
    """A dyadic rational n / 2**ell in [1/2, 1), kept in normal form.

    Normal form means the numerator is odd (the expansion ends in 1) and has
    exactly ``length`` binary digits (the expansion starts with 1), which
    together force the value into [1/2, 1).  The ground state 1/2 is the pair
    (1, 1).  Instances are immutable and hashable.
    """

    __slots__ = ("_num", "_ell")

    def __init__(self, numerator: int, length: int):
        if numerator < 1 or numerator % 2 == 0:
            raise ValueError(f"numerator must be odd and positive, got {numerator}")
        if numerator.bit_length() != length:
            raise ValueError(
                f"numerator {numerator} has {numerator.bit_length()} bits, expected {length}"
            )
        self._num = numerator
        self._ell = length

    @classmethod
    def from_bits(cls, bits: str) -> "BinaryFraction":
        """Build from a string of fractional binary digits, e.g. ``"10110"``.

        The string is read as the digits after the binary point.  It must be
        nonempty, contain only 0 and 1, start with 1 (value >= 1/2), and end
        with 1 (trailing zeros would denormalize the pair).
        """
        if not bits:
            raise ValueError("empty digit string")
        if bits.lstrip("01"):
            raise ValueError(f"digit string must hold only 0 and 1, not {bits.lstrip('01')[0]!r}")
        if bits[0] != "1":
            raise ValueError("digit string must start with 1")
        if bits[-1] != "1":
            raise ValueError("digit string must end with 1")
        return cls(int(bits, 2), len(bits))

    def to_bits(self) -> str:
        """Fractional digit string; inverse of :meth:`from_bits`."""
        return format(self._num, "b")

    @property
    def numerator(self) -> int:
        return self._num

    @property
    def length(self) -> int:
        """Number of binary digits in the expansion (the denominator is 2**length)."""
        return self._ell

    @property
    def value(self) -> Fraction:
        """The exact rational value n / 2**ell."""
        from fractions import Fraction

        return Fraction(self._num, 1 << self._ell)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryFraction):
            return NotImplemented
        return self._num == other._num and self._ell == other._ell

    def __hash__(self) -> int:
        return hash((self._num, self._ell))

    def __repr__(self) -> str:
        return f"BinaryFraction({self._num}, {self._ell})"

    def __str__(self) -> str:
        return "0." + self.to_bits()


GROUND_STATE = BinaryFraction(1, 1)


def compare(y: BinaryFraction, r: Fraction) -> int:
    """Three-way comparison of a binary fraction against an exact rational.

    Returns -1, 0, or +1 as y is less than, equal to, or greater than r.
    Implemented by cross multiplication, so it is exact for any operand
    sizes; in particular a dyadic can never compare equal to a fraction
    with an odd denominator factor such as 2/3.
    """
    lhs = y.numerator * r.denominator
    rhs = r.numerator << y.length
    return (lhs > rhs) - (lhs < rhs)


def to_decimal(r: Fraction, digits: int) -> str:
    """Truncated (not rounded) decimal expansion with exactly `digits` places.

    Accepts 0 <= r < 10 so single-digit integer parts keep the output width
    predictable.  Truncation keeps reported constants safe to compare by
    string prefix.
    """
    return _truncated(r.numerator, r.denominator, digits)


def _truncated(numerator: int, denominator: int, digits: int) -> str:
    """:func:`to_decimal` of numerator / denominator (denominator > 0), with no gcd taken."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if not 0 <= numerator < 10 * denominator:
        from fractions import Fraction

        raise ValueError(f"value out of range [0, 10): {Fraction(numerator, denominator)}")
    whole, rest = divmod(numerator, denominator)
    frac = rest * 10**digits // denominator
    return f"{whole}.{frac:0{digits}d}"
