"""Scalar quaternion arithmetic on four float64 components.

A quaternion is written q = a0 + a1*i + a2*j + a3*k with real coefficients
and the Hamilton relations i*j = -j*i = k, j*k = -k*j = i, k*i = -i*k = j.
Multiplication is associative and noncommutative; the conjugate negates the
three imaginary parts, and |q|^2 = conj(q)*q is real.
"""

from __future__ import annotations

import math
from numbers import Real


class Quaternion:
    """Immutable quaternion a0 + a1*i + a2*j + a3*k with float components.

    A slotted value class: equal components give equal objects and equal
    hashes, assignment raises AttributeError, and copy, pickle and positional
    `match` all go through the four components.
    """

    __slots__ = ("a0", "a1", "a2", "a3")
    __match_args__ = ("a0", "a1", "a2", "a3")

    def __init__(self, a0: float = 0.0, a1: float = 0.0, a2: float = 0.0,
                 a3: float = 0.0) -> None:
        # The only way a Quaternion is built; each component is converted once.
        _set_a0(self, float(a0))
        _set_a1(self, float(a1))
        _set_a2(self, float(a2))
        _set_a3(self, float(a3))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), (self.a0, self.a1, self.a2, self.a3))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.a0, self.a1, self.a2, self.a3)
                == (other.a0, other.a1, other.a2, other.a3))

    def __hash__(self) -> int:
        return hash((self.a0, self.a1, self.a2, self.a3))

    def __repr__(self) -> str:
        return (f"Quaternion(a0={self.a0!r}, a1={self.a1!r}, a2={self.a2!r}, "
                f"a3={self.a3!r})")

    # -- construction and conversion ----------------------------------

    @classmethod
    def from_complex_pair(cls, z1: complex, z2: complex) -> "Quaternion":
        """Rebuild q from the split q = z1 + z2*j (Cayley-Dickson order)."""
        z1 = complex(z1)
        z2 = complex(z2)
        return cls(z1.real, z1.imag, z2.real, z2.imag)

    def to_complex_pair(self) -> tuple[complex, complex]:
        """Split q = z1 + z2*j with z1 = a0 + a1*i, z2 = a2 + a3*i."""
        return complex(self.a0, self.a1), complex(self.a2, self.a3)

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.a0, self.a1, self.a2, self.a3)

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "Quaternion | float") -> "Quaternion":
        if not isinstance(other, Quaternion):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return Quaternion(self.a0 + other.a0, self.a1 + other.a1,
                          self.a2 + other.a2, self.a3 + other.a3)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion | float") -> "Quaternion":
        if not isinstance(other, Quaternion):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return Quaternion(self.a0 - other.a0, self.a1 - other.a1,
                          self.a2 - other.a2, self.a3 - other.a3)

    def __rsub__(self, other: "Quaternion | float") -> "Quaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, other: "Quaternion | float") -> "Quaternion":
        if not isinstance(other, Quaternion):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        b0, b1, b2, b3 = other.a0, other.a1, other.a2, other.a3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other: "Quaternion | float") -> "Quaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other: float) -> "Quaternion":
        # Division only by reals; for quaternionic divisors the two quotients
        # q * p^-1 and p^-1 * q differ, so spell out the one you mean. Each
        # component is divided on its own: 1/other would overflow for a tiny
        # divisor whatever the quotient. A zero raises ZeroDivisionError.
        if isinstance(other, Real):
            d = float(other)
            return Quaternion(self.a0 / d, self.a1 / d, self.a2 / d,
                              self.a3 / d)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def modulus(self) -> float:
        # hypot rescales internally, so tiny and huge components survive
        # where a naive sqrt-of-sum-of-squares would under- or overflow
        return math.hypot(self.a0, self.a1, self.a2, self.a3)

    __abs__ = modulus

    def inverse(self) -> "Quaternion":
        """q^-1 = conj(q) / |q|^2.  Raises ZeroDivisionError for zero input
        and ValueError where a component of the inverse is not finite."""
        mod = self.modulus()
        if mod == 0:
            raise ZeroDivisionError("quaternion has no inverse: modulus is zero")
        # divide twice: mod*mod can underflow even when the inverse is finite
        inv = self.conjugate() / mod / mod
        if not all(map(math.isfinite, inv.components)):
            raise ValueError("quaternion inverse exceeds the double range")
        return inv

    def is_close(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (self - other).modulus() <= tol

    def __str__(self) -> str:
        parts = []
        for value, unit in zip(self.components, ("", "i", "j", "k")):
            if value == 0.0:
                continue
            sign = "-" if value < 0 else ("+" if parts else "")
            mag = abs(value)
            body = f"{mag:g}{unit}" if (unit == "" or mag != 1.0) else unit
            parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
        return "".join(parts) if parts else "0"


def _coerce(value) -> "Quaternion":
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    return NotImplemented


# The slot setters, bound once: assignment through the class raises.
_set_a0, _set_a1, _set_a2, _set_a3 = (
    Quaternion.__dict__[name].__set__ for name in Quaternion.__slots__)

ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
