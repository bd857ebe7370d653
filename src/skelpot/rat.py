"""Exact rational arithmetic helpers.

Everything in this package computes over Q.  `Rat` is gmpy2's mpq when
available, otherwise fractions.Fraction.  Both keep values in lowest terms
with positive denominator, interoperate with int, and hash consistently.

The planar and test-ideal systems have at most 3 unknowns; `det`,
`adjugate` and `cramer` solve those by cofactor expansion, without
dividing, so they stay in int on integer data.  The graph-Laplacian
systems, of any size, are solved in `potential` by sparse fraction-free
elimination: each row is scaled to ints, and Rats are built only for the
solution, one per unknown.  `rat_str` writes numbers of any length.

`Frozen` is the base of the package's immutable value classes, whose
derived data are functools.cached_property attributes.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import attrgetter

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rat

ZERO = Rat(0)

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(value) -> Rat:
    """Coerce ints, strings like '3' or '-7/2', and Rat values to Rat."""
    if type(value) is type(ZERO):
        return value  # immutable, so sharing it is safe
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, str):
        s = value.strip()
        if not _RAT_RE.match(s):
            raise ValueError(f"malformed rational {value!r}")
        num, _, den = s.partition("/")
        if den:
            d = int(den)
            if d == 0:
                raise ValueError(f"malformed rational {value!r} (zero denominator)")
            return Rat(int(num), d)
        return Rat(int(num))
    if isinstance(value, float):
        raise TypeError("floats are banned; pass an int, string, or Rat")
    return Rat(value)


class Frozen:
    """Base of the immutable value classes.  A subclass names its fields in
    `_fields` and sets them in `__init__` through `object.__setattr__`.
    Objects are equal when their classes match and their fields are equal;
    the hash is that of the tuple of fields.  Derived data is kept one way,
    as a functools.cached_property: computed from the fields on first read
    and stored on the instance past __setattr__, so it is never stale and
    stays out of repr, == and hash.  Only polyhedra.minimalize seeds one
    from outside: the cone_gens of its result, which it has computed."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        # _key(obj): the tuple of fields (attrgetter gives no 1-tuple)
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        cls._key = staticmethod(attrgetter(*fields) if len(fields) > 1 else
                                lambda obj: tuple(getattr(obj, f) for f in fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def rat_str(q) -> str:
    """Serialize to 'p' or 'p/q' (q > 1), the wire format used everywhere,
    at any length."""
    q = Rat(q)
    n, d = q.numerator, q.denominator
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # past the interpreter's limit on int-to-str digits
        n, d = _int_str(n), _int_str(d)
        return n if d == "1" else f"{n}/{d}"


def _int_str(n: int) -> str:
    """str(n), split on powers of 10 into pieces of fewer than 640 digits,
    the least limit the interpreter allows, so no process-wide setting is
    read or changed."""
    if -_SPLIT < n < _SPLIT:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


_SPLIT = 10**600


def rfloor(q) -> int:
    return int(math.floor(Rat(q)))


def rceil(q) -> int:
    return int(math.ceil(Rat(q)))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def dot(u, v):
    return sum((a * b for a, b in zip(u, v, strict=True)), start=ZERO)


def primitive(v) -> tuple:
    """Scale a nonzero vector of ints and Rats to coprime ints, keeping its
    direction (first nonzero > 0 not enforced): the numerators over the
    least common denominator, divided by their gcd.  Nothing is converted
    to Rat, so an int vector runs on int alone."""
    if not any(v):
        raise ValueError("zero vector has no primitive representative")
    den = math.lcm(*(int(x.denominator) for x in v))
    ints = [int(x.numerator) * (den // int(x.denominator)) for x in v]
    g = math.gcd(*ints)
    return tuple(n // g for n in ints)


def det3(a, b, c) -> Rat:
    """Determinant of the 3x3 matrix with rows a, b, c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def cross2(u, v) -> Rat:
    return u[0] * v[1] - u[1] * v[0]


def det(rows):
    """Determinant of a square matrix of at most 3 rows by cofactor
    expansion; exact on int and Rat entries alike (int in, int out).  The
    empty matrix has determinant 1."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    if k == 2:
        return cross2(rows[0], rows[1])
    if k == 3:
        return det3(*rows)
    raise ValueError("det takes at most 3 rows")


def adjugate(rows) -> tuple:
    """adj(M), with M adj(M) = det(M) I, as a tuple of rows; at most 3 rows."""
    k = len(rows)
    return tuple(
        tuple(
            (-1) ** (r + c)
            * det([row[:c] + row[c + 1 :] for i, row in enumerate(rows) if i != r])
            for r in range(k)
        )
        for c in range(k)
    )


def cramer(cols, target):
    """Cramer's rule for sum_j x_j cols[j] = target, with at most 3 columns
    of at most 3 coordinates each.  On the first set of coordinates whose
    square minor d is nonzero, x_j = nums[j] / d; returns (d, nums) without
    dividing.  d == 0 when the columns are linearly dependent.  Coordinates
    outside the minor are left for the caller to check."""
    k = len(cols)
    for coords in itertools.combinations(range(len(target)), k):
        # the minor transposed (one row per column vector): same determinant,
        # and replacing row j replaces column j
        rows = [[v[i] for i in coords] for v in cols]
        d = det(rows)
        if d != 0:
            b = [target[i] for i in coords]
            return d, [det(rows[:j] + [b] + rows[j + 1 :]) for j in range(k)]
    return 0, []

