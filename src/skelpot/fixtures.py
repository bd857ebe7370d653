"""Pinned example data for the planar toric machinery.

The headline fixture is a pair of complete unimodular complexes with the
same recession fan and the same skeleton (the unit triangle), carrying the
same boundary data g, whose induced functions differ away from the skeleton:
composition with the retraction of the first complex even destroys
concavity, while the second complex produces the concave function
min(1, 1+v, u).  The data is stored literally and re-checked by the tests;
it is not rebuilt from any blow-up combinatorics at runtime.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .polyhedra import Polyhedron
from .toric import (
    PolyComplex,
    SupportFn,
    ToricPLFunction,
    refine,
)

DELTA = Polyhedron(((0, 0), (1, 0), (0, 1)))

# cells of the first complex: the region above the triangle is cut by the
# horizontal ray leaving (0, 1)
_PI_CELLS = (
    DELTA,                                               # delta
    Polyhedron(((0, 1), (1, 0)), ((1, 0),)),             # sigma1
    Polyhedron(((1, 0),), ((-1, -1), (1, 0))),           # sigma2
    Polyhedron(((0, 1),), ((1, 0), (0, 1))),             # sigma3
    Polyhedron(((0, 1),), ((-1, -1), (0, 1))),           # sigma4
    Polyhedron(((0, 0), (0, 1)), ((-1, -1),)),           # sigma5
    Polyhedron(((0, 0), (1, 0)), ((-1, -1),)),           # sigma6
)

# cells of the second complex: same picture cut by the vertical ray
# leaving (1, 0) instead
_PI_PRIME_CELLS = (
    DELTA,                                               # delta
    Polyhedron(((1, 0),), ((1, 0), (0, 1))),             # sigma1'
    Polyhedron(((1, 0),), ((-1, -1), (1, 0))),           # sigma2'
    Polyhedron(((1, 0), (0, 1)), ((0, 1),)),             # sigma3'
    Polyhedron(((0, 1),), ((-1, -1), (0, 1))),           # sigma4'
    Polyhedron(((0, 0), (0, 1)), ((-1, -1),)),           # sigma5'
    Polyhedron(((0, 0), (1, 0)), ((-1, -1),)),           # sigma6'
)

CELL_LABELS = ("delta", "sigma1", "sigma2", "sigma3", "sigma4", "sigma5", "sigma6")

# g(u, v) = u on the triangle; its composition with either retraction,
# written as one affine piece per cell in the orders above
_G_PIECE = ((1, 0), 0)

_F_PIECES = (
    ((1, 0), 0),    # delta:  u
    ((0, -1), 1),   # sigma1: 1 - v   (horizontal projection onto the diagonal)
    ((0, 0), 1),    # sigma2: 1       (everything retracts to (1, 0))
    ((0, 0), 0),    # sigma3: 0       (everything retracts to (0, 1))
    ((0, 0), 0),    # sigma4: 0
    ((0, 0), 0),    # sigma5: 0       (retracts to (0, v - u))
    ((1, -1), 0),   # sigma6: u - v   (retracts to (u - v, 0))
)

_F_PRIME_PIECES = (
    ((1, 0), 0),    # delta:   u
    ((0, 0), 1),    # sigma1': 1      (everything retracts to (1, 0))
    ((0, 0), 1),    # sigma2': 1
    ((1, 0), 0),    # sigma3': u      (vertical projection onto the diagonal)
    ((0, 0), 0),    # sigma4': 0
    ((0, 0), 0),    # sigma5': 0
    ((1, -1), 0),   # sigma6': u - v
)


class CounterexampleFixture(NamedTuple):
    pi: PolyComplex
    pi_prime: PolyComplex
    g: tuple            # affine data ((grad, const),) per skeleton cell
    f: ToricPLFunction
    f_prime: ToricPLFunction
    psi: SupportFn
    labels: dict

    def refined(self) -> PolyComplex:
        return refine(self.pi, self.pi_prime)


@cache
def counterexample_fixture() -> CounterexampleFixture:
    """The pinned pair of complexes and their functions, built once per
    process: every call returns the same objects, so callers share them
    and must not mutate them."""
    pi = PolyComplex(_PI_CELLS)
    pi_prime = PolyComplex(_PI_PRIME_CELLS)
    f = ToricPLFunction(pi, _F_PIECES)
    f_prime = ToricPLFunction(pi_prime, _F_PRIME_PIECES)
    psi = SupportFn.from_polytope(((0, 0), (1, 0), (0, 1)))
    labels = {name: i for i, name in enumerate(CELL_LABELS)}
    return CounterexampleFixture(
        pi=pi,
        pi_prime=pi_prime,
        g=(_G_PIECE,),
        f=f,
        f_prime=f_prime,
        psi=psi,
        labels=labels,
    )
