"""Pinned example data for the planar toric machinery.

The headline fixture is a pair of complete unimodular complexes Pi, Pi'
with the same recession fan and the same skeleton (the unit triangle),
carrying the same boundary data g(u, v) = u on that triangle.  Only the
cells, g and the support function psi of the triangle are stored; the
functions f = g o r_Pi and f' = g o r_Pi' are computed by
`compose_with_retraction`.  They differ away from the skeleton:
psi + f is not concave, while psi + f' is the concave min(u, 1, 1+v).
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .polyhedra import Polyhedron
from .toric import PolyComplex, SupportFn, ToricPLFunction, compose_with_retraction, refine

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

# g(u, v) = u on the triangle, the one skeleton cell
_G_PIECE = ((1, 0), 0)


class CounterexampleFixture(NamedTuple):
    pi: PolyComplex
    pi_prime: PolyComplex
    g: tuple            # affine data ((grad, const),) per skeleton cell
    f: ToricPLFunction
    f_prime: ToricPLFunction
    psi: SupportFn

    def refined(self) -> PolyComplex:
        return refine(self.pi, self.pi_prime)


@cache
def counterexample_fixture() -> CounterexampleFixture:
    """The pinned pair of complexes and their functions, built once per
    process: every call returns the same objects, so callers share them
    and must not mutate them."""
    pi = PolyComplex(_PI_CELLS)
    pi_prime = PolyComplex(_PI_PRIME_CELLS)
    g = (_G_PIECE,)
    return CounterexampleFixture(
        pi=pi,
        pi_prime=pi_prime,
        g=g,
        f=compose_with_retraction(pi, g),
        f_prime=compose_with_retraction(pi_prime, g),
        psi=SupportFn.from_polytope(DELTA.gen_points),
    )
