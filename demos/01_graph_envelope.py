"""
Plurisubharmonic envelopes on a metrized graph
==============================================

Everything below is exact rational arithmetic: graph edge lengths,
curvature weights, function values, linear solves.  No floats anywhere.
"""

from skelpot import CurvatureData, MetrizedGraph, PLFunction
from skelpot.potential import envelope, is_theta_psh, orthogonality_residual, energy
from skelpot.rat import Rat, rat_str

# A theta-psh function f must satisfy, at every point x, the slope condition
#
#     sum of weighted outgoing slopes of f at x  +  theta({x})  >=  0.
#
# The envelope of a bound u is the largest theta-psh function below u.

# -- a triangle with a tail ------------------------------------------------

g = MetrizedGraph(
    ["a", "b", "c", "t"],
    [
        (0, 1, Rat(1), 1),      # a -- b, length 1
        (1, 2, Rat(3, 2), 1),   # b -- c, length 3/2
        (2, 0, Rat(1), 2),      # c -- a, weight 2
        (0, 3, Rat(1, 2), 1),   # the tail hangs off a
    ],
)

# curvature: total mass 3, concentrated away from the tail
theta = CurvatureData(g, [Rat(2), Rat(1), Rat(0), Rat(0)])

# the bound: a non-psh zigzag (interior breakpoint on the long edge)
u = PLFunction(
    g,
    [Rat(0), Rat(-2), Rat(1), Rat(0)],
    ((), ((Rat(1, 2), Rat(-3)),), (), ()),
)
print("u is theta-psh?", is_theta_psh(g, theta, u)[0])

res = envelope(g, theta, u)
phi = res.envelope
print("envelope vertex values:", [rat_str(x) for x in phi.vertex_values])
print("problem size:", res.lp_summary["n_vars"], "unknowns,",
      res.lp_summary["n_constraints"], "constraints")

# The envelope is psh, sits below u, and touching happens exactly where the
# Monge-Ampere mass of the envelope lives -- the orthogonality property.
print("envelope is theta-psh?", is_theta_psh(g, theta, phi)[0])
print("orthogonality residual:", rat_str(orthogonality_residual(g, theta, u)))

# Energy pairing of two envelopes: always an exact rational.
u2 = u.add_const(Rat(5, 3))
phi2 = envelope(g, theta, u2).envelope
print("energy  E(phi2, phi):", rat_str(energy(g, theta, phi2, phi)))
print("   (equals c * theta.total for phi2 = phi + c:",
      rat_str(Rat(5, 3) * theta.total()), ")")
