"""Convex hull of the union of two constrained zonotopes.

The hull of a union is itself a constrained zonotope: a point of the
hull is lam*z1 + (1-lam)*z2, and substituting lam = (1 + xi0)/2 for a
fresh coefficient xi0 in [-1, 1] turns the bilinear blend into linear
blocks, with one slack coefficient per operand generator absorbing the
coupled bounds |xi1| <= lam, |xi2| <= 1 - lam.  The construction is
exact (not an over-approximation) and costs a fixed representation
growth: 3(n_g1 + n_g2) + 1 generators and
n_c1 + n_c2 + 2(n_g1 + n_g2) constraints.
"""

import numpy as np

from .sets import EmptySetError, _make, as_conzono, is_empty


def convex_hull(Z1, Z2):
    """Convex hull of the union of two constrained zonotopes.

    Representation sizes grow by the fixed formulas above regardless of
    the operands' geometry; compose with reduce_fully to shrink the
    result.  Empty operands are rejected (the hull blocks would
    otherwise silently encode just the other operand's constraints).
    A point operand enters as a zero-generator zonotope (see
    as_conzono), so the hull of a set and a point has n_g2 = 0.
    """
    Z1 = as_conzono(Z1)
    Z2 = as_conzono(Z2)
    if Z1.n != Z2.n:
        raise ValueError("sets must share a dimension")
    if is_empty(Z1) or is_empty(Z2):
        raise EmptySetError("convex hull of an empty operand")

    n = Z1.n
    ng1, ng2 = Z1.n_g, Z2.n_g
    nc1, nc2 = Z1.n_c, Z2.n_c
    ns = 2 * (ng1 + ng2)

    half_diff = 0.5 * (Z1.c - Z2.c)
    G = np.hstack([Z1.G, Z2.G, half_diff.reshape(n, 1), np.zeros((n, ns))])
    c = 0.5 * (Z1.c + Z2.c)

    # Operand constraints, each scaled by its share of the blend:
    # A1 xi1 = lam b1 and A2 xi2 = (1 - lam) b2 with lam = (1 + xi0)/2.
    top1 = np.hstack([Z1.A, np.zeros((nc1, ng2)),
                      -0.5 * Z1.b.reshape(nc1, 1), np.zeros((nc1, ns))])
    top2 = np.hstack([np.zeros((nc2, ng1)), Z2.A,
                      0.5 * Z2.b.reshape(nc2, 1), np.zeros((nc2, ns))])

    # Blend coupling: +-xi1_i <= (1 + xi0)/2 and +-xi2_i <= (1 - xi0)/2,
    # each written as an equality with a unit-bounded slack.
    I1, I2 = np.eye(ng1), np.eye(ng2)
    Zg1, Zg2 = np.zeros((ng1, ng2)), np.zeros((ng2, ng1))
    lhs1 = np.vstack([I1, -I1, Zg2, Zg2])
    lhs2 = np.vstack([Zg1, Zg1, I2, -I2])
    lhs0 = np.concatenate([np.full(2 * ng1, -0.5),
                           np.full(2 * ng2, 0.5)]).reshape(ns, 1)
    bottom = np.hstack([lhs1, lhs2, lhs0, np.eye(ns)])

    A = np.vstack([top1, top2, bottom])
    b = np.concatenate([0.5 * Z1.b, 0.5 * Z2.b, np.full(ns, -0.5)])
    return _make(c, G, A, b)
