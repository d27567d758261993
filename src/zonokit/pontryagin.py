"""Pontryagin difference Z1 - Z2 = {z : z + Z2 inside Z1}.

Two routes: an exact constrained-zonotope recursion that strips one
subtrahend generator per step at the cost of doubling the
representation, and a one-LP inner approximation that scales a fixed
generator template.
"""

import numpy as np

from .containment import ScalingResult, _zonotope_certificate
from .numerics import FEAS_TOL, LpBuilder, optimize_scaling
from .sets import (
    EmptySetError,
    Zonotope,
    _plain_zonotope,
    as_conzono,
    generalized_intersection,
    translate,
)

# Ceiling on the exact recursion's predicted generator count.
GENERATOR_CAP = 2 ** 20


def pontryagin_iterative(Z1, Z2):
    """Exact Pontryagin difference of a constrained zonotope and a zonotope.

    Peels one generator of Z2 per step: subtracting a segment
    [-g, +g] is exactly (Z + g) intersected with (Z - g), and the
    recursion starts from Z1 shifted by Z2's center.  Each
    intersection doubles the representation, so the final sizes are
    n_g = 2^k n_g1 and n_c = 2^k n_c1 + n (2^k - 1) for k = n_g2; the
    call is rejected up front when the predicted generator count
    exceeds ``GENERATOR_CAP``.

    The result may be empty -- Z2 may simply not fit inside Z1 --
    and is returned in that state; test with is_empty.
    """
    Z1 = as_conzono(Z1)
    Z2 = as_conzono(Z2)
    if Z2.n_c != 0:
        raise ValueError("the subtrahend must be an unconstrained zonotope")
    if Z1.n != Z2.n:
        raise ValueError("sets must share a dimension")
    predicted = Z1.n_g * 2 ** Z2.n_g
    if predicted > GENERATOR_CAP:
        raise ValueError(
            f"exact recursion would produce {predicted} generators "
            f"(cap {GENERATOR_CAP}); reduce the subtrahend's generator "
            "count or use pontryagin_onestep")

    out = translate(Z1, -Z2.c)
    for g in Z2.G.T:
        out = generalized_intersection(translate(out, g), translate(out, -g))
    return out


def pontryagin_onestep(Z1, Z2, norm="inf"):
    """Zonotopic inner approximation of Z1 - Z2 from a small program.

    The candidate difference is {[G1 G2] diag(phi), c_d}: the template
    keeps Z1's generators and borrows Z2's.  Scales and center maximize
    the size of the scaled template [G1 G2] diag(phi) subject to the
    difference test in certificate form -- the candidate plus Z2 must
    sit inside Z1:

        [G1 G2] Phi = G1 Gamma_t (first block of Gamma),
        G2 = G1 Gamma_s (second block),
        c1 - (c_d + c2) = G1 beta,
        |Gamma| 1 + |beta| <= 1   (row-wise).

    ``norm`` picks how the scaled template is measured: "inf" maximizes
    its largest row sum (one LP per output row, best kept, then a
    tie-break pass that fills the remaining slack so degenerate optima
    do not zero out generators); "1" maximizes the entrywise 1-norm
    (single LP).  Any other norm raises ValueError.

    Mathematical unknowns: n_g1^2 + 2 n_g1 n_g2 + 2 n_g1 + n_g2 + n.
    Returns (Zonotope, ScalingResult).  Infeasibility means no translate
    of Z2 certifiably fits inside Z1, i.e. the difference is reported
    empty (EmptySetError); the certificate test is sufficient, so this
    report is conservative for borderline geometry.
    """
    Z1 = _plain_zonotope(as_conzono(Z1), "Z1")
    Z2 = _plain_zonotope(as_conzono(Z2), "Z2")
    if Z1.n != Z2.n:
        raise ValueError("sets must share a dimension")
    n = Z1.n
    Gt = np.hstack([Z1.G, Z2.G])

    # Inner set {[Gt diag(phi), G2], c_d + c2} inside Z1.  A zero
    # column of Gt sizes nothing; its scale is fixed at 0.
    b = LpBuilder()
    b.var("phi", Gt.shape[1], lo=0.0, hi=np.where(Gt.any(axis=0), np.inf, 0.0))
    b.var("cd", n)
    read = _zonotope_certificate(b, Z1.G, [(Gt, True), (Z2.G, False)],
                                 {"cd": np.eye(n)}, Z1.c - Z2.c)

    x = _maximize_template(b, Gt, norm)
    if x is None:
        raise EmptySetError(
            "no translate of the subtrahend certifiably fits inside Z1; "
            "the difference is (reported) empty")

    phi = np.maximum(b.value(x, "phi"), 0.0)
    cd = b.value(x, "cd")
    return Zonotope(cd, Gt * phi), ScalingResult(phi, cd, read(x))


def _maximize_template(b, Gt, norm):
    """Maximize the chosen size measure of Gt diag(phi) over the builder's
    constraint set: the solution vector, or None when the set is empty.
    """
    norm = str(norm).lower()
    if norm != "inf":
        return optimize_scaling(b, norm, True, template=Gt)

    best_value, best_row = -np.inf, None
    for row in np.abs(Gt):
        if not row.any():
            continue
        x = optimize_scaling(b, "1", True, template=row[None])
        if x is None:
            return None
        value = float(row @ b.value(x, "phi"))
        if value > best_value + 1e-12:
            best_value, best_row = value, row
    # The row-sum optimum is rarely unique -- a single long generator can
    # match the whole budget -- so pin the winning row and spend any
    # remaining slack on total scale, which picks a full-bodied optimum
    # over a degenerate one.
    if best_row is not None:
        b.le({"phi": -best_row[None, :]}, np.array([FEAS_TOL - best_value]))
    return optimize_scaling(b, "1", True)
