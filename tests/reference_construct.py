"""Schoolbook oracles for the projective-point checks of ``delpezzo.construct``.

``construct.general_position`` works on packed ints and shares each pair's
cross product among the triples through that pair; here every triple gets its
own determinant, built from ``FFElem`` arithmetic, and nothing is shared.
``frobenius_permutation`` and ``on_conic`` work on packed ints too; here the
image of each point is ``PlanePoint.apply_frobenius``, normalized again, and
the conic equation is a product of ``FFElem`` values.  ``_base_plane_points``
lists every rational plane point, for the claim that any of them completes a
cubic conic triple in ``small_field_realize``.
"""

import itertools

from delpezzo.construct import PlanePoint
from delpezzo.fields import subfield_elements, zero
from delpezzo.perms import Perm


def cross(a, b):
    """The cross product of two plane points: the line through them."""
    (a0, a1, a2), (b0, b1, b2) = a.coords, b.coords
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def det3(p, q, r):
    """det[p; q; r], zero exactly when the three points are collinear."""
    return sum((ci * ri for ci, ri in zip(cross(p, q), r.coords)), zero(p.spec))


def general_position(points):
    """No three of the points are collinear: one determinant per triple."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("general position needs at least three points")
    return all(bool(det3(p, q, r)) for p, q, r in itertools.combinations(pts, 3))


def frobenius_permutation(config):
    """i -> j with frobenius(P_i) = P_j, matching points as normalized objects."""
    where = {p.coords: i for i, p in enumerate(config.points)}
    images = tuple(where.get(p.apply_frobenius().coords) for p in config.points)
    if None in images:
        raise ValueError("configuration not defined over the base field")
    return Perm(images)


def on_conic(point):
    """y^2 = x*z in ``FFElem`` arithmetic."""
    x, y, z = point.coords
    return y * y == x * z


def _base_plane_points(work):
    """All plane points with base-field coordinates, in canonical order."""
    scalars = subfield_elements(work)
    for triple in itertools.product(scalars, repeat=3):
        if any(triple):
            point = PlanePoint(work, triple)
            if point.coords == triple:
                yield point
