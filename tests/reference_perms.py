"""Brute-force oracles for ``delpezzo.perms``, on raw 0-indexed image tuples.

Subgroup-class labels by smallest conjugates: an oracle for
``class_label``, which names a class by the census of its elements'
conjugacy classes; here a subgroup is keyed by the smallest of its
conjugates under every element of the ambient group, sharing no code with
the census.  Below them, the subgroup lattice from the closures of all pairs
of elements, centralizers as commuting sets, and element orders from cycle
lengths.
"""

import math


def _compose(a, b):
    """Apply b first, then a."""
    return tuple(a[j] for j in b)


def _inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _conjugate(images, g):
    """The sorted image tuples of g H g^-1, for H given by its image tuples."""
    g_inv = _inverse(g)
    return tuple(sorted(_compose(_compose(g, h), g_inv) for h in images))


def smallest_conjugate_labeller(ambient, named_representatives):
    """A map from a subgroup to the name of the representative conjugate to it."""
    ambient = tuple(g.images for g in ambient)

    def smallest_conjugate(group):
        images = [h.images for h in group.elements]
        return min(_conjugate(images, g) for g in ambient)

    names = {smallest_conjugate(rep): name for name, rep in named_representatives}
    if len(names) != len(named_representatives):
        raise ValueError("two representatives are conjugate")
    return lambda group: names[smallest_conjugate(group)]


# --- oracles for the subgroup lattice, centralizers and element orders -------
#
# These work on raw 0-indexed image tuples and share no code with
# delpezzo.perms: no pinned representative, no bitmask, no conjugation.


def _closure(gens, degree):
    """The frozenset of image tuples generated by the given image tuples."""
    identity = tuple(range(degree))
    group = {identity}
    frontier = [identity]
    while frontier:
        frontier = [c for c in {_compose(a, g) for a in frontier for g in gens} if c not in group]
        group.update(frontier)
    return frozenset(group)


def subgroups_by_pairs(ambient):
    """Every subgroup generated by two ambient elements, as frozensets of tuples.

    Every subgroup of S5 and of the hexagon group is 2-generated, so this is
    the whole subgroup lattice, found without any reduction.
    """
    ambient = sorted(g.images for g in ambient)
    degree = len(ambient[0])
    return {
        _closure((a, b), degree)
        for i, a in enumerate(ambient)
        for b in ambient[i:]
    }


def commuting_elements(ambient, group):
    """The image tuples of the ambient elements commuting with every element of group."""
    members = [h.images for h in group.elements]
    return {
        s.images for s in ambient
        if all(_compose(s.images, h) == _compose(h, s.images) for h in members)
    }


def order_by_cycles(images):
    """The lcm of the cycle lengths of an image tuple."""
    order, seen = 1, set()
    for start in range(len(images)):
        length, p = 0, start
        while p not in seen:
            seen.add(p)
            p = images[p]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order
