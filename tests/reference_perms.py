"""Reference subgroup-class labels by brute-force smallest conjugates.

An oracle for ``delpezzo.perms.class_label``, which names a class by the
census of its elements' conjugacy classes: here a subgroup is keyed by the
smallest of its conjugates under every element of the ambient group, on raw
0-indexed image tuples, sharing no code with the census.
"""


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
