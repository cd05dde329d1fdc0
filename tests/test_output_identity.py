"""The package's user-visible output, byte for byte, against one pinned digest.

The collection is the one ``tests/output_identity.py`` prints for a checkout:
the demos, ``check-paper`` plain and under ``python -O``, the listings,
``realize --json`` for every type over fields up to the ceilings (2^40, 3^25,
65521, 1009^4), the subgroup lattice, and ``picard``'s (-1)-classes, conic
classes and 120 lattice actions.  A change to any of those bytes
fails here; if the change is meant, the new digest goes here with a line in
CHANGES.md saying why.
"""

import output_identity

DIGEST = "bfe1804c84d41d2d41d4fa8d38ad9bc9f227f53c941f537f9e90c619d764ac5e"


def test_every_output_matches_the_pinned_digest():
    assert output_identity.digest() == (924, 240, DIGEST)
