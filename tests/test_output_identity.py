"""The package's user-visible output, byte for byte, against one pinned digest.

The collection is the one ``tests/output_identity.py`` prints for a checkout:
the demos, ``check-paper`` plain and under ``python -O``, the listings,
``realize --json`` for every type over fields up to the ceilings (2^40, 3^25,
65521, 1009^4) and the subgroup lattice.  A change to any of those bytes
fails here; if the change is meant, the new digest goes here with a line in
CHANGES.md saying why.
"""

import output_identity

DIGEST = "5a2fad8f007fb77c89e88d3e015849b0378d27704baf67710d4e1550223ce24c"


def test_every_output_matches_the_pinned_digest():
    assert output_identity.digest() == (783, 240, DIGEST)
