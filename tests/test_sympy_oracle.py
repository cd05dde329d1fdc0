"""Oracles from outside the package: sympy re-derives moduli and centralizers.

Every other oracle in tests/ was written alongside the package; these share no
code with it.  sympy is a test dependency only and stays out of src/.
"""

import itertools

from sympy.combinatorics import Permutation, PermutationGroup, SymmetricGroup
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p
from test_fields import _SWEEP_LITERALS

from delpezzo import fields
from delpezzo.classify import aut_table
from delpezzo.perms import class_representative


def _irreducible(modulus, p):
    """sympy's verdict on a coefficient tuple, constant term first."""
    return gf_irreducible_p(list(reversed(modulus)), p, ZZ)


def _first_irreducible(p, m):
    """The monic irreducible of degree m over F_p with the smallest index
    sum(c_i * p^i) over its non-leading coefficients, constant term first."""
    for index in itertools.count():
        coeffs = tuple(index // p ** i % p for i in range(m)) + (1,)
        if _irreducible(coeffs, p):
            return coeffs


def test_every_sweep_modulus_is_the_first_irreducible_in_index_order():
    pairs = set()
    for literal in _SWEEP_LITERALS:
        p, _, e = literal.partition("^")
        pairs.update((int(p), int(e or 1) * n) for n in range(1, 7))
    assert len(pairs) == 113
    for p, m in sorted(pairs):
        assert fields._modulus(p, m) == _first_irreducible(p, m), (p, m)


def test_ceiling_moduli_are_irreducible():
    for p, m in [(2, 240), (3, 150), (65521, 12), (8191, 12), (65519, 6)]:
        modulus = fields._modulus(p, m)
        assert len(modulus) == m + 1 and modulus[-1] == 1, (p, m)
        assert _irreducible(modulus, p), (p, m)


def test_each_automorphism_group_is_the_centralizer_in_s5():
    rows = aut_table()
    assert len(rows) == 19
    s5 = SymmetricGroup(5)
    for row in rows:
        rep = class_representative(row.label, 5)
        gens = [Permutation(list(g.images)) for g in rep.generators] or [Permutation(4)]
        centralizer = s5.centralizer(PermutationGroup(gens))
        assert centralizer.order() == row.aut_group.order, row.label.name
        assert {tuple(g.array_form) for g in centralizer.elements} == \
            {g.images for g in row.aut_group}, row.label.name
