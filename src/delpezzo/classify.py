"""Type-level facts: automorphism groups, realizability, minimal existence.

The automorphism group of a degree-5 surface of type [H] is the centralizer
of H in S5; the table below lists all nineteen types with a structural name
for each centralizer, six of which are trivial.  Realizability of a type
over a field reduces to which groups occur as Galois groups over it: every
group for number fields, exactly the cyclic ones for finite fields, and an
explicit user-supplied list for anything else.
"""

from __future__ import annotations

from functools import lru_cache

from .perms import (
    ClassLabel,
    Subgroup,
    _Record,
    centralizer,
    class_names,
    class_representative,
    contains_order5,
)


# --- field capabilities -------------------------------------------------------

class FieldCapability(_Record):
    """Which subgroup classes occur as Galois groups over a field.

    kind "finite" (with q): exactly the classes with cyclic representatives,
    for every q, since F_{q^n}/F_q is cyclic of every order n.  kind
    "number_field": all classes.  kind "custom": the explicit label set.
    """

    __slots__ = ("kind", "q", "labels")

    def __init__(self, kind: str, q: int | None = None, labels: frozenset[str] = frozenset()):
        self._set(kind, q, labels)
        if kind not in ("finite", "number_field", "custom"):
            raise ValueError(f"unknown capability kind {kind!r}")
        if kind == "finite":
            from .fields import MAX_BASE_FIELD, _prime_power  # here: aut-table loads no fields

            if isinstance(q, int) and q > MAX_BASE_FIELD:
                raise ValueError("finite capability needs q at most 2^40")
            if _prime_power(q) is None:
                raise ValueError("finite capability needs a prime-power q")


def finite(q: int) -> FieldCapability:
    return FieldCapability("finite", q=q)


def number_field() -> FieldCapability:
    return FieldCapability("number_field")


def custom(labels) -> FieldCapability:
    names = frozenset(
        label.name if isinstance(label, ClassLabel) else str(label)
        for label in labels
    )
    return FieldCapability("custom", labels=names)


def realizable(label: ClassLabel | str, cap: FieldCapability,
               degree_context: int = 5) -> bool:
    """True when surfaces of this type exist over fields with this capability.

    A plain string label is looked up in the given degree context
    (degree 5 unless stated otherwise).
    """
    rep = class_representative(label, degree_context)
    name = label.name if isinstance(label, ClassLabel) else label
    if cap.kind == "finite":
        return rep.is_cyclic
    if cap.kind == "number_field":
        return True
    return name in cap.labels


# --- the automorphism table ---------------------------------------------------

class AutDescription(_Record):
    """One table row: a surface type and its automorphism group."""

    __slots__ = ("label", "group_name", "aut_group")

    def __init__(self, label: ClassLabel, group_name: str, aut_group: Subgroup):
        self._set(label, group_name, aut_group)
        if group_name not in _GROUP_NAME_ORDERS:
            raise ValueError(f"unknown group name {group_name!r}")
        if aut_group.order != _GROUP_NAME_ORDERS[group_name]:
            raise ValueError("structural name does not match the group order")


_GROUP_NAME_ORDERS = {
    "S5": 120, "S3xZ/2Z": 12, "D4": 8, "Z/2ZxZ/2Z": 4,
    "Z/6Z": 6, "Z/4Z": 4, "Z/5Z": 5, "Z/2Z": 2, "e": 1,
}

# types listed in the order of the published table; the six types with
# trivial automorphism group come last
_AUT_TABLE_ROWS = (
    ("[e]", "S5"),
    ("[<(1,2)>]", "S3xZ/2Z"),
    ("[<(1,2)(3,4)>]", "D4"),
    ("[<(1,2),(3,4)>]", "Z/2ZxZ/2Z"),
    ("[<(1,2)(3,4),(1,3)(2,4)>]", "Z/2ZxZ/2Z"),
    ("[Z/3Z]", "Z/6Z"),
    ("[Z/6Z]", "Z/6Z"),
    ("[Z/4Z]", "Z/4Z"),
    ("[Z/5Z]", "Z/5Z"),
    ("[<(1,2,3),(1,2)>]", "Z/2Z"),
    ("[<(1,2,3),(1,2)(4,5)>]", "Z/2Z"),
    ("[D4]", "Z/2Z"),
    ("[S3xZ/2Z]", "Z/2Z"),
    ("[S5]", "e"),
    ("[A5]", "e"),
    ("[S4]", "e"),
    ("[A4]", "e"),
    ("[D5]", "e"),
    ("[GA(1,5)]", "e"),
)

TRIVIAL_AUT_TYPES = frozenset(
    name for name, group in _AUT_TABLE_ROWS if group == "e"
)


@lru_cache(maxsize=None)
def aut_table() -> tuple[AutDescription, ...]:
    """All nineteen degree-5 types with their automorphism groups."""
    rows = []
    for name, group_name in _AUT_TABLE_ROWS:
        rep = class_representative(name, 5)
        rows.append(AutDescription(ClassLabel(5, name), group_name, centralizer(rep)))
    return tuple(rows)


def aut_group_of(label: ClassLabel | str) -> AutDescription:
    rep = class_representative(label, 5)  # ValueError for an unknown or degree-6 label
    return next(row for row in aut_table() if class_representative(row.label) == rep)


# --- existence of G-minimal surfaces -------------------------------------------

def g_minimal_exists(group: Subgroup, cap: FieldCapability) -> tuple[bool, ClassLabel | None]:
    """Whether a surface exists on which the given group acts minimally.

    Either the group itself brings an element of order 5 (then the split
    type works over every field, witness "[e]"), or the group is trivial
    and the field must supply a Galois image with an element of order 5
    (witness: the first such realizable type).
    """
    if group.degree != 5:
        raise ValueError("degree mismatch")
    if contains_order5(group):
        return True, ClassLabel(5, "[e]")
    if group.order == 1:
        for name in class_names(5):
            if realizable(name, cap, 5) and contains_order5(class_representative(name, 5)):
                return True, ClassLabel(5, name)
    return False, None
