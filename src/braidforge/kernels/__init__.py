"""The enumeration kernel; its functions live in ``pure``."""

from .pure import (
    add_table,
    all_subgroups,
    apply_perm,
    automorphisms,
    closure,
    combinations,
    element_orders,
    find_isomorphism,
    lattice,
    neg_table,
    stabilizer,
)
