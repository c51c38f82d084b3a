"""Exhaustive reference paths, kept as oracles for the library's one-pass scans.

``scan_trigons_bruteforce`` tries every cell of the label cube, where
``find_trigons`` joins the delta pair indexes.  ``is_separated_bitrade``
compares the set of one tau cycle per label with the set of the label's
star triples, where the library compares only their lengths.
"""

from __future__ import annotations

from bitrades.core import COL, ROW, SYM, Triple, tau_cycle
from bitrades.trigons import trigon_at


def scan_trigons_bruteforce(T):
    """Trigons by full enumeration of the label cube."""
    out = []
    for r in T.rows:
        for c in T.cols:
            for s in T.syms:
                tg = trigon_at(T, Triple(r, c, s))
                if tg is not None:
                    out.append(tg)
    return out


def is_separated_bitrade(T):
    """True iff every label's star triples form a single tau cycle."""
    for role in (ROW, COL, SYM):
        carrying = {}
        for p in T.star:
            carrying.setdefault(p[role], []).append(p)
        for lab in T.universe(role):
            group = carrying[lab]
            if set(tau_cycle(T, role, group[0])) != set(group):
                return False
    return True
