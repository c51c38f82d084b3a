"""Exhaustive reference paths, kept as oracles for the library's one-pass scans.

``scan_partner`` finds a partner by scanning a whole side for agreement
off the free coordinate, where ``Bitrade.star_partner`` and
``delta_partner`` look it up in an index; ``scan_mu`` and ``scan_nu``
take the two steps of mu and nu that way.  ``scan_trigons_bruteforce``
tries every cell of the label cube, where ``find_trigons`` tries only
cells whose three corners exist.  ``is_separated_bitrade`` compares the
set of one tau cycle per label with the set of the label's star triples,
where the library compares only their lengths.
"""

from __future__ import annotations

from bitrades.core import COL, ROW, SYM, Triple, tau_cycle
from bitrades.trigons import trigon_at


def scan_partner(side, t, j):
    """The one triple of `side` agreeing with t off coordinate j, or None."""
    hits = [u for u in side if all(u[i] == t[i] for i in range(3) if i != j)]
    if len(hits) > 1:
        raise ValueError(f"{len(hits)} triples agree with {t} off coordinate {j}")
    return hits[0] if hits else None


def scan_mu(T, r, s, c):
    """mu_{r,s}(c): the star triple off s from c, then the delta triple off r from it."""
    return scan_partner(T.delta, scan_partner(T.star, c, s), r)


def scan_nu(T, r, s, a):
    """nu_{r,s}(a): the delta triple off s from a, then the star triple off r from it."""
    return scan_partner(T.star, scan_partner(T.delta, a, s), r)


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
