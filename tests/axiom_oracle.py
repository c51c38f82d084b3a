"""The per-triple search for R1-R3, kept as an oracle for ``build_bitrade``.

``build_bitrade`` checks R2 and R3 as equal sets of pair keys and
searches for a witness only when that check fails.  This oracle lists
every triple agreeing in each coordinate pair (``raw_index``) and walks
the star (R2), then the delta (R3), triple by triple, so it names the
first violation directly; its universes are the labels of both sides.
"""

from __future__ import annotations

from bitrades.core import COL, PAIRS, ROLE_NAMES, ROW, SYM, AxiomViolation, EmptyInput


def validate(star, delta):
    """(star, delta, universes, star_pair, delta_pair) as build_bitrade keeps them,
    or the same exception with the same witness."""
    star = sorted(star)
    delta = sorted(delta)
    if not star or not delta:
        raise EmptyInput("star and delta must both be non-empty")
    if len(set(star)) != len(star):
        raise ValueError("duplicate triple in star")
    if len(set(delta)) != len(delta):
        raise ValueError("duplicate triple in delta")

    star_set = set(star)
    for q in delta:
        if q in star_set:
            raise AxiomViolation("R1", q, detail="triple occurs in both star and delta")

    def raw_index(triples):
        idx = {pair: {} for pair in PAIRS}
        for t in triples:
            for pair in PAIRS:
                idx[pair].setdefault((t[pair[0]], t[pair[1]]), []).append(t)
        return idx

    star_raw = raw_index(star)
    delta_raw = raw_index(delta)

    for p in star:
        for pair in PAIRS:
            hits = delta_raw[pair].get((p[pair[0]], p[pair[1]]), [])
            if len(hits) != 1:
                raise AxiomViolation(
                    "R2", p, pair,
                    f"{len(hits)} delta triples agree in this coordinate pair (need exactly 1)",
                )
    for q in delta:
        for pair in PAIRS:
            hits = star_raw[pair].get((q[pair[0]], q[pair[1]]), [])
            if len(hits) != 1:
                raise AxiomViolation(
                    "R3", q, pair,
                    f"{len(hits)} star triples agree in this coordinate pair (need exactly 1)",
                )

    universes = []
    for role in (ROW, COL, SYM):
        in_star = {t[role] for t in star}
        labels = sorted(in_star | {t[role] for t in delta})
        if len({lab.index for lab in labels}) != len(labels):
            raise ValueError(f"duplicate {ROLE_NAMES[role]} label index")
        if len({lab.name for lab in labels}) != len(labels):
            raise ValueError(f"duplicate {ROLE_NAMES[role]} label name")
        if len(labels) != len(in_star):
            raise ValueError(f"{ROLE_NAMES[role]} label missing from star")
        universes.append(tuple(labels))

    star_pair = {pair: {k: v[0] for k, v in star_raw[pair].items()} for pair in PAIRS}
    delta_pair = {pair: {k: v[0] for k, v in delta_raw[pair].items()} for pair in PAIRS}
    return tuple(star), tuple(delta), tuple(universes), star_pair, delta_pair
