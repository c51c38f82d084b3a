"""JSON serialization of bitrades.

Format: an object with "rows", "cols", "syms" (lists of label names)
and "star", "delta" (lists of [row, col, sym] name triples).
"""

from __future__ import annotations

import json

from .core import COL, ROW, SYM, BitradeError, Label, Triple, build_bitrade


class ParseError(BitradeError):
    pass


def _labels(doc, key, role):
    names = doc.get(key)
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ParseError(f'"{key}" must be a list of strings')
    if len(set(names)) != len(names):
        raise ParseError(f'duplicate name in "{key}"')
    return {name: Label(role, i, name) for i, name in enumerate(names)}


def _triples(doc, key, rows, cols, syms):
    raw = doc.get(key)
    if not isinstance(raw, list):
        raise ParseError(f'"{key}" must be a list of [row, col, sym] triples')
    # a string or object entry of three characters or keys would unpack into three names
    if set(map(type, raw)) <= {list}:
        try:  # each table holds labels of its own role, so Triple's role check is skipped
            return [tuple.__new__(Triple, (rows[r], cols[c], syms[s])) for r, c, s in raw]
        except (KeyError, TypeError, ValueError):  # an unknown or unhashable name, or not 3
            pass
    # only a bad entry gets here, and the loop raises on it: an entry that is not a
    # list skips the fast path, which fails only by ValueError (an entry not of three
    # items), TypeError (an unhashable name) or KeyError (a name not in its table, as
    # is every name that is not a string)
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3
                and all(isinstance(x, str) for x in entry)):
            raise ParseError(f'bad entry in "{key}": {entry!r}')
        for name, table, role in zip(entry, (rows, cols, syms), ("rows", "cols", "syms")):
            if name not in table:
                raise ParseError(f'unknown {role} label {name!r} in "{key}"')


def loads(text):
    """Parse and validate a bitrade from a JSON string.

    Raises ParseError on malformed input, a duplicated triple or a declared
    label that no triple uses, and AxiomViolation / EmptyInput on
    well-formed input that is not a bitrade.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    rows = _labels(doc, "rows", ROW)
    cols = _labels(doc, "cols", COL)
    syms = _labels(doc, "syms", SYM)
    star = _triples(doc, "star", rows, cols, syms)
    delta = _triples(doc, "delta", rows, cols, syms)
    try:
        T = build_bitrade(star, delta)
    except ValueError as e:  # a duplicated triple
        raise ParseError(str(e)) from e
    unused = []  # the universes are the star's labels, and R3 puts every delta label there
    for key, table, used in zip(("rows", "cols", "syms"), (rows, cols, syms), T.universes):
        if len(table) != len(used):
            name = next(name for name, lab in table.items() if lab not in used)
            unused.append(f"unused {key} label {name!r}")
    if unused:
        raise ParseError("; ".join(unused))
    return T


def load(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text: {e}") from e
    return loads(text)


def dumps(T):
    doc = {
        "rows": [lab.name for lab in T.rows],
        "cols": [lab.name for lab in T.cols],
        "syms": [lab.name for lab in T.syms],
        "star": [list(t.names()) for t in T.star],
        "delta": [list(t.names()) for t in T.delta],
    }
    return json.dumps(doc, indent=2) + "\n"


def dump(T, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(T))
