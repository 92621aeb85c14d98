"""Integer fraction-free reduced row echelon kernel.

Rows come in and go out dense, but elimination runs on sparse rows
(dicts of the nonzero entries), since the derivation systems are mostly
zeros. ``BACKEND`` names the row-reduction implementation; there is one,
in pure Python.
"""

from __future__ import annotations

from itertools import compress
from math import gcd

BACKEND = "python"

__all__ = ["rref_int", "BACKEND"]


def _primitive(row: dict) -> dict:
    """Divide a sparse row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {c: a // g for c, a in row.items()}
    return row


def _eliminate(row: dict, pivot: dict, c: int) -> dict:
    """Fraction-free p*row - v*pivot clearing column c, made primitive;
    p and v are the two rows' entries at c, divided by their gcd."""
    p, v = pivot[c], row[c]
    g = gcd(p, v)
    if g > 1:
        p //= g
        v //= g
    out = dict(row) if p == 1 else {j: p * a for j, a in row.items()}
    for j, b in pivot.items():
        a = out.get(j, 0) - v * b
        if a:
            out[j] = a
        else:
            del out[j]
    return _primitive(out)


def rref_int(rows):
    """Fully reduce integer rows; the input is not modified.

    Args:
        rows: list of equal-length lists of Python ints.

    Returns:
        (pivot_rows, pivot_cols): the nonzero reduced rows as dense lists,
        each scaled to coprime integer entries with a positive pivot, and
        the pivot column of each. Dividing row i by its pivot entry yields
        the leading-1 rational reduced form.

    Columns are cleared left to right. A row whose leading column is c
    can only meet the other rows leading at c, so rows wait in buckets
    keyed by leading column, and the shortest row of a bucket becomes its
    pivot. Back substitution then clears each pivot column upwards. The
    reduced echelon form is unique, so the result does not depend on
    these choices.
    """
    ncols = len(rows[0]) if rows else 0
    columns = range(ncols)
    buckets = {}
    for row in rows:
        nonzero = list(compress(columns, row))
        if nonzero:
            sparse = _primitive({c: row[c] for c in nonzero})
            buckets.setdefault(nonzero[0], []).append(sparse)
    pivots = []
    for c in columns:
        group = buckets.pop(c, None)
        if group is None:
            continue
        pivot = min(group, key=len)
        for row in group:
            if row is not pivot:
                reduced = _eliminate(row, pivot, c)
                if reduced:
                    buckets.setdefault(min(reduced), []).append(reduced)
        if pivot[c] < 0:
            pivot = {j: -a for j, a in pivot.items()}
        pivots.append((c, pivot))
    for k in range(len(pivots) - 1, 0, -1):
        c, pivot = pivots[k]
        for i in range(k):
            above = pivots[i][1]
            if c in above:
                pivots[i] = (pivots[i][0], _eliminate(above, pivot, c))
    pivot_rows = []
    for _, row in pivots:
        dense = [0] * ncols
        for j, a in row.items():
            dense[j] = a
        pivot_rows.append(dense)
    return pivot_rows, [c for c, _ in pivots]
