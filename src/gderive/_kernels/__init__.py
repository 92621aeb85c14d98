"""Integer fraction-free reduced row echelon kernel.

``BACKEND`` names the row-reduction implementation; there is one, in pure
Python.
"""

from __future__ import annotations

from math import gcd

BACKEND = "python"

__all__ = ["rref_int", "BACKEND"]


def _normalize(row):
    """Divide a row by the gcd of its entries; force the first nonzero positive."""
    g = 0
    for a in row:
        g = gcd(g, a)
        if g == 1:
            break
    if g > 1:
        row = [a // g for a in row]
    for a in row:
        if a > 0:
            return row
        if a < 0:
            return [-a for a in row]
    return row


def rref_int(rows):
    """Fully reduce integer rows in place-free style.

    Args:
        rows: list of equal-length lists of Python ints.

    Returns:
        (pivot_rows, pivot_cols): the nonzero reduced rows, each scaled to
        coprime integer entries with a positive pivot, and the pivot column
        of each. Dividing row i by its pivot entry yields the leading-1
        rational reduced form.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivot_cols = []
    r = 0
    for c in range(ncols):
        src = -1
        for i in range(r, len(work)):
            if work[i][c] != 0:
                src = i
                break
        if src < 0:
            continue
        work[r], work[src] = work[src], work[r]
        if work[r][c] < 0:
            work[r] = [-a for a in work[r]]
        work[r] = _normalize(work[r])
        p = work[r][c]
        for j in range(len(work)):
            if j == r:
                continue
            v = work[j][c]
            if v == 0:
                continue
            piv = work[r]
            work[j] = [p * a - v * b for a, b in zip(work[j], piv)]
            work[j] = _normalize(work[j])
        pivot_cols.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivot_cols
