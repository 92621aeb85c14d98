"""Integer fraction-free reduced row echelon kernel.

Rows are sparse: a dict {column: int} of the nonzero entries, since the
derivation systems are mostly zeros. ``BACKEND`` names the row-reduction
implementation; there is one, in pure Python.
"""

from __future__ import annotations

from heapq import heappop, heappush
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


def _cascade(work: list) -> list:
    """Settle the columns that one-entry rows force to zero.

    A row {c: a} means x_c = 0 in every solution, so c is deleted from
    every row of ``work`` (fresh dicts, changed in place) through a map
    from each column to the rows holding it, and a row left with one
    entry forces its own column in turn. No arithmetic is done. Returns
    the forced columns; the rows that held them are left empty.
    """
    index = {}
    for row in work:
        for c in row:
            if c in index:
                index[c].append(row)
            else:
                index[c] = [row]
    queue = [row for row in work if len(row) == 1]
    forced = []
    while queue:
        row = queue.pop()
        # Empty when another forced column already cleared it.
        if row:
            (c,) = row
            forced.append(c)
            for other in index.pop(c):
                del other[c]
                if len(other) == 1:
                    queue.append(other)
    return forced


def rref_int(rows):
    """Fully reduce sparse integer rows; the input is not modified.

    Args:
        rows: iterable of dicts {column: int}. Zero entries and empty
            rows are allowed and ignored.

    Returns:
        (pivot_rows, pivot_cols): the nonzero reduced rows as new dicts
        without zero entries, in pivot order, each scaled to coprime
        integer entries with a positive pivot, and the pivot column of
        each. Dividing row i by its pivot entry yields the leading-1
        rational reduced form.

    A presolve runs first. When some row has one entry, its column is
    zero in every solution: its reduced row is the unit row {c: 1}, and
    c is deleted from every other row, which may leave further one-entry
    rows (``_cascade``). Each surviving row is then made primitive with a
    positive leading entry, and a row equal to one already kept is
    dropped. Neither step does any elimination.

    The survivors are eliminated with columns cleared left to right. A
    row whose leading column is c can only meet the other rows leading
    at c, so rows wait in buckets keyed by leading column, and the
    shortest row of a bucket becomes its pivot. Back substitution then
    clears each row's entries at later pivot columns, from the last row
    up. The unit rows need neither step, since no survivor holds their
    columns. The reduced echelon form is unique, so the result does not
    depend on these choices.
    """
    work = []
    single = False
    for row in rows:
        sparse = {c: a for c, a in row.items() if a}
        if sparse:
            work.append(sparse)
            if len(sparse) == 1:
                single = True
    forced = _cascade(work) if single else ()
    buckets = {}
    # Kept rows by the hash of their entries. A row that merely shares a
    # hash with a kept one stays, which costs time but not correctness.
    kept = {}
    for row in work:
        if row:
            lead = min(row)
            g = gcd(*row.values())
            if row[lead] < 0:
                g = -g
            if g != 1:
                row = {c: a // g for c, a in row.items()}
            key = hash(frozenset(row.items()))
            if kept.get(key) == row:
                continue
            kept[key] = row
            buckets.setdefault(lead, []).append(row)
    # A heap of the leading columns still to clear (a sorted list is one);
    # eliminating at c only adds later ones.
    leads = sorted(buckets)
    pivots = []
    while leads:
        c = heappop(leads)
        group = buckets.pop(c)
        pivot = min(group, key=len)
        for row in group:
            if row is not pivot:
                reduced = _eliminate(row, pivot, c)
                if reduced:
                    lead = min(reduced)
                    if lead not in buckets:
                        buckets[lead] = []
                        heappush(leads, lead)
                    buckets[lead].append(reduced)
        if pivot[c] < 0:
            pivot = {j: -a for j, a in pivot.items()}
        pivots.append((c, pivot))
    # Bottom up, every row below is already zero at the other pivot
    # columns, so clearing a row's later pivot columns adds none back.
    reduced = {}
    for c, row in reversed(pivots):
        for j in [j for j in row if j != c and j in reduced]:
            row = _eliminate(row, reduced[j], j)
        reduced[c] = row
    for c in forced:
        reduced[c] = {c: 1}
    pivot_cols = sorted(reduced)
    return [reduced[c] for c in pivot_cols], pivot_cols
