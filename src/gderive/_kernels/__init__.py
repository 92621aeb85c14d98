"""Integer fraction-free reduced row echelon kernel.

Rows are sparse: a dict {column: int} of the nonzero entries, since the
derivation systems are mostly zeros. ``rref_int`` settles the columns
that one-entry rows force, drops repeated rows, and reduces the rest in
one incremental Gauss-Jordan pass that keeps its basis fully reduced.
``BACKEND`` names the row-reduction implementation; there is one, in
pure Python.
"""

from __future__ import annotations

from math import gcd

BACKEND = "python"

__all__ = ["rref_int", "BACKEND"]


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
    g = gcd(*out.values())
    if g > 1:
        return {j: a // g for j, a in out.items()}
    return out


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

    The survivors then go, shortest first, through one Gauss-Jordan pass
    that keeps the basis reduced. Each basis row is zero at every other
    pivot column, so a new row is cleared with one elimination per pivot
    column it holds, and the entries it gains are never at a pivot
    column. A row that vanishes is dropped; otherwise its smallest
    column becomes a new pivot, which is then cleared from the basis
    rows that hold it. The unit rows need no elimination, since no
    survivor holds their columns. The reduced echelon form is unique, so
    the result does not depend on the order of the rows.
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
    survivors = []
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
            survivors.append(row)
    survivors.sort(key=len)
    reduced = {}
    for row in survivors:
        for c in [c for c in row if c in reduced]:
            row = _eliminate(row, reduced[c], c)
        if row:
            c = min(row)
            if row[c] < 0:
                row = {j: -a for j, a in row.items()}
            for j, other in reduced.items():
                if c in other:
                    reduced[j] = _eliminate(other, row, c)
            reduced[c] = row
    for c in forced:
        reduced[c] = {c: 1}
    pivot_cols = sorted(reduced)
    return [reduced[c] for c in pivot_cols], pivot_cols
