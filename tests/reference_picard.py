"""Reference integer rank by fraction-free (Bareiss) elimination.

An oracle for ``delpezzo.picard.invariant_rank``, which reads the fixed rank
off the point orbits: here the rank of the stacked M_g - I is computed
directly from the induced lattice matrices, sharing no code with the orbits.
"""


def integer_rank(rows):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == len(m):
            break
    return rank
