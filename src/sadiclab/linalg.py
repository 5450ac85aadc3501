"""Linear algebra on lists of rows, exact and floating-point.

One Gauss-Jordan elimination serves every exact scalar of the package
(int, Fraction, QuadraticSurd, FieldElement): it uses only + - * / and
comparison with 0, and promotes ints to Fraction so that its quotients
stay exact.  Its forward pass yields rank and determinant, its
back-substitution the inverse.  `insert` grows an echelon basis
of a span one vector at a time.  `float_rank` is the partial-pivot rank
of float, complex or mpf rows under a tolerance.
"""

from fractions import Fraction


def _exact(row):
    return [Fraction(c) if isinstance(c, int) else c for c in row]


def _echelon(rows, ncols):
    """Row echelon form by forward elimination over the first ncols columns.

    Returns (rows, pivot columns, det), det being the product of the
    pivots signed by the row swaps: the determinant of a square matrix of
    full rank.  Rank and det need no more; `_reduce` goes on from here.
    """
    m = [_exact(row) for row in rows]
    pivots = []
    det = 1
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            det = -det
        lead = m[top][col]
        det = det * lead
        for r in range(top + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / lead
                m[r] = [a - f * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots, det


def _reduce(rows, ncols):
    """Reduced row echelon form and pivot columns, by back-substitution."""
    m, pivots, _ = _echelon(rows, ncols)
    for top in reversed(range(len(pivots))):
        col = pivots[top]
        inv = 1 / m[top][col]
        m[top] = [a * inv for a in m[top]]
        for r in range(top):
            if m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[top])]
    return m, pivots


def _zero_one(rows):
    """Zero and one of the type of the first entry (Fraction when none)."""
    zero = Fraction(0)
    if rows and rows[0]:
        zero = zero + rows[0][0] * 0
    return zero, zero + 1


def rank(rows):
    """Rank of a list of rows of equal length."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def det(mat):
    """Determinant of a square matrix; the int 0 when it is singular."""
    _, pivots, d = _echelon(mat, len(mat))
    return d if len(pivots) == len(mat) else 0


def inverse(mat):
    """Inverse of a square matrix; ZeroDivisionError when it is singular."""
    n = len(mat)
    zero, one = _zero_one(mat)
    m, pivots = _reduce(
        [list(row) + [one if i == j else zero for j in range(n)]
         for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix over K")
    return [row[n:] for row in m]


def insert(rows, vec):
    """Add vec to an echelon basis unless it lies in its span.

    `rows` is a list of (lead, row) pairs built by this function: each
    row is 1 at its own lead and 0 at the leads of the rows before it.
    Returns True when vec was independent (and was appended).
    """
    v = _exact(vec)
    for lead, row in rows:
        if v[lead] != 0:
            f = v[lead]
            v = [a - f * b for a, b in zip(v, row)]
    piv = next((i for i, a in enumerate(v) if a != 0), None)
    if piv is None:
        return False
    inv = 1 / v[piv]
    rows.append((piv, [a * inv for a in v]))
    return True


def float_rank(rows, tol):
    """Rank by partial pivoting; a pivot must exceed tol in absolute value."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        best = tol
        for r in range(rank, len(mat)):
            if abs(mat[r][col]) > best:
                best = abs(mat[r][col])
                piv = r
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [v / lead for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and abs(mat[r][col]) > 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank
