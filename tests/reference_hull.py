"""Two exact hull-membership routes toricdeg shipped before, kept verbatim
as test-only references.

`reference_feasible` is the phase-one simplex over `Fraction`, the
rational tableau whose pivots `toricdeg.toric._feasible` repeats with
fraction-free integer arithmetic; tests compare the two on drawn systems
and on hulls too large for the second route.

`_in_hull` is the route before the simplex: Gaussian elimination on the
equalities, then Fourier-Motzkin elimination on the free variables; tests
compare its answers with `toricdeg.toric._in_hull`.  Fourier-Motzkin grows
doubly exponentially with the number of free variables, so tests keep its
inputs small.
"""

from __future__ import annotations

from fractions import Fraction


def reference_feasible(rows, rhs) -> bool:
    """Is {y >= 0 : rows . y = rhs} nonempty?  Exact over Fractions, for a
    system of at least one row.

    Phase one of the simplex method: start from an all-artificial basis and
    drive the sum of the artificial variables to zero.  Bland's rule (the
    least eligible index enters; ratio-test ties leave by least basic index)
    rules out cycling, so the loop always ends (Bland 1977).  An artificial
    variable that leaves the basis never re-enters, so it keeps no column;
    artificial i has index n + i.
    """
    n = len(rows[0])
    # one row per equality, rhs last, signs flipped so that rhs >= 0
    tab = [[Fraction(c) for c in co] + [Fraction(r)] for co, r in zip(rows, rhs)]
    tab = [row if row[n] >= 0 else [-x for x in row] for row in tab]
    basis = [n + i for i in range(len(tab))]
    # the artificial sum is obj[n] - obj[:n] . y
    obj = [sum(col) for col in zip(*tab)]
    while obj[n] != 0:
        enter = next((j for j in range(n) if obj[j] > 0), None)
        if enter is None:
            return False
        leave = min((i for i, row in enumerate(tab) if row[enter] > 0),
                    key=lambda i: (tab[i][n] / tab[i][enter], basis[i]))
        piv = tab[leave] = [x / tab[leave][enter] for x in tab[leave]]
        for row in tab + [obj]:
            f = row[enter]
            if f and row is not piv:
                row[:] = [a - f * b for a, b in zip(row, piv)]
        basis[leave] = enter
    return True


def _gauss_solve(eqs, nvars):
    """Row-reduce equalities; returns (particular, null_basis) or None.

    eqs: list of (coeffs, rhs) for sum c_i x_i = rhs, over Fractions.
    """
    rows = [[Fraction(c) for c in co] + [Fraction(r)] for co, r in eqs]
    pivots = []
    r = 0
    for c in range(nvars):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][nvars] != 0 and all(x == 0 for x in rows[i][:nvars]):
            return None
    free = [c for c in range(nvars) if c not in pivots]
    particular = [Fraction(0)] * nvars
    for i, c in enumerate(pivots):
        particular[c] = rows[i][nvars]
    null_basis = []
    for fvar in free:
        v = [Fraction(0)] * nvars
        v[fvar] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fvar]
        null_basis.append(v)
    return particular, null_basis


def _fourier_motzkin_feasible(ineqs, nvars) -> bool:
    """Feasibility of sum c_i t_i <= rhs systems by variable elimination."""
    system = [([Fraction(c) for c in co], Fraction(r)) for co, r in ineqs]
    for v in range(nvars):
        lower, upper, rest = [], [], []
        for co, r in system:
            c = co[v]
            if c > 0:
                upper.append((co, r))
            elif c < 0:
                lower.append((co, r))
            else:
                rest.append((co, r))
        new = rest
        for co_l, r_l in lower:
            for co_u, r_u in upper:
                a, b = -co_l[v], co_u[v]
                co = [a * cu + b * cl for cl, cu in zip(co_l, co_u)]
                new.append((co, a * r_u + b * r_l))
        system = new
    return all(r >= 0 for co, r in system)


def _in_hull(point, points, slack: Fraction = Fraction(0)) -> bool:
    """Exact test: point within slack (sup-norm) of conv(points).

    Variables lambda_1..lambda_q >= 0.  sum lambda = 1 is an equality; so is
    each coordinate sum lambda * p = point without slack, while with slack
    the coordinate sums are boxed by two inequalities each.
    """
    q = len(points)
    coords = [([Fraction(p[i]) for p in points], Fraction(x))
              for i, x in enumerate(point)]
    eqs = [([Fraction(1)] * q, Fraction(1))]
    if slack == 0:
        eqs += coords
    sol = _gauss_solve(eqs, q)
    if sol is None:
        return False
    particular, null_basis = sol
    ineqs = []
    for j in range(q):  # lambda_j >= 0
        co = [-nb[j] for nb in null_basis]
        ineqs.append((co, particular[j]))
    if slack != 0:
        for coeffs, x in coords:
            base = sum(c * particular[j] for j, c in enumerate(coeffs))
            row = [sum(c * nb[j] for j, c in enumerate(coeffs)) for nb in null_basis]
            # sum lambda p_i <= point_i + slack
            ineqs.append((row, x + slack - base))
            # -(sum lambda p_i) <= -point_i + slack
            ineqs.append(([-v for v in row], slack - x + base))
    return _fourier_motzkin_feasible(ineqs, len(null_basis))
