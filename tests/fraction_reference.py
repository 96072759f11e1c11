"""Reference implementations on ``Fraction`` arithmetic, kept for tests only.

These are the straightforward rational-arithmetic versions of the exact
finite-chain algebra and of the finite coupling's pair rows: every product,
sum and quotient is a ``Fraction``. ``mcbounds`` computes the same algebra on
integer numerators over a common denominator; the property tests require the
two to agree exactly, including which exception is raised and its message.
The coupling engine forms its pair rows in floats, which the tests hold to
within a few ulps of ``pair_rows``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from mcbounds.bounds import BoundReport
from mcbounds.errors import InputError, MathError, NonUniqueStationaryError
from mcbounds.finite_chain import MinorizationCert, ProbVector, StochasticMatrix


def identity(n: int) -> StochasticMatrix:
    """The n-state chain that never moves."""
    return StochasticMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matrix_json(P: StochasticMatrix) -> dict:
    """The matrix-file form of P: its size and its rows as 'p/q' strings."""
    return {"size": P.size, "rows": [[str(e) for e in row] for row in P.rows]}


def _mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def matrix_power(P: StochasticMatrix, n: int) -> StochasticMatrix:
    """Exact n-step transition matrix by binary exponentiation."""
    if n < 0:
        raise InputError("power must be >= 0")
    result = identity(P.size).rows
    base = P.rows
    while n:
        if n & 1:
            result = _mat_mul(result, base)
        n >>= 1
        if n:
            base = _mat_mul(base, base)
    return StochasticMatrix(result)


def evolve(mu0: ProbVector, P: StochasticMatrix, n: int) -> ProbVector:
    """Exact distribution after n steps from mu0 (left multiplication)."""
    if mu0.size != P.size:
        raise InputError(f"dimension mismatch: vector {mu0.size}, matrix {P.size}")
    if n < 0:
        raise InputError("step count must be >= 0")
    current = mu0.entries
    size = P.size
    for _ in range(n):
        current = tuple(
            sum(current[i] * P.rows[i][j] for i in range(size)) for j in range(size)
        )
    return ProbVector(current)


def _rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (matrix, pivot columns)."""
    n_rows = len(matrix)
    n_cols = len(matrix[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if matrix[i][c] != 0), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = matrix[r][c]
        matrix[r] = [v / inv for v in matrix[r]]
        for i in range(n_rows):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return matrix, pivots


def stationary(P: StochasticMatrix) -> ProbVector:
    """Exact stationary distribution via elimination on (P^T - I)."""
    n = P.size
    A = [
        [P.rows[j][i] - (Fraction(1) if i == j else Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    reduced, pivots = _rref(A)
    free_cols = [c for c in range(n) if c not in pivots]
    if len(free_cols) != 1:
        raise NonUniqueStationaryError(
            f"stationary distribution is not unique: null space has dimension "
            f"{len(free_cols)}"
        )
    free = free_cols[0]
    solution = [Fraction(0)] * n
    solution[free] = Fraction(1)
    for row, col in zip(reduced, pivots):
        solution[col] = -row[free]
    total = sum(solution)
    if total == 0:
        raise MathError("degenerate null vector with zero sum")
    pi = [v / total for v in solution]
    if any(v < 0 for v in pi):
        raise MathError("stationary solve produced a negative entry")
    return ProbVector(tuple(pi))


def tv_distance(mu: ProbVector, nu: ProbVector) -> Fraction:
    """Total variation distance, computed exactly as half the L1 distance."""
    if mu.size != nu.size:
        raise InputError(f"dimension mismatch: {mu.size} vs {nu.size}")
    return sum(abs(a - b) for a, b in zip(mu.entries, nu.entries)) / 2


def tv_subset_sup(mu: ProbVector, nu: ProbVector) -> Fraction:
    """Total variation as the sup of |mu(A) - nu(A)| over every subset A of
    states, by enumeration: exponential in the state count, so for small
    spaces only."""
    states = range(mu.size)
    return max(
        abs(sum(mu[s] for s in subset) - sum(nu[s] for s in subset))
        for r in range(mu.size + 1)
        for subset in itertools.combinations(states, r)
    )


def exact_tv_curve(
    mu0: ProbVector, P: StochasticMatrix, n_max: int, threshold: float | None = None
) -> BoundReport:
    """Exact distance-to-stationarity curve for n = 0..n_max."""
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    pi = stationary(P)
    values = []
    current = mu0
    for n in range(n_max + 1):
        values.append(tv_distance(current, pi))
        if n < n_max:
            current = evolve(current, P, 1)
    crossing = None
    if threshold is not None:
        crossing = next((n for n, v in enumerate(values) if v < threshold), None)
    return BoundReport(ns=tuple(range(n_max + 1)), values=tuple(values), crossing=crossing)


def _states(P: StochasticMatrix, small_set) -> tuple[int, ...]:
    """The small set in increasing order; None is every state."""
    return tuple(range(P.size)) if small_set is None else tuple(sorted(small_set))


def minorization_uniform(P: StochasticMatrix, n0: int, small_set=None) -> MinorizationCert | None:
    """Best overlap of C's rows at lag n0: eps = sum_j min_{i in C} (P^n0)_ij."""
    if n0 < 1:
        raise InputError("n0 must be >= 1")
    pn = matrix_power(P, n0)
    states = _states(P, small_set)
    mins = [min(pn.rows[i][j] for i in states) for j in range(P.size)]
    eps = sum(mins)
    if eps == 0:
        return None
    nu = ProbVector(tuple(m / eps for m in mins))
    return MinorizationCert(
        variant="uniform", small_set=states, n0=n0, epsilon=eps, nu=nu
    )


def pseudo_pair_overlap(pn0: StochasticMatrix, i: int, j: int) -> Fraction:
    """Overlap mass sum_z min((P^n0)_iz, (P^n0)_jz) of two starting rows."""
    return sum(min(a, b) for a, b in zip(pn0.rows[i], pn0.rows[j]))


def pseudo_nu(pn0: StochasticMatrix, i: int, j: int) -> ProbVector:
    """Pair overlap measure: min of the two rows, normalized."""
    total = pseudo_pair_overlap(pn0, i, j)
    if total == 0:
        raise MathError(f"rows {i} and {j} have disjoint support at this lag")
    return ProbVector(
        tuple(min(a, b) / total for a, b in zip(pn0.rows[i], pn0.rows[j]))
    )


def minorization_pseudo(P: StochasticMatrix, n0: int, small_set=None) -> MinorizationCert | None:
    """Pairwise overlap constant: eps = min over pairs of C of the overlap."""
    if n0 < 1:
        raise InputError("n0 must be >= 1")
    pn = matrix_power(P, n0)
    states = _states(P, small_set)
    eps: Fraction | None = None
    pairs: list[tuple[int, int]] = []
    for a, i in enumerate(states):
        for j in states[a if len(states) == 1 else a + 1:]:
            overlap = pseudo_pair_overlap(pn, i, j)
            if eps is None or overlap < eps:
                eps = overlap
                pairs = [(i, j)]
            elif overlap == eps:
                pairs.append((i, j))
    assert eps is not None
    if eps == 0:
        return None
    return MinorizationCert(
        variant="pseudo",
        small_set=states,
        n0=n0,
        epsilon=eps,
        argmin_pairs=tuple(pairs),
    )


def minorization_margin(P: StochasticMatrix, cert: MinorizationCert) -> Fraction:
    """Exact worst-case slack of the certificate; valid iff >= 0."""
    pn = matrix_power(P, cert.n0)
    size = P.size
    worst: Fraction | None = None
    if cert.variant == "uniform":
        for i in range(size):
            for j in range(size):
                slack = pn.rows[i][j] - cert.epsilon * cert.nu[j]
                if worst is None or slack < worst:
                    worst = slack
    else:
        for i in range(size):
            for j in range(i, size):
                nu_ij = pseudo_nu(pn, i, j)
                for z in range(size):
                    for row in (i, j):
                        slack = pn.rows[row][z] - cert.epsilon * nu_ij[z]
                        if worst is None or slack < worst:
                            worst = slack
    assert worst is not None
    return worst


def pair_rows(pn0: StochasticMatrix, cert: MinorizationCert, x: int, xp: int):
    """Exact coupling rows of the start pair (x, xp) under ``cert``, whose
    n0-step matrix is ``pn0``.

    Returns ``(nu, resid_x, resid_xp)`` as tuples of ``Fraction``: the law
    that heads draws both chains from (the certificate's nu, or for the
    pairwise certificate the normalized minimum of the two n0-step rows) and
    the residual law (P^n0(s, .) - eps nu) / (1 - eps) of each chain s, which
    tails draws from. At eps = 1 the coin always lands heads and both
    residuals are None. A certificate found on ``pn0`` leaves no residual
    entry negative; the rows assert it.
    """
    eps = cert.epsilon
    nu = cert.nu if cert.variant == "uniform" else pseudo_nu(pn0, x, xp)
    if eps == 1:
        return tuple(nu), None, None
    resid = []
    for s in (x, xp):
        row = tuple((a - eps * v) / (1 - eps) for a, v in zip(pn0.rows[s], nu))
        assert all(v >= 0 for v in row), f"residual of state {s} is negative for ({x},{xp})"
        resid.append(row)
    return (tuple(nu), *resid)
