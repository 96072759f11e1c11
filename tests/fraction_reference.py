"""Reference implementations on ``Fraction`` arithmetic, kept for tests only.

These are the straightforward rational-arithmetic versions of the exact
finite-chain algebra and of the finite coupling tables: every product, sum
and quotient is a ``Fraction``. ``mcbounds`` computes the same quantities on
integer numerators over a common denominator; the property tests require the
two to agree exactly, including which exception is raised and its message.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from mcbounds.bounds import BoundReport
from mcbounds.errors import CertificateError, InputError, MathError, NonUniqueStationaryError
from mcbounds.finite_chain import MinorizationCert, ProbVector, StochasticMatrix


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
    result = StochasticMatrix.identity(P.size).rows
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


def minorization_uniform(P: StochasticMatrix, n0: int) -> MinorizationCert | None:
    """Best whole-space overlap at lag n0: eps = sum_j min_i (P^n0)_ij."""
    if n0 < 1:
        raise InputError("n0 must be >= 1")
    pn = matrix_power(P, n0)
    size = P.size
    mins = [min(pn.rows[i][j] for i in range(size)) for j in range(size)]
    eps = sum(mins)
    if eps == 0:
        return None
    nu = ProbVector(tuple(m / eps for m in mins))
    return MinorizationCert(
        variant="uniform", small_set=tuple(range(size)), n0=n0, epsilon=eps, nu=nu
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


def minorization_pseudo(P: StochasticMatrix, n0: int) -> MinorizationCert | None:
    """Pairwise overlap constant: eps = min over start pairs of the overlap."""
    if n0 < 1:
        raise InputError("n0 must be >= 1")
    pn = matrix_power(P, n0)
    size = P.size
    eps: Fraction | None = None
    pairs: list[tuple[int, int]] = []
    for i in range(size):
        for j in range(i if size == 1 else i + 1, size):
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
        small_set=tuple(range(size)),
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


def _cdf_rows(rows: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(rows, axis=-1)
    cdf[cdf >= cdf[..., -1:]] = 1.0
    return cdf


def _exact_row_floats(rows: Sequence[Sequence[Fraction]]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows])


def finite_arrays(P: StochasticMatrix, cert: MinorizationCert):
    """Residual/overlap tables of the finite coupling engine, as float CDFs.

    Returns the same tuple as ``mcbounds.coupling.runner._finite_arrays``;
    a residual entry below zero raises ``CertificateError``.
    """
    size = P.size
    pn0 = matrix_power(P, cert.n0)
    eps = cert.epsilon
    step_cdf = _cdf_rows(_exact_row_floats(pn0.rows))
    one = Fraction(1)

    if cert.variant == "uniform":
        nu = cert.nu
        if eps == 1:
            resid = [[Fraction(1, size)] * size for _ in range(size)]
        else:
            resid = [
                [(pn0.rows[i][j] - eps * nu[j]) / (one - eps) for j in range(size)]
                for i in range(size)
            ]
        for row in resid:
            for v in row:
                if v < 0:
                    raise CertificateError(f"residual entry {float(v)} is negative")
        nu_cdf = _cdf_rows(np.array([[float(v) for v in nu.entries]]))
        resid_cdf = _cdf_rows(_exact_row_floats(resid))
    else:
        nu_pair = np.empty((size * size, size))
        resid_pair = np.empty((size * size, size))
        for i in range(size):
            for j in range(size):
                if i == j:
                    nu_pair[i * size + j] = 0.0
                    resid_pair[i * size + j] = 0.0
                    continue
                nu_ij = pseudo_nu(pn0, i, j)
                if eps == 1:
                    resid_row = [Fraction(1, size)] * size
                else:
                    resid_row = [
                        (pn0.rows[i][z] - eps * nu_ij[z]) / (one - eps)
                        for z in range(size)
                    ]
                for v in resid_row:
                    if v < 0:
                        raise CertificateError(
                            f"residual entry {float(v)} is negative for pair ({i},{j})"
                        )
                nu_pair[i * size + j] = [float(v) for v in nu_ij.entries]
                resid_pair[i * size + j] = [float(v) for v in resid_row]
        nu_cdf = _cdf_rows(nu_pair)
        resid_cdf = _cdf_rows(resid_pair)

    in_small = np.zeros(size, bool)
    for s in cert.small_set:
        in_small[s] = True
    return step_cdf, nu_cdf, resid_cdf, in_small
