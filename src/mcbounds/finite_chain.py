"""Exact analysis of finite-state Markov chains.

Transition matrices and distributions are exact rationals. Their public view
is ``fractions.Fraction`` entries (``StochasticMatrix.rows``,
``ProbVector.entries``), but the algebra runs on integers: a matrix also
holds its entries as integer numerators over one common denominator, the lcm
of the reduced entry denominators (60 for grid walks), and builds its
``Fraction`` view only when asked. Products, n-step distributions, the
stationary solve (sparse fraction-free forward elimination) and the
minorization searches work on those integers, and each result is turned back
into ``Fraction`` values once. Row sums, stationary vectors, distances
and minorization constants are therefore exact; the only floating point in
this module is the explicitly approximate eigenvalue analysis, and it is the
only part that imports numpy (inside ``eigen_bound`` and ``to_floats``), so
the exact analyses run without it. State indices are 0-based throughout;
display layers may relabel them. The module holds what the ``finite`` and
``simulate --grid`` commands run, plus the public names the README lists;
the independent checks of these results (total variation as a sup over
subsets, certificate margins) are ``Fraction`` loops in the tests.
"""

from __future__ import annotations

import itertools
import re
import reprlib
import sys
from fractions import Fraction
from math import floor, gcd, lcm, log10
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .bounds import BoundReport, _Record
from .errors import (
    IllConditionedEigenbasisError,
    InputError,
    MathError,
    NonUniqueStationaryError,
    PeriodicChainError,
    integer,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ProbVector",
    "StochasticMatrix",
    "MinorizationCert",
    "EigenMode",
    "EigenBound",
    "build_grid_walk",
    "matrix_power",
    "evolve",
    "stationary",
    "exact_tv_curve",
    "eigen_bound",
    "minorization_uniform",
    "minorization_pseudo",
]

# eigen_bound: the largest eigenvector-matrix condition number accepted, the
# weight at or below which a mode does not count, and the distance within
# which two eigenvalues form one cluster
_COND_CAP = 1e8
_COEFF_FLOOR = 1e-12
_CLUSTER_TOL = 1e-7


def _frac(value) -> Fraction:
    """Exact rational from Fraction, int, or a 'p/q' string. Floats, bools
    (a JSON true is no probability), strings that name no finite rational,
    such as '1/0' or 'x', and ones too long to print raise ``InputError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        shown = reprlib.repr(value)
        # Fraction builds 10**k for an entry '...ek' before any check; its
        # integers have at most len(value) + |k| digits
        power = re.search(r"e[-+]?[0_]*(\d+(?:_\d+)*)\s*$", value, re.IGNORECASE)
        limit = sys.get_int_max_str_digits()
        if power and limit and (len(power[1]) > 18 or len(value) + int(power[1]) > limit):
            raise InputError(f"entry {shown} needs more than the {limit} digits Python prints")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"entry {shown} is not an exact rational 'p/q'") from None
    note = "; floats are not exact" if isinstance(value, float) else ""
    raise InputError(
        f"entry {value!r} is a {type(value).__name__}, not a Fraction, int or "
        f"'p/q' string{note}"
    )


def _sum_text(total: Fraction) -> str:
    """A sum other than 1, as 'p/q' when short, else as its distance from 1
    to 3 digits: no message prints a rational of thousands of digits."""
    if max(total.numerator.bit_length(), total.denominator.bit_length()) <= 128:
        return str(total)
    gap = total - 1
    log = log10(abs(gap.numerator)) - log10(gap.denominator)
    return f"1 {'-+'[gap > 0]} {10 ** (log % 1):.3g}e{floor(log)} (to 3 digits)"


class ProbVector(_Record):
    """Finite probability distribution with exact rational entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable) -> None:
        entries = tuple(_frac(e) for e in entries)
        if any(e < 0 for e in entries):
            raise InputError("probabilities must be >= 0")
        if sum(entries) != 1:
            raise InputError(f"probabilities must sum to 1, got {_sum_text(sum(entries))}")
        self._fill(entries)

    @classmethod
    def delta(cls, size: int, state: int) -> "ProbVector":
        size = integer("size", size, 1)
        state = integer("state", state, 0, size - 1)
        return cls(tuple(Fraction(1 if i == state else 0) for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def to_floats(self) -> np.ndarray:
        import numpy as np

        return np.array([float(e) for e in self.entries])

    def as_strings(self) -> list[str]:
        return [str(e) for e in self.entries]


def _common_denominator(values: Iterable[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integer numerators of ``values`` over the lcm of their denominators."""
    values = tuple(values)
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


class StochasticMatrix:
    """Row-stochastic square matrix with exact rational entries.

    The matrix is held as integer numerators ``_num`` over one denominator
    ``_den``, reduced by their common gcd: the least common denominator of the
    entries, so this form is canonical and equality and hashing use it.
    ``rows``, the public ``Fraction`` view, is built on first use and cached.
    ``_power`` memoizes the last n-step matrix asked of ``matrix_power``, with
    the certificates found on it, so one command forms ``P^n0`` once and
    scans it once per search.
    """

    def __init__(self, rows: Iterable[Iterable]) -> None:
        rows = tuple(tuple(_frac(e) for e in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise InputError("matrix must be square and non-empty")
        flat, den = _common_denominator(e for row in rows for e in row)
        self._set(tuple(flat[i * n : (i + 1) * n] for i in range(n)), den)
        self._rows = rows

    @classmethod
    def from_num_den(
        cls, num: Sequence[Sequence[int]], den: int
    ) -> "StochasticMatrix":
        """The matrix with entries ``num[i][j] / den``, from square integer rows."""
        n = len(num)
        if n == 0 or any(len(row) != n for row in num):
            raise InputError("matrix must be square and non-empty")
        den = integer("den", den, 1)
        g = gcd(den, *(v for row in num for v in row))
        if g > 1:
            num = [[v // g for v in row] for row in num]
            den //= g
        matrix = cls.__new__(cls)
        matrix._set(tuple(map(tuple, num)), den)
        matrix._rows = None
        return matrix

    def _set(self, num: tuple[tuple[int, ...], ...], den: int) -> None:
        for i, row in enumerate(num):
            if any(v < 0 for v in row):
                raise InputError(f"row {i} has a negative entry")
            if sum(row) != den:
                raise InputError(
                    f"row {i} sums to {_sum_text(Fraction(sum(row), den))}, not exactly 1"
                )
        self._num = num
        self._den = den
        self._power: tuple | None = None

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            den = self._den
            self._rows = tuple(tuple(Fraction(v, den) for v in row) for row in self._num)
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"StochasticMatrix(rows={self.rows!r})"

    @property
    def size(self) -> int:
        return len(self._num)

    @property
    def denominator(self) -> int:
        """Least common denominator of the entries; that of P^n divides its n-th power."""
        return self._den

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def to_floats(self) -> np.ndarray:
        import numpy as np

        # int / int is correctly rounded, as float(Fraction) is
        den = self._den
        return np.array([[v / den for v in row] for row in self._num])

    @classmethod
    def from_json_dict(cls, data: dict) -> "StochasticMatrix":
        try:
            size = data["size"]
            rows = data["rows"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"matrix JSON must have 'size' and 'rows': {exc}") from exc
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise InputError("matrix JSON 'rows' must be a list of lists of entries")
        matrix = cls(rows)
        if integer("matrix JSON 'size'", size, 1) != matrix.size:
            raise InputError(f"declared size {size} != actual size {matrix.size}")
        return matrix


def build_grid_walk(rows: int, cols: int) -> StochasticMatrix:
    """Lazy nearest-neighbor random walk on a rows x cols grid.

    From each cell the walker stays put or moves to one of its orthogonal
    neighbors, all with equal probability 1/(degree+1). States are numbered
    row-major, top-to-bottom then left-to-right.
    """
    rows, cols = integer("rows", rows, 1), integer("cols", cols, 1)
    n = rows * cols
    den = 60  # lcm of the 1/(degree+1) denominators 1..5
    num = [[0] * n for _ in range(n)]
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            cells = [i]
            if r > 0:
                cells.append(i - cols)
            if r < rows - 1:
                cells.append(i + cols)
            if c > 0:
                cells.append(i - 1)
            if c < cols - 1:
                cells.append(i + 1)
            for j in cells:
                num[i][j] = den // len(cells)
    return StochasticMatrix.from_num_den(num, den)


def _int_mat_mul(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Integer matrix product, each row a combination of the rows of ``b``.

    Zero entries of ``a`` are skipped, which keeps banded chains (grid walks
    and their powers) far below the dense cubic cost.
    """
    width = len(b[0])
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def _int_power(
    num: Sequence[Sequence[int]], den: int, n: int
) -> tuple[Sequence[Sequence[int]], int]:
    """Numerators and denominator of (num/den)^n by binary exponentiation."""
    size = len(num)
    result = None
    result_den = 1
    while n:
        if n & 1:
            result = num if result is None else _int_mat_mul(result, num)
            result_den *= den
        n >>= 1
        if n:
            num = _int_mat_mul(num, num)
            den *= den
    if result is None:
        result = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    return result, result_den


def matrix_power(P: StochasticMatrix, n: int) -> StochasticMatrix:
    """Exact n-step transition matrix by binary exponentiation.

    The last power asked of each matrix is memoized on it as ``(n, P^n,
    found)``, so callers that need ``P^n0`` in turn (certificate search, the
    coupling's step rows) share it; ``found`` keeps the certificate searches
    run on it.
    """
    n = integer("n", n, 0)
    memo = P._power
    if memo is None or memo[0] != n:
        memo = (n, StochasticMatrix.from_num_den(*_int_power(P._num, P._den, n)), {})
        P._power = memo
    return memo[1]


def _steps(mu0: ProbVector, P: StochasticMatrix):
    """Yield mu0 P^n as (numerators, denominator) for n = 0, 1, 2, ...

    Each step is the integer recurrence v_{n+1} = v_n A over denominators
    d_{n+1} = d_n D, where A/D is P's integer form.
    """
    v, d = _common_denominator(mu0.entries)
    columns = [[(i, a) for i, a in enumerate(col) if a] for col in zip(*P._num)]
    while True:
        yield v, d
        v = [sum(v[i] * a for i, a in col) for col in columns]
        d *= P._den


def evolve(mu0: ProbVector, P: StochasticMatrix, n: int) -> ProbVector:
    """Exact distribution after n steps from mu0 (left multiplication)."""
    if mu0.size != P.size:
        raise InputError(f"dimension mismatch: vector {mu0.size}, matrix {P.size}")
    n = integer("n", n, 0)
    v, d = next(itertools.islice(_steps(mu0, P), n, None))
    return ProbVector(tuple(Fraction(x, d) for x in v))


def _eliminate(rows: list[dict[int, int]], n_cols: int) -> list[tuple[int, dict[int, int]]]:
    """Forward elimination on sparse integer rows (column -> nonzero entry).

    Rows wait in buckets keyed by their first column. At column c the first
    row of the bucket becomes the pivot row, and each other row of the bucket
    is combined with it to clear column c, divided by the gcd of what is
    left, and moved to the bucket of its new first column. Rows that start
    past c are not touched, so a banded matrix fills in only within its band.
    Returns the (pivot column, pivot row) pairs in column order; a pivot row
    has no entry left of its column, and the pivot columns are those of the
    row echelon form.
    """
    waiting: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            waiting.setdefault(min(row), []).append(row)
    pivots = []
    for c in range(n_cols):
        bucket = waiting.pop(c, None)
        if bucket is None:
            continue
        top = bucket[0]
        pivot = top[c]
        for row in bucket[1:]:
            g = gcd(pivot, row[c])
            a, b = pivot // g, row[c] // g
            row = {j: a * v for j, v in row.items()}
            for j, v in top.items():
                row[j] = row.get(j, 0) - b * v
            row = {j: v for j, v in row.items() if v}
            if row:
                g = gcd(*row.values())
                if g > 1:
                    row = {j: v // g for j, v in row.items()}
                waiting.setdefault(min(row), []).append(row)
        pivots.append((c, top))
    return pivots


def stationary(P: StochasticMatrix) -> ProbVector:
    """Exact stationary distribution via elimination on D(P^T - I).

    D is the common denominator of P's entries, so the system is integral:
    sparse forward elimination (``_eliminate``) and back substitution on one
    integer vector, kept free of common factors, solve it without fractions.
    Raises ``NonUniqueStationaryError`` when the unit-eigenvalue left
    eigenspace has dimension > 1, rather than returning an arbitrary member.
    """
    n = P.size
    num, den = P._num, P._den
    # row i is the balance equation of state i: sum_j pi_j P_ji - pi_i = 0
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for j, p_row in enumerate(num):
        for i, v in enumerate(p_row):
            if v:
                rows[i][j] = v
    for i, row in enumerate(rows):
        diagonal = row.pop(i, 0) - den
        if diagonal:
            row[i] = diagonal
    pivots = _eliminate(rows, n)
    pivot_cols = {c for c, _ in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    if len(free_cols) != 1:
        raise NonUniqueStationaryError(
            f"stationary distribution is not unique: null space has dimension "
            f"{len(free_cols)}"
        )
    # x solves the pivot rows below the current one; x[c] = t / a needs the
    # whole vector scaled by a / gcd(t, a) when that is not 1
    x = [0] * n
    x[free_cols[0]] = 1
    for c, row in reversed(pivots):
        a = row[c]
        t = -sum(v * x[j] for j, v in row.items() if j != c)
        g = gcd(t, a)
        scale = a // g
        if scale == 1:
            x[c] = t // g
        else:
            x = [v * scale for v in x]
            x[c] = t // g
            g = gcd(*x)
            x = [v // g for v in x]
    total = sum(x)
    if total == 0:
        raise MathError("degenerate null vector with zero sum")
    pi = [Fraction(v, total) for v in x]
    if any(v < 0 for v in pi):
        raise MathError("stationary solve produced a negative entry")
    return ProbVector(tuple(pi))


def _tv(v: Sequence[int], d: int, w: Sequence[int], e: int) -> Fraction:
    """Half the L1 distance between the vectors v/d and w/e."""
    return Fraction(sum(abs(x * e - y * d) for x, y in zip(v, w)), 2 * d * e)


def exact_tv_curve(
    mu0: ProbVector,
    P: StochasticMatrix,
    n_max: int,
    threshold: float | None = None,
    pi: ProbVector | None = None,
) -> BoundReport:
    """Exact distance-to-stationarity curve for n = 0..n_max.

    The curve need not be monotone step-by-step; ``crossing`` (when a
    threshold is given) is simply the first index below it. ``pi`` is
    ``stationary(P)``, passed by a caller that already holds it.
    """
    n_max = integer("n_max", n_max, 0)
    if pi is None:
        pi = stationary(P)
    if mu0.size != pi.size:
        raise InputError(f"dimension mismatch: {mu0.size} vs {pi.size}")
    p, q = _common_denominator(pi.entries)
    values = tuple(
        _tv(v, d, p, q) for v, d in itertools.islice(_steps(mu0, P), n_max + 1)
    )
    crossing = None
    if threshold is not None:
        crossing = next((n for n, v in enumerate(values) if v < threshold), None)
    return BoundReport(ns=tuple(range(n_max + 1)), values=values, crossing=crossing)


class MinorizationCert(_Record):
    """Certificate (C, n0, eps, nu) that n0-step transitions from the small
    set C overlap by eps.

    ``variant`` is "uniform" (one shared overlap measure, ``nu`` set) or
    "pseudo" (pairwise overlap measures, each the normalized minimum of two
    rows of the n0-step matrix; ``argmin_pairs`` lists the pairs attaining
    eps). ``small_set`` lists C's states in increasing order.
    """

    __slots__ = ("variant", "small_set", "n0", "epsilon", "nu", "argmin_pairs")

    def __init__(
        self,
        variant: str,
        small_set: tuple[int, ...],
        n0: int,
        epsilon: Fraction,
        nu: ProbVector | None = None,
        argmin_pairs: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        if variant not in ("uniform", "pseudo"):
            raise InputError(f"unknown variant {variant!r}")
        n0 = integer("n0", n0, 1)
        if not 0 < epsilon <= 1:
            raise InputError(f"epsilon must be in (0, 1], got {epsilon}")
        if variant == "uniform" and nu is None:
            raise InputError("uniform certificate requires nu")
        self._fill(variant, small_set, n0, epsilon, nu, argmin_pairs)


def _small_set(small_set, size: int) -> tuple[int, ...]:
    """``small_set``'s states as ints, sorted, every state when it is None;
    no collection, an empty one, a state named twice or one that is not an
    integer in 0..size-1 (``errors.integer``) is an ``InputError``."""
    try:
        states = tuple(range(size) if small_set is None else small_set)
    except TypeError:
        raise InputError(f"small_set must be a collection of state indices, "
                         f"got {small_set!r}") from None
    if not states:
        raise InputError("the small set must name at least one state")
    states = tuple(integer("small-set state", state, 0, size - 1) for state in states)
    if len(set(states)) < len(states):
        twice = next(s for s in states if states.count(s) > 1)
        raise InputError(f"small-set state {twice} is named twice")
    return tuple(sorted(states))


def _search(P: StochasticMatrix, n0: int, small_set, scan) -> MinorizationCert | None:
    """``scan(P^n0, n0, C)``, kept on P's power memo, so a second search of
    the same kind on the same C is a lookup; C is ``_small_set``'s."""
    n0 = integer("n0", n0, 1)
    states = _small_set(small_set, P.size)
    pn = matrix_power(P, n0)
    found = P._power[2]
    if (scan, states) not in found:
        found[scan, states] = scan(pn, n0, states)
    return found[scan, states]


def minorization_uniform(P: StochasticMatrix, n0: int, small_set=None) -> MinorizationCert | None:
    """Best shared overlap of C's rows at lag n0: eps = sum_j min_{i in C}
    (P^n0)_ij, with C every state unless ``small_set`` names it.

    Returns None when every column of P^n0 has a zero on C (eps = 0);
    absence is a value, not an error.
    """
    return _search(P, n0, small_set, _uniform_scan)


def _uniform_scan(pn: StochasticMatrix, n0: int, states: tuple[int, ...]):
    mins = [min(col) for col in zip(*(pn._num[i] for i in states))]
    total = sum(mins)
    if total == 0:
        return None
    return MinorizationCert(
        variant="uniform",
        small_set=states,
        n0=n0,
        epsilon=Fraction(total, pn._den),
        nu=ProbVector(tuple(Fraction(m, total) for m in mins)),
    )


def minorization_pseudo(P: StochasticMatrix, n0: int, small_set=None) -> MinorizationCert | None:
    """Pairwise overlap constant: eps = min over pairs of C of the overlap of
    their n0-step rows, with C every state unless ``small_set`` names it (a
    one-state C pairs its state with itself).

    All pairs attaining the minimum are recorded in lexicographic order.
    Returns None when some pair of rows is disjoint (eps = 0).
    """
    return _search(P, n0, small_set, _pseudo_scan)


def _pseudo_scan(pn: StochasticMatrix, n0: int, states: tuple[int, ...]):
    rows = pn._num
    best: int | None = None
    pairs: list[tuple[int, int]] = []
    for k, i in enumerate(states):
        for j in states[k if len(states) == 1 else k + 1:]:
            overlap = sum(map(min, rows[i], rows[j]))
            if overlap == 0:
                return None  # one disjoint pair settles eps = 0
            if best is None or overlap < best:
                best = overlap
                pairs = [(i, j)]
            elif overlap == best:
                pairs.append((i, j))
    return MinorizationCert(
        variant="pseudo",
        small_set=states,
        n0=n0,
        epsilon=Fraction(best, pn._den),
        argmin_pairs=tuple(pairs),
    )


class EigenMode(NamedTuple):
    """One eigenvalue cluster's contribution to the start-distribution expansion."""

    eigenvalue: complex
    weight: float  # |projection evaluated at the target state|
    projection_norm: float  # L2 norm of the projection vector


class EigenBound(NamedTuple):
    """Geometric bound coefficient * rate^n on |mu_n(target) - pi(target)|."""

    coefficient: float
    rate: float
    eigenvalues: tuple[complex, ...]
    stationary: tuple[float, ...]
    modes: tuple[EigenMode, ...]

    def value(self, n: int) -> float:
        return self.coefficient * self.rate**n


def eigen_bound(P: StochasticMatrix, mu0: ProbVector, target: int) -> EigenBound:
    """Spectral expansion bound for one state's probability.

    Expands mu0 over the left eigenvectors (by solving the linear system, not
    assuming orthogonality), clusters numerically equal eigenvalues so the
    result does not depend on the arbitrary basis inside a degenerate
    eigenspace, and returns coefficient = sum over non-unit clusters of
    |projection(target)| with rate = the largest modulus among clusters that
    contribute more than ``_COEFF_FLOOR``.
    """
    import numpy as np

    size = P.size
    if mu0.size != size:
        raise InputError(f"dimension mismatch: vector {mu0.size}, matrix {size}")
    target = integer("target", target, 0, size - 1)

    # columns of vecs are left eigenvectors of P
    eigvals, vecs = np.linalg.eig(P.to_floats().T)
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > _COND_CAP:
        raise IllConditionedEigenbasisError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {_COND_CAP:.1e}; "
            "chain may not be diagonalizable - use the minorization bound instead"
        )

    unit = [k for k in range(size) if abs(eigvals[k] - 1.0) <= 1e-9]
    near_unit_modulus = [k for k in range(size) if abs(abs(eigvals[k]) - 1.0) <= 1e-9]
    if len(unit) != 1 or len(near_unit_modulus) != 1:
        raise PeriodicChainError(
            "expected exactly one eigenvalue of unit modulus (the stationary "
            f"mode); found {len(near_unit_modulus)} - chain is periodic or "
            "reducible"
        )

    coeffs = np.linalg.solve(vecs, mu0.to_floats().astype(complex))

    order = sorted(range(size), key=lambda k: (-abs(eigvals[k]), -eigvals[k].real))
    clusters: list[list[int]] = []
    for k in order:
        for cluster in clusters:
            if abs(eigvals[cluster[0]] - eigvals[k]) <= _CLUSTER_TOL:
                cluster.append(k)
                break
        else:
            clusters.append([k])

    coefficient = 0.0
    rate = 0.0
    modes: list[EigenMode] = []
    for cluster in clusters:
        lam = complex(eigvals[cluster[0]])
        projection = sum(coeffs[k] * vecs[:, k] for k in cluster)
        if unit[0] in cluster:
            stationary_proj = projection
            continue
        weight = abs(complex(projection[target]))
        modes.append(
            EigenMode(
                eigenvalue=lam,
                weight=weight,
                projection_norm=float(np.linalg.norm(projection)),
            )
        )
        if weight > _COEFF_FLOOR:
            coefficient += weight
            rate = max(rate, abs(lam))

    if rate >= 1.0:
        raise PeriodicChainError(f"non-unit eigenvalue of modulus {rate} >= 1")

    return EigenBound(
        coefficient=coefficient,
        rate=rate,
        eigenvalues=tuple(complex(eigvals[k]) for k in order),
        stationary=tuple(float(v) for v in stationary_proj.real),
        modes=tuple(modes),
    )
