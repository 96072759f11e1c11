"""Exact finite-chain analysis: golden values and algebraic invariants."""

from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from mcbounds.errors import (
    IllConditionedEigenbasisError,
    InputError,
    McbError,
    NonUniqueStationaryError,
    PeriodicChainError,
)
from mcbounds.finite_chain import (
    MinorizationCert,
    ProbVector,
    StochasticMatrix,
    build_grid_walk,
    eigen_bound,
    evolve,
    exact_tv_curve,
    matrix_power,
    minorization_margin,
    minorization_pseudo,
    minorization_uniform,
    pseudo_nu,
    pseudo_pair_overlap,
    stationary,
    tv_distance,
    tv_distance_subset_sup,
)

GRID_PI = (
    F(1, 11), F(4, 33), F(1, 11),
    F(4, 33), F(5, 33), F(4, 33),
    F(1, 11), F(4, 33), F(1, 11),
)


@pytest.fixture(scope="module")
def grid():
    return build_grid_walk(3, 3)


@pytest.fixture(scope="module")
def grid_pi(grid):
    return stationary(grid)


def stochastic_matrices(max_size=5, max_weight=6):
    """Random exact row-stochastic matrices of 1..max_size states.

    Each row is integer weights over their own sum, with weights up to 1,
    ``max_weight`` or 97, so rows have distinct denominators and the common
    denominator of a matrix varies widely. Besides unstructured chains the
    mix draws reducible ones (two closed classes, so the stationary law is not
    unique) and periodic ones (even states move to odd ones and back).
    """

    @st.composite
    def row(draw, size, support):
        top = draw(st.sampled_from((1, max_weight, 97)))
        weights = draw(
            st.lists(st.integers(0, top), min_size=len(support), max_size=len(support))
            .filter(lambda w: sum(w) > 0)
        )
        out = [F(0)] * size
        for state, w in zip(support, weights):
            out[state] = F(w, sum(weights))
        return out

    @st.composite
    def unstructured(draw):
        n = draw(st.integers(1, max_size))
        return StochasticMatrix([draw(row(n, range(n))) for _ in range(n)])

    @st.composite
    def reducible(draw):
        n = draw(st.integers(2, max_size))
        k = draw(st.integers(1, n - 1))
        blocks = [range(k)] * k + [range(k, n)] * (n - k)
        return StochasticMatrix([draw(row(n, b)) for b in blocks])

    @st.composite
    def periodic(draw):
        n = draw(st.integers(2, max_size))
        even, odd = range(0, n, 2), range(1, n, 2)
        return StochasticMatrix(
            [draw(row(n, odd if s % 2 == 0 else even)) for s in range(n)]
        )

    return st.one_of(unstructured(), reducible(), periodic())


class TestConstruction:
    def test_grid_center_row_probabilities(self, grid):
        # second state: three neighbors plus itself, each 1/4
        assert grid[1, 0] == grid[1, 1] == grid[1, 2] == grid[1, 4] == F(1, 4)
        assert sum(grid.rows[1]) == 1
        assert grid[1, 3] == 0

    def test_single_cell_grid(self):
        assert build_grid_walk(1, 1).rows == ((F(1),),)

    def test_two_step_center_to_corner(self, grid):
        p2 = matrix_power(grid, 2)
        assert p2[4, 6] == F(1, 10)

    def test_rows_must_sum_to_one(self):
        with pytest.raises(InputError):
            StochasticMatrix([[F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)]])

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])

    def test_json_roundtrip(self, grid):
        assert StochasticMatrix.from_json_dict(grid.to_json_dict()) == grid

    def test_integer_form_is_reduced_and_equals_the_rows_form(self):
        # 2/6, 4/6 over 6 share the factor 2 with every numerator
        m = StochasticMatrix.from_num_den([[2, 4], [6, 0]], 6)
        assert (m._num, m._den) == (((1, 2), (3, 0)), 3)
        same = StochasticMatrix([[F(1, 3), F(2, 3)], [1, 0]])
        assert m == same
        assert hash(m) == hash(same)
        assert repr(m) == repr(same)
        assert m.rows == same.rows
        assert m != StochasticMatrix.identity(2)

    @pytest.mark.parametrize("num,den", [
        ([[1, 1], [2, 0]], 3),  # a row sums to 2/3
        ([[3, -1], [1, 1]], 2),  # a negative entry
        ([[1, 1]], 2),  # not square
    ])
    def test_integer_form_is_validated(self, num, den):
        with pytest.raises(InputError):
            StochasticMatrix.from_num_den(num, den)


class TestPowerAndEvolve:
    def test_power_zero_is_identity(self, grid):
        assert matrix_power(grid, 0) == StochasticMatrix.identity(9)

    def test_power_two_matches_reference_multiply(self, grid):
        # independent O(n^3) reference multiply of one row
        p2 = matrix_power(grid, 2)
        for j in range(9):
            ref = sum(grid[4, k] * grid[k, j] for k in range(9))
            assert p2[4, j] == ref

    def test_evolve_matches_power_row(self, grid):
        mu = evolve(ProbVector.delta(9, 4), grid, 3)
        p3 = matrix_power(grid, 3)
        assert mu.entries == p3.rows[4]

    def test_evolve_two_steps_center_to_corner(self, grid):
        mu = evolve(ProbVector.delta(9, 4), grid, 2)
        assert mu[6] == F(1, 10)

    def test_dimension_mismatch(self, grid):
        with pytest.raises(InputError):
            evolve(ProbVector.delta(4, 0), grid, 1)


class TestStationary:
    def test_grid_stationary_golden(self, grid_pi):
        assert grid_pi.entries == GRID_PI

    def test_stationary_is_fixed_point(self, grid, grid_pi):
        assert evolve(grid_pi, grid, 1) == grid_pi
        assert evolve(grid_pi, grid, 7) == grid_pi

    def test_identity_matrix_not_unique(self):
        with pytest.raises(NonUniqueStationaryError):
            stationary(StochasticMatrix.identity(2))

    def test_two_by_two_grid_uniform_by_symmetry(self):
        pi = stationary(build_grid_walk(2, 2))
        assert pi.entries == (F(1, 4),) * 4

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (1, 9), (12, 12), (16, 16), (30, 30)])
    def test_grid_stationary_is_proportional_to_degree_plus_one(self, rows, cols):
        # the lazy walk is reversible with pi(i) P(i, j) = pi(j) P(j, i), and
        # P(i, j) = 1 / (deg(i) + 1), so pi(i) is proportional to deg(i) + 1
        P = build_grid_walk(rows, cols)
        weights = [
            1 + (r > 0) + (r < rows - 1) + (c > 0) + (c < cols - 1)
            for r in range(rows)
            for c in range(cols)
        ]
        total = sum(weights)
        assert stationary(P).entries == tuple(F(w, total) for w in weights)


class TestTvDistance:
    def test_zero_on_equal(self, grid_pi):
        assert tv_distance(grid_pi, grid_pi) == 0

    def test_one_on_disjoint(self):
        assert tv_distance(ProbVector.delta(3, 0), ProbVector.delta(3, 1)) == 1

    def test_half_l1_equals_subset_sup(self, grid, grid_pi):
        mu = ProbVector.delta(9, 4)
        for n in range(31):
            assert tv_distance(mu, grid_pi) == tv_distance_subset_sup(mu, grid_pi)
            mu = evolve(mu, grid, 1)

    def test_curve_start_value(self, grid):
        report = exact_tv_curve(ProbVector.delta(9, 4), grid, 0)
        assert report.values[0] == F(28, 33)

    def test_curve_from_stationary_is_zero(self, grid, grid_pi):
        report = exact_tv_curve(grid_pi, grid, 10)
        assert all(v == 0 for v in report.values)


class TestMinorization:
    def test_grid_one_step_has_no_uniform_overlap(self, grid):
        assert minorization_uniform(grid, 1) is None

    def test_grid_two_step_uniform(self, grid):
        cert = minorization_uniform(grid, 2)
        assert cert is not None
        assert cert.epsilon == F(9, 80)
        # overlap measure concentrated on the center state
        assert cert.nu[4] == 1
        assert all(cert.nu[j] == 0 for j in range(9) if j != 4)

    def test_single_state_uniform(self):
        cert = minorization_uniform(StochasticMatrix.identity(1), 1)
        assert cert.epsilon == 1
        assert cert.nu.entries == (F(1),)

    def test_grid_two_step_pseudo(self, grid):
        cert = minorization_pseudo(grid, 2)
        assert cert is not None
        assert cert.epsilon == F(1, 3)
        assert cert.argmin_pairs == ((0, 8), (2, 6))

    def test_pseudo_overlap_terms_at_opposite_corners(self, grid):
        p2 = matrix_power(grid, 2)
        terms = [min(p2[2, z], p2[6, z]) for z in range(9)]
        assert terms == [F(1, 12), 0, 0, 0, F(1, 6), 0, 0, 0, F(1, 12)]
        assert pseudo_pair_overlap(p2, 2, 6) == F(1, 3)

    def test_disjoint_rows_give_none(self):
        assert minorization_pseudo(StochasticMatrix.identity(2), 1) is None

    def test_certificates_verify_exactly(self, grid):
        for cert in (minorization_uniform(grid, 2), minorization_pseudo(grid, 2)):
            assert minorization_margin(grid, cert) >= 0


class TestEigenBound:
    def test_grid_center_bound(self, grid):
        eb = eigen_bound(grid, ProbVector.delta(9, 4), target=4)
        assert eb.coefficient <= 0.85
        assert eb.coefficient == pytest.approx(float(F(28, 33)), abs=1e-9)
        assert abs(eb.rate - 0.4667) <= 0.001

    def test_grid_expansion_modes(self, grid):
        eb = eigen_bound(grid, ProbVector.delta(9, 4), target=4)
        live = [m for m in eb.modes if m.weight > 1e-9]
        assert len(live) == 2
        by_eig = {round(m.eigenvalue.real, 3): m for m in live}
        assert by_eig[-0.467].projection_norm == pytest.approx(0.4255, abs=1e-3)
        assert by_eig[0.25].projection_norm == pytest.approx(0.7259, abs=1e-3)
        assert by_eig[-0.467].weight == pytest.approx(0.2283, abs=1e-3)
        assert by_eig[0.25].weight == pytest.approx(0.6202, abs=1e-3)

    def test_stationary_start_has_zero_coefficient(self, grid, grid_pi):
        eb = eigen_bound(grid, grid_pi, target=0)
        assert eb.coefficient == pytest.approx(0.0, abs=1e-10)
        assert eb.rate == 0.0

    def test_dominates_exact_oracle(self, grid, grid_pi):
        eb = eigen_bound(grid, ProbVector.delta(9, 4), target=4)
        mu = ProbVector.delta(9, 4)
        for n in range(201):
            gap = abs(float(mu[4] - grid_pi[4]))
            assert gap <= eb.value(n) + 1e-9
            mu = evolve(mu, grid, 1)

    def test_eigen_stationary_matches_exact(self, grid, grid_pi):
        eb = eigen_bound(grid, ProbVector.delta(9, 4), target=4)
        assert np.allclose(eb.stationary, grid_pi.to_floats(), atol=1e-10)

    def test_periodic_chain_rejected(self):
        flip = StochasticMatrix([[0, 1], [1, 0]])
        with pytest.raises(PeriodicChainError):
            eigen_bound(flip, ProbVector.delta(2, 0), target=0)

    def test_defective_chain_rejected(self):
        # upper-triangular chain with a repeated defective eigenvalue 1/2
        jordan = StochasticMatrix(
            [[F(1, 2), F(1, 2), 0], [0, F(1, 2), F(1, 2)], [0, 0, 1]]
        )
        with pytest.raises(IllConditionedEigenbasisError):
            eigen_bound(jordan, ProbVector.delta(3, 0), target=0)


class TestAlgebraicProperties:
    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices(), st.integers(0, 6))
    def test_powers_stay_row_stochastic(self, P, n):
        pn = matrix_power(P, n)
        assert all(sum(row) == 1 for row in pn.rows)
        assert all(e >= 0 for row in pn.rows for e in row)

    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices(), st.integers(0, 4), st.integers(0, 4))
    def test_chapman_kolmogorov(self, P, m, n):
        mu0 = ProbVector.delta(P.size, 0)
        assert evolve(mu0, P, m + n) == evolve(evolve(mu0, P, m), P, n)

    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices(), st.integers(1, 3))
    def test_uniform_epsilon_below_pseudo_epsilon(self, P, n0):
        uni = minorization_uniform(P, n0)
        pseudo = minorization_pseudo(P, n0)
        if uni is not None:
            assert pseudo is not None
            assert uni.epsilon <= pseudo.epsilon

    @settings(max_examples=25, deadline=None)
    @given(stochastic_matrices(max_size=4), st.integers(1, 3))
    def test_certificates_always_verify(self, P, n0):
        for cert in (minorization_uniform(P, n0), minorization_pseudo(P, n0)):
            if cert is not None:
                assert minorization_margin(P, cert) >= 0

    @settings(max_examples=30, deadline=None)
    @given(stochastic_matrices(max_size=4))
    def test_stationary_solves_fixed_point(self, P):
        try:
            pi = stationary(P)
        except NonUniqueStationaryError:
            return
        assert evolve(pi, P, 1) == pi
        assert sum(pi.entries) == 1

    @settings(max_examples=20, deadline=None)
    @given(stochastic_matrices(max_size=4))
    def test_tv_half_l1_equals_subset_sup_random(self, P):
        mu = ProbVector.delta(P.size, 0)
        nu = evolve(mu, P, 2)
        assert tv_distance(mu, nu) == tv_distance_subset_sup(mu, nu)


def same_outcome(fast, slow, *args):
    """Both implementations return equal values, or raise alike.

    "Alike" is the same exception type with the same message. Returns the
    reference result, or None when both raised.
    """
    try:
        expected = slow(*args)
    except McbError as exc:
        with pytest.raises(type(exc)) as raised:
            fast(*args)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return None
    assert fast(*args) == expected
    return expected


def inflated(cert: MinorizationCert, extra: F) -> MinorizationCert:
    """The same certificate claiming a larger overlap, capped at 1."""
    return MinorizationCert(
        variant=cert.variant,
        small_set=cert.small_set,
        n0=cert.n0,
        epsilon=min(F(1), cert.epsilon + extra),
        nu=cert.nu,
        argmin_pairs=cert.argmin_pairs,
    )


class TestMatchesFractionReference:
    """The integer algebra against the Fraction loops in fraction_reference."""

    @settings(max_examples=60, deadline=None)
    @given(stochastic_matrices(), st.integers(0, 6))
    def test_matrix_power(self, P, n):
        pn = same_outcome(matrix_power, ref.matrix_power, P, n)
        # integer form: numerators over the lcm of the reduced denominators
        assert pn._den == lcm(*(e.denominator for row in pn.rows for e in row))
        assert all(
            F(v, pn._den) == e for nrow, row in zip(pn._num, pn.rows) for v, e in zip(nrow, row)
        )

    @settings(max_examples=60, deadline=None)
    @given(stochastic_matrices(), st.integers(0, 8), st.integers(0, 4))
    def test_evolve(self, P, n, start):
        for mu0 in (ProbVector.delta(P.size, start % P.size), P.row(start % P.size)):
            same_outcome(evolve, ref.evolve, mu0, P, n)

    @settings(max_examples=80, deadline=None)
    @given(stochastic_matrices())
    def test_stationary(self, P):
        same_outcome(stationary, ref.stationary, P)

    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices(), st.integers(0, 12), st.sampled_from([None, 0.01, 0.3]))
    def test_exact_tv_curve(self, P, n_max, threshold):
        mu0 = P.row(P.size - 1)
        same_outcome(exact_tv_curve, ref.exact_tv_curve, mu0, P, n_max, threshold)

    @settings(max_examples=60, deadline=None)
    @given(stochastic_matrices(), st.integers(1, 4))
    def test_certificates_and_margins(self, P, n0):
        for fast, slow in (
            (minorization_uniform, ref.minorization_uniform),
            (minorization_pseudo, ref.minorization_pseudo),
        ):
            cert = same_outcome(fast, slow, P, n0)
            if cert is None:
                continue
            for claimed in (cert, inflated(cert, F(1, 97)), inflated(cert, F(1, 10**15))):
                same_outcome(minorization_margin, ref.minorization_margin, P, claimed)

    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices(max_size=4), st.integers(1, 3))
    def test_pair_overlaps_and_measures(self, P, n0):
        pn = matrix_power(P, n0)
        for i in range(P.size):
            for j in range(P.size):
                same_outcome(pseudo_pair_overlap, ref.pseudo_pair_overlap, pn, i, j)
                same_outcome(pseudo_nu, ref.pseudo_nu, pn, i, j)

    def test_grid_goldens(self):
        grid = build_grid_walk(4, 4)
        mu0 = ProbVector.delta(16, 5)
        assert stationary(grid) == ref.stationary(grid)
        assert matrix_power(grid, 5) == ref.matrix_power(grid, 5)
        assert exact_tv_curve(mu0, grid, 30, 0.01) == ref.exact_tv_curve(mu0, grid, 30, 0.01)
        for n0 in (2, 6):
            assert minorization_uniform(grid, n0) == ref.minorization_uniform(grid, n0)
            assert minorization_pseudo(grid, n0) == ref.minorization_pseudo(grid, n0)

    def test_reducible_chain_raises_the_same_error(self):
        two_classes = StochasticMatrix(
            [[F(1, 2), F(1, 2), 0], [F(1, 3), F(2, 3), 0], [0, 0, 1]]
        )
        with pytest.raises(NonUniqueStationaryError) as fast:
            stationary(two_classes)
        with pytest.raises(NonUniqueStationaryError) as slow:
            ref.stationary(two_classes)
        assert str(fast.value) == str(slow.value)
        assert "dimension 2" in str(fast.value)


class TestPowerMemo:
    def test_repeated_power_reuses_the_same_matrix(self):
        P = build_grid_walk(3, 3)
        assert matrix_power(P, 2) is matrix_power(P, 2)
        assert matrix_power(P, 3) == ref.matrix_power(P, 3)
        assert matrix_power(P, 2) == ref.matrix_power(P, 2)

    def test_memo_is_not_part_of_equality_or_hash(self):
        fresh, used = build_grid_walk(2, 2), build_grid_walk(2, 2)
        matrix_power(used, 3)
        assert fresh == used
        assert hash(fresh) == hash(used)
        assert repr(fresh) == repr(used)
