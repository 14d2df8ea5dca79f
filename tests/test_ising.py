import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroflow import (
    CouplingVector,
    EntroflowError,
    InconsistencyError,
    TransferMatrix,
    ValidationError,
    VVector,
    eigenvalues,
    inverse_rg_step_zero_field,
    gibbs_space,
    log_partition_function,
    log_partition_function_bruteforce,
    partition_function,
    partition_function_bruteforce,
    rg_step_closed,
    rg_step_oracle,
    rg_trajectory,
    spin_configurations,
    transfer_matrix,
)
from entroflow.ising import _rg_step_oracle_stack

LN2 = math.log(2.0)

# dual-route eigenvalues at K = (0.5, 0.3), frozen after closed form and
# symmetric eigensolver agreed to 4 ulp
EIG_PLUS = 2.543698542486134
EIG_MINUS = 0.5005731390843154


def eigenvalues_oracle(k):
    """Eigenvalues of T(K) from a dense symmetric eigensolver, descending order."""
    lo, hi = np.linalg.eigvalsh(transfer_matrix(k).matrix)
    return (float(hi), float(lo))


def rg_step_oracle_reference(k):
    """The single-matrix oracle as it was before the stacked kernel, one 2x2 at a time."""
    kk = k if isinstance(k, CouplingVector) else CouplingVector(*k)
    t = transfer_matrix(kk).matrix
    with np.errstate(over="ignore"):
        squared = t @ t
    upper = float(squared[0, 0])
    lower = float(squared[1, 1])
    cross = float(squared[0, 1])
    ratio, product = upper / lower, upper * lower
    if not all(math.isfinite(x) and x > 0.0 for x in (ratio, product)):
        raise ValidationError(
            f"decimation oracle left the double range at K = ({kk.k0!r}, {kk.k1!r})"
        )
    k0_new = 0.5 * math.log(ratio)
    k1_new = 0.25 * math.log(product / cross**2)
    c = product**0.25 * math.sqrt(cross)
    coupling_new = CouplingVector(k0_new, k1_new)
    rebuilt = c * transfer_matrix(coupling_new).matrix
    residual = float(np.abs(rebuilt - squared).max() / np.abs(squared).max())
    if residual > 1e-12:
        raise InconsistencyError(
            f"decimation oracle reconstruction residual {residual!r} exceeds 1e-12"
        )
    return coupling_new, c


def oracle_outcome(oracle, k):
    """(k0', k1', c) as exact hex strings, or the refusal's type and message."""
    try:
        k_new, c = oracle(k)
    except EntroflowError as exc:
        return type(exc), str(exc)
    return k_new.k0.hex(), k_new.k1.hex(), c.hex()


def random_couplings(rng, n, lo=-2.0, hi=2.0):
    return [CouplingVector(float(a), float(b)) for a, b in rng.uniform(lo, hi, (n, 2))]


class TestCouplingTypes:
    def test_coupling_cap(self):
        CouplingVector(299.0, -299.0)
        with pytest.raises(ValidationError):
            CouplingVector(301.0, 0.0)
        with pytest.raises(ValidationError):
            CouplingVector(0.0, float("nan"))

    @pytest.mark.parametrize(
        "k0, k1",
        [(1, 10), (0, 1), (-3, 127), (0, 300), (np.int8(2), np.int64(-5)),
         (np.float32(0.3), np.float32(-1.7)), (np.float16(0.5), 2)],
    )
    def test_couplings_are_stored_as_floats(self, k0, k1):
        # products with the int8 configuration sums must be float64 and
        # equal those of the float tuple, on every route that takes them
        k = CouplingVector(k0, k1)
        assert type(k.k0) is float and type(k.k1) is float
        floats = (float(k0), float(k1))
        assert (k.k0, k.k1) == floats
        assert k == CouplingVector(*floats)
        g = gibbs_space(k, 12)
        assert g.space.weight_array.tobytes() == gibbs_space(floats, 12).space.weight_array.tobytes()
        assert g.log_normalization == gibbs_space(floats, 12).log_normalization
        assert log_partition_function_bruteforce(k, 12) == (
            log_partition_function_bruteforce(floats, 12)
        )
        if abs(k1) < 40:
            assert partition_function_bruteforce(k, 12) == (
                partition_function_bruteforce(floats, 12)
            )

    def test_v_frame_round_trip(self):
        k = CouplingVector(0.4, -1.1)
        v = k.v
        assert v.v0 == pytest.approx(math.exp(-0.4), abs=1e-15)
        back = v.couplings
        assert back.k0 == pytest.approx(k.k0, abs=1e-12)
        assert back.k1 == pytest.approx(k.k1, abs=1e-12)

    def test_v_must_be_positive(self):
        with pytest.raises(ValidationError):
            VVector(0.0, 1.0)
        with pytest.raises(ValidationError):
            VVector(1.0, -0.5)


class TestTransferMatrix:
    def test_infinite_temperature_is_all_ones(self):
        m = transfer_matrix(CouplingVector(0.0, 0.0)).matrix
        assert np.array_equal(m, np.ones((2, 2)))

    def test_zero_field_ln2(self):
        m = transfer_matrix(CouplingVector(0.0, LN2)).matrix
        assert np.allclose(np.diag(m), [2.0, 2.0], atol=1e-15)
        assert m[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_general_entries(self):
        m = transfer_matrix(CouplingVector(0.5, 0.3)).matrix
        expected = np.array(
            [
                [math.exp(0.8), math.exp(-0.3)],
                [math.exp(-0.3), math.exp(-0.2)],
            ]
        )
        assert np.allclose(m, expected, rtol=1e-15)

    def test_type_validation(self):
        with pytest.raises(ValidationError):
            TransferMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))  # not symmetric
        with pytest.raises(ValidationError):
            TransferMatrix(np.array([[1.0, -2.0], [-2.0, 4.0]]))
        with pytest.raises(ValidationError) as excinfo:
            TransferMatrix(np.eye(3))
        assert str(excinfo.value) == "transfer matrix must be 2x2, got shape (3, 3)"

    def test_matrix_is_read_only(self):
        m = transfer_matrix(CouplingVector(0.1, 0.2)).matrix
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


class TestEigenvalues:
    def test_zero_field_ln2(self):
        lam_plus, lam_minus = eigenvalues(CouplingVector(0.0, LN2))
        assert lam_plus == pytest.approx(2.5, abs=1e-14)
        assert lam_minus == pytest.approx(1.5, abs=1e-14)

    def test_matrix_of_ones(self):
        lam_plus, lam_minus = eigenvalues(CouplingVector(0.0, 0.0))
        assert lam_plus == pytest.approx(2.0, abs=1e-15)
        assert lam_minus == pytest.approx(0.0, abs=1e-15)

    def test_frozen_general_point_both_routes(self):
        k = CouplingVector(0.5, 0.3)
        closed = eigenvalues(k)
        solver = eigenvalues_oracle(k)
        assert closed[0] == pytest.approx(EIG_PLUS, abs=1e-12)
        assert closed[1] == pytest.approx(EIG_MINUS, abs=1e-12)
        assert solver[0] == pytest.approx(closed[0], rel=1e-12)
        assert solver[1] == pytest.approx(closed[1], rel=1e-12)

    def test_routes_agree_on_random_couplings(self):
        rng = np.random.default_rng(23)
        for k in random_couplings(rng, 200):
            lp, lm = eigenvalues(k)
            op, om = eigenvalues_oracle(k)
            assert lp == pytest.approx(op, rel=1e-12)
            assert lm == pytest.approx(om, rel=1e-12, abs=1e-12)
            assert lp >= lm


class TestPartitionFunction:
    def test_zero_field_ln2_two_sites(self):
        z = partition_function(CouplingVector(0.0, LN2), 2)
        assert abs(z - 8.5) < 1e-12
        brute = partition_function_bruteforce(CouplingVector(0.0, LN2), 2)
        assert abs(brute - 8.5) < 1e-12

    def test_free_spins_count_states(self):
        assert partition_function(CouplingVector(0.0, 0.0), 4) == pytest.approx(
            16.0, rel=1e-14
        )

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(31)
        for k in random_couplings(rng, 20):
            n = int(rng.integers(2, 13))
            z = partition_function(k, n)
            zb = partition_function_bruteforce(k, n)
            assert z == pytest.approx(zb, rel=1e-10)

    def test_log_variant_consistency(self):
        rng = np.random.default_rng(37)
        for k in random_couplings(rng, 20):
            n = int(rng.integers(2, 13))
            assert log_partition_function(k, n) == pytest.approx(
                math.log(partition_function(k, n)), rel=1e-12
            )

    def test_overflow_redirects_to_log(self):
        big = CouplingVector(0.0, 250.0)
        with pytest.raises(ValidationError, match="log"):
            partition_function(big, 4)
        assert math.isfinite(log_partition_function(big, 4))

    @pytest.mark.parametrize("k1", [-300.0, -177.5, -20.0, -8.0])
    def test_frustrated_odd_ring_at_the_cap(self, k1):
        # N = 3 at zero field: two configurations carry bond sum 3, six
        # carry -1, so log Z = log(6 e^{-K1} + 2 e^{3 K1}) exactly
        k = CouplingVector(0.0, k1)
        expected = math.log(6.0) - k1 + math.log1p(math.exp(4.0 * k1) / 3.0)
        assert log_partition_function(k, 3) == pytest.approx(expected, rel=1e-14)
        lam_plus, lam_minus = eigenvalues(k)
        assert math.isfinite(lam_plus) and lam_minus < 0.0

    def test_site_count_validation(self):
        k = CouplingVector(0.1, 0.1)
        with pytest.raises(ValidationError):
            partition_function(k, 1)
        with pytest.raises(ValidationError):
            partition_function_bruteforce(k, 21)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_bruteforce_keeps_its_float(self, n):
        # the same float from field and bond sums taken over the spin matrix
        spins = spin_configurations(n)
        field = spins.sum(axis=1, dtype=np.int64)
        bonds = (spins * np.roll(spins, -1, axis=1)).sum(axis=1, dtype=np.int64)
        for k0, k1 in [(0.0, 0.0), (0.3, -0.7), (-1.2, 0.4), (2.0, 1.5), (0.0, -8.0)]:
            expected = float(np.exp(k0 * field + k1 * bonds).sum())
            assert partition_function_bruteforce(CouplingVector(k0, k1), n) == expected

    @pytest.mark.parametrize(
        "k0, k1, n",
        # one term past the double range, and finite terms whose sum is not
        [(0.0, 200.0, 5), (0.0, 142.0, 5), (0.0, 709.7 / 12, 12)],
    )
    def test_bruteforce_overflow_names_the_log_route(self, k0, k1, n):
        # RuntimeWarnings are errors in this suite, so none is printed either
        k = CouplingVector(k0, k1)
        with pytest.raises(ValidationError, match="log_partition_function_bruteforce"):
            partition_function_bruteforce(k, n)
        assert log_partition_function_bruteforce(k, n) == pytest.approx(
            log_z_bruteforce(k0, k1, n), rel=1e-15
        )

    def test_log_bruteforce_is_the_gibbs_normalization(self):
        rng = np.random.default_rng(41)
        for k in random_couplings(rng, 12, -300.0, 300.0):
            n = int(rng.integers(2, 13))
            assert log_partition_function_bruteforce(k, n) == (
                gibbs_space(k, n).log_normalization
            )
        with pytest.raises(ValidationError, match="capped at 20 sites"):
            log_partition_function_bruteforce(CouplingVector(0.1, 0.1), 21)

    def test_spin_configurations_layout(self):
        configs = spin_configurations(2)
        assert configs.shape == (4, 2)
        assert configs[0].tolist() == [1, 1]
        assert set(np.unique(configs)) == {-1, 1}

    @pytest.mark.parametrize("n", range(1, 17))
    def test_spin_configurations_match_the_bit_formula(self, n):
        bits = (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
        expected = (1 - 2 * bits).astype(np.int8)
        configs = spin_configurations(n)
        assert configs.dtype == np.int8 and configs.flags.c_contiguous
        assert np.array_equal(configs, expected)

    @pytest.mark.parametrize(
        "k, n, message",
        [
            (CouplingVector(300.0, 300.0), 10**307, "log Z exceeds the largest double"),
            (CouplingVector(0.1, 0.1), 10**309, "more than 1.79769"),
            (CouplingVector(0.1, -0.5), 10**309 + 1, "more than 1.79769"),
        ],
        ids=["log-z", "n", "odd-frustrated-n"],
    )
    def test_past_the_double_range_is_refused(self, k, n, message):
        with pytest.raises(ValidationError, match=message):
            log_partition_function(k, n)
        with pytest.raises(ValidationError, match=message):
            partition_function(k, n)

    def test_the_largest_chain_length_is_finite(self):
        n = int(sys.float_info.max)
        assert math.isfinite(log_partition_function(CouplingVector(0.0, 0.0), n))
        with pytest.raises(ValidationError, match="more than"):
            log_partition_function(CouplingVector(0.0, 0.0), n + 1)


class TestRgStepClosed:
    @pytest.mark.parametrize("lam", [round(0.1 * i, 1) for i in range(1, 11)])
    def test_fixed_line(self, lam):
        v, c = rg_step_closed(VVector(lam, 1.0))
        assert abs(v.v0 - lam) < 1e-12
        assert abs(v.v1 - 1.0) < 1e-12
        assert c == pytest.approx(lam + 1.0 / lam, rel=1e-12)

    def test_infinite_temperature_point(self):
        v, c = rg_step_closed(VVector(1.0, 1.0))
        assert (v.v0, v.v1) == (1.0, 1.0)
        assert c == pytest.approx(2.0, rel=1e-15)

    def test_zero_field_decimation_value(self):
        # e^{2K'} = cosh 2K at K = ln 2 gives V1' = 2.125 ** -0.5
        v, _ = rg_step_closed(VVector(1.0, 0.5))
        assert v.v0 == 1.0
        assert v.v1 == pytest.approx(2.125**-0.5, abs=1e-15)
        assert v.v1 == pytest.approx(0.6859943405700354, abs=1e-15)

    def test_zero_field_closure(self):
        rng = np.random.default_rng(41)
        for v1 in rng.uniform(0.05, 1.0, 50):
            v, _ = rg_step_closed(VVector(1.0, float(v1)))
            assert abs(v.v0 - 1.0) < 1e-14

    def test_ferromagnetic_point_is_unstable(self):
        v, _ = rg_step_closed(VVector(1.0, 1e-6))
        assert v.v1 > 1.4e-6  # sqrt(2) growth per step away from (1, 0)

    def test_range_failures_are_validation_errors(self):
        with pytest.raises(ValidationError):
            rg_step_closed(VVector(1e-300, 1e-300))
        # every term of t is finite (1e308 at most), their sum is not
        with pytest.raises(ValidationError) as excinfo:
            rg_step_closed(VVector(1e-154, 1e-77))
        assert str(excinfo.value) == (
            "decimation step overflowed at V = (1e-154, 1e-77); "
            "couplings too large for the closed form"
        )


class TestRgStepOracle:
    def test_infinite_temperature(self):
        k, c = rg_step_oracle(CouplingVector(0.0, 0.0))
        assert k.k0 == 0.0 and k.k1 == 0.0
        assert c == pytest.approx(2.0, rel=1e-15)

    def test_zero_field_ln2(self):
        k, c = rg_step_oracle(CouplingVector(0.0, LN2))
        assert k.k0 == pytest.approx(0.0, abs=1e-14)
        assert k.k1 == pytest.approx(0.5 * math.log(2.125), abs=1e-14)
        assert c > 0.0

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(43)
        for k in random_couplings(rng, 100):
            k_new, c = rg_step_oracle(k)
            t = transfer_matrix(k).matrix
            rebuilt = c * transfer_matrix(k_new).matrix
            residual = np.abs(rebuilt - t @ t).max() / np.abs(t @ t).max()
            assert residual < 1e-12

    def test_cross_validation_against_closed_form(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            v = VVector(1.0 - float(rng.uniform()), 1.0 - float(rng.uniform()))
            closed_v, closed_c = rg_step_closed(v)
            oracle_k, oracle_c = rg_step_oracle(v.couplings)
            oracle_v = oracle_k.v
            assert abs(closed_v.v0 - oracle_v.v0) < 1e-9
            assert abs(closed_v.v1 - oracle_v.v1) < 1e-9
            assert abs(closed_c - oracle_c) < 1e-9 * max(1.0, abs(oracle_c))

    @pytest.mark.parametrize("k", [(-300.0, 300.0), (300.0, 300.0), (0.0, 300.0)])
    def test_past_the_double_range_is_refused(self, k):
        # the squared matrix, or its diagonal's ratio or product, overflows
        with pytest.raises(ValidationError) as excinfo:
            rg_step_oracle(k)
        assert str(excinfo.value) == (
            f"decimation oracle left the double range at K = ({k[0]!r}, {k[1]!r})"
        )

    def test_a_step_just_inside_the_double_range(self):
        # the product of the squared diagonal is e^709.6, below the largest double
        k, c = rg_step_oracle((0.0, 177.4))
        assert k.k0 == 0.0
        assert k.k1 == pytest.approx(177.4 - LN2 / 2, rel=1e-15)
        assert math.isfinite(c)


class TestStackedOracle:
    """The stacked kernel against the single-matrix oracle it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=0.0, max_value=300.0),
        st.sampled_from([1.0, -1.0]),
        st.sampled_from([1.0, -1.0]),
    )
    @example(0.0, 300.0, 1.0, 1.0)
    @example(300.0, 300.0, 1.0, 1.0)
    @example(300.0, 300.0, -1.0, 1.0)
    @example(0.0, 177.4, 1.0, 1.0)
    def test_same_bytes_or_refusal_as_the_reference(self, a0, a1, s0, s1):
        k = CouplingVector(s0 * a0, s1 * a1)
        assert oracle_outcome(rg_step_oracle, k) == oracle_outcome(
            rg_step_oracle_reference, k
        )

    def test_each_row_is_its_single_call(self):
        rng = np.random.default_rng(53)
        ks = random_couplings(rng, 200, -20.0, 20.0) + random_couplings(rng, 56)
        stacked = _rg_step_oracle_stack(ks)
        assert len(stacked) == len(ks)
        for k, (k_new, c) in zip(ks, stacked):
            single_k, single_c = rg_step_oracle(k)
            assert (k_new.k0.hex(), k_new.k1.hex(), c.hex()) == (
                single_k.k0.hex(), single_k.k1.hex(), single_c.hex()
            )

    def test_the_first_refused_row_is_raised(self):
        ks = [CouplingVector(0.1, 0.2), CouplingVector(300.0, 300.0),
              CouplingVector(0.3, 0.4), CouplingVector(-300.0, 300.0)]
        with pytest.raises(ValidationError) as excinfo:
            _rg_step_oracle_stack(ks)
        assert str(excinfo.value) == (
            "decimation oracle left the double range at K = (300.0, 300.0)"
        )

    def test_the_coupling_cap_draws(self):
        # one (20000, 2) draw over the whole cap: 9,532 steps, and every
        # refusal a ValidationError, each exactly as the reference gives it
        draws = np.random.default_rng(7).uniform(-300.0, 300.0, (20000, 2))
        steps = 0
        for k in map(CouplingVector, *draws.T.tolist()):
            outcome = oracle_outcome(rg_step_oracle, k)
            assert outcome == oracle_outcome(rg_step_oracle_reference, k)
            steps += len(outcome) == 3
            assert len(outcome) == 3 or outcome[0] is ValidationError
        assert steps == 9532


def solve_block4(t4):
    """Directly fit c * T(K'') to a given positive symmetric matrix."""
    upper, lower, cross = float(t4[0, 0]), float(t4[1, 1]), float(t4[0, 1])
    k0 = 0.5 * math.log(upper / lower)
    k1 = 0.25 * math.log(upper * lower / cross**2)
    c = (upper * lower) ** 0.25 * math.sqrt(cross)
    return CouplingVector(k0, k1), c


class TestSemigroup:
    def test_two_decimations_compose_to_block_four(self):
        rng = np.random.default_rng(53)
        for k in random_couplings(rng, 25):
            k1, c1 = rg_step_oracle(k)
            k2, c2 = rg_step_oracle(k1)
            t = transfer_matrix(k).matrix
            t4 = np.linalg.matrix_power(t, 4)
            k_direct, c_direct = solve_block4(t4)
            assert k_direct.k0 == pytest.approx(k2.k0, abs=1e-9)
            assert k_direct.k1 == pytest.approx(k2.k1, abs=1e-9)
            assert c_direct == pytest.approx(c1**2 * c2, rel=1e-9)
            rebuilt = c1**2 * c2 * transfer_matrix(k2).matrix
            assert np.abs(rebuilt - t4).max() / np.abs(t4).max() < 1e-9


class TestZInvariance:
    def test_one_step_halves_the_chain(self):
        rng = np.random.default_rng(59)
        for k in random_couplings(rng, 10):
            k_new, c = rg_step_oracle(k)
            for n in (4, 6, 8, 10, 12):
                lhs = partition_function(k, n)
                rhs = c ** (n / 2) * partition_function(k_new, n // 2)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_two_site_case_via_trace(self):
        rng = np.random.default_rng(61)
        for k in random_couplings(rng, 10):
            k_new, c = rg_step_oracle(k)
            z2 = partition_function(k, 2)
            z1 = sum(eigenvalues(k_new))  # trace of the renormalized matrix
            assert z2 == pytest.approx(c * z1, rel=1e-9)


class TestTrajectory:
    def test_high_temperature_attractor(self):
        out = rg_trajectory(VVector(0.7, 0.9), max_steps=60)
        assert not out.diverged
        assert out.converged_to is not None
        assert abs(out.converged_to.v1 - 1.0) < 1e-8
        assert out.steps_used <= 60
        assert all(c > 0.0 for _, c in out.steps)

    def test_fixed_line_needs_zero_steps(self):
        out = rg_trajectory(VVector(0.4, 1.0))
        assert out.steps_used == 0
        assert out.converged_to is not None
        assert out.converged_to.v0 == pytest.approx(0.4, abs=1e-10)

    def test_final_iterate_near_converged_value(self):
        out = rg_trajectory(VVector(0.9, 0.2), tol=1e-10)
        assert out.converged_to is not None
        last = out.steps[-1][0] if out.steps else out.start
        assert abs(last.v0 - out.converged_to.v0) < 1e-10
        assert abs(last.v1 - out.converged_to.v1) < 1e-10

    def test_range_escape_reports_divergence(self):
        out = rg_trajectory(VVector(1e-300, 1e-300))
        assert out.diverged
        assert out.converged_to is None
        assert out.start.v0 == 1e-300  # last valid iterate preserved

    def test_step_budget_exhaustion(self):
        out = rg_trajectory(VVector(0.7, 0.3), max_steps=1)
        assert out.steps_used == 1
        assert out.converged_to is None and not out.diverged

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            rg_trajectory(VVector(0.5, 0.5), max_steps=0)
        with pytest.raises(ValidationError):
            rg_trajectory(VVector(0.5, 0.5), tol=-1e-9)
        with pytest.raises(ValidationError, match="tol must be positive, got nan"):
            rg_trajectory(VVector(0.5, 0.5), tol=float("nan"))


class TestInverseZeroField:
    def test_inverts_the_forward_example(self):
        assert inverse_rg_step_zero_field(0.5 * math.log(2.125)) == pytest.approx(
            LN2, abs=1e-14
        )

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_round_trip(self, k1):
        forward = 0.5 * math.log(math.cosh(2.0 * k1))
        assert inverse_rg_step_zero_field(forward) == pytest.approx(k1, rel=1e-9)

    def test_continuity_at_zero(self):
        assert inverse_rg_step_zero_field(1e-8) < 1e-3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            inverse_rg_step_zero_field(0.0)
        with pytest.raises(ValidationError):
            inverse_rg_step_zero_field(-0.2)

    def test_iteration_walks_toward_zero_temperature(self):
        """Iterating the inverse grows K1 by ln(2)/2 per step asymptotically.

        Thirty iterations from K1' = 0.1 reach V1 = 3.2768e-5; the 1e-6
        threshold falls at iteration 41. Recorded here so the measured
        pace of the walk stays pinned.
        """
        k = 0.1
        values = []
        for _ in range(41):
            k = inverse_rg_step_zero_field(k)
            values.append(math.exp(-k))
        assert values[29] == pytest.approx(3.276848075777743e-05, rel=1e-9)
        assert values[29] > 1e-6
        assert values[40] < 1e-6 < values[39]
        # per-step gain settles onto the asymptotic ln(2)/2 increment
        assert (-math.log(values[40]) + math.log(values[30])) / 10 == pytest.approx(
            LN2 / 2, abs=1e-3
        )


def log_z_bruteforce(k0, k1, n):
    """log Z by log-sum-exp over all 2^n configurations."""
    spins = spin_configurations(n).astype(float)
    energy = k0 * spins.sum(axis=1) + k1 * (spins * np.roll(spins, -1, axis=1)).sum(
        axis=1
    )
    top = energy.max()
    return top + math.log(np.exp(energy - top).sum())


couplings = st.one_of(
    st.floats(min_value=-300.0, max_value=300.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


@settings(max_examples=150, deadline=None)
@given(couplings, couplings, st.integers(min_value=2, max_value=14))
def test_log_z_matches_log_sum_exp_over_the_cap(k0, k1, n):
    closed = log_partition_function(CouplingVector(k0, k1), n)
    expected = log_z_bruteforce(k0, k1, n)
    assert closed == pytest.approx(expected, rel=1e-12)
    # the package's own enumeration, from popcounts instead of a spin matrix
    brute = log_partition_function_bruteforce(CouplingVector(k0, k1), n)
    assert abs(brute - expected) <= 1e-14 * max(1.0, abs(expected))
