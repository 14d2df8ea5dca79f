import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    CylinderDistribution,
    Partition,
    PartitionFlow,
    PermutationSystem,
    REFINEMENT,
    ResourceCapError,
    SymbolicSystem,
    UNVALIDATED,
    ValidationError,
    atom_probabilities,
    cyclic_system,
    entropy,
    generating_partition,
    info_rate_report,
    is_chaotic,
    is_coarsening,
    iterated_join,
    ks_entropy_family,
    make_space,
    markov_entropy_rate,
    parse_system_spec,
    pullback_partition,
    shannon_bits,
    theorem_limit_point_check,
    verify_generating_map,
)

# frozen closed-form rate of Q = [[0.9, 0.1], [0.5, 0.5]] under pi = (5/6, 1/6),
# independently evaluated as -sum_i pi_i sum_j Q_ij log2 Q_ij
MARKOV_RATE = 0.5574963279910677
Q_REFERENCE = [[0.9, 0.1], [0.5, 0.5]]


def halves(system):
    n = system.space.size
    return Partition(system.space, [range(n // 2), range(n // 2, n)])


class TestPermutationSystem:
    def test_cyclic_construction(self):
        s = cyclic_system(4)
        assert s.space.size == 4
        assert sorted(s.mapping) == [0, 1, 2, 3]

    def test_rejects_non_bijection(self):
        space = make_space("abc", [1 / 3] * 3)
        with pytest.raises(ValidationError):
            PermutationSystem(space, (0, 0, 1))

    def test_rejects_weight_breaking_permutation(self):
        space = make_space("abc", [0.5, 0.3, 0.2])
        with pytest.raises(ValidationError):
            PermutationSystem(space, (1, 2, 0))

    def test_messages_name_the_first_offending_point(self):
        space = make_space("abcd", [0.25, 0.25, 0.3, 0.2])
        with pytest.raises(ValidationError, match="not a permutation"):
            PermutationSystem(space, (0, 1, 2, 4))
        with pytest.raises(ValidationError, match="not a permutation"):
            PermutationSystem(space, (0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ValidationError) as excinfo:
            PermutationSystem(space, (1, 0, 3, 2))
        assert str(excinfo.value) == "weight not preserved at point 2: 0.3 -> 0.2"

    def test_accepts_weight_preserving_permutation(self):
        space = make_space("abc", [0.4, 0.4, 0.2])
        PermutationSystem(space, (1, 0, 2))


class TestSymbolicSystem:
    def test_bernoulli_marginal(self):
        b = SymbolicSystem.bernoulli([0.25, 0.75])
        assert b.kind == "bernoulli"
        assert b.alphabet_size == 2

    def test_alphabet_floor(self):
        with pytest.raises(ValidationError):
            SymbolicSystem.bernoulli([1.0])

    def test_distribution_must_normalize(self):
        with pytest.raises(ValidationError):
            SymbolicSystem.bernoulli([0.5, 0.4])

    def test_markov_rows_must_be_stochastic(self):
        with pytest.raises(ValidationError):
            SymbolicSystem.markov([[0.9, 0.2], [0.5, 0.5]])

    def test_markov_derives_stationary_distribution(self):
        m = SymbolicSystem.markov(Q_REFERENCE)
        assert m.marginal == pytest.approx((5 / 6, 1 / 6), abs=1e-12)

    def test_markov_rejects_non_stationary_pi(self):
        with pytest.raises(ValidationError):
            SymbolicSystem.markov(Q_REFERENCE, stationary=[0.5, 0.5])

    def test_reducible_chain_needs_an_explicit_stationary_vector(self):
        with pytest.raises(ValidationError, match="degenerate"):
            SymbolicSystem.markov([[1.0, 0.0], [0.0, 1.0]])
        m = SymbolicSystem.markov([[1.0, 0.0], [0.0, 1.0]], stationary=[0.3, 0.7])
        assert m.marginal == (0.3, 0.7)
        # a periodic chain is irreducible: its eigenvalue 1 is simple
        assert SymbolicSystem.markov([[0.0, 1.0], [1.0, 0.0]]).marginal == (0.5, 0.5)

    def test_non_numeric_entries_name_the_entry(self):
        with pytest.raises(ValidationError, match=r"probability 1 is not a number: 'x'"):
            SymbolicSystem.bernoulli([0.5, "x"])
        with pytest.raises(ValidationError, match=r"entry \[1\]\[0\] is not a number"):
            SymbolicSystem.markov([[0.5, 0.5], [None, 1.0]])
        with pytest.raises(ValidationError, match=r"stationary entry 0 is not a number"):
            SymbolicSystem.markov(Q_REFERENCE, stationary=["a", 0.5])
        with pytest.raises(ValidationError, match="unequal lengths"):
            SymbolicSystem.markov([[0.5, 0.5], [1.0]])

    def test_generating_partition_is_discrete(self):
        b = SymbolicSystem.bernoulli([0.5, 0.5])
        assert generating_partition(b).n_atoms == 2


class TestPullback:
    def test_identity_fixes_partitions(self):
        s = cyclic_system(1)  # one point; trivial but well-formed
        space = make_space(list(range(4)), [0.25] * 4)
        ident = PermutationSystem(space, (0, 1, 2, 3))
        p = Partition(space, [[0, 1], [2, 3]])
        assert pullback_partition(ident, p) == p

    def test_four_cycle_shifts_atoms(self):
        s = cyclic_system(4)
        p = Partition(s.space, [[0, 1], [2, 3]])
        pulled = pullback_partition(s, p)
        assert pulled == Partition(s.space, [[0, 3], [1, 2]])
        probs = sorted(atom_probabilities(pulled).probabilities)
        assert probs == sorted(atom_probabilities(p).probabilities)

    def test_one_atom_stays_one_atom(self):
        s = cyclic_system(5)
        assert pullback_partition(s, Partition.trivial(s.space)).n_atoms == 1

    def test_wrong_space_rejected(self):
        s = cyclic_system(4)
        other = make_space("wxyz", [0.25] * 4)
        with pytest.raises(ValidationError):
            pullback_partition(s, Partition.trivial(other))


class TestIteratedJoin:
    def test_n_one_is_the_partition(self):
        s = cyclic_system(4)
        p = halves(s)
        assert iterated_join(s, p, 1) == p

    def test_four_cycle_two_steps_gives_singletons(self):
        s = cyclic_system(4)
        joined = iterated_join(s, halves(s), 2)
        assert joined == Partition.discrete(s.space)

    def test_refinement_chain_for_permutations(self):
        rng = np.random.default_rng(2)
        space = make_space(list(range(8)), [0.125] * 8)
        system = PermutationSystem(space, tuple(int(x) for x in rng.permutation(8)))
        p = Partition(space, [[0, 1, 2], [3, 4], [5, 6, 7]])
        previous = iterated_join(system, p, 1)
        for n in range(2, 6):
            current = iterated_join(system, p, n)
            assert is_coarsening(previous, current)
            previous = current

    def test_fair_coin_cylinders(self):
        b = SymbolicSystem.bernoulli([0.5, 0.5])
        words = iterated_join(b, None, 3)
        assert isinstance(words, CylinderDistribution)
        assert words.word_length == 3
        assert len(words) == 8
        assert np.allclose(words.probabilities, 0.125, atol=0, rtol=0)
        assert words.entropy_bits == 3.0

    def test_lumped_symbols_reduce_the_words(self):
        # merging a uniform 4-letter alphabet in halves must look like a coin
        b = SymbolicSystem.bernoulli([0.25] * 4)
        p = Partition(b.symbol_space, [[0, 1], [2, 3]])
        words = iterated_join(b, p, 5)
        assert len(words) == 2**5
        assert words.entropy_bits == pytest.approx(5.0, abs=1e-12)

    def test_n_must_be_positive(self):
        with pytest.raises(ValidationError):
            iterated_join(SymbolicSystem.bernoulli([0.5, 0.5]), None, 0)

    def test_word_cap(self):
        b = SymbolicSystem.bernoulli([0.5, 0.5])
        with pytest.raises(ResourceCapError, match="cap"):
            iterated_join(b, None, 12, cap=2**10)
        # an explicit higher cap admits the same request
        assert len(iterated_join(b, None, 12, cap=2**12)) == 4096


class TestInfoRateReport:
    def test_identity_rate_is_exactly_zero(self):
        space = make_space(list(range(6)), [1 / 6] * 6)
        ident = PermutationSystem(space, tuple(range(6)))
        report = info_rate_report(ident, Partition(space, [[0, 1], [2, 3, 4, 5]]), 8)
        assert report.h_estimate == 0.0
        assert report.converged

    def test_fair_coin_rate_is_exactly_one(self):
        report = info_rate_report(SymbolicSystem.bernoulli([0.5, 0.5]), n_max=16)
        assert report.block_entropies == tuple(float(n) for n in range(1, 17))
        assert report.h_estimate == 1.0

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_must_be_positive(self, cap):
        space = make_space(list(range(4)), [0.25] * 4)
        shift = PermutationSystem(space, (1, 2, 3, 0))
        for system, partition in (
            (SymbolicSystem.bernoulli([0.5, 0.5]), None),
            (shift, Partition(space, [[0, 1], [2, 3]])),
        ):
            with pytest.raises(ValidationError, match="cap must be positive"):
                info_rate_report(system, partition, 4, cap=cap)

    def test_markov_reference_chain(self):
        report = info_rate_report(SymbolicSystem.markov(Q_REFERENCE), n_max=14)
        assert report.h_estimate == pytest.approx(MARKOV_RATE, abs=1e-13)
        assert abs(report.h_estimate - 0.5574966) < 1e-6
        assert report.converged

    def test_three_state_chain_approaches_closed_form(self):
        q = [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]
        m = SymbolicSystem.markov(q)
        report = info_rate_report(m, n_max=9)
        assert report.h_estimate == pytest.approx(
            markov_entropy_rate(m.marginal, q), abs=1e-3
        )

    def test_rates_and_increments_are_consistent(self):
        report = info_rate_report(SymbolicSystem.bernoulli([0.3, 0.7]), n_max=6)
        h = report.block_entropies
        assert report.rates == tuple(h[k] / (k + 1) for k in range(6))
        assert report.increments == tuple(h[k] - h[k - 1] for k in range(1, 6))
        assert report.h_estimate == report.increments[-1]

    def test_converged_means_stable_tail(self):
        report = info_rate_report(SymbolicSystem.markov(Q_REFERENCE), n_max=14)
        if report.converged:
            tail = report.increments[-3:]
            assert max(tail) - min(tail) < report.tolerance

    def test_n_max_floor(self):
        with pytest.raises(ValidationError):
            info_rate_report(SymbolicSystem.bernoulli([0.5, 0.5]), n_max=1)


class TestMarkovEntropyRate:
    def test_deterministic_chain(self):
        assert markov_entropy_rate([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]) == 0.0

    def test_iid_rows_reduce_to_shannon(self):
        p = [0.25, 0.75]
        assert markov_entropy_rate(p, [p, p]) == pytest.approx(
            shannon_bits(p), abs=1e-14
        )

    def test_reference_value(self):
        assert markov_entropy_rate([5 / 6, 1 / 6], Q_REFERENCE) == pytest.approx(
            MARKOV_RATE, abs=1e-15
        )

    def test_non_stationary_pi_rejected(self):
        with pytest.raises(ValidationError):
            markov_entropy_rate([0.5, 0.5], Q_REFERENCE)


class TestKsFamilyAndChaos:
    def test_identity_family_rate_zero(self):
        space = make_space(list(range(4)), [0.25] * 4)
        ident = PermutationSystem(space, tuple(range(4)))
        family = [Partition(space, [[0], [1, 2, 3]]), Partition.discrete(space)]
        assert ks_entropy_family(ident, family, 6) == 0.0
        assert not is_chaotic(ident, family)

    def test_bernoulli_family_max(self):
        b = SymbolicSystem.bernoulli([0.5, 0.5])
        family = [generating_partition(b), Partition.trivial(b.symbol_space)]
        assert ks_entropy_family(b, family, 8) == 1.0
        assert is_chaotic(b, family)

    def test_four_cycle_exhaustive_two_atom_family(self):
        s = cyclic_system(4)
        family = []
        for mask in range(1, 8):  # proper nonempty bipartitions of 4 points
            atom = [i for i in range(4) if mask & (1 << i)]
            rest = [i for i in range(4) if i not in atom]
            family.append(Partition(s.space, [atom, rest]))
        assert ks_entropy_family(s, family, 12) == 0.0
        assert not is_chaotic(s, family)

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            ks_entropy_family(cyclic_system(3), [], 4)


class TestTheoremCheck:
    def test_four_cycle_witnessed_and_consistent(self):
        s = cyclic_system(4)
        result = theorem_limit_point_check(s, halves(s))
        assert result.verdict.status == "witnessed"
        assert result.h_estimate == 0.0
        assert result.consistent

    def test_identity_witnessed_from_the_start(self):
        space = make_space(list(range(4)), [0.25] * 4)
        ident = PermutationSystem(space, tuple(range(4)))
        result = theorem_limit_point_check(ident, Partition(space, [[0, 1], [2, 3]]))
        assert result.verdict.status == "witnessed"
        assert result.verdict.witness_index == 0
        assert result.h_estimate == 0.0
        assert result.consistent

    def test_fair_coin_refuted_but_consistent(self):
        result = theorem_limit_point_check(
            SymbolicSystem.bernoulli([0.5, 0.5]), n_max=18
        )
        assert result.verdict.status == "refuted"
        assert result.h_estimate == 1.0
        assert result.consistent  # contrapositive branch of the claim

    def test_report_is_attached(self):
        s = cyclic_system(6)
        result = theorem_limit_point_check(s, halves(s), n_max=16)
        assert result.report.n_max == 16
        assert result.report.h_estimate == result.h_estimate


class TestVerifyGeneratingMap:
    def test_identity_with_constant_flow(self):
        space = make_space(list(range(4)), [0.25] * 4)
        ident = PermutationSystem(space, tuple(range(4)))
        p = Partition(space, [[0, 1], [2, 3]])
        flow = PartitionFlow(space, (p, p, p), REFINEMENT)
        assert verify_generating_map(ident, flow)

    def test_four_cycle_join_flow(self):
        s = cyclic_system(4)
        p = halves(s)
        singles = Partition.discrete(s.space)
        flow = PartitionFlow(s.space, (p, singles, singles, singles), REFINEMENT)
        assert verify_generating_map(s, flow)

    def test_identity_cannot_refine(self):
        space = make_space(list(range(4)), [0.25] * 4)
        ident = PermutationSystem(space, tuple(range(4)))
        flow = PartitionFlow(
            space,
            (Partition(space, [[0, 1], [2, 3]]), Partition.discrete(space)),
            REFINEMENT,
        )
        assert not verify_generating_map(ident, flow)

    def test_permutation_requires_flow(self):
        with pytest.raises(ValidationError):
            verify_generating_map(cyclic_system(4))

    def test_symbolic_marginal_consistency(self):
        assert verify_generating_map(SymbolicSystem.markov(Q_REFERENCE))
        assert verify_generating_map(SymbolicSystem.bernoulli([0.2, 0.3, 0.5]))


class TestSharedProperties:
    """Invariants that hold across system kinds."""

    def test_subadditivity_and_rate_decay(self):
        rng = np.random.default_rng(9)
        systems = [
            (cyclic_system(8), halves(cyclic_system(8))),
            (SymbolicSystem.bernoulli([0.2, 0.8]), None),
            (SymbolicSystem.markov(Q_REFERENCE), None),
        ]
        space = make_space(list(range(10)), [0.1] * 10)
        perm = PermutationSystem(space, tuple(int(x) for x in rng.permutation(10)))
        systems.append((perm, Partition(space, [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9]])))
        for system, part in systems:
            report = info_rate_report(system, part, 12)
            h1 = report.block_entropies[0]
            for n, hn in enumerate(report.block_entropies, start=1):
                assert hn <= n * h1 + 1e-9
            rates = report.rates
            for a, b in zip(rates, rates[1:]):
                assert b <= a + 1e-9
            assert report.h_estimate >= -1e-12

    def test_permutation_joins_stabilize_within_space_size(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            space = make_space(list(range(n)), [1.0 / n] * n)
            system = PermutationSystem(space, tuple(int(x) for x in rng.permutation(n)))
            p = Partition(space, [[0], list(range(1, n))])
            stable = iterated_join(system, p, n)
            assert iterated_join(system, p, n + 3) == stable


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_bernoulli_rate_matches_shannon_exactly(p):
    report = info_rate_report(SymbolicSystem.bernoulli([p, 1.0 - p]), n_max=8)
    assert abs(report.h_estimate - shannon_bits([p, 1.0 - p])) < 1e-10


def _distribution(draw, size):
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)))
    return raw / raw.sum()


@st.composite
def shifts_with_symbol_partitions(draw):
    """A shift with m <= 4 symbols, a partition of its alphabet and n <= 7.

    The partition is the generating one (None), singletons in a drawn
    order, or two drawn groups. A Markov shift may get a transient last
    symbol, of stationary weight zero, which the partition then leaves out.
    """
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        system = SymbolicSystem.bernoulli(_distribution(draw, m).tolist())
    elif draw(st.booleans()):
        system = SymbolicSystem.markov([_distribution(draw, m) for _ in range(m)])
    else:
        # states below m - 1 never enter m - 1; m - 1 leaves with positive rate
        closed = [_distribution(draw, m - 1) for _ in range(m - 1)]
        pi = SymbolicSystem.markov(closed).marginal if m > 2 else (1.0,)
        q = [list(row) + [0.0] for row in closed] + [_distribution(draw, m).tolist()]
        system = SymbolicSystem((*pi, 0.0), tuple(tuple(row) for row in q))
    symbols = [s for s in range(m) if system.marginal[s] > 0.0]
    kind = draw(st.sampled_from(["generating", "singletons", "two groups"]))
    if kind == "generating" and len(symbols) == m:
        atoms = None
    elif kind == "two groups" and len(symbols) > 1:
        first = draw(
            st.sets(st.sampled_from(symbols), min_size=1, max_size=len(symbols) - 1)
        )
        atoms = [sorted(first), sorted(set(symbols) - first)]
    else:
        atoms = [[s] for s in draw(st.permutations(symbols))]
    return system, atoms, draw(st.integers(1, 7))


def _brute_force_reduced_words(system, atoms, n):
    """P(reduced word) for all length-n words, by enumerating the m^n words."""
    m = system.alphabet_size
    if atoms is None:
        group, count = np.arange(m), m
    else:
        # atoms numbered by their smallest symbol; symbols left out never occur
        group = np.zeros(m, dtype=np.int64)
        for rank, atom in enumerate(sorted(atoms, key=min)):
            group[atom] = rank
        count = len(atoms)
    p = np.array(system.marginal)
    q = np.tile(p, (m, 1)) if system.transition is None else np.array(system.transition)
    index = np.arange(m**n)
    digits = [(index // m ** (n - 1 - k)) % m for k in range(n)]
    probability = p[digits[0]]
    reduced = group[digits[0]]
    for before, after in zip(digits, digits[1:]):
        probability = probability * q[before, after]
        reduced = reduced * count + group[after]
    return np.bincount(reduced, weights=probability, minlength=count**n)


def _entropy_bits(probabilities):
    positive = probabilities[probabilities > 0.0]
    return float(-(positive * np.log2(positive)).sum())


@settings(max_examples=60, deadline=None)
@given(shifts_with_symbol_partitions())
def test_word_joins_match_brute_force(case):
    system, atoms, n = case
    partition = None if atoms is None else Partition(system.symbol_space, atoms)
    words = iterated_join(system, partition, n)
    expected = _brute_force_reduced_words(system, atoms, n)
    assert words.probabilities.shape == expected.shape
    assert np.abs(words.probabilities - expected).max() <= 1e-12
    if n >= 2:
        report = info_rate_report(system, partition, n)
        brute = [_entropy_bits(_brute_force_reduced_words(system, atoms, k))
                 for k in range(1, n + 1)]
        assert np.abs(np.array(report.block_entropies) - brute).max() <= 1e-12


def test_lumped_bernoulli_is_the_shift_of_its_group_masses():
    system = SymbolicSystem.bernoulli([0.1, 0.2, 0.3, 0.4])
    halves = Partition(system.symbol_space, [[0, 2], [1, 3]])
    words = iterated_join(system, halves, 10, cap=2**10)
    masses = SymbolicSystem.bernoulli([0.1 + 0.3, 0.2 + 0.4])
    assert np.array_equal(words.probabilities,
                          iterated_join(masses, None, 10).probabilities)
    assert (words.group_count, words.labels) == (2, (0, 1, 0, 1))
    # groups^n words are held, not a groups^n x m table
    with pytest.raises(ResourceCapError, match="needs 2048 entries"):
        iterated_join(system, halves, 11, cap=2**10)


class TestParseSystemSpec:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("bernoulli:0.5,0.5", SymbolicSystem),
            ("markov:[[0.9,0.1],[0.5,0.5]]", SymbolicSystem),
            ("cycle:4", PermutationSystem),
        ],
    )
    def test_accepted_forms(self, text, kind):
        assert isinstance(parse_system_spec(text), kind)

    @pytest.mark.parametrize(
        "text",
        [
            "bernoulli:0.5,0.6",
            "bernoulli:abc",
            "markov:[[0.9,0.1]",
            "markov:42",
            "cycle:0",
            "cycle:x",
            "poisson:3",
            "bernoulli",
        ],
    )
    def test_rejected_forms(self, text):
        with pytest.raises(ValidationError):
            parse_system_spec(text)
