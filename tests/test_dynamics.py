import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    Partition,
    PermutationSystem,
    ResourceCapError,
    SymbolicSystem,
    ValidationError,
    atom_probabilities,
    cyclic_system,
    entropy,
    info_rate_report,
    is_coarsening,
    join,
    make_space,
    markov_entropy_rate,
    parse_system_spec,
    pullback_partition,
    shannon_bits,
    theorem_limit_point_check,
)
from entroflow import dynamics, partitions
from entroflow.dynamics import DEFAULT_WORD_CAP, _joins
from entroflow.partitions import _TERM_BLOCK, _pairwise_sum

# frozen closed-form rate of Q = [[0.9, 0.1], [0.5, 0.5]] under pi = (5/6, 1/6),
# independently evaluated as -sum_i pi_i sum_j Q_ij log2 Q_ij
MARKOV_RATE = 0.5574963279910677
Q_REFERENCE = [[0.9, 0.1], [0.5, 0.5]]


def halves(system):
    n = system.space.size
    return Partition(system.space, [range(n // 2), range(n // 2, n)])


def nth_join(system, partition, n, cap=DEFAULT_WORD_CAP):
    """The n-fold join of a permutation system, the last one ``_joins`` yields."""
    *_, joined = _joins(system, partition, n, cap)
    return joined


def _group_labels(system, partition):
    """Symbol -> group: its atom, or group 0 for a symbol no atom holds."""
    if partition is None:
        return np.arange(system.alphabet_size)
    return np.maximum(partition.atom_index_array, 0)


def broadcast_levels(system, partition, n):
    """The word masses of lengths 1..n and the arrays each length grows from.

    Built here the direct way, each length whole: the words by the
    broadcast product with the Bernoulli row or the Markov matrix (a
    lumped Bernoulli shift is the Bernoulli shift of its group masses),
    and a lumped Markov shift's (group word, current symbol) table by one
    matrix product per group over the whole table, its group masses by
    adding each group's columns in order.
    """
    labels = _group_labels(system, partition)
    p = np.array(system.marginal)
    if system.transition is None:
        p = step = np.bincount(labels, weights=p)
    else:
        step = np.array(system.transition)
    m = p.size
    levels = []
    if system.transition is None or np.array_equal(labels, np.arange(m)):
        words = p
        for _ in range(n):
            levels.append((words, words))
            words = (words.reshape(-1, m, 1) * step).reshape(-1)
        return levels
    order = np.argsort(labels, kind="stable")
    groups = int(labels.max()) + 1
    edges = np.searchsorted(labels[order], np.arange(groups + 1))
    spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
    step = step[np.ix_(order, order)]
    table = p[order].reshape(1, m)
    for k in range(n):
        if k:
            grown = np.empty((table.shape[0], groups, m))
            for g, span in enumerate(spans):
                np.matmul(table[:, span], step[span], out=grown[:, g])
            table = grown.reshape(-1, m)
        masses = np.empty((table.shape[0], groups))
        for g, span in enumerate(spans):
            masses[:, g] = table[:, span.start]
            for column in range(span.start + 1, span.stop):
                masses[:, g] += table[:, column]
        levels.append((masses.reshape(-1), table))
    return levels


def word_levels(system, partition, n, cap=DEFAULT_WORD_CAP):
    """The word masses of lengths 1..n, checked against ``_joins``.

    ``_joins`` keeps every length but the last, and those arrays must have
    the bytes of ``broadcast_levels``'s; every H_n must have the bytes of
    ``shannon_bits`` of its masses from ``broadcast_levels``.
    """
    levels = list(_joins(system, partition, n, cap))
    expected = broadcast_levels(system, partition, n)
    assert len(levels) == n
    for k, ((bits, kept), (masses, grown)) in enumerate(zip(levels, expected), 1):
        assert bits.hex() == shannon_bits(masses).hex()
        if k < n:
            assert kept.shape == grown.shape
            assert kept.tobytes() == grown.tobytes()
        else:
            assert kept is None
    return [masses for masses, _ in expected]


def nth_words(system, partition, n, cap=DEFAULT_WORD_CAP):
    """The masses of the length-n words, checked by ``word_levels``."""
    return word_levels(system, partition, n, cap)[-1]


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

    @pytest.mark.parametrize(
        "mapping",
        [(1, 2, 0), [1, 2, 0]]
        + [np.array([1, 2, 0], dtype=t) for t in (np.int32, np.int8, np.uint64)],
    )
    def test_mapping_is_stored_as_a_read_only_int64_array(self, mapping):
        s = PermutationSystem(make_space("abc", [1 / 3] * 3), mapping)
        assert isinstance(s.mapping, np.ndarray)
        assert s.mapping.dtype == np.int64
        assert not s.mapping.flags.writeable
        assert s.mapping.tolist() == [1, 2, 0]
        if isinstance(mapping, np.ndarray):
            mapping[0] = 0  # the system holds its own copy
            assert s.mapping.tolist() == [1, 2, 0]

    @pytest.mark.parametrize(
        "weights, mapping, message",
        [
            ([1 / 3] * 3, (0, 1), "mapping of length 2 on a space of 3 points"),
            ([1 / 3] * 3, (0, 0, 1),
             "mapping is not a permutation of the point indices"),
            ([0.5, 0.3, 0.2], (1, 2, 0), "weight not preserved at point 0: 0.5 -> 0.3"),
            ([0.25, 0.25, 0.3, 0.2], (0, 1, 2, 4),
             "mapping is not a permutation of the point indices"),
            ([0.25, 0.25, 0.3, 0.2], (0.0, 1.0, 2.0, 3.0),
             "mapping is not a permutation of the point indices"),
            ([0.25, 0.25, 0.3, 0.2], (1, 0, 3, 2),
             "weight not preserved at point 2: 0.3 -> 0.2"),
            ([1 / 3] * 3, (-1, 0, 1), "mapping is not a permutation of the point indices"),
            ([1 / 3] * 3, np.array([2**63, 0, 1], dtype=np.uint64),
             "mapping is not a permutation of the point indices"),
            ([1 / 3] * 3, [[0], [1], [2]], "mapping is not a permutation of the point indices"),
            ([1 / 3] * 3, (True, False, True),
             "mapping is not a permutation of the point indices"),
        ],
    )
    def test_rejection_messages(self, weights, mapping, message):
        space = make_space(range(len(weights)), weights)
        with pytest.raises(ValidationError) as excinfo:
            PermutationSystem(space, mapping)
        assert str(excinfo.value) == message

    def test_systems_compare_by_identity(self):
        s = cyclic_system(3)
        assert s == s and s != cyclic_system(3)
        assert len({s, cyclic_system(3)}) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
    def test_cycle_space_is_the_tuple_built_space(self, n):
        space = cyclic_system(n).space
        expected = make_space(tuple(range(n)), (1 / n,) * n)
        assert space == expected and hash(space) == hash(expected)
        assert type(space.point_ids) is tuple
        assert all(type(i) is int for i in space.point_ids)
        assert cyclic_system(n).mapping.tolist() == [(i + 1) % n for i in range(n)]


class TestSymbolicSystem:
    def test_bernoulli_marginal(self):
        b = SymbolicSystem.bernoulli([0.25, 0.75])
        assert b.kind == "bernoulli"
        assert b.alphabet_size == 2

    def test_alphabet_floor(self):
        with pytest.raises(ValidationError):
            SymbolicSystem.bernoulli([1.0])

    def test_distribution_must_normalize(self):
        with pytest.raises(ValidationError) as excinfo:
            SymbolicSystem.bernoulli([0.5, 0.4])
        assert str(excinfo.value) == "unnormalized marginal probabilities (sum 0.9)"

    def test_markov_rows_must_be_stochastic(self):
        # the rows are checked before the stationary vector is derived
        with pytest.raises(ValidationError) as excinfo:
            SymbolicSystem.markov([[0.9, 0.2], [0.5, 0.5]])
        assert str(excinfo.value) == "unnormalized transition entries (sum [1.1, 1.0])"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SymbolicSystem.bernoulli([1.5, -0.5]),
             "negative marginal probability: min is -0.5"),
            (lambda: SymbolicSystem.bernoulli([0.5, float("inf")]),
             "marginal probabilities must be finite"),
            (lambda: SymbolicSystem.markov([[1.5, -0.5], [0.5, 0.5]]),
             "negative transition entry: min is -0.5"),
            (lambda: SymbolicSystem.markov([[0.5, 0.5], [0.5, 0.5]], stationary=[1.5, -0.5]),
             "negative marginal probability: min is -0.5"),
            (lambda: SymbolicSystem((0.5, 0.5), ((1.0,),)),
             "transition shape (1, 1) does not match alphabet size 2"),
            (lambda: SymbolicSystem((0.5, 0.5), ((1.0,), (0.5, 0.5))),
             "transition entries must be a rectangular table of numbers"),
            (lambda: SymbolicSystem(("a", "b")),
             "marginal probabilities must be a flat sequence of numbers"),
            # numpy reads these as numbers; the law refuses them
            (lambda: SymbolicSystem(("0.5", "0.5")),
             "marginal probabilities must be a flat sequence of numbers"),
            (lambda: SymbolicSystem((True, False)),
             "marginal probabilities must be a flat sequence of numbers"),
            (lambda: SymbolicSystem(np.array([0.0, 1.0]) == 1.0),
             "marginal probabilities must be a flat sequence of numbers"),
            (lambda: SymbolicSystem((0.5, 0.5), (("0.5", 0.5), (0.5, 0.5))),
             "transition entries must be a rectangular table of numbers"),
            (lambda: SymbolicSystem((1.0, 0.0), ((True, 0.0), (0.0, 1.0))),
             "transition entries must be a rectangular table of numbers"),
        ],
    )
    def test_rejection_messages(self, build, message):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_direct_construction_stores_float_tuples(self):
        law = SymbolicSystem(np.array([0.25, 0.75]), [np.array([0.25, 0.75]), [0.25, 0.75]])
        assert law == SymbolicSystem((0.25, 0.75), ((0.25, 0.75), (0.25, 0.75)))
        assert law == SymbolicSystem.markov([[0.25, 0.75], [0.25, 0.75]], [0.25, 0.75])
        assert law.marginal == (0.25, 0.75) and law.transition == ((0.25, 0.75),) * 2
        assert all(type(x) is float for x in (*law.marginal, *law.transition[0]))
        assert hash(law) == hash(SymbolicSystem((0.25, 0.75), ((0.25, 0.75),) * 2))
        assert markov_entropy_rate(law.marginal, law.transition) == pytest.approx(
            -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)), abs=1e-15
        )
        bernoulli = SymbolicSystem([1, np.float32(0.0)])
        assert bernoulli.marginal == (1.0, 0.0) and bernoulli.transition is None
        assert bernoulli == SymbolicSystem.bernoulli([1.0, 0.0])

    def test_markov_derives_stationary_distribution(self):
        m = SymbolicSystem.markov(Q_REFERENCE)
        assert m.marginal == pytest.approx((5 / 6, 1 / 6), abs=1e-12)

    def test_markov_rejects_non_stationary_pi(self):
        with pytest.raises(ValidationError):
            SymbolicSystem.markov(Q_REFERENCE, stationary=[0.5, 0.5])

    def test_reducible_chain_needs_an_explicit_stationary_vector(self):
        with pytest.raises(ValidationError) as excinfo:
            SymbolicSystem.markov([[1.0, 0.0], [0.0, 1.0]])
        assert str(excinfo.value) == (
            "eigenvalue 1 of the transition matrix is degenerate (multiplicity 2): "
            "the chain is reducible and has more than one stationary vector"
        )
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
        # one atom per symbol: the partition whose joins are the cylinders
        b = SymbolicSystem.bernoulli([0.5, 0.5])
        assert Partition.discrete(b.symbol_space).n_atoms == 2


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
        assert sorted(atom_probabilities(pulled)) == sorted(atom_probabilities(p))

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
        assert nth_join(s, p, 1) == p

    def test_four_cycle_two_steps_gives_singletons(self):
        s = cyclic_system(4)
        joined = nth_join(s, halves(s), 2)
        assert joined == Partition.discrete(s.space)

    def test_refinement_chain_for_permutations(self):
        rng = np.random.default_rng(2)
        space = make_space(list(range(8)), [0.125] * 8)
        system = PermutationSystem(space, tuple(int(x) for x in rng.permutation(8)))
        p = Partition(space, [[0, 1, 2], [3, 4], [5, 6, 7]])
        previous = nth_join(system, p, 1)
        for n in range(2, 6):
            current = nth_join(system, p, n)
            assert is_coarsening(previous, current)
            previous = current

    def test_fair_coin_cylinders(self):
        b = SymbolicSystem.bernoulli([0.5, 0.5])
        words = nth_words(b, None, 3)
        assert len(words) == 8
        assert np.allclose(words, 0.125, atol=0, rtol=0)
        assert shannon_bits(words) == 3.0

    def test_lumped_symbols_reduce_the_words(self):
        # merging a uniform 4-letter alphabet in halves must look like a coin
        b = SymbolicSystem.bernoulli([0.25] * 4)
        p = Partition(b.symbol_space, [[0, 1], [2, 3]])
        words = nth_words(b, p, 5)
        assert len(words) == 2**5
        assert shannon_bits(words) == pytest.approx(5.0, abs=1e-12)

    def test_word_cap(self):
        b = SymbolicSystem.bernoulli([0.5, 0.5])
        with pytest.raises(ResourceCapError, match="cap"):
            nth_words(b, None, 12, cap=2**10)
        # an explicit higher cap admits the same request
        assert len(nth_words(b, None, 12, cap=2**12)) == 4096


@st.composite
def permutations_with_idle_cycles(draw):
    """(system, partition): a random permutation whose cycles carry one
    positive weight each, weight 0, or a mix of 0 and 1e-13.

    The mixed cycles pass the 1e-12 weight-preservation check, so the
    orbit of a positive-weight point can meet a zero-weight point. The
    cycle through point 0 has positive weight.
    """
    n = draw(st.integers(2, 30))
    mapping = draw(st.permutations(range(n)))
    weights = np.zeros(n)
    seen = set()
    for start in range(n):
        cycle = []
        point = start
        while point not in seen:
            seen.add(point)
            cycle.append(point)
            point = mapping[point]
        kinds = ["positive"] if start == 0 else ["positive", "zero", "mixed"]
        kind = draw(st.sampled_from(kinds))
        if kind == "positive":
            weights[cycle] = draw(st.floats(0.1, 1.0))
        elif kind == "mixed":
            weights[cycle] = draw(st.lists(
                st.sampled_from([0.0, 1e-13]), min_size=len(cycle), max_size=len(cycle)
            ))
    big = weights > 1e-12
    weights[big] *= (1.0 - weights[~big].sum()) / weights[big].sum()
    space = make_space(range(n), weights)
    system = PermutationSystem(space, mapping)
    owners = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    atoms = [[i for i in range(n) if owners[i] == a] for a in range(4)]
    return system, Partition(space, [a for a in atoms if a])


def pullback_joins(system, partition, n_max):
    """The n-fold joins through ``pullback_partition`` and ``join``."""
    joined = pulled = partition
    yield joined
    for _ in range(1, n_max):
        pulled = pullback_partition(system, pulled)
        joined = join(joined, pulled)
        yield joined


class TestOrbitJoins:
    """The permutation joins of ``_joins`` against the pullback route."""

    @settings(max_examples=150, deadline=None)
    @given(permutations_with_idle_cycles(), st.integers(1, 12))
    def test_each_step_is_the_join_of_the_pullback(self, case, n_max):
        system, partition = case
        steps = list(_joins(system, partition, n_max, DEFAULT_WORD_CAP))
        reference = list(pullback_joins(system, partition, n_max))
        assert len(steps) == len(reference) == n_max
        for ours, theirs in zip(steps, reference):
            assert ours == theirs
            assert ours.n_atoms == theirs.n_atoms
            assert entropy(ours).hex() == entropy(theirs).hex()
            assert ours._masses.tobytes() == theirs._masses.tobytes()

    def test_an_orbit_through_a_zero_weight_point(self):
        # cycles 2 -> 3 -> 4 -> 2 and 5 -> 6 -> 7 -> 5 with weights 1e-13 and
        # 0 at 3 and 6. The pullback puts a point whose orbit has met a
        # zero-weight point in no atom of P from then on, so 2 and 5 stay
        # together although P tells 4 from 7.
        tiny = 1e-13
        space = make_space(range(8), [0.5, 0.5 - 4 * tiny] + [tiny, 0.0, tiny] * 2)
        system = PermutationSystem(space, (0, 1, 3, 4, 2, 6, 7, 5))
        partition = Partition(space, [[0, 2, 4, 5], [1, 7]])
        steps = list(_joins(system, partition, 4, DEFAULT_WORD_CAP))
        assert steps == list(pullback_joins(system, partition, 4))
        assert [s.n_atoms for s in steps] == [2, 4, 5, 5]
        assert steps[2].atom_index_array[2] == steps[2].atom_index_array[5]

    @settings(max_examples=80, deadline=None)
    @given(permutations_with_idle_cycles(), st.integers(1, 8))
    def test_joins_past_the_plateau(self, case, extra):
        # the join flow plateaus within as many steps as there are points;
        # past it, each join is still the join of the pullbacks
        system, partition = case
        n_max = system.space.size + extra
        steps = list(_joins(system, partition, n_max, DEFAULT_WORD_CAP))
        reference = list(pullback_joins(system, partition, n_max))
        assert len(steps) == len(reference) == n_max
        for ours, theirs in zip(steps, reference):
            assert ours == theirs
            assert ours.atom_index_array.tobytes() == theirs.atom_index_array.tobytes()
            assert ours._masses.tobytes() == theirs._masses.tobytes()
            assert entropy(ours).hex() == entropy(theirs).hex()

    @pytest.mark.parametrize("n_points", [9, 64])
    def test_cap_edge(self, n_points):
        system = cyclic_system(n_points)
        partition = Partition(system.space, [[0, 1, 2], range(3, n_points)])
        n_max = 8
        counts = [p.n_atoms for p in pullback_joins(system, partition, n_max)]
        cap = counts[-1]
        assert [p.n_atoms for p in _joins(system, partition, n_max, cap)] == counts
        first_over = next(n for n, c in enumerate(counts) if c > cap - 1)
        yielded = []
        with pytest.raises(ResourceCapError) as excinfo:
            for p in _joins(system, partition, n_max, cap - 1):
                yielded.append(p.n_atoms)
        assert yielded == counts[:first_over]
        assert str(excinfo.value) == (
            f"word enumeration needs {counts[first_over]} entries, over the cap "
            f"of {cap - 1}; raise the cap explicitly or lower n_max"
        )


class TestSortFreeJoins:
    """Which permutation join steps sort their points."""

    def record_sorts(self, monkeypatch):
        sizes = []
        stable_order = partitions._stable_order

        def recording_sort(codes, span):
            sizes.append(codes.size)
            return stable_order(codes, span)

        monkeypatch.setattr(partitions, "_stable_order", recording_sort)
        return sizes

    def test_equal_weight_steps_make_no_sort(self, monkeypatch):
        system = cyclic_system(512)
        partition = Partition(system.space, [range(0, 100), range(100, 300), range(300, 512)])
        sizes = self.record_sorts(monkeypatch)
        steps = list(_joins(system, partition, 12, DEFAULT_WORD_CAP))
        assert sizes == []
        assert [p.n_atoms for p in steps] == [3 * n for n in range(1, 13)]

    def test_unequal_weight_steps_sort_once_per_step(self, monkeypatch):
        # even points weigh twice what odd points do; i -> i + 2 keeps parity
        n = 512
        space = make_space(range(n), np.tile([2.0, 1.0], n // 2), normalize=True)
        system = PermutationSystem(space, (np.arange(n) + 2) % n)
        partition = Partition(space, [range(0, 100), range(100, 300), range(300, n)])
        sizes = self.record_sorts(monkeypatch)
        steps = list(_joins(system, partition, 12, DEFAULT_WORD_CAP))
        assert len(steps) == 12
        assert sizes.count(n) == 11
        assert max(p.n_atoms for p in steps) < n


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

    @pytest.mark.parametrize(
        "partition, message",
        [
            (None, "a permutation system needs an explicit partition"),
            (Partition.trivial(cyclic_system(5).space),
             "partition does not live on the system's space"),
        ],
    )
    def test_permutation_partition_is_checked(self, partition, message):
        with pytest.raises(ValidationError) as excinfo:
            info_rate_report(cyclic_system(4), partition, 3)
        assert str(excinfo.value) == message

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

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("-inf")])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValidationError) as excinfo:
            info_rate_report(SymbolicSystem.bernoulli([0.5, 0.5]), n_max=6, tol=tol)
        assert str(excinfo.value) == f"tol must be positive, got {tol!r}"


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
            stable = nth_join(system, p, n)
            assert nth_join(system, p, n + 3) == stable


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
    # math.fsum rounds each reduced word's mass once, so the reference is
    # as close as its products (an accumulating sum drifts by 1e-15 relative)
    order = np.argsort(reduced, kind="stable")
    starts = np.searchsorted(reduced[order], np.arange(count**n + 1))
    probability = probability[order]
    return np.array([math.fsum(probability[a:b]) for a, b in zip(starts, starts[1:])])


def _entropy_bits(probabilities):
    positive = probabilities[probabilities > 0.0]
    return float(-(positive * np.log2(positive)).sum())


@settings(max_examples=60, deadline=None)
@given(shifts_with_symbol_partitions())
def test_word_joins_match_brute_force(case):
    system, atoms, n = case
    partition = None if atoms is None else Partition(system.symbol_space, atoms)
    words = nth_words(system, partition, n)
    expected = _brute_force_reduced_words(system, atoms, n)
    assert words.shape == expected.shape
    assert np.abs(words - expected).max() <= 1e-12
    if n >= 2:
        report = info_rate_report(system, partition, n)
        brute = [_entropy_bits(_brute_force_reduced_words(system, atoms, k))
                 for k in range(1, n + 1)]
        assert np.abs(np.array(report.block_entropies) - brute).max() <= 1e-12


def test_lumped_bernoulli_is_the_shift_of_its_group_masses():
    system = SymbolicSystem.bernoulli([0.1, 0.2, 0.3, 0.4])
    halves = Partition(system.symbol_space, [[0, 2], [1, 3]])
    words = nth_words(system, halves, 10, cap=2**10)
    masses = SymbolicSystem.bernoulli([0.1 + 0.3, 0.2 + 0.4])
    assert np.array_equal(words, nth_words(masses, None, 10))
    h = [bits for bits, _ in _joins(system, halves, 10, 2**10)]
    assert h == [bits for bits, _ in _joins(masses, None, 10, 2**10)]
    # groups^n words are held, not a groups^n x m table
    with pytest.raises(ResourceCapError, match="needs 2048 entries"):
        nth_words(system, halves, 11, cap=2**10)


def _skip_cycle(m):
    """Q of m symbols that step 1 or 2 along a cycle: m - 2 zeros a row."""
    q = np.zeros((m, m))
    for a in range(m):
        q[a, (a + 1) % m] = 0.75
        q[a, (a + 2) % m] = 0.25
    return q.tolist()


#: A four-symbol chain for the lumped-Markov word tests.
Q_FOUR = [[0.5, 0.2, 0.2, 0.1], [0.1, 0.6, 0.1, 0.2],
          [0.25, 0.25, 0.25, 0.25], [0.3, 0.1, 0.4, 0.2]]


class TestWordEngine:
    """The word steps against the broadcast formula and the brute force."""

    @pytest.mark.parametrize("m", range(2, 17))
    @pytest.mark.parametrize("kind", ["bernoulli", "markov"])
    def test_generating_words_equal_the_broadcast_step(self, kind, m):
        # the last length is past 2^15 masses, so its leaves start at
        # words whose offsets are not multiples of m
        rng = np.random.default_rng(m)
        if kind == "bernoulli":
            system = SymbolicSystem.bernoulli(rng.dirichlet(np.ones(m)).tolist())
            step = np.array(system.marginal)
        else:
            system = SymbolicSystem.markov(rng.dirichlet(np.ones(m), size=m).tolist())
            step = np.array(system.transition)
        n_max = int(np.log(2**20) / np.log(m) + 1e-9)
        assert 2**15 < m**n_max <= 2**20
        joins = list(_joins(system, None, n_max, 2**20))
        assert len(joins) == n_max
        assert np.array_equal(joins[0][1], np.array(system.marginal))
        for (_, words), (bits, grown) in zip(joins, joins[1:]):
            broadcast = (words.reshape(-1, m, 1) * step).reshape(-1)
            if grown is None:
                # the last length is summed as it grows, never stored
                assert bits.hex() == shannon_bits(broadcast).hex()
            else:
                assert np.array_equal(grown, broadcast)
                assert bits.hex() == shannon_bits(grown).hex()

    @pytest.mark.parametrize(
        "q,atoms,n",
        [
            # three groups, of sizes 2, 1 and 2
            ([[0.4, 0.1, 0.2, 0.1, 0.2], [0.2, 0.3, 0.1, 0.3, 0.1],
              [0.1, 0.2, 0.4, 0.2, 0.1], [0.3, 0.1, 0.1, 0.2, 0.3],
              [0.2, 0.2, 0.2, 0.2, 0.2]],
             [[0, 3], [1], [2, 4]], 5),
            # unequal groups, not in symbol order
            (Q_FOUR, [[0, 1, 3], [2]], 7),
            (Q_FOUR, [[1], [0, 2, 3]], 7),
            # symbol 3 is transient, of stationary weight zero
            ([[0.7, 0.2, 0.1, 0.0], [0.3, 0.3, 0.4, 0.0],
              [0.1, 0.6, 0.3, 0.0], [0.25, 0.25, 0.25, 0.25]],
             [[0, 2], [1]], 7),
        ],
    )
    def test_lumped_markov_words_match_brute_force(self, q, atoms, n):
        system = SymbolicSystem.markov(q)
        partition = Partition(system.symbol_space, atoms)
        levels = word_levels(system, partition, n, 2**20)
        for k, words in enumerate(levels, start=1):
            expected = _brute_force_reduced_words(system, atoms, k)
            assert words.shape == expected.shape
            np.testing.assert_allclose(words, expected, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_lumped_markov_cap_counts_groups_to_the_n_times_m(self, n):
        # the table holds groups^(n-1) x m entries, the cap counts groups^n x m
        system = SymbolicSystem.markov(
            [[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.6, 0.3]])
        partition = Partition(system.symbol_space, [[0, 2], [1]])
        needed = 2**n * 3
        words = nth_words(system, partition, n, cap=needed)
        assert len(words) == 2**n
        message = (f"word enumeration needs {needed} entries, over the cap of "
                   f"{needed - 1}; raise the cap explicitly or lower n_max")
        with pytest.raises(ResourceCapError) as caught:
            nth_words(system, partition, n, cap=needed - 1)
        assert str(caught.value) == message


@st.composite
def shifts_for_the_summed_lengths(draw):
    """A shift with 2 to 7 symbols, a partition of its alphabet, and n.

    Entries are drawn from [0.05, 1], 0 or 1e-200 before they are
    normalized, so words may have zero mass or underflow to 0 from length
    2 on. A Markov matrix keeps the cycle 0 -> 1 -> ... -> 0 positive, so
    that it has one stationary vector, or has a transient last symbol of
    stationary weight zero. The partition is the generating one, all
    singletons in a drawn order, or two drawn groups of the symbols of
    positive weight. n reaches lengths of up to 2^17 masses, many leaves
    of 2^15, and odd alphabets give lengths that are not multiples of 8.
    """
    m = draw(st.integers(2, 7))
    entry = st.one_of(st.floats(0.05, 1.0), st.sampled_from([0.0, 1e-200]))

    def distribution(size, positive):
        raw = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
        raw[positive] = max(raw[positive], 0.05)
        return raw / raw.sum()

    kind = draw(st.sampled_from(["bernoulli", "markov", "transient"]))
    if kind == "bernoulli":
        system = SymbolicSystem.bernoulli(
            distribution(m, draw(st.integers(0, m - 1))).tolist())
    elif kind == "markov":
        system = SymbolicSystem.markov(
            [distribution(m, (a + 1) % m).tolist() for a in range(m)])
    else:
        closed = [distribution(m - 1, (a + 1) % (m - 1)).tolist() for a in range(m - 1)]
        pi = SymbolicSystem.markov(closed).marginal if m > 2 else (1.0,)
        q = [row + [0.0] for row in closed] + [distribution(m, 0).tolist()]
        system = SymbolicSystem((*pi, 0.0), tuple(map(tuple, q)))
    symbols = [s for s in range(m) if system.marginal[s] > 0.0]
    shape = draw(st.sampled_from(["generating", "singletons", "two groups"]))
    if shape == "generating":
        partition = None
    elif shape == "two groups" and len(symbols) > 1:
        first = draw(
            st.sets(st.sampled_from(symbols), min_size=1, max_size=len(symbols) - 1)
        )
        atoms = [sorted(first), sorted(set(symbols) - first)]
        partition = Partition(system.symbol_space, atoms)
    else:
        atoms = [[s] for s in draw(st.permutations(symbols))]
        partition = Partition(system.symbol_space, atoms)
    base = m if partition is None else partition.n_atoms
    longest = max(1, int(math.log(2**17) / math.log(base))) if base > 1 else 17
    # drawn down from the longest, which hypothesis favours
    return system, partition, longest - draw(st.integers(0, longest - 1))


class TestSummedLengths:
    """Each H_n is summed as its length grows and has the bytes of the whole."""

    @settings(max_examples=80, deadline=None)
    @given(shifts_for_the_summed_lengths())
    def test_entropies_have_the_bytes_of_the_whole_lengths(self, case):
        system, partition, n = case
        word_levels(system, partition, n, 2**20)

    @pytest.mark.parametrize(
        "spec,atoms,n",
        [
            # every word with the first symbol underflows from length 2 on
            ("bernoulli:1e-200,1", None, 20),
            ("bernoulli:1,1e-200", None, 20),
            # 3^11 and 7^6 masses, not multiples of 8 or of 2^15
            ("bernoulli:0.2,0.3,0.5", None, 11),
            ("bernoulli:0.1,0.1,0.1,0.1,0.2,0.2,0.2", None, 6),
            # a zero probability, lumped: the shift of 2 group masses
            ("bernoulli:0.25,0.25,0,0.5", [[0, 3], [1]], 17),
            ("markov:[[0.2,0.2,0.2,0.2,0.2],[0.1,0.3,0.2,0.2,0.2],"
             "[0.5,0.1,0.1,0.1,0.2],[0.3,0.3,0.2,0.1,0.1],[0.2,0.4,0.2,0.1,0.1]]",
             None, 7),
            # zero transitions
            ("markov:[[0.5,0.5,0,0,0,0],[0,0.5,0.5,0,0,0],[0,0,0.5,0.5,0,0],"
             "[0,0,0,0.5,0.5,0],[0,0,0,0,0.5,0.5],[0.5,0,0,0,0,0.5]]", None, 6),
            ("markov:[[1e-200,1],[0.5,0.5]]", None, 19),
            # zero transitions, each stored length grown whole: by 8 and
            # 11 symbols, and by 3, whose stored 3^11 masses grow from
            # pieces of Q's rows that start at words 1 and 2 mod 3
            ("markov:" + str(_skip_cycle(8)), None, 6),
            ("markov:" + str(_skip_cycle(11)), None, 5),
            ("markov:" + str(_skip_cycle(3)), None, 12),
            # a transient symbol, lumped: 2^17 group words from 2^16 x 3 rows
            ("markov:[[0.7,0.3,0.0],[0.4,0.6,0.0],[0.2,0.3,0.5]]",
             [[0], [1]], 17),
            ("markov:[[0.5,0.2,0.3],[0.1,0.6,0.3],[0.3,0.3,0.4]]",
             [[0, 2], [1]], 17),
            # three groups, 3^10 group words
            ("markov:[[0.4,0.1,0.2,0.1,0.2],[0.2,0.3,0.1,0.3,0.1],"
             "[0.1,0.2,0.4,0.2,0.1],[0.3,0.1,0.1,0.2,0.3],[0.2,0.2,0.2,0.2,0.2]]",
             [[0, 3], [1], [2, 4]], 10),
        ],
    )
    def test_odd_sizes_zeros_and_underflow(self, spec, atoms, n):
        system = parse_system_spec(spec)
        partition = None if atoms is None else Partition(system.symbol_space, atoms)
        word_levels(system, partition, n, 2**20)

    @pytest.mark.parametrize(
        "spec,n",
        [
            ("bernoulli:0.3,0.7", 20),
            ("markov:" + str(Q_FOUR), 10),
            # zero transitions: the positive masses are gathered in a
            # buffer sized from those of the length before
            ("markov:[[0,1],[0.5,0.5]]", 20),
        ],
    )
    def test_a_cap_sized_report_holds_less_than_one_length(self, spec, n):
        # the last length, 2^20 masses (8 MiB), is summed as it grows; the
        # length before it and the one before that are held while the first
        # of them grows, and a Markov step's rows of Q stay one leaf deep
        system = parse_system_spec(spec)
        tracemalloc.start()
        try:
            info_rate_report(system, None, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "spec,atoms,n,needed",
        [
            ("bernoulli:0.3,0.7", None, 10, 2**10),
            ("markov:[[0.9,0.1],[0.5,0.5]]", None, 10, 2**10),
            ("bernoulli:0.2,0.3,0.5", [[0, 2], [1]], 10, 2**10),
            ("markov:[[0.5,0.3,0.2],[0.2,0.2,0.6],[0.1,0.6,0.3]]",
             [[0, 2], [1]], 9, 2**9 * 3),
        ],
    )
    def test_the_unstored_last_length_counts_against_the_cap(
        self, spec, atoms, n, needed
    ):
        system = parse_system_spec(spec)
        partition = None if atoms is None else Partition(system.symbol_space, atoms)
        assert info_rate_report(system, partition, n, cap=needed).n_max == n
        with pytest.raises(ResourceCapError) as caught:
            info_rate_report(system, partition, n, cap=needed - 1)
        assert str(caught.value) == (
            f"word enumeration needs {needed} entries, over the cap of "
            f"{needed - 1}; raise the cap explicitly or lower n_max"
        )


TWO_CPUS = pytest.mark.skipif(
    partitions._usable_cpus() < 2, reason="a second thread needs 2 CPUs"
)


class TestTwoThreadSums:
    """The halves of a long sum on two threads, with the bytes of one thread."""

    @staticmethod
    def recorded_leaves(values, seen):
        """Leaves that sum ``values`` and record each leaf's range and thread."""

        def leaves(start, stop):
            def leaf(a, b):
                seen.append((a, b, threading.get_ident()))
                return values[a:b].sum()

            return leaf

        return leaves

    @TWO_CPUS
    def test_the_first_half_runs_off_the_calling_thread(self):
        values = np.random.default_rng(3).uniform(0.0, 1.0, 2 * _TERM_BLOCK + 9)
        seen = []
        total = _pairwise_sum(values.size, self.recorded_leaves(values, seen))
        assert total.hex() == values.sum().hex()
        half = values.size // 2 - (values.size // 2) % 8
        main = threading.get_ident()
        assert [(a, b) for a, b, _ in seen if a < half] == [(0, half)]
        assert all(thread != main for a, _, thread in seen if a < half)
        assert all(thread == main for a, _, thread in seen if a >= half)

    @TWO_CPUS
    def test_a_word_length_over_one_leaf_grows_on_two_threads(self, monkeypatch):
        threads = []
        grow_words = dynamics._grow_words

        def spy(words, step, out):
            threads.append((out.size, threading.get_ident()))
            grow_words(words, step, out)

        monkeypatch.setattr(dynamics, "_grow_words", spy)
        list(_joins(parse_system_spec("bernoulli:0.3,0.7"), None, 17, 2**20))
        main = threading.get_ident()
        assert {thread for size, thread in threads if size <= 2**14} == {main}
        assert len({thread for _, thread in threads}) == 2

    def test_a_failing_half_raises_in_the_caller(self):
        def leaves(start, stop):
            def leaf(a, b):
                if a == 0:
                    raise ValueError("leaf 0")
                return np.float64(b - a)

            return leaf

        with pytest.raises(ValueError, match="leaf 0"):
            _pairwise_sum(2 * _TERM_BLOCK, leaves)

    def test_callers_on_many_threads_keep_their_bytes(self):
        # four callers split their sums at once under a short switch
        # interval
        specs = [("bernoulli:0.3,0.7", 17), ("markov:" + str(Q_FOUR), 9),
                 ("markov:[[0.2,0.5,0.3],[0.3,0.3,0.4],[0.5,0.25,0.25]]", 11),
                 ("bernoulli:0.1,0.2,0.3,0.4", 9)]
        systems = [(parse_system_spec(spec), n) for spec, n in specs]
        expected = [info_rate_report(s, None, n).block_entropies for s, n in systems]
        got = [[] for _ in systems]

        def run(k):
            system, n = systems[k]
            for _ in range(5):
                got[k].append(info_rate_report(system, None, n).block_entropies)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(k,)) for k in range(len(systems))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(caller.is_alive() for caller in callers)
        for reports, h in zip(got, expected):
            assert [[x.hex() for x in r] for r in reports] == [[x.hex() for x in h]] * 5

    @pytest.mark.parametrize("case", ["no thread", "one CPU"])
    def test_without_a_second_thread_the_bytes_are_the_same(self, monkeypatch, case):
        spec, n = "markov:" + str(Q_FOUR), 10
        expected = [h.hex() for h in
                    info_rate_report(parse_system_spec(spec), None, n).block_entropies]
        started = []

        def start(thread):
            started.append(thread)
            if case == "no thread":
                raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        if case == "one CPU":
            monkeypatch.setattr(partitions, "_usable_cpus", lambda: 1)
        got = info_rate_report(parse_system_spec(spec), None, n).block_entropies
        assert [h.hex() for h in got] == expected
        # the lengths of 4^8, 4^9 and 4^10 masses split where two CPUs
        # would be used
        assert len(started) == (3 if case == "no thread" else 0)

    @pytest.mark.parametrize(
        "spec,n",
        [
            ("markov:[[0,1],[0.5,0.5]]", 18),
            ("bernoulli:1e-200,1", 20),
            # the word of seventeen 0s underflows to a zero mass in the
            # first half of a length of 2^17 masses
            ("bernoulli:1e-20,1", 17),
            ("markov:[[1e-20,1],[0.5,0.5]]", 19),
        ],
    )
    def test_zero_masses_warn_on_neither_thread(self, spec, n):
        # the suite turns a RuntimeWarning into an error on any thread, and
        # what the first half raises is raised in the caller
        word_levels(parse_system_spec(spec), None, n, 2**20)

    def test_a_split_mid_unit_stores_the_shared_unit_once(self, monkeypatch):
        # 3^12 masses split after 265720, inside the word that grows
        # masses 265719..265721: the first half stores it, the second grows
        # it into its own buffer; a lumped table of 3 groups splits its
        # 3^11 x 9 masses mid-row too
        cases = [
            ("markov:[[0.2,0.5,0.3],[0.3,0.3,0.4],[0.5,0.25,0.25]]", None, 13),
            ("markov:[[0.4,0.1,0.2,0.1,0.2],[0.2,0.3,0.1,0.3,0.1],"
             "[0.1,0.2,0.4,0.2,0.1],[0.3,0.1,0.1,0.2,0.3],[0.2,0.2,0.2,0.2,0.2]]",
             [[0, 3], [1], [2, 4]], 12),
        ]
        for spec, atoms, n in cases:
            system = parse_system_spec(spec)
            partition = None if atoms is None else Partition(system.symbol_space, atoms)
            word_levels(system, partition, n, 2**22)


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
