import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    AtomDistribution,
    FiniteProbabilitySpace,
    Partition,
    PermutationSystem,
    SpaceMismatchError,
    ValidationError,
    atom_probabilities,
    entropy,
    is_coarsening,
    join,
    make_space,
    pseudo_distance,
    pullback_partition,
    shannon_bits,
)

TOL = 1e-12

# high-precision oracle: -0.25*log2(0.25) - 0.75*log2(0.75), frozen
H_QUARTER = 0.8112781244591328


def uniform_space(n):
    return make_space(list(range(n)), [1.0 / n] * n)


def random_partition(space, rng, max_atoms=None):
    n = len(space.point_ids)
    k = rng.integers(1, (max_atoms or n) + 1)
    owners = rng.integers(0, k, size=n)
    groups = {}
    for i, g in enumerate(owners):
        groups.setdefault(int(g), []).append(i)
    return Partition(space, list(groups.values()))


def merge_atoms(partition, rng):
    """A coarsening of ``partition`` made by merging random atom groups."""
    k = partition.n_atoms
    targets = rng.integers(0, max(1, k - 1), size=k)
    merged = {}
    for atom, t in zip(partition.atoms, targets):
        merged.setdefault(int(t), set()).update(atom)
    return Partition(partition.space, [sorted(a) for a in merged.values()])


class TestMakeSpace:
    def test_two_point_uniform(self):
        s = make_space(["a", "b"], [0.5, 0.5])
        assert s.point_ids == ("a", "b")
        assert math.isclose(sum(s.weights), 1.0, abs_tol=TOL)

    def test_one_point(self):
        s = make_space(["a"], [1.0])
        assert len(s.point_ids) == 1

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError, match="unnormalized"):
            make_space(["a", "b"], [0.3, 0.3])

    def test_normalize_flag_rescales(self):
        s = make_space(["a", "b"], [0.3, 0.3], normalize=True)
        assert s.weights == (0.5, 0.5)

    def test_negative_weight(self):
        with pytest.raises(ValidationError):
            make_space(["a", "b"], [1.2, -0.2])

    def test_duplicate_id(self):
        with pytest.raises(ValidationError):
            make_space(["a", "a"], [0.5, 0.5])

    def test_zero_total_mass(self):
        with pytest.raises(ValidationError):
            make_space(["a", "b"], [0.0, 0.0], normalize=True)

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            make_space(["a", "b", "c"], [0.5, 0.5])

    def test_array_weights_are_copied_and_read_only(self):
        raw = np.array([0.25, 0.75])
        s = make_space(("a", "b"), raw)
        raw[0] = 0.5
        assert s.weights == (0.25, 0.75)
        assert s.weight_array.tolist() == [0.25, 0.75]
        assert not s.weight_array.flags.writeable
        assert make_space(iter("ab"), iter([0.25, 0.75])) == s

    @pytest.mark.parametrize(
        "ids, weights, message",
        [
            ((), (), "at least one point"),
            (("a", "b"), (1.0,), "2 point ids but 1 weights"),
            (("a", "a"), (0.5, 0.5), "duplicate point ids"),
            (("a", "b"), (0.5, float("nan")), "weights must be finite"),
            (("a", "b"), (1.5, -0.5), "negative weight: min is"),
            (("a", "b"), (0.5, 0.6), "pass normalize=True to make_space"),
        ],
    )
    def test_space_constructor_checks(self, ids, weights, message):
        with pytest.raises(ValidationError, match=message):
            FiniteProbabilitySpace(ids, weights)

    def test_equal_spaces_hash_alike(self):
        a = make_space("ab", [0.25, 0.75])
        assert a == make_space(("a", "b"), np.array([0.25, 0.75]))
        assert hash(a) == hash(make_space("ab", [0.25, 0.75]))
        assert a != make_space("ba", [0.25, 0.75])
        assert a != make_space("ab", [0.75, 0.25])
        assert make_space("ab", [1.0, -0.0]) == make_space("ab", [1.0, 0.0])
        assert hash(make_space("ab", [1.0, -0.0])) == hash(make_space("ab", [1.0, 0.0]))


class TestAtomProbabilities:
    def test_uniform_halves(self):
        s = uniform_space(4)
        p = Partition(s, [[0, 1], [2, 3]])
        assert atom_probabilities(p).probabilities == (0.5, 0.5)

    def test_one_atom(self):
        s = uniform_space(4)
        p = Partition.trivial(s)
        assert atom_probabilities(p).probabilities == (1.0,)

    def test_weighted_pairs(self):
        s = make_space("abcd", [0.1, 0.2, 0.3, 0.4])
        p = Partition(s, [[0, 3], [1, 2]])
        probs = atom_probabilities(p).probabilities
        assert probs == pytest.approx((0.5, 0.5), abs=TOL)

    def test_distribution_validates(self):
        with pytest.raises(ValidationError):
            AtomDistribution((0.5, 0.6))
        with pytest.raises(ValidationError):
            AtomDistribution((-0.1, 1.1))


class TestEntropy:
    def test_fair_coin(self):
        s = uniform_space(4)
        assert entropy(Partition(s, [[0, 1], [2, 3]])) == 1.0

    def test_sure_event(self):
        s = uniform_space(3)
        assert entropy(Partition.trivial(s)) == 0.0

    def test_quarter_three_quarter(self):
        s = make_space("abcd", [0.25, 0.25, 0.25, 0.25])
        p = Partition(s, [[0], [1, 2, 3]])
        assert entropy(p) == pytest.approx(H_QUARTER, abs=TOL)

    def test_zero_probability_atom_contributes_nothing(self):
        # a zero-weight point is stripped in canonical form; entropy of
        # the remaining mass must be unaffected
        s = make_space("abc", [0.5, 0.5, 0.0])
        p = Partition(s, [[0], [1], [2]])
        assert entropy(p) == 1.0

    def test_shannon_bits_empty_mass(self):
        assert shannon_bits([1.0, 0.0, 0.0]) == 0.0
        assert shannon_bits([0.5, 0.5]) == 1.0


class TestCanonicalForm:
    def test_atom_order_is_canonical(self):
        s = uniform_space(4)
        assert Partition(s, [[2, 3], [0, 1]]) == Partition(s, [[0, 1], [2, 3]])

    def test_zero_weight_points_dropped(self):
        s = make_space("abc", [0.5, 0.5, 0.0])
        assert Partition(s, [[0], [1, 2]]) == Partition(s, [[0, 2], [1]])

    def test_overlapping_atoms_rejected(self):
        s = uniform_space(3)
        with pytest.raises(ValidationError):
            Partition(s, [[0, 1], [1, 2]])

    def test_positive_weight_must_be_covered(self):
        s = uniform_space(3)
        with pytest.raises(ValidationError):
            Partition(s, [[0, 1]])

    def test_out_of_range_index(self):
        s = uniform_space(3)
        with pytest.raises(ValidationError):
            Partition(s, [[0, 1], [2, 7]])

    def test_discrete_and_from_point_ids(self):
        s = make_space("ab", [0.5, 0.5])
        assert Partition.discrete(s).n_atoms == 2
        assert Partition.from_point_ids(s, [["a"], ["b"]]) == Partition.discrete(s)


class TestCoarsening:
    def test_trivial_is_coarsest(self):
        s = uniform_space(4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_partition(s, rng)
            assert is_coarsening(Partition.trivial(s), p)

    def test_reflexive(self):
        s = uniform_space(4)
        p = Partition(s, [[0, 1], [2, 3]])
        assert is_coarsening(p, p)

    def test_crossing_pair_is_incomparable(self):
        s = uniform_space(4)
        p1 = Partition(s, [[0, 1], [2, 3]])
        p2 = Partition(s, [[0, 2], [1, 3]])
        assert not is_coarsening(p1, p2)
        assert not is_coarsening(p2, p1)

    def test_transitive(self):
        s = uniform_space(8)
        fine = Partition.discrete(s)
        mid = Partition(s, [[0, 1], [2, 3], [4, 5], [6, 7]])
        coarse = Partition(s, [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert is_coarsening(coarse, mid)
        assert is_coarsening(mid, fine)
        assert is_coarsening(coarse, fine)

    def test_space_mismatch(self):
        a = uniform_space(4)
        b = make_space("wxyz", [0.25] * 4)
        with pytest.raises(SpaceMismatchError):
            is_coarsening(Partition.trivial(a), Partition.trivial(b))


class TestJoin:
    def test_trivial_is_identity(self):
        s = uniform_space(4)
        a = Partition(s, [[0, 1], [2, 3]])
        assert join(a, Partition.trivial(s)) == a

    def test_idempotent(self):
        s = uniform_space(4)
        a = Partition(s, [[0, 1], [2, 3]])
        assert join(a, a) == a

    def test_crossing_pair_gives_singletons(self):
        s = uniform_space(4)
        a = Partition(s, [[0, 1], [2, 3]])
        b = Partition(s, [[0, 2], [1, 3]])
        assert join(a, b) == Partition.discrete(s)

    def test_commutative_and_refines_both(self):
        rng = np.random.default_rng(7)
        s = uniform_space(12)
        for _ in range(25):
            a = random_partition(s, rng)
            b = random_partition(s, rng)
            j = join(a, b)
            assert j == join(b, a)
            assert is_coarsening(a, j) and is_coarsening(b, j)

    def test_coarsest_common_refinement(self):
        # any common refinement C of A and B must refine A v B as well
        rng = np.random.default_rng(11)
        s = uniform_space(10)
        for _ in range(25):
            a = random_partition(s, rng)
            b = random_partition(s, rng)
            j = join(a, b)
            c = join(j, random_partition(s, rng))
            assert is_coarsening(a, c) and is_coarsening(b, c)
            assert is_coarsening(j, c)

    def test_space_mismatch(self):
        a = uniform_space(4)
        b = make_space("wxyz", [0.25] * 4)
        with pytest.raises(SpaceMismatchError):
            join(Partition.trivial(a), Partition.trivial(b))


class TestPseudoDistance:
    def test_self_distance_zero(self):
        s = uniform_space(4)
        p = Partition(s, [[0, 1], [2, 3]])
        assert pseudo_distance(p, p) == 0.0

    def test_zero_distance_for_distinct_partitions(self):
        # the non-metricity witness: equal entropies, different atoms
        s = uniform_space(4)
        p1 = Partition(s, [[0, 1], [2, 3]])
        p2 = Partition(s, [[0, 2], [1, 3]])
        assert p1 != p2
        assert pseudo_distance(p1, p2) == 0.0

    def test_trivial_vs_fair_binary(self):
        s = uniform_space(4)
        d = pseudo_distance(Partition.trivial(s), Partition(s, [[0, 1], [2, 3]]))
        assert d == 1.0

    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(3)
        s = uniform_space(16)
        for _ in range(50):
            p, q, r = (random_partition(s, rng) for _ in range(3))
            assert pseudo_distance(p, q) >= 0.0
            assert pseudo_distance(p, q) == pseudo_distance(q, p)
            assert pseudo_distance(p, r) <= (
                pseudo_distance(p, q) + pseudo_distance(q, r) + TOL
            )


@st.composite
def space_and_partition(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    space = make_space(list(range(n)), raw, normalize=True)
    owners = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups = {}
    for i, g in enumerate(owners):
        groups.setdefault(g, []).append(i)
    return space, Partition(space, list(groups.values()))


@settings(max_examples=150, deadline=None)
@given(space_and_partition())
def test_entropy_bounds(sp):
    space, p = sp
    h = entropy(p)
    assert -TOL <= h <= math.log2(p.n_atoms) + TOL


@settings(max_examples=150, deadline=None)
@given(space_and_partition(), st.integers(0, 2**32 - 1))
def test_refinement_monotonicity(sp, seed):
    space, fine = sp
    coarse = merge_atoms(fine, np.random.default_rng(seed))
    assert is_coarsening(coarse, fine)
    assert entropy(coarse) <= entropy(fine) + TOL


def test_equiprobable_attains_log_bound():
    s = uniform_space(8)
    p = Partition(s, [[0, 1], [2, 3], [4, 5], [6, 7]])
    assert entropy(p) == pytest.approx(math.log2(p.n_atoms), abs=TOL)
    lopsided = Partition(s, [[0], [1, 2, 3], [4, 5], [6, 7]])
    assert entropy(lopsided) < math.log2(lopsided.n_atoms) - 1e-3


# ---------------------------------------------------------------------------
# label arrays against a frozenset reference
#
# Partitions are stored as one label per point. The reference below works
# on plain sets of point indices, the textbook definitions, and never
# touches the labels.


def reference_atoms(space, groups):
    """Canonical atoms by the definition: drop zero-weight points, drop
    emptied atoms, order by smallest point."""
    w = space.weights
    trimmed = [frozenset(i for i in g if w[i] > 0.0) for g in groups]
    return sorted((a for a in trimmed if a), key=min)


@st.composite
def space_with_zeros(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    raw = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
            min_size=n,
            max_size=n,
        )
    )
    if not any(raw):
        raw[draw(st.integers(0, n - 1))] = 1.0
    return make_space(list(range(n)), raw, normalize=True)


def draw_groups(draw, n):
    owners = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups = {}
    for i, g in enumerate(owners):
        groups.setdefault(g, []).append(i)
    return list(groups.values())


@st.composite
def space_and_two_partitions(draw):
    space = draw(space_with_zeros())
    ga = draw_groups(draw, space.size)
    gb = draw_groups(draw, space.size)
    return space, ga, gb


@settings(max_examples=100, deadline=None)
@given(space_and_two_partitions())
def test_label_operations_match_frozenset_reference(case):
    space, ga, gb = case
    a, b = Partition(space, ga), Partition(space, gb)
    ref_a, ref_b = reference_atoms(space, ga), reference_atoms(space, gb)
    assert list(a.atoms) == ref_a
    assert a.n_atoms == len(ref_a)

    w = space.weights
    masses = [math.fsum(w[i] for i in atom) for atom in ref_a]
    assert atom_probabilities(a).probabilities == pytest.approx(masses, abs=TOL)
    h = -math.fsum(m * math.log2(m) for m in masses if m > 0.0)
    assert entropy(a) == pytest.approx(h, abs=TOL)

    cells = [x & y for x in ref_a for y in ref_b]
    assert list(join(a, b).atoms) == sorted((c for c in cells if c), key=min)

    def coarsens(coarse, fine):
        return all(any(f <= c for c in coarse) for f in fine)

    assert is_coarsening(a, b) == coarsens(ref_a, ref_b)
    assert is_coarsening(b, a) == coarsens(ref_b, ref_a)
    assert is_coarsening(a, join(a, b))


@settings(max_examples=100, deadline=None)
@given(space_with_zeros(), st.data())
def test_pullback_matches_preimages(space, data):
    # a weight-preserving permutation: shuffle points within equal weights
    w = space.weights
    mapping = list(range(space.size))
    for value in set(w):
        members = [i for i in range(space.size) if w[i] == value]
        images = data.draw(st.permutations(members))
        for i, image in zip(members, images):
            mapping[i] = image
    system = PermutationSystem(space, tuple(mapping))
    groups = draw_groups(data.draw, space.size)
    ref = reference_atoms(space, groups)
    preimages = [frozenset(i for i in range(space.size) if mapping[i] in atom)
                 for atom in ref]
    pulled = pullback_partition(system, Partition(space, groups))
    assert list(pulled.atoms) == reference_atoms(space, preimages)


@settings(max_examples=100, deadline=None)
@given(space_with_zeros(), st.data())
def test_public_and_label_constructors_agree(space, data):
    keys = data.draw(
        st.lists(st.integers(-3, 40), min_size=space.size, max_size=space.size)
    )
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    public = Partition(space, list(groups.values()))
    internal = Partition._from_labels(space, np.asarray(keys))
    assert public == internal
    assert hash(public) == hash(internal)
    assert not public.atom_index_array.flags.writeable
    zero = np.asarray(space.weights) == 0.0
    assert np.all(public.atom_index_array[zero] == -1)


def test_wide_keys_take_the_sorting_route():
    # keys spread far wider than the point count, canonicalised by sorting
    s = uniform_space(6)
    keys = np.array([10**12, 5, 10**12, -(10**12), 5, 7])
    p = Partition._from_labels(s, keys)
    assert p.atom_index_array.tolist() == [0, 1, 0, 2, 1, 3]
    assert p == Partition(s, [[0, 2], [1, 4], [3], [5]])


def test_validation_messages_name_the_offending_point():
    s = make_space("abcd", [0.25, 0.25, 0.5, 0.0])
    with pytest.raises(ValidationError, match="point index 7 outside space of size 4"):
        Partition(s, [[0, 1], [2, 7]])
    with pytest.raises(ValidationError, match="outside space of size 4"):
        Partition(s, [[0, 1, 2, 10**30]])
    with pytest.raises(ValidationError, match="point index 1 appears in two atoms"):
        Partition(s, [[0, 1], [1, 2]])
    with pytest.raises(ValidationError, match=r"not covered by any atom: \[2\]"):
        Partition(s, [[0, 1]])
    with pytest.raises(ValidationError, match="empty atom"):
        Partition(s, [[0, 1, 2], []])
    with pytest.raises(ValidationError, match="at least one atom"):
        Partition(s, [])
    # repeats inside one atom and an uncovered zero-weight point are fine
    assert Partition(s, [[0, 0, 1], [2]]).n_atoms == 2


@pytest.mark.parametrize(
    "atoms, message",
    [
        ([[0, 1], [2, "x"]], "point index 'x' is not an integer"),
        ([[0, 1], [2, 3.5]], "point index 3.5 is not an integer"),
        ([[0, 1], [2, 3.0]], "point index 3.0 is not an integer"),
        ([["0", 1], [2, 3]], "point index '0' is not an integer"),
        ([[0, True], [2, 3]], "point index True is not an integer"),
        ([[0, np.True_], [2, 3]], "point index np.True_ is not an integer"),
        ([[0], [1, None], [2, 3]], "point index None is not an integer"),
        ([[0, 1], 2], "atom 2 is not a list of point indices"),
        (5, "atoms must be a sequence of index lists, got 5"),
    ],
)
def test_point_indices_must_be_integers(atoms, message):
    with pytest.raises(ValidationError) as excinfo:
        Partition(uniform_space(4), atoms)
    assert str(excinfo.value) == message


def test_integer_likes_are_point_indices():
    s = uniform_space(4)
    expected = Partition(s, [[0, 1], [2, 3]])
    assert Partition(s, [np.array([0, 1]), range(2, 4)]) == expected
    assert Partition(s, ((np.int32(0), 1), iter([np.uint8(2), 3]))) == expected


NOT_FLAT = "weights must be a flat sequence of numbers"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_space("ab", [1.5, -0.5]), "negative weight: min is -0.5"),
        (lambda: FiniteProbabilitySpace("ab", [1.5, -0.5]),
         "negative weight: min is -0.5"),
        (lambda: FiniteProbabilitySpace("ab", np.array([1.25, -0.25], dtype=np.float32)),
         "negative weight: min is -0.25"),
        (lambda: AtomDistribution((1.25, -0.25)),
         "negative atom probability: min is -0.25"),
        (lambda: make_space([[1], [2]], [0.5, 0.5]), "point id [1] is not hashable"),
        (lambda: FiniteProbabilitySpace(["a", {}], [0.5, 0.5]),
         "point id {} is not hashable"),
        (lambda: make_space("ab", [0.5, "x"]), NOT_FLAT),
        (lambda: make_space("ab", [[0.5], [0.5]]), NOT_FLAT),
        (lambda: FiniteProbabilitySpace("ab", 1.0), NOT_FLAT),
    ],
)
def test_space_messages_print_plain_values(build, message):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_unhashable_point_id_is_unknown():
    s = make_space("ab", [0.5, 0.5])
    with pytest.raises(ValidationError, match=r"unknown point id \['a'\]"):
        Partition.from_point_ids(s, [[["a"]], ["b"]])


def test_point_ids_match_by_python_equality():
    # a dict lookup: True == 1 and 2.0 == 2, and ints find numpy.int64 ids
    s = make_space([1, 2], [0.25, 0.75])
    assert (s.index_of(True), s.index_of(2.0)) == (0, 1)
    assert Partition.from_point_ids(s, [[True], [2.0]]) == Partition.discrete(s)
    wide = make_space(np.arange(4), [0.25] * 4)
    assert type(wide.point_ids[3]) is np.int64
    assert wide.index_of(3) == 3
    with pytest.raises(ValidationError, match="unknown point id '1'"):
        s.index_of("1")


@pytest.mark.parametrize("n_atoms", [255, 256, 300, 65535, 65536, 70000])
def test_atom_masses_for_many_atoms(n_atoms):
    # label widths around the 8- and 16-bit boundaries of the grouping sort
    rng = np.random.default_rng(n_atoms)
    size = 70_001
    keys = np.concatenate([np.arange(n_atoms), rng.integers(0, n_atoms, size - n_atoms)])
    raw = rng.uniform(0.0, 1.0, size)
    raw[rng.integers(n_atoms, size, 50)] = 0.0  # every atom keeps a positive point
    order = rng.permutation(size)
    keys, raw = keys[order], raw[order]
    space = make_space(range(size), raw, normalize=True)
    p = Partition._from_labels(space, keys)
    w = space.weight_array
    positive = w > 0.0
    _, first = np.unique(keys[positive], return_index=True)
    kept = keys[positive][np.sort(first)]
    expected = np.bincount(keys, weights=w, minlength=n_atoms)[kept]
    assert p.n_atoms == kept.size == n_atoms
    assert np.allclose(atom_probabilities(p).probabilities, expected, rtol=1e-10, atol=0)
    assert entropy(p) == pytest.approx(shannon_bits(expected), rel=1e-12)
