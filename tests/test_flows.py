import numpy as np
import pytest

from entroflow import (
    COARSE_GRAINING,
    REFINEMENT,
    UNVALIDATED,
    FlowDirectionError,
    Partition,
    PartitionFlow,
    SpaceMismatchError,
    ValidationError,
    detect_entropy_plateau,
    detect_limit_point,
    entropy,
    entropy_sequence,
    make_space,
    reverse,
)


def uniform_space(n):
    return make_space(list(range(n)), [1.0 / n] * n)


def block_chain(space, sizes):
    """Partitions of ``space`` into consecutive blocks of each given size."""
    n = len(space.point_ids)
    out = []
    for size in sizes:
        out.append(Partition(space, [range(i, i + size) for i in range(0, n, size)]))
    return out


@pytest.fixture
def eight():
    return uniform_space(8)


def test_refinement_flow_entropies(eight):
    members = block_chain(eight, [8, 4, 2, 1])
    flow = PartitionFlow(eight, tuple(members), REFINEMENT)
    assert entropy_sequence(flow) == [0.0, 1.0, 2.0, 3.0]


def test_coarse_graining_flow_entropies(eight):
    members = block_chain(eight, [1, 2, 4, 8])
    flow = PartitionFlow(eight, tuple(members), COARSE_GRAINING)
    assert entropy_sequence(flow) == [3.0, 2.0, 1.0, 0.0]


def test_constant_flow(eight):
    p = Partition(eight, [[0, 1, 2, 3], [4, 5, 6, 7]])
    flow = PartitionFlow(eight, (p, p, p), COARSE_GRAINING)
    assert entropy_sequence(flow) == [entropy(p)] * 3


def test_direction_violation_raises(eight):
    fine, coarse = block_chain(eight, [2, 4])
    with pytest.raises(FlowDirectionError, match="step 0 -> 1"):
        PartitionFlow(eight, (coarse, fine), COARSE_GRAINING)
    with pytest.raises(FlowDirectionError):
        PartitionFlow(eight, (fine, coarse), REFINEMENT)
    # the same sequence is accepted when validation is opted out
    PartitionFlow(eight, (coarse, fine), UNVALIDATED)


@pytest.mark.parametrize(
    "members, direction, error, message",
    [
        (lambda s: (Partition.trivial(s),), "sideways", ValidationError,
         "direction must be one of ('coarse-graining', 'refinement', 'unvalidated'), "
         "got 'sideways'"),
        (lambda s: (), REFINEMENT, ValidationError, "a flow needs at least one partition"),
        (lambda s: (Partition.trivial(s), Partition.trivial(uniform_space(4))),
         REFINEMENT, SpaceMismatchError, "flow members must share the flow's space"),
    ],
)
def test_flow_rejection_messages(eight, members, direction, error, message):
    with pytest.raises(error) as excinfo:
        PartitionFlow(eight, members(eight), direction)
    assert str(excinfo.value) == message


def test_entropy_sequence_horizon(eight):
    flow = PartitionFlow(eight, tuple(block_chain(eight, [8, 4, 2])), REFINEMENT)
    assert entropy_sequence(flow, 2) == [0.0, 1.0]
    with pytest.raises(ValidationError):
        entropy_sequence(flow, 9)
    with pytest.raises(ValidationError):
        entropy_sequence(flow, 0)


class TestReverse:
    def test_swaps_direction(self, eight):
        flow = PartitionFlow(eight, tuple(block_chain(eight, [8, 4, 2, 1])), REFINEMENT)
        rev = reverse(flow)
        assert rev.direction == COARSE_GRAINING
        assert entropy_sequence(rev) == [3.0, 2.0, 1.0, 0.0]

    def test_involution(self, eight):
        rng = np.random.default_rng(5)
        members = []
        for _ in range(5):
            owners = rng.integers(0, 4, size=8)
            groups = {}
            for i, g in enumerate(owners):
                groups.setdefault(int(g), []).append(i)
            members.append(Partition(eight, list(groups.values())))
        flow = PartitionFlow(eight, tuple(members), UNVALIDATED)
        assert reverse(reverse(flow)) == flow

    def test_single_element(self, eight):
        flow = PartitionFlow(eight, (Partition.trivial(eight),), COARSE_GRAINING)
        rev = reverse(flow)
        assert rev.sequence == flow.sequence
        assert rev.direction == REFINEMENT

    def test_preserves_multiset(self, eight):
        members = tuple(block_chain(eight, [8, 2, 1]))
        flow = PartitionFlow(eight, members, REFINEMENT)
        assert sorted(map(hash, reverse(flow).sequence)) == sorted(map(hash, members))


class TestDetectPlateau:
    def test_constant_from_index_three(self):
        values = [3.0, 2.5, 1.7, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        v = detect_entropy_plateau(values, epsilon=1e-9, window=4, horizon=10)
        assert v.status == "witnessed"
        assert v.witness_index is not None and v.witness_index <= 3
        assert v.tail_entropy_spread < 1e-9

    def test_unit_increments_refuted(self):
        # one fresh bit per step, as a fair-coin cylinder flow produces
        values = [float(n) for n in range(1, 21)]
        v = detect_entropy_plateau(values, epsilon=0.5, horizon=20)
        assert v.status == "refuted"
        assert v.witness_index is None

    def test_noisy_near_plateau_inconclusive(self):
        eps = 1e-3
        base = [5.0, 4.0, 3.0]
        tail = [2.0 + eps * (-1.0) ** n for n in range(8)]
        v = detect_entropy_plateau(base + tail, epsilon=eps, window=4)
        assert v.status == "inconclusive"

    def test_witnessed_invariant(self):
        values = [1.0] * 12
        v = detect_entropy_plateau(values, epsilon=1e-6)
        assert v.status == "witnessed"
        assert v.witness_index == 0
        assert v.tail_entropy_spread < 1e-6

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            detect_entropy_plateau([1.0, 1.0], epsilon=0.0)
        with pytest.raises(ValidationError, match="epsilon must be positive, got nan"):
            detect_entropy_plateau([1.0, 1.0], epsilon=float("nan"))
        with pytest.raises(ValidationError):
            detect_entropy_plateau([1.0, 1.0], window=1)
        with pytest.raises(ValidationError):
            detect_entropy_plateau([1.0, 1.0], window=4)  # explicit > length
        with pytest.raises(ValidationError):
            detect_entropy_plateau([1.0, 1.0, 1.0], horizon=5)

    def test_default_window_clips_to_short_input(self):
        v = detect_entropy_plateau([1.0, 1.0, 1.0])
        assert v.status == "witnessed"

    def test_target_entropy_gates_the_plateau(self):
        values = [0.3, 1.1, 1.9, 2.0, 2.0, 2.0, 2.0, 2.0]
        on_target = detect_entropy_plateau(
            values, epsilon=1e-9, window=4, target_entropy=2.0
        )
        assert on_target.status == "witnessed"
        off_target = detect_entropy_plateau(
            values, epsilon=1e-9, window=4, target_entropy=1.0
        )
        assert off_target.status == "inconclusive"
        assert off_target.tail_entropy_spread == pytest.approx(1.0)

    def test_to_record_keys(self):
        v = detect_entropy_plateau([1.0] * 8)
        assert v.to_record() == {
            "status": "witnessed",
            "witness_index": 0,
            "tail_spread": 0.0,
        }


class TestDetectLimitPoint:
    def geometric_refinement_flow(self, n_steps=12):
        """Refinement flow whose entropy approaches a limit geometrically.

        Point weights halve down the space; step k splits one more point
        off the lumped tail atom, so H_k -> H(discrete) from below.
        """
        weights = [2.0 ** -(i + 1) for i in range(n_steps)]
        weights.append(weights[-1])  # close the mass to exactly one
        space = make_space(list(range(len(weights))), weights)
        members = []
        for k in range(n_steps):
            atoms = [[i] for i in range(k + 1)]
            atoms.append(list(range(k + 1, len(weights))))
            members.append(Partition(space, atoms))
        return PartitionFlow(space, tuple(members), REFINEMENT)

    def test_geometric_approach_witnessed(self):
        flow = self.geometric_refinement_flow()
        values = entropy_sequence(flow)
        tail_spread = max(values[-8:]) - min(values[-8:])
        assert tail_spread > 0.0  # still strictly climbing, just slowly
        for scale in (2.0, 10.0, 1e3):
            v = detect_limit_point(flow, epsilon=scale * tail_spread)
            assert v.status == "witnessed"

    def test_epsilon_below_tail_spread_is_not_witnessed(self):
        flow = self.geometric_refinement_flow()
        values = entropy_sequence(flow)
        tail_spread = max(values[-8:]) - min(values[-8:])
        v = detect_limit_point(flow, epsilon=tail_spread / 2.0)
        assert v.status != "witnessed"

    def test_target_partition(self):
        flow = self.geometric_refinement_flow()
        target = flow[len(flow) - 1]
        v = detect_limit_point(flow, epsilon=0.1, target=target)
        assert v.status == "witnessed"
        far = Partition.trivial(flow.space)
        assert detect_limit_point(flow, epsilon=0.1, target=far).status != "witnessed"

    def test_constant_flow_witnessed_at_zero(self):
        space = uniform_space(4)
        p = Partition(space, [[0, 1], [2, 3]])
        flow = PartitionFlow(space, (p,) * 6, COARSE_GRAINING)
        v = detect_limit_point(flow)
        assert v.status == "witnessed"
        assert v.witness_index == 0
