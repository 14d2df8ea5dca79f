"""Finite probability spaces, partitions, and Shannon entropy in bits.

A partition carves the points of a finite probability space into disjoint
atoms; pushing the point weights through a partition gives a probability
vector over atoms and hence an entropy. Partitions are ordered by coarse
graining (P1 <= P2 when every atom of P1 is a union of atoms of P2), admit
a join (the coarsest common refinement, built from pairwise intersections)
and carry the entropy pseudo-distance d(P1, P2) = |H(P1) - H(P2)|. The
pseudo-distance separates entropies, not partitions: distinct partitions
with equal entropy sit at distance zero.

Zero-weight points are allowed. They may be omitted from atoms, and the
canonical form of a partition drops them before comparison, so equality of
partitions is equality of their traces on the positive-weight support.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import SpaceMismatchError, ValidationError

__all__ = [
    "DEFAULT_TOLERANCE",
    "AtomDistribution",
    "FiniteProbabilitySpace",
    "Partition",
    "atom_probabilities",
    "entropy",
    "is_coarsening",
    "join",
    "make_space",
    "pseudo_distance",
    "shannon_bits",
]

#: Default absolute tolerance for normalization checks.
DEFAULT_TOLERANCE = 1e-12


def shannon_bits(probabilities: Iterable[float] | np.ndarray) -> float:
    """Shannon entropy of a probability vector, in bits.

    Entries equal to zero contribute nothing (the 0 log 0 = 0 limit
    convention). The input is assumed to be a valid distribution; use
    :class:`AtomDistribution` when validation is wanted.
    """
    p = np.asarray(probabilities, dtype=float)
    pos = p[p > 0.0]
    if pos.size == 0:
        return 0.0
    # the + 0.0 turns a signed zero from rounding into plain 0.0
    return float(-(pos * np.log2(pos)).sum()) + 0.0


def _weight_vector(weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """The weights as a new flat float64 array, or a :class:`ValidationError`."""
    try:
        w = np.array(weights, dtype=float)
    except (TypeError, ValueError):
        w = None
    if w is None or w.ndim != 1:
        raise ValidationError("weights must be a flat sequence of numbers")
    return w


def _count_distinct(point_ids: Sequence[Hashable]) -> int:
    """Count of distinct labels; a :class:`ValidationError` names an unhashable one."""
    try:
        return len(set(point_ids))
    except TypeError:
        for pid in point_ids:
            try:
                hash(pid)
            except TypeError:
                raise ValidationError(f"point id {pid!r} is not hashable") from None
        raise


@dataclass(frozen=True, eq=False)
class FiniteProbabilitySpace:
    """A finite set of labelled points with weights summing to one.

    Point labels are opaque hashable values; all structural operations work
    on point indices. ``weight_array`` is the read-only float64 weight
    vector and ``weights`` the same values as a tuple, built on first use.
    Two spaces compare equal when their labels and weights agree entry for
    entry, and partitions built on equal spaces interoperate.
    """

    point_ids: Sequence[Hashable]
    weight_array: np.ndarray

    def __init__(
        self, point_ids: Iterable[Hashable], weights: Sequence[float] | np.ndarray
    ) -> None:
        """Validate distinct labels and finite, nonnegative, normalized weights."""
        self._assign(tuple(point_ids), weights, distinct=False)

    @classmethod
    def _from_distinct_ids(
        cls, point_ids: Sequence[Hashable], weights: np.ndarray
    ) -> "FiniteProbabilitySpace":
        """A space whose labels are distinct by construction.

        The labels are kept as given (a lazy sequence stays lazy) and not
        checked for repeats; the weights get every check.
        """
        self = object.__new__(cls)
        self._assign(point_ids, weights, distinct=True)
        return self

    def _assign(
        self,
        point_ids: Sequence[Hashable],
        weights: Sequence[float] | np.ndarray,
        distinct: bool,
    ) -> None:
        w = _weight_vector(weights)
        if len(point_ids) == 0:
            raise ValidationError("a probability space needs at least one point")
        if len(point_ids) != len(w):
            raise ValidationError(f"{len(point_ids)} point ids but {len(w)} weights")
        if not distinct and _count_distinct(point_ids) != len(point_ids):
            raise ValidationError("duplicate point ids")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        if np.any(w < 0.0):
            raise ValidationError(f"negative weight: min is {float(w.min())!r}")
        total = float(w.sum())
        if abs(total - 1.0) > DEFAULT_TOLERANCE:
            raise ValidationError(
                f"unnormalized weights (sum {total!r}); pass normalize=True to "
                "make_space to rescale"
            )
        w.setflags(write=False)
        object.__setattr__(self, "point_ids", point_ids)
        object.__setattr__(self, "weight_array", w)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.weight_array.tolist())

    @property
    def size(self) -> int:
        return self.weight_array.size

    @cached_property
    def _index_by_id(self) -> dict[Hashable, int]:
        return {pid: i for i, pid in enumerate(self.point_ids)}

    def index_of(self, point_id: Hashable) -> int:
        """Index of a point label, raising on unknown labels.

        Labels match by Python equality, as dict keys do: on ids (1, 2),
        ``True`` finds index 0 and ``2.0`` index 1, and a Python int finds
        the ``numpy.int64`` id that ``make_space(np.arange(n), ...)`` stores.
        """
        try:
            return self._index_by_id[point_id]
        except (KeyError, TypeError):  # TypeError: unhashable, so no point's id
            raise ValidationError(f"unknown point id {point_id!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteProbabilitySpace):
            return NotImplemented
        return self is other or (
            np.array_equal(self.weight_array, other.weight_array)
            and self.point_ids == other.point_ids
        )

    @cached_property
    def _hash(self) -> int:
        # weights only, so labels of any sequence type hash alike; + 0.0
        # maps a -0.0 weight to the bytes of the equal 0.0
        return hash((self.weight_array + 0.0).tobytes())

    def __hash__(self) -> int:
        return self._hash


def make_space(
    point_ids: Iterable[Hashable],
    weights: Iterable[float] | np.ndarray,
    *,
    normalize: bool = False,
) -> FiniteProbabilitySpace:
    """Build a finite probability space from labels and weights.

    Args:
        point_ids: distinct hashable labels, one per point.
        weights: nonnegative weights, an array or any iterable of numbers.
            Must sum to 1 within ``DEFAULT_TOLERANCE`` unless ``normalize``
            is set, in which case they are rescaled.
        normalize: rescale the weights to total mass one.

    Raises:
        ValidationError: on duplicate or unhashable ids, weights that are
            not numbers, negative weights, zero total mass, or an
            unnormalized vector when ``normalize`` is false.
    """
    if not isinstance(weights, np.ndarray):
        weights = list(weights)
    w = _weight_vector(weights)
    if w.size and np.any(w < 0.0):
        raise ValidationError(f"negative weight: min is {float(w.min())!r}")
    total = float(w.sum())
    if normalize:
        if total <= 0.0:
            raise ValidationError("zero total mass, cannot normalize")
        w = w / total
    elif w.size and abs(total - 1.0) > DEFAULT_TOLERANCE:
        raise ValidationError(
            f"unnormalized weights (sum {total!r}); pass normalize=True to rescale"
        )
    return FiniteProbabilitySpace(point_ids, w)


@dataclass(frozen=True)
class AtomDistribution:
    """Probability vector over the atoms of a partition."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if p.size == 0:
            raise ValidationError("empty atom distribution")
        if np.any(p < 0.0):
            raise ValidationError(
                f"negative atom probability: min is {float(p.min())!r}"
            )
        total = float(p.sum())
        if abs(total - 1.0) > DEFAULT_TOLERANCE:
            raise ValidationError(f"atom probabilities sum to {total!r}, not 1")

    @property
    def entropy_bits(self) -> float:
        return shannon_bits(self.probabilities)

    def __len__(self) -> int:
        return len(self.probabilities)


def _canonical_labels(weights: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Number the distinct keys 0, 1, ... by first occurrence.

    Zero-weight points get -1 whatever their key. Keys spanning at most
    twice the number of points are grouped through a dense first-position
    table, wider ones through a sort.
    """
    positive = weights > 0.0
    kept = keys[positive]
    size = kept.size
    lo = int(kept.min())
    span = int(kept.max()) - lo + 1
    positions = np.arange(size, dtype=np.int64)
    if span <= 2 * size:
        codes = kept - lo
        first = np.full(span, size, dtype=np.int64)
        np.minimum.at(first, codes, positions)
    else:
        _, first, codes = np.unique(kept, return_index=True, return_inverse=True)
    # the code of each atom, listed in order of first occurrence
    opened = codes[first[codes] == positions]
    rank = np.empty(first.size, dtype=np.int64)
    rank[opened] = np.arange(opened.size, dtype=np.int64)
    labels = np.full(keys.size, -1, dtype=np.int64)
    labels[positive] = rank[codes]
    labels.setflags(write=False)
    return labels, int(opened.size)


def _point_indices(atom: Iterable[int]) -> list[int]:
    """One atom's point indices as ints; a bool or a non-integer is refused."""
    try:
        entries = list(atom)
    except TypeError:
        raise ValidationError(f"atom {atom!r} is not a list of point indices") from None
    try:
        if bool not in map(type, entries):
            return list(map(operator.index, entries))
    except TypeError:
        pass
    for entry in entries:
        if isinstance(entry, bool):
            break
        try:
            operator.index(entry)
        except TypeError:
            break
    raise ValidationError(f"point index {entry!r} is not an integer")


@dataclass(frozen=True, eq=False)
class Partition:
    """A partition of a finite probability space into disjoint atoms.

    Stored as one read-only int64 label per point: ``atom_index_array[i]``
    is the atom holding point i, atoms are numbered by their smallest
    point index, and zero-weight points carry -1 (they are dropped, and
    atoms left empty by that are removed). ``atoms`` is a tuple of
    frozensets of point indices built from the labels on first use.
    Equality and hashing act on the space and the labels.
    """

    space: FiniteProbabilitySpace
    atom_index_array: np.ndarray
    n_atoms: int

    def __init__(
        self,
        space: FiniteProbabilitySpace,
        atoms: Iterable[Iterable[int]],
    ) -> None:
        """Validate atoms (nonempty, disjoint, covering every positive-weight point)."""
        n = space.size
        try:
            raw = [_point_indices(atom) for atom in atoms]
        except TypeError:
            raise ValidationError(
                f"atoms must be a sequence of index lists, got {atoms!r}"
            ) from None
        if not raw:
            raise ValidationError("a partition needs at least one atom")
        sizes = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
        if not sizes.all():
            raise ValidationError("empty atom")
        flat = (i for atom in raw for i in atom)
        try:
            points = np.fromiter(flat, dtype=np.int64, count=int(sizes.sum()))
        except OverflowError:
            big = next(i for a in raw for i in a if not 0 <= i < n)
            raise ValidationError(
                f"point index {big} outside space of size {n}"
            ) from None
        outside = (points < 0) | (points >= n)
        if outside.any():
            raise ValidationError(
                f"point index {points[outside.argmax()]} outside space of size {n}"
            )
        atom_of = np.repeat(np.arange(len(raw), dtype=np.int64), sizes)
        owner = np.full(n, -1, dtype=np.int64)
        owner[points] = atom_of
        shared = owner[points] != atom_of
        if shared.any():
            raise ValidationError(
                f"point index {points[shared.argmax()]} appears in two atoms"
            )
        uncovered = np.flatnonzero((owner < 0) & (space.weight_array > 0.0))
        if uncovered.size:
            raise ValidationError(
                "positive-weight points not covered by any atom: "
                f"{uncovered[:8].tolist()}"
            )
        self._assign(space, owner)

    @classmethod
    def _from_labels(
        cls, space: FiniteProbabilitySpace, keys: np.ndarray
    ) -> "Partition":
        """The partition grouping points of equal integer key, unchecked."""
        self = object.__new__(cls)
        self._assign(space, np.asarray(keys, dtype=np.int64))
        return self

    def _assign(self, space: FiniteProbabilitySpace, keys: np.ndarray) -> None:
        labels, n_atoms = _canonical_labels(space.weight_array, keys)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "atom_index_array", labels)
        object.__setattr__(self, "n_atoms", n_atoms)

    @classmethod
    def from_point_ids(
        cls,
        space: FiniteProbabilitySpace,
        groups: Iterable[Iterable[Hashable]],
    ) -> "Partition":
        """Build a partition from groups of point labels instead of indices.

        Labels are looked up with :meth:`FiniteProbabilitySpace.index_of`,
        so they match by Python equality: ``True`` names the point ``1``.
        """
        return cls(space, [[space.index_of(pid) for pid in g] for g in groups])

    @classmethod
    def discrete(cls, space: FiniteProbabilitySpace) -> "Partition":
        """The finest partition, one atom per point."""
        return cls._from_labels(space, np.arange(space.size))

    @classmethod
    def trivial(cls, space: FiniteProbabilitySpace) -> "Partition":
        """The coarsest partition, a single atom holding every point."""
        return cls._from_labels(space, np.zeros(space.size, dtype=np.int64))

    @cached_property
    def atoms(self) -> tuple[frozenset[int], ...]:
        """Atoms as frozensets of point indices, in label order."""
        order, starts = self._runs()
        return tuple(frozenset(g.tolist()) for g in np.split(order, starts)[1:])

    @cached_property
    def _masses(self) -> np.ndarray:
        """Atom probabilities, read-only, computed once per partition.

        Each atom's weights are summed pairwise in point order, as
        ``np.sum`` does; a running sum over 2^15 points per atom would
        drift by up to 1e-11 relative in the entropy.
        """
        order, starts = self._runs()
        masses = np.add.reduceat(self.space.weight_array[order], starts)
        masses.setflags(write=False)
        return masses

    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Point indices grouped by label, and where each atom's run starts.

        Zero-weight points (label -1) form a leading run that no atom uses.
        """
        keys = self.atom_index_array + 1
        counts = np.bincount(keys, minlength=self.n_atoms + 1)
        if self.n_atoms < 1 << 16:
            # the same stable order; numpy sorts 16-bit keys by radix
            keys = keys.astype(np.uint16)
        return np.argsort(keys, kind="stable"), np.cumsum(counts)[:-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.space == other.space and bool(
            np.array_equal(self.atom_index_array, other.atom_index_array)
        )

    def __hash__(self) -> int:
        return hash((self.space, self.atom_index_array.tobytes()))


def _require_same_space(a: Partition, b: Partition, what: str) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"{what} requires partitions of the same space")


def atom_probabilities(partition: Partition) -> AtomDistribution:
    """Push the point weights through a partition."""
    return AtomDistribution(tuple(partition._masses.tolist()))


def entropy(partition: Partition) -> float:
    """Shannon entropy H(P) of a partition, in bits."""
    return shannon_bits(partition._masses)


def is_coarsening(coarse: Partition, fine: Partition) -> bool:
    """True iff ``coarse`` <= ``fine``, every coarse atom a union of fine atoms.

    The relation is a partial order up to canonical equality: reflexive,
    transitive, and antisymmetric on canonical forms. Both partitions must
    live on the same space.
    """
    _require_same_space(coarse, fine, "is_coarsening")
    fine_labels = fine.atom_index_array
    # one coarse label per fine atom; zero-weight points (-1 in both) use
    # the last slot
    coarse_of = np.empty(fine.n_atoms + 1, dtype=np.int64)
    coarse_of[fine_labels] = coarse.atom_index_array
    return bool(np.array_equal(coarse_of[fine_labels], coarse.atom_index_array))


def join(a: Partition, b: Partition) -> Partition:
    """Coarsest common refinement of two partitions.

    Atoms are the nonempty pairwise intersections of atoms of ``a`` and
    ``b``. The result refines both inputs, and any partition refining both
    also refines the join.
    """
    _require_same_space(a, b, "join")
    return Partition._from_labels(
        a.space, a.atom_index_array * b.n_atoms + b.atom_index_array
    )


def pseudo_distance(p1: Partition, p2: Partition) -> float:
    """Entropy pseudo-distance |H(P1) - H(P2)| in bits.

    Satisfies the pseudo-metric axioms (nonnegativity, symmetry, triangle
    inequality, d(P, P) = 0) but not separation: distinct partitions of
    equal entropy are at distance zero.
    """
    _require_same_space(p1, p2, "pseudo_distance")
    return abs(entropy(p1) - entropy(p2))
