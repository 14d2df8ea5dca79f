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

import itertools
import operator
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import SpaceMismatchError, ValidationError

__all__ = [
    "DEFAULT_TOLERANCE",
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
    convention). The input is assumed to be a valid distribution and is
    not checked. The terms are summed in ``_pairwise_sum``'s order over
    all the entries, zeros included, and each leaf sums the terms of its
    own positive masses (``_leaf_sum``). So a vector of at most
    ``_TERM_BLOCK`` entries, or one with no zero, has the bytes of one
    numpy sum over the terms of its positive masses; the first is summed
    as that one leaf directly.
    """
    p = np.asarray(probabilities, dtype=float).ravel()

    def leaves(start: int, stop: int) -> Callable[[int, int], np.float64]:
        terms = np.empty(min(stop - start, _TERM_BLOCK))
        return lambda a, b: _leaf_sum(p[a:b], terms, False)[0]

    with np.errstate(divide="ignore", invalid="ignore"):
        if p.size <= _TERM_BLOCK:
            return _bits(_leaf_sum(p, np.empty(p.size), False)[0])
        return _bits(_pairwise_sum(p.size, leaves))


#: Entries per leaf of the pairwise sum of ``shannon_bits`` terms.
_TERM_BLOCK = 2**15


def _pairwise_sum(
    size: int, leaves: Callable[[int, int], Callable[[int, int], np.float64]]
) -> np.float64:
    """A sum over ``size`` entries, added in numpy's pairwise order.

    numpy sums a contiguous float64 vector pairwise: it splits a vector
    longer than 128 entries after half its length, rounded down to a
    multiple of 8, and adds the sums of the two pieces. Splitting the same
    way until a piece has at most ``_TERM_BLOCK`` entries, and summing the
    entries of each piece with numpy, gives the bytes of one sum over all
    the entries, without a temporary as long as all of them.

    ``leaves(start, stop)`` returns a ``leaf(a, b)`` with buffers of its
    own, which sums the entries a..b of each piece within start..stop,
    called on the pieces in order. The two halves of the first split do
    not depend on each other. Over more than one leaf, where this process
    may run on two CPUs or more, the first half is summed on a thread of
    its own under the caller's ``np.errstate`` while the calling thread
    sums the second, each half with its own leaf, and the two sums are
    added as before; what the first half raises is raised here. Otherwise,
    or when no thread can be started, one leaf sums both halves on the
    calling thread. Every piece is summed alike either way, so the bytes
    are the same.
    """
    if size > _TERM_BLOCK and _usable_cpus() >= 2:
        half = size // 2
        half -= half % 8
        settings = np.geterr()
        outcome = []

        def first() -> None:
            try:
                with np.errstate(**settings):
                    outcome.append(_tree_sum(0, half, leaves(0, half)))
            except BaseException as error:  # raised again in the caller
                outcome.append(error)

        thread = threading.Thread(target=first, name="entroflow-sum", daemon=True)
        try:
            thread.start()
        except RuntimeError:  # no thread to be had: sum both halves here
            pass
        else:
            try:
                second = _tree_sum(half, size, leaves(half, size))
            finally:
                thread.join()
            if isinstance(outcome[0], BaseException):
                raise outcome[0]
            return outcome[0] + second
    return _tree_sum(0, size, leaves(0, size))


def _tree_sum(
    start: int, stop: int, leaf: Callable[[int, int], np.float64]
) -> np.float64:
    """The entries start..stop summed in numpy's pairwise order, by leaf."""
    n = stop - start
    if n <= _TERM_BLOCK:
        return leaf(start, stop)
    half = n // 2
    half -= half % 8
    return _tree_sum(start, start + half, leaf) + _tree_sum(start + half, stop, leaf)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _terms_sum(p: np.ndarray, buffer: np.ndarray) -> np.float64:
    """The sum of p log2 p, its terms computed in the start of ``buffer``."""
    terms = buffer[: p.size]
    np.log2(p, out=terms)
    np.multiply(p, terms, out=terms)
    return terms.sum()


def _leaf_sum(
    p: np.ndarray, buffer: np.ndarray, zeros: bool
) -> tuple[np.float64, bool]:
    """The sum of p log2 p over the positive entries of p, in ``buffer``.

    Returns the sum and whether it was taken over the positive entries
    picked out, which p holding a zero requires. Unless ``zeros`` says p
    may hold one, the terms of all of p are summed first; a zero makes
    that sum NaN (0 log2 0), and only then is the sum taken again. With
    ``zeros``, the positive entries are picked out first, since the
    logarithm of a zero costs several times that of a positive entry.
    The caller ignores the floating-point warnings of a zero.
    """
    if not zeros:
        total = _terms_sum(p, buffer)
        if total == total:
            return total, False
    return _terms_sum(p[p > 0.0], buffer), True


def _bits(total: np.float64) -> float:
    """The entropy whose p log2 p terms sum to ``total``.

    Negating the sum gives the bytes of summing the negated terms; the
    + 0.0 turns a signed zero from rounding into plain 0.0.
    """
    return float(-total) + 0.0


def _check_probabilities(p: np.ndarray, one: str, many: str) -> None:
    """The one rule for a probability vector, or every row of a matrix.

    ``p`` must be finite, nonnegative, and each slice along its last axis
    must sum to 1 within ``DEFAULT_TOLERANCE``; checked in that order.
    ``one`` and ``many`` name an entry and the entries in the messages,
    which print plain floats (the row sums of a matrix as a list).
    """
    if not np.isfinite(p).all():
        raise ValidationError(f"{many} must be finite")
    low = float(p.min())
    if low < 0.0:
        raise ValidationError(f"negative {one}: min is {low!r}")
    sums = p.sum(axis=-1)
    if (np.abs(sums - 1.0) > DEFAULT_TOLERANCE).any():
        raise ValidationError(f"unnormalized {many} (sum {sums.tolist()})")


def _float_array(values, what: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a new float64 array with ``ndim`` axes, or a :class:`ValidationError`.

    Entries that are not numbers and ragged rows are refused by name
    instead of surfacing as numpy's own ``ValueError``, and so are strings
    and booleans, which numpy reads as numbers.
    """
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.ndim != ndim or _holds_text_or_bool(values, ndim):
        shape = "flat sequence" if ndim == 1 else "rectangular table"
        raise ValidationError(f"{what} must be a {shape} of numbers")
    return a


def _holds_text_or_bool(values, ndim: int) -> bool:
    """True when an entry of ``values``, ``ndim`` levels deep, is a string or a boolean.

    An array answers by its dtype, without a look at its entries, unless
    it holds objects.
    """
    if isinstance(values, np.ndarray):
        if values.dtype != object:
            return values.dtype.kind in "bSU"
        values = values.tolist()
    if ndim > 1:
        return any(_holds_text_or_bool(row, ndim - 1) for row in values)
    return any(issubclass(t, _TEXT_OR_BOOL) for t in set(map(type, values)))


_TEXT_OR_BOOL = (str, bytes, bool, np.bool_)


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
        self._assign(tuple(point_ids), _float_array(weights, "weights"), distinct=False)

    @classmethod
    def _from_distinct_ids(
        cls, point_ids: Sequence[Hashable], weights: np.ndarray
    ) -> "FiniteProbabilitySpace":
        """A space whose labels are distinct by construction.

        The labels are kept as given (a lazy sequence stays lazy) and not
        checked for repeats. The caller's flat float64 array is kept, not
        copied, and made read-only; its weights get every check.
        """
        self = object.__new__(cls)
        self._assign(point_ids, weights, distinct=True)
        return self

    def _assign(
        self,
        point_ids: Sequence[Hashable],
        weights: np.ndarray,
        distinct: bool,
    ) -> None:
        if len(point_ids) == 0:
            raise ValidationError("a probability space needs at least one point")
        if len(point_ids) != len(weights):
            raise ValidationError(f"{len(point_ids)} point ids but {len(weights)} weights")
        if not distinct and _count_distinct(point_ids) != len(point_ids):
            raise ValidationError("duplicate point ids")
        _check_probabilities(weights, "weight", "weights")
        weights.setflags(write=False)
        object.__setattr__(self, "point_ids", point_ids)
        object.__setattr__(self, "weight_array", weights)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.weight_array.tolist())

    @cached_property
    def _positive(self) -> np.ndarray | None:
        """The read-only mask of positive-weight points; None when every weight is positive."""
        positive = self.weight_array > 0.0
        if positive.all():
            return None
        positive.setflags(write=False)
        return positive

    @cached_property
    def _equal_weights(self) -> bool:
        """True when every weight is the same, and hence positive."""
        w = self.weight_array
        return bool(w.min() == w.max())

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
    if normalize:
        w = _float_array(weights, "weights")
        if np.any(w < 0.0):
            raise ValidationError(f"negative weight: min is {float(w.min())!r}")
        total = float(w.sum())
        if total <= 0.0:
            raise ValidationError("zero total mass, cannot normalize")
        weights = w / total
    return FiniteProbabilitySpace(point_ids, weights)


class _Grouping(NamedTuple):
    """Points grouped by key, for every weighting with the same zero-weight points.

    ``labels`` numbers the groups 0, 1, ... by first point, -1 on
    zero-weight points; ``order`` lists the other points, grouped by key
    and in point order within a group; the runs of ``order`` open at
    ``starts``, and ``by_first`` lists the runs in label order. The labels
    are read-only.
    """

    labels: np.ndarray
    n_atoms: int
    order: np.ndarray
    starts: np.ndarray
    by_first: np.ndarray

    def masses(self, weights: np.ndarray) -> np.ndarray:
        """Each atom's weights summed in point order, read-only.

        One ``np.add.reduceat``: the first weight plus the pairwise sum of
        the rest. A running sum over 2^15 points per atom would drift by
        up to 1e-11 relative in the entropy.
        """
        masses = np.add.reduceat(weights[self.order], self.starts)[self.by_first]
        masses.setflags(write=False)
        return masses


class _EqualWeightGrouping(NamedTuple):
    """Points grouped by key on a space whose weights are all equal.

    ``labels`` numbers the groups 0, 1, ... by first point and is
    read-only. Listed by label, the points would form runs opening at
    ``starts``; every point weighs the same, so the weights in point order,
    cut at ``starts``, sum to the same masses, and that list is never built.
    """

    labels: np.ndarray
    n_atoms: int
    starts: np.ndarray

    def masses(self, weights: np.ndarray) -> np.ndarray:
        """Each atom's equal weights summed, read-only.

        One ``np.add.reduceat`` over runs of the same counts of the same
        weight as those ``_Grouping.masses`` sums, so the same bytes.
        """
        masses = np.add.reduceat(weights, self.starts)
        masses.setflags(write=False)
        return masses


def _grouping(
    space: FiniteProbabilitySpace, keys: np.ndarray
) -> _Grouping | _EqualWeightGrouping:
    """The points of ``space`` grouped by integer key, numbered by first point.

    On a space of equal weights, keys spanning at most twice the number of
    points are numbered through a first-point table, with no sort; any
    other keys are numbered by ``_canonical_grouping``.
    """
    if space._equal_weights:
        grouping = _equal_weight_grouping(keys)
        if grouping is not None:
            return grouping
    return _canonical_grouping(keys, space._positive)


class _Scratch(NamedTuple):
    """Buffers that ``_equal_weight_grouping`` numbers keys of ``size`` points in.

    ``table`` holds a first-point table as long as the span and then the
    label table over it; ``opens`` flags first points, with a spare last
    slot; ``index`` lists 0..size-1 and is never written. A caller that
    numbers many keyings of the same points keeps one scratch for all of
    them; nothing a grouping returns refers to it.
    """

    table: np.ndarray
    opens: np.ndarray
    index: np.ndarray

    @classmethod
    def of(cls, size: int, span: int) -> "_Scratch":
        """Scratch for keys of ``size`` points spanning at most ``span``."""
        index = np.arange(size, dtype=np.int64)
        index.setflags(write=False)
        return cls(np.empty(span, dtype=np.int64), np.empty(size + 1, dtype=bool), index)


def _equal_weight_grouping(
    keys: np.ndarray, span: int | None = None, scratch: _Scratch | None = None
) -> _EqualWeightGrouping | None:
    """Number the distinct keys 0, 1, ... by first occurrence, without a sort.

    None when the keys span more than twice the number of points. One
    ``np.minimum.at`` into a table as long as the span gives each key its
    first point, the first points flagged in a point-long mask are listed
    in point order, and the labels are read through the table. The counts
    of the labels place the runs.

    A caller that knows the keys lie in [0, ``span``), with ``span`` at
    most twice the number of points, passes it, and the keys are used as
    they are, without their least and greatest. The numbering does not
    depend on where the keys start, so the labels are the same. The
    tables are read from ``scratch`` when it is given, which must be made
    for that many points and span; otherwise they are allocated here. The
    labels are new and read-only either way.
    """
    size = keys.size
    if span is None:
        lo = keys.min()
        span = int(keys.max()) - int(lo) + 1
        if span > 2 * size:
            return None
        keys = keys - lo
    if scratch is None:
        scratch = _Scratch.of(size, span)
    first = scratch.table[:span]
    first.fill(size)
    np.minimum.at(first, keys, scratch.index)
    # keys that no point holds leave ``size``, flagged in the spare last slot
    opens = scratch.opens
    opens.fill(False)
    opens[first] = True
    firsts = np.flatnonzero(opens[:size])
    n_atoms = firsts.size
    # the first points are read; the same slots now number the keys
    table = first
    table[keys[firsts]] = scratch.index[:n_atoms]
    labels = table[keys]
    starts = np.zeros(n_atoms, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=n_atoms)[:-1], out=starts[1:])
    labels.setflags(write=False)
    return _EqualWeightGrouping(labels.view(), n_atoms, starts)


def _canonical_grouping(keys: np.ndarray, positive: np.ndarray | None) -> _Grouping:
    """Number the distinct keys 0, 1, ... by first occurrence.

    Points outside the ``positive`` mask get -1 whatever their key; None
    keeps every point. One stable sort groups the points of each key in
    point order. Its runs, numbered by their first point, are the atoms.
    Keys spanning at most twice the number of points are numbered through
    a table as long as the span, wider ones along the sorted order.
    Partitions of a space whose weights are all equal skip this sort when
    their keys span at most twice the number of points: ``_grouping``
    numbers those through a first-point table instead.
    """
    if positive is not None:
        keys = keys[positive]
    size = keys.size
    lo = keys.min()
    span = int(keys.max()) - int(lo) + 1
    codes = keys - lo
    order = _stable_order(codes, span)
    ordered = codes[order]
    opens = np.empty(size, dtype=bool)
    opens[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    starts = np.flatnonzero(opens)
    # the runs in order of their first point
    by_first = _stable_order(order[starts], size)
    n_atoms = by_first.size
    rank = np.empty(n_atoms, dtype=np.int64)
    rank[by_first] = np.arange(n_atoms, dtype=np.int64)
    if span <= 2 * size:
        table = np.empty(span, dtype=np.int64)
        table[ordered[starts]] = rank
        labels = table[codes]
    else:
        labels = np.empty(size, dtype=np.int64)
        labels[order] = rank[np.cumsum(opens) - 1]
    if positive is not None:
        kept, labels = labels, np.full(positive.size, -1, dtype=np.int64)
        labels[positive] = kept
        order = np.flatnonzero(positive)[order]
    labels.setflags(write=False)
    # a view of a read-only array cannot be made writeable again, so
    # partitions may share these labels
    return _Grouping(labels.view(), n_atoms, order, starts, by_first)


def _stable_order(codes: np.ndarray, span: int) -> np.ndarray:
    """The stable argsort of integer codes in [0, ``span``).

    numpy sorts 16-bit keys by radix. Wider codes take one such pass per
    16 bits, least significant first, each stable on the order the
    previous passes left; two's complement keeps the digits of a code
    that wrapped past the int64 range.
    """
    order = np.argsort(codes.astype(np.uint16), kind="stable")
    for shift in range(16, (span - 1).bit_length(), 16):
        digits = (codes >> shift).astype(np.uint16)
        order = order[np.argsort(digits[order], kind="stable")]
    return order


def _point_indices(atom: Iterable[int]) -> list[int]:
    """One atom's point indices as ints; a bool or a non-integer is refused.

    An atom of plain ints, as JSON gives, is kept as it is after one pass
    over the types of its entries.
    """
    try:
        entries = list(atom)
    except TypeError:
        raise ValidationError(f"atom {atom!r} is not a list of point indices") from None
    if set(map(type, entries)) <= {int}:
        return entries
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
    atoms left empty by that are removed). The atom masses come from the
    same grouping as the labels and are stored with them. ``atoms`` is a
    tuple of frozensets of point indices built from the labels on first
    use. Equality and hashing act on the space and the labels.
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
        flat = itertools.chain.from_iterable(raw)
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
        self._assign(space, _grouping(space, owner))

    @classmethod
    def _from_labels(
        cls, space: FiniteProbabilitySpace, keys: np.ndarray
    ) -> "Partition":
        """The partition grouping points of equal integer key, unchecked."""
        keys = np.asarray(keys, dtype=np.int64)
        return cls._from_grouping(space, _grouping(space, keys))

    @classmethod
    def _from_grouping(
        cls, space: FiniteProbabilitySpace, grouping: _Grouping | _EqualWeightGrouping
    ) -> "Partition":
        """The partition of a grouping made under ``space._positive``, unchecked."""
        self = object.__new__(cls)
        self._assign(space, grouping)
        return self

    def _assign(
        self, space: FiniteProbabilitySpace, grouping: _Grouping | _EqualWeightGrouping
    ) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "atom_index_array", grouping.labels)
        object.__setattr__(self, "n_atoms", grouping.n_atoms)
        object.__setattr__(self, "_masses", grouping.masses(space.weight_array))

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
        runs = _canonical_grouping(self.atom_index_array, self.space._positive)
        return tuple(frozenset(g.tolist()) for g in np.split(runs.order, runs.starts[1:]))

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


def atom_probabilities(partition: Partition) -> tuple[float, ...]:
    """Push the point weights through a partition: the atom masses in label order.

    The masses are sums of the space's weights, which were checked when
    the space was built, so they are not checked again.
    """
    return tuple(partition._masses.tolist())


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
