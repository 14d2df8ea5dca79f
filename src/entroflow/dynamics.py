"""Measure-preserving dynamics and information production rates.

Two kinds of system are covered. A :class:`PermutationSystem` is a finite
probability space with a weight-preserving permutation; its join flow
{join of T^{-k}P, k < n} grows along the orbit: each step keys every point
by its label in the last join and its symbol under T^{-n}P, read one step
further along the permutation, and numbers the keys once. The flow
stabilizes after at most as many steps as there are points. A
:class:`SymbolicSystem` is the left shift with a Bernoulli or stationary
Markov measure; there the n-th join of the generating partition is the
exact distribution over length-n cylinder words, computed by recursion
over words (never by sampling) under a hard word-count cap. One join
generator serves both kinds: it yields the n-fold joins in order, and the
block entropies are read from it; for a shift it yields each length's
entropy, summed while the length grows, and stores only the lengths
that the next step reads.

The information production rate h(P, T) is estimated from the exact block
entropies H_n as the last increment H_n - H_{n-1}. For stationary product
and Markov measures the increment equals the rate exactly from n = 2 on,
and for finite permutation systems it is exactly zero once the join flow
plateaus, which is what makes the rate estimate comparable against the
closed-form Markov rate without any asymptotic fitting. The H_n / n
sequence is reported alongside for reference; it approaches the same
limit but only at O(1/n) speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ResourceCapError, ValidationError
from .flows import DEFAULT_EPSILON, LimitPointVerdict, detect_entropy_plateau
from .partitions import (
    DEFAULT_TOLERANCE,
    FiniteProbabilitySpace,
    Partition,
    _Scratch,
    _TERM_BLOCK,
    _bits,
    _check_probabilities,
    _equal_weight_grouping,
    _float_array,
    _leaf_sum,
    _pairwise_sum,
    entropy,
    make_space,
    shannon_bits,
)

__all__ = [
    "DEFAULT_WORD_CAP",
    "MAX_CYCLE_POINTS",
    "MAX_NMAX",
    "MAX_WORD_CAP",
    "InfoRateReport",
    "PermutationSystem",
    "SymbolicSystem",
    "TheoremCheckResult",
    "cyclic_system",
    "info_rate_report",
    "markov_entropy_rate",
    "parse_system_spec",
    "pullback_partition",
    "theorem_limit_point_check",
]

#: Default cap on materialized word-distribution entries.
DEFAULT_WORD_CAP = 2**20

#: Ceiling on the word or atom cap: a larger cap is lowered to it.
MAX_WORD_CAP = 2**24

#: Ceiling on the points of a cyclic system.
MAX_CYCLE_POINTS = 2**20

#: Ceiling on n_max, the block lengths of one report. A permutation flow
#: or a shift lumped into one group meets no word or atom cap, so without
#: it a run's time and its tuples of results grow with n_max unbounded.
MAX_NMAX = 2**16

_STATIONARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PermutationSystem:
    """A finite probability space with a measure-preserving permutation.

    ``mapping[i]`` is the image of point ``i``. Any integer sequence is
    accepted, and it is stored as a read-only int64 array. Measure
    preservation for a permutation reduces to weight(mapping[i]) ==
    weight(i), checked exactly up to 1e-12 on construction. Systems
    compare by identity.
    """

    space: FiniteProbabilitySpace
    mapping: np.ndarray

    def __post_init__(self) -> None:
        n = self.space.size
        if len(self.mapping) != n:
            raise ValidationError(
                f"mapping of length {len(self.mapping)} on a space of {n} points"
            )
        mapping = _as_permutation(np.asarray(self.mapping), n)
        if mapping is None:
            raise ValidationError("mapping is not a permutation of the point indices")
        # any permutation preserves equal weights; only unequal ones are compared
        if not self.space._equal_weights:
            w = self.space.weight_array
            drift = np.abs(w[mapping] - w) > DEFAULT_TOLERANCE
            if drift.any():
                i = int(drift.argmax())
                raise ValidationError(
                    f"weight not preserved at point {i}: "
                    f"{float(w[i])!r} -> {float(w[mapping[i]])!r}"
                )
        mapping.setflags(write=False)
        object.__setattr__(self, "mapping", mapping)


def _as_permutation(mapping: np.ndarray, n: int) -> np.ndarray | None:
    """``mapping`` as a new int64 array if it holds each of 0..n-1 once, else None.

    A flat integer array is checked by its range and one count per point,
    with no sort.
    """
    if mapping.dtype.kind not in "iu" or mapping.ndim != 1:
        return None
    if mapping.min() < 0 or mapping.max() >= n:
        return None
    mapping = mapping.astype(np.int64)
    if not (np.bincount(mapping, minlength=n) == 1).all():
        return None
    return mapping


def cyclic_system(n_points: int) -> PermutationSystem:
    """The cyclic shift i -> i + 1 (mod n) on n uniform points.

    More than ``MAX_CYCLE_POINTS`` points is a :class:`ResourceCapError`,
    raised before anything is allocated.
    """
    if n_points < 1:
        raise ValidationError(f"need at least one point, got {n_points}")
    if n_points > MAX_CYCLE_POINTS:
        raise ResourceCapError(
            f"cycle of {n_points} points exceeds the ceiling of {MAX_CYCLE_POINTS}"
        )
    space = FiniteProbabilitySpace._from_distinct_ids(
        tuple(range(n_points)), np.full(n_points, 1.0 / n_points)
    )
    return PermutationSystem(space, np.roll(np.arange(n_points), -1))


@dataclass(frozen=True)
class SymbolicSystem:
    """Left shift over a finite alphabet with a Bernoulli or Markov measure.

    ``marginal`` is the single-symbol distribution (the Bernoulli vector
    p, or the stationary vector pi). ``transition`` is None for Bernoulli
    and the row-stochastic matrix Q for Markov, with pi Q = pi required to
    hold within 1e-10. Both are stored as tuples of Python floats, whatever
    real numbers they were given as; strings and booleans are refused.
    """

    marginal: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        p = _float_array(self.marginal, "marginal probabilities")
        if p.size < 2:
            raise ValidationError("alphabet needs at least two symbols")
        _check_probabilities(p, "marginal probability", "marginal probabilities")
        if self.transition is not None:
            q = _float_array(self.transition, "transition entries", ndim=2)
            if q.shape != (p.size, p.size):
                raise ValidationError(
                    f"transition shape {q.shape} does not match alphabet size {p.size}"
                )
            _check_probabilities(q, "transition entry", "transition entries")
            drift = float(np.abs(p @ q - p).max())
            if drift > _STATIONARITY_TOL:
                raise ValidationError(
                    f"marginal is not stationary for the transition matrix "
                    f"(max |pi Q - pi| = {drift!r})"
                )
            object.__setattr__(self, "transition", tuple(map(tuple, q.tolist())))
        object.__setattr__(self, "marginal", tuple(p.tolist()))

    @classmethod
    def bernoulli(cls, probabilities: Iterable[float]) -> "SymbolicSystem":
        return cls(
            tuple(
                _number(x, f"probability {i}") for i, x in enumerate(probabilities)
            ),
            None,
        )

    @classmethod
    def markov(
        cls,
        transition: Iterable[Iterable[float]],
        stationary: Iterable[float] | None = None,
    ) -> "SymbolicSystem":
        """Markov shift from Q, deriving the stationary vector if not given."""
        rows = [
            [_number(x, f"transition entry [{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(transition)
        ]
        if len({len(row) for row in rows}) > 1:
            raise ValidationError(
                f"transition rows have unequal lengths {[len(row) for row in rows]}"
            )
        q = np.asarray(rows, dtype=float)
        if stationary is None:
            pi = _stationary_vector(q)
        else:
            pi = np.asarray(
                [_number(x, f"stationary entry {i}") for i, x in enumerate(stationary)],
                dtype=float,
            )
        return cls(tuple(pi.tolist()), tuple(tuple(row) for row in q.tolist()))

    @property
    def kind(self) -> str:
        return "bernoulli" if self.transition is None else "markov"

    @property
    def alphabet_size(self) -> int:
        return len(self.marginal)

    @cached_property
    def symbol_space(self) -> FiniteProbabilitySpace:
        """The alphabet as a probability space under the single-symbol law."""
        m = self.alphabet_size
        return make_space(tuple(str(s) for s in range(m)), self.marginal)


def _number(value: object, what: str) -> float:
    """``float(value)``, or a :class:`ValidationError` naming the bad entry.

    Strings and booleans are refused although ``float`` reads them.
    """
    if not isinstance(value, (str, bool)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{what} is not a number: {value!r}")


def _stationary_vector(q: np.ndarray) -> np.ndarray:
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {q.shape}")
    _check_probabilities(q, "transition entry", "transition entries")
    eigvals, eigvecs = np.linalg.eig(q.T)
    near_one = np.abs(eigvals - 1.0) <= 1e-8
    if not near_one.any():
        raise ValidationError("transition matrix has no eigenvalue 1")
    if np.count_nonzero(near_one) > 1:
        raise ValidationError(
            "eigenvalue 1 of the transition matrix is degenerate "
            f"(multiplicity {np.count_nonzero(near_one)}): the chain is reducible "
            "and has more than one stationary vector"
        )
    k = int(near_one.argmax())
    v = np.real(eigvecs[:, k])
    total = v.sum()
    if abs(total) < 1e-300:
        raise ValidationError("degenerate stationary eigenvector")
    pi = v / total
    if np.any(pi < -1e-12):
        raise ValidationError("stationary vector has negative entries")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def markov_entropy_rate(
    stationary: Iterable[float],
    transition: Iterable[Iterable[float]],
) -> float:
    """Closed-form entropy rate of a stationary Markov chain, in bits.

    Computes -sum_i pi_i sum_j Q_ij log2 Q_ij after checking that Q is
    row stochastic and pi is stationary within 1e-10. Serves as the
    independent oracle for the enumeration-based rate estimate.
    """
    system = SymbolicSystem.markov(transition, stationary)
    pi = np.asarray(system.marginal, dtype=float)
    q = np.asarray(system.transition, dtype=float)
    rows = np.array([shannon_bits(row) for row in q])
    return float(pi @ rows)


def pullback_partition(system: PermutationSystem, partition: Partition) -> Partition:
    """Preimage partition T^{-1}P: point i joins the atom holding T(i).

    Preserves atom probabilities because the permutation preserves
    weights.
    """
    if partition.space != system.space:
        raise ValidationError("partition does not live on the system's space")
    return Partition._from_labels(
        system.space, partition.atom_index_array[system.mapping]
    )


def _symbol_labels(system: SymbolicSystem, partition: Partition | None) -> np.ndarray:
    """Symbol index -> atom index under a partition of the alphabet."""
    m = system.alphabet_size
    if partition is None:
        return np.arange(m, dtype=np.int64)
    if partition.space != system.symbol_space:
        raise ValidationError(
            "partition must live on the system's symbol space "
            "(see SymbolicSystem.symbol_space)"
        )
    owner = partition.atom_index_array.copy()
    owner[owner < 0] = 0  # zero-weight symbols: group is irrelevant
    return owner


def _positive_cap(cap: int) -> int:
    """The cap, lowered to ``MAX_WORD_CAP`` when it is larger."""
    cap = int(cap)
    if cap < 1:
        raise ValidationError(f"cap must be positive, got {cap}")
    return min(cap, MAX_WORD_CAP)


def _check_cap(entries: int, cap: int) -> None:
    if entries <= cap:
        return
    if cap >= MAX_WORD_CAP:
        raise ResourceCapError(
            f"word enumeration needs {entries} entries, over the ceiling of "
            f"{MAX_WORD_CAP} (a larger cap is lowered to it); lower n_max"
        )
    raise ResourceCapError(
        f"word enumeration needs {entries} entries, over the cap of {cap}; "
        "raise the cap explicitly or lower n_max"
    )


def _joins(
    system: PermutationSystem | SymbolicSystem,
    partition: Partition | None,
    n_max: int,
    cap: int,
) -> Iterator[Partition | tuple[float, np.ndarray | None]]:
    """The n-fold joins join_{k<n} T^{-k}P for n = 1..n_max, at least n = 1.

    A permutation system yields each join as a :class:`Partition` and
    fails once one has more than ``cap`` atoms. Each step keys the points
    by their label in the last join and their symbol under T^{-n}P, which
    is the symbol under T^{-(n-1)}P of the image point, and numbers the
    keys once: the partitions of ``join`` with ``pullback_partition``,
    without building the pulled-back partition. On a space whose weights
    are all equal, such as a cycle's, the keys lie in [0, n_atoms x
    alphabet), and while that span is at most twice the number of points
    they are built in one buffer and numbered through a first-point table
    with no sort and no pass for their least and greatest (see
    ``partitions._equal_weight_grouping``), in scratch allocated once per
    flow. Every join gets labels of its own, so a caller may keep them
    all. Unequal weights, zero weights and a wider span take
    ``Partition._from_labels``, with the same bytes.

    A symbolic system yields, for each n, the entropy H_n in bits of the
    exact distribution of the length-n words reduced through the symbol
    partition (the generating partition when ``partition`` is None), and
    the array the next length grows from, or None at n = n_max. It fails
    before any length would hold more than ``cap`` entries, whether or
    not that length is stored. Each word grows by one product with a row
    (see ``_grow_words``): the row p of a Bernoulli shift, or the row of Q
    of the word's last symbol under a Markov shift, read from a stack of
    Q's rows about one leaf deep, so that a unit of growth is one word
    under either. The array is the word vector; a lumped Bernoulli shift
    is the Bernoulli shift of its group masses. A lumped
    Markov alphabet grows a table over (reduced word without its last
    group, current symbol), since the next symbol's law depends on the
    current symbol and not on its group, and the current symbol fixes the
    last group; the array is that table. The table holds groups^(n-1) x m
    entries at length n; a group word's mass is the sum of its group's
    columns, and each group's rows grow by one matrix product with that
    group's rows of Q. The cap still counts groups^n x m entries, the size
    of a table keyed on the whole reduced word.

    Each length is summed as it grows, one cache-sized piece at a time
    (see ``_level_bits``), with the bytes of ``shannon_bits`` of its word
    masses. The group-word masses of a lumped Markov shift and the last
    length are never stored whole. The inputs are checked on the first
    ``next``, before anything is yielded.
    """
    if isinstance(system, PermutationSystem):
        if partition is None:
            raise ValidationError("a permutation system needs an explicit partition")
        cap = _positive_cap(cap)
        if partition.space != system.space:
            raise ValidationError("partition does not live on the system's space")
        # the symbol of each point under T^{-n}P, shifted up by one: the
        # labels pullback_partition gives, with 0 for a point whose orbit
        # has met a zero-weight point by step n
        space = system.space
        symbols = partition.atom_index_array + 1
        alphabet = partition.n_atoms + 1
        zero = np.flatnonzero(~(space.weight_array > 0.0))
        joined = partition
        yield joined
        if n_max > 1 and space._equal_weights:
            # the buffers of every equal-weight step; no partition keeps them
            keys = np.empty(space.size, dtype=np.int64)
            scratch = _Scratch.of(space.size, 2 * space.size)
        for _ in range(1, n_max):
            symbols = symbols[system.mapping]
            symbols[zero] = 0
            span = joined.n_atoms * alphabet
            if space._equal_weights and span <= 2 * space.size:
                np.multiply(joined.atom_index_array, alphabet, out=keys)
                keys += symbols
                joined = Partition._from_grouping(
                    space, _equal_weight_grouping(keys, span, scratch)
                )
            else:
                joined = Partition._from_labels(
                    space, joined.atom_index_array * alphabet + symbols
                )
            _check_cap(joined.n_atoms, cap)
            yield joined
        return
    labels = _symbol_labels(system, partition)
    cap = _positive_cap(cap)
    groups = int(labels.max()) + 1
    p = np.asarray(system.marginal, dtype=float)
    if system.transition is None:
        p = step = np.bincount(labels, weights=p)
    else:
        step = np.asarray(system.transition, dtype=float)
    m = p.size
    if system.transition is None or np.array_equal(labels, np.arange(m)):
        _check_cap(m, cap)
        # a unit of the next length grows from one word; a grow writes
        # only to ``out``, so every leaf set shares one
        if system.transition is None:

            def grow(lo: int, hi: int, out: np.ndarray, keep: bool) -> np.ndarray:
                _grow_words(words[lo:hi], step, out)
                return out

        else:
            # word w grows by row w % m of Q, its last symbol's row, read
            # from Q's rows stacked deep enough for the words of one call,
            # a leaf's and two more, from any offset
            reach = _TERM_BLOCK // m + 2
            rows = np.tile(step, (-(-reach // m) + 1, 1))

            def grow(lo: int, hi: int, out: np.ndarray, keep: bool) -> np.ndarray:
                at = lo % m
                _grow_words(words[lo:hi], rows[at : at + hi - lo], out)
                return out

        words = p
        zeros = not words.all()
        yield shannon_bits(words), (words if n_max > 1 else None)
        for n in range(2, n_max + 1):
            _check_cap(words.size * m, cap)
            level = np.empty(words.size * m) if n < n_max else None
            bits, zeros = _level_bits(words.size * m, m, lambda: grow, level, zeros)
            words = level
            yield bits, words
        return
    # symbols sorted by group, stably, so that each group is a column range
    order = np.argsort(labels, kind="stable")
    edges = np.searchsorted(labels[order], np.arange(groups + 1)).tolist()
    spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
    step = step[np.ix_(order, order)]
    # a unit is one row of the table, which grows one row per group, each
    # with one mass per group
    unit = groups**2

    def grower() -> Callable[[int, int, np.ndarray, bool], np.ndarray]:
        # the rows a leaf set grows and does not keep go to its own table:
        # one unit's rows while the length is stored, else a leaf's
        spare = np.empty((groups if kept is not None else rows, m))

        def grow(lo: int, hi: int, out: np.ndarray, keep: bool) -> np.ndarray:
            if keep and kept is not None:
                grown = kept[lo * groups : hi * groups]
            else:
                grown = spare[: (hi - lo) * groups]
            cells = grown.reshape(-1, groups, m)
            for g, span in enumerate(spans):
                np.matmul(table[lo:hi, span], step[span], out=cells[:, g])
            return _group_masses(grown, spans, out)

        return grow

    _check_cap(groups * m, cap)
    table = p[order].reshape(1, m)
    masses = _group_masses(table, spans)
    zeros = not masses.all()
    yield shannon_bits(masses), (table if n_max > 1 else None)
    for n in range(2, n_max + 1):
        # the next length counts groups^2 times this table's entries
        _check_cap(table.size * unit, cap)
        size = table.shape[0] * unit
        # the last table is never stored; its rows are grown a leaf at a time
        kept = np.empty((table.shape[0] * groups, m)) if n < n_max else None
        rows = min(size, _TERM_BLOCK + 2 * unit) // groups
        bits, zeros = _level_bits(size, unit, grower, None, zeros)
        table = kept
        yield bits, table


def _level_bits(
    size: int,
    unit: int,
    grower: Callable[[], Callable[[int, int, np.ndarray, bool], np.ndarray]],
    level: np.ndarray | None,
    zeros: bool,
) -> tuple[float, bool]:
    """``shannon_bits`` of a word level, summed as the level grows.

    The level has ``size`` masses in units of ``unit``: one word of the
    length before, whose m extensions are its masses, or one row of a
    lumped Markov table. ``grower()`` returns a ``grow(lo, hi, out, keep)``
    with scratch of its own, which writes the masses of units lo..hi to
    ``out`` and returns it. ``out`` is a slice of ``level`` when that
    keeps the level for the next step, else a buffer that holds one leaf;
    ``keep=False`` asks it to write nothing that the next step reads. A
    call grows at most one leaf's units and two more. Each leaf of the
    pairwise sum of ``shannon_bits`` grows the units that cover it, from
    the unit before its start to the unit after its end where the
    8-aligned splits fall mid-unit, and sums its terms while they are in
    cache. The leaf sums add up in the same tree, so the bits are those of
    ``shannon_bits`` of the whole level.

    ``_pairwise_sum`` may sum the two halves of the first split on two
    threads, each half with its own leaf buffers and ``grow``. A half
    stores the units that start in it. Where the split falls mid-unit,
    the second half grows that unit into its own buffer, with
    ``keep=False``; on a stored level it grows its first leaf there and
    copies the rest of it into ``level``.

    Zero masses are cut into leaves like the others, and each leaf sums
    the terms of its own positive masses, as a leaf of ``shannon_bits``
    does (``partitions._leaf_sum``). ``zeros`` says whether the level
    before held a zero mass. A word of zero mass extends only to words of
    zero mass, so this level then holds one too, and each leaf picks out
    its positive masses before their logarithms; otherwise a leaf learns
    of a zero from its NaN sum. Returns the bits and whether the level
    holds a zero mass.
    """
    held = False

    def leaves(start: int, stop: int) -> Callable[[int, int], np.float64]:
        grow = grower()
        # the unit that holds mass ``start``, when it starts before it
        shared = start // unit if start % unit else -1
        if level is None or shared >= 0:
            pieces = np.empty(min(size, _TERM_BLOCK + 2 * unit))
        terms = np.empty(min(stop - start, _TERM_BLOCK))

        def leaf(a: int, b: int) -> np.float64:
            nonlocal held
            lo, hi = a // unit, -(-b // unit)
            if level is None or lo == shared:
                masses = pieces[: (hi - lo) * unit]
            else:
                masses = level[lo * unit : hi * unit]
            if lo == shared:
                grow(lo, lo + 1, masses[:unit], False)
                grow(lo + 1, hi, masses[unit:], True)
                if level is not None:
                    level[(lo + 1) * unit : hi * unit] = masses[unit:]
            else:
                grow(lo, hi, masses, True)
            total, filtered = _leaf_sum(
                masses[a - lo * unit : b - lo * unit], terms, zeros
            )
            if filtered:  # only ever set, so either thread may
                held = True
            return total

        return leaf

    with np.errstate(divide="ignore", invalid="ignore"):
        total = _pairwise_sum(size, leaves)
    return _bits(total), held


def _group_masses(
    table: np.ndarray, spans: list[slice], out: np.ndarray | None = None
) -> np.ndarray:
    """The group-word masses: each row's sum over each group's columns.

    Row w and group g give entry ``w * len(spans) + g``, written to ``out``
    when it is given. The columns are added one at a time, each addition
    over all rows; a sum along each row would run numpy's inner loop over
    a few entries.
    """
    if out is None:
        out = np.empty(table.shape[0] * len(spans))
    masses = out.reshape(-1, len(spans))
    for g, span in enumerate(spans):
        mass = masses[:, g]
        np.copyto(mass, table[:, span.start])
        for column in range(span.start + 1, span.stop):
            np.add(mass, table[:, column], out=mass)
    return out


#: Largest alphabet whose word step runs with the axis of the words
#: innermost, by the number of axes of the step (1 for a Bernoulli row, 2
#: for rows of a Markov matrix); a larger one runs with the axis of the
#: new symbol innermost.
_COLUMN_STEP_MAX = {1: 12, 2: 6}


def _grow_words(words: np.ndarray, step: np.ndarray, out: np.ndarray) -> None:
    """Writes the masses of the words one symbol longer to ``out``.

    Word w followed by symbol b has mass ``words[w] * step[b]`` under a
    Bernoulli row and ``words[w] * step[w, b]`` under rows of a Markov
    matrix, where row w is the row of Q of the last symbol of w. The new
    words keep the order of ``words``.

    One call computes every product, in an order chosen by the shape.
    With the words' axis innermost (``order="F"``) numpy runs one long
    loop per output column, whose reads and writes are m entries apart;
    with the symbol's axis innermost its loops are m entries long. Timed
    on one leaf of 2^15 masses, which stays in cache (2-core Xeon, numpy
    2.4, ns per mass, words' axis / symbol's axis, two runs): Bernoulli
    m = 2 0.64-0.90 / 5.0-7.6, m = 7 1.44-1.55 / 2.0-2.7, m = 12 1.6-1.8
    / 1.4-1.8, m = 14 1.6-1.7 / 1.4-1.9, m = 16 2.1-2.2 / 1.4-1.8; Markov
    m = 2 0.67-1.06 / 2.2-3.6, m = 4 1.06-1.15 / 1.7-1.9, m = 6 1.34-1.55
    / 1.36-1.87, m = 7 1.6-1.8 / 1.2-1.6, m = 8 1.9 / 1.3-1.5, m = 16
    2.2-2.4 / 1.0-2.0. Whole reports near 2^20 masses agree: Markov m = 6
    runs faster on the words' axis, m = 8 and 9 on the symbol's, and
    Bernoulli m = 13 to 16 on the symbol's. Both orders compute the same
    products.
    """
    m = step.shape[-1]
    order = "F" if m <= _COLUMN_STEP_MAX[step.ndim] else "K"
    np.multiply(words[:, None], step, out=out.reshape(-1, m), order=order)


@dataclass(frozen=True)
class InfoRateReport:
    """Exact block entropies and the information production rate estimate.

    ``block_entropies[k]`` is H_{k+1} in bits, ``rates`` the H_n / n
    sequence, ``increments`` the differences H_n - H_{n-1} from n = 2 on.
    ``h_estimate`` is the final increment. ``converged`` reports whether
    the last increments agree within ``tolerance`` (spread of the last
    three, or of all of them when fewer exist).
    """

    n_max: int
    block_entropies: tuple[float, ...]
    rates: tuple[float, ...]
    increments: tuple[float, ...]
    h_estimate: float
    converged: bool
    tolerance: float


def info_rate_report(
    system: PermutationSystem | SymbolicSystem,
    partition: Partition | None = None,
    n_max: int = 16,
    *,
    tol: float = 1e-6,
    cap: int = DEFAULT_WORD_CAP,
) -> InfoRateReport:
    """Exact H_n for n = 1..n_max and the rate estimate H_n - H_{n-1}.

    Args:
        system: permutation or symbolic system.
        partition: partition of the system's space (permutation) or of its
            symbol space (symbolic; default is the generating partition).
        n_max: number of block lengths, at least 2 and at most
            ``MAX_NMAX``; a larger one raises ``ResourceCapError`` before
            any join or word is built.
        tol: stabilization tolerance for the convergence flag, positive.
        cap: hard bound on the words of each length, stored or not, or on
            the atoms of each join.
    """
    if n_max < 2:
        raise ValidationError(f"n_max must be at least 2, got {n_max}")
    if not tol > 0.0:  # NaN fails too
        raise ValidationError(f"tol must be positive, got {tol!r}")
    if n_max > MAX_NMAX:
        raise ResourceCapError(
            f"n_max {n_max} exceeds the ceiling of {MAX_NMAX} block lengths"
        )
    joins = _joins(system, partition, n_max, cap)
    if isinstance(system, PermutationSystem):
        h = tuple(entropy(joined) for joined in joins)
    else:
        h = tuple(bits for bits, _ in joins)
    increments = tuple(b - a for a, b in zip(h, h[1:]))
    tail = increments[-3:]
    return InfoRateReport(
        n_max=len(h),
        block_entropies=h,
        rates=tuple(x / (k + 1) for k, x in enumerate(h)),
        increments=increments,
        h_estimate=increments[-1],
        converged=(max(tail) - min(tail)) < tol,
        tolerance=tol,
    )


@dataclass(frozen=True)
class TheoremCheckResult:
    """Joint verdict of plateau detection and the rate estimate.

    ``consistent`` encodes the implication "refinements' flow with a limit
    point forces rate zero": it is False only when the plateau is
    witnessed yet the rate estimate stays at or above epsilon.
    """

    verdict: LimitPointVerdict
    h_estimate: float
    consistent: bool
    report: InfoRateReport


def theorem_limit_point_check(
    system: PermutationSystem | SymbolicSystem,
    partition: Partition | None = None,
    *,
    epsilon: float = DEFAULT_EPSILON,
    window: int | None = None,
    n_max: int = 24,
    cap: int = DEFAULT_WORD_CAP,
) -> TheoremCheckResult:
    """Check the join flow of a system for a limit point and rate zero.

    Materializes the entropy sequence of {join_{k<n} T^{-k}P} up to
    ``n_max``, runs plateau detection on it, and compares the verdict
    against the rate estimate.
    """
    report = info_rate_report(system, partition, n_max, cap=cap)
    verdict = detect_entropy_plateau(
        report.block_entropies,
        epsilon=epsilon,
        window=window,
        horizon=report.n_max,
    )
    consistent = verdict.status != "witnessed" or report.h_estimate < epsilon
    return TheoremCheckResult(
        verdict=verdict,
        h_estimate=report.h_estimate,
        consistent=consistent,
        report=report,
    )


def parse_system_spec(text: str) -> PermutationSystem | SymbolicSystem:
    """Parse a compact system spec string.

    Formats:
        ``bernoulli:0.5,0.5``                 product measure over the listed p
        ``markov:[[0.9,0.1],[0.5,0.5]]``      Markov shift, stationary pi derived
        ``cycle:4``                           cyclic shift on n uniform points
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ValidationError(
            f"system spec {text!r} needs the form kind:parameters"
        )
    kind = head.strip().lower()
    body = body.strip()
    if kind == "bernoulli":
        try:
            probs = [float(x) for x in body.split(",")]
        except ValueError:
            raise ValidationError(f"bad bernoulli probabilities {body!r}") from None
        return SymbolicSystem.bernoulli(probs)
    if kind == "markov":
        try:
            matrix = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad markov matrix {body!r}: {exc}") from None
        if not (
            isinstance(matrix, list)
            and matrix
            and all(isinstance(row, list) for row in matrix)
        ):
            raise ValidationError(f"markov matrix {body!r} must be a list of rows")
        return SymbolicSystem.markov(matrix)
    if kind == "cycle":
        try:
            n = int(body)
        except ValueError:
            raise ValidationError(f"bad cycle size {body!r}") from None
        return cyclic_system(n)
    raise ValidationError(
        f"unknown system kind {kind!r} (expected bernoulli, markov, or cycle)"
    )
