"""Block-spin partitions of Ising configuration spaces.

The measure lives on configurations, not sites, so a site-level blocking
only becomes a partition in the entropy calculus once it is pushed to the
configuration space: two configurations share an atom exactly when every
block variable (majority sign, ties broken by the block's first site, or
any other plugged-in rule) agrees between them.

Levels are chained recursively: level 0 applies the block rule to the raw
spins, level k + 1 applies it to the level-k block variables. Chaining is
what makes consecutive levels nested, hence a genuine coarse-graining
flow with nonincreasing entropy; applying the rule to raw spins at every
level independently does not nest in general.

Configurations are packed integers: configuration i has spin j down when
bit j of i is set, and each level's block variables are packed the same
way, one bit per block. A block rule must act on each row on its own, so
it is evaluated once per block length, on the (2^b, b) table of every
sign pattern, and range-checked there, even on patterns no configuration
shows. Site blockings and chained levels look up each block of the packed
integers in that table; the results are the partition keys.

A configuration's Boltzmann weight depends only on its class, the pair
(field sum, bond sum): 66 classes at 16 sites. So the block-spin flow
keeps, per level, a count table C_k[atom, class] of the configurations
in each level-k atom and class, and a level's atom masses are C_k w / Z
for the class weights w and Z = N . w, N counting each class. Only
level 0 is computed from the configurations, with one ``np.bincount``
over the level-0 atoms and the classes. Every higher level is a function
of the level-0 code, so it is computed on the quotient space with one
point per level-0 atom (at most 256 at the cap with blocks of 2),
weighted by the atom's mass, and the nesting of the levels is checked
there on every call; its count table sums level 0's over the quotient
atoms. Each entropy forms the largest atom's term from the sum of the
other masses, so a level whose dominant mass rounds to 1 keeps that
atom's share. The plateau verdicts are read from those entropies.

None of that depends on the couplings once the zero-weight classes are
fixed. So it is built once per shape, the tuple (sites, block size,
levels, the rule's values on the sign patterns of one block, zero-weight
classes), and only the last shape is kept, as are the classes of the
last chain length. A call tables the block rule (2^b patterns),
exponentiates the class weights, takes one product with the stacked
count tables, and builds and validates the quotient flow. The Gibbs
space, each level as a partition of it (a configuration takes the label
of its level-0 atom), their flow and its reverse (the refinement flow)
are built, and the flows validated, only when read.

Configuration enumeration is exact and capped at 2^16 configurations; the
environment variable ENTROFLOW_MAX_CONFIGS may lower (never raise) that
cap.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InconsistencyError, ResourceCapError, ValidationError
from .flows import LimitPointVerdict, PartitionFlow, detect_entropy_plateau, reverse
from .ising import (
    CouplingVector,
    _as_coupling,
    _field_and_bond_sums,
    _shifted_boltzmann,
    spin_configurations,
)
from .partitions import (
    FiniteProbabilitySpace,
    Partition,
    _canonical_grouping,
    _Grouping,
    make_space,
)

__all__ = [
    "DEFAULT_CONFIG_CAP",
    "ENV_CONFIG_CAP",
    "BlockMap",
    "IsingGibbsSpace",
    "LatticeSpec",
    "RgEntropyFlowResult",
    "block_site_partition",
    "effective_config_cap",
    "gibbs_space",
    "induced_config_partition",
    "majority_first_site",
    "rg_entropy_flow",
]

#: Hard cap on enumerated configurations.
DEFAULT_CONFIG_CAP = 2**16

#: Environment variable that may lower the cap.
ENV_CONFIG_CAP = "ENTROFLOW_MAX_CONFIGS"

#: A block rule: (rows, block_len) array of +-1 -> (rows,) of +-1, each row
#: mapped on its own. It is called once per block length, on the
#: (2^block_len, block_len) table of all sign patterns, and must return
#: +-1 on every one of them.
BlockMap = Callable[[np.ndarray], np.ndarray]


def effective_config_cap() -> int:
    """The configuration cap after applying the environment override.

    The override can only lower the built-in cap; larger values clamp to
    it. Unparseable or nonpositive values are rejected loudly.
    """
    raw = os.environ.get(ENV_CONFIG_CAP)
    if raw is None:
        return DEFAULT_CONFIG_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"{ENV_CONFIG_CAP}={raw!r} is not an integer"
        ) from None
    if value < 1:
        raise ValidationError(f"{ENV_CONFIG_CAP} must be positive, got {value}")
    return min(value, DEFAULT_CONFIG_CAP)


@dataclass(frozen=True)
class LatticeSpec:
    """A one-dimensional periodic lattice blocked into cells of fixed size."""

    site_count: int
    block_size: int = 2

    def __post_init__(self) -> None:
        if self.site_count < 2:
            raise ValidationError(f"need at least 2 sites, got {self.site_count}")
        if self.block_size < 2:
            raise ValidationError(f"block size must be at least 2, got {self.block_size}")

    def block_length(self, level: int) -> int:
        """Sites per block at a level; level 0 blocks ``block_size`` sites."""
        if level < 0:
            raise ValidationError(f"level must be nonnegative, got {level}")
        length = self.block_size ** (level + 1)
        if length > self.site_count:
            raise ValidationError(
                f"level {level} blocks {length} sites, more than the "
                f"{self.site_count} available"
            )
        if self.site_count % length != 0:
            raise ValidationError(
                f"block length {length} does not divide {self.site_count} sites"
            )
        return length

    @property
    def site_space(self) -> FiniteProbabilitySpace:
        """The sites under counting measure, the home of site partitions."""
        n = self.site_count
        return make_space(range(n), np.full(n, 1.0 / n))


def block_site_partition(spec: LatticeSpec, level: int) -> Partition:
    """Consecutive site blocks of length block_size^(level+1)."""
    length = spec.block_length(level)
    return Partition(
        spec.site_space,
        [range(start, start + length) for start in range(0, spec.site_count, length)],
    )


def majority_first_site(block: np.ndarray) -> np.ndarray:
    """Majority sign per row, ties resolved to the first column.

    The default block rule. Input rows are +-1 valued; the output is the
    sign of the row sum, falling back to the row's first entry when the
    sum vanishes.
    """
    totals = block.sum(axis=1, dtype=np.int64)
    out = np.sign(totals).astype(np.int8)
    tied = totals == 0
    out[tied] = block[tied, 0]
    return out


class _ConfigIds(Sequence[str]):
    """The ids of all 2^n configurations, each built when it is read.

    Id i lists the spins from site 0, "+" for up and "-" for down, site j
    being down when bit j of i is set; the ids are distinct by
    construction. Iterating builds them all at once.
    """

    def __init__(self, n_sites: int) -> None:
        self.n_sites = n_sites

    def __len__(self) -> int:
        return 1 << self.n_sites

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"configuration index {index} out of range")
        return "".join("-" if i >> j & 1 else "+" for j in range(self.n_sites))

    def __iter__(self) -> Iterator[str]:
        spins = spin_configurations(self.n_sites)
        ids = np.where(spins > 0, "+", "-").view(f"<U{self.n_sites}").ravel()
        return iter(ids.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ConfigIds):
            return self.n_sites == other.n_sites
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"_ConfigIds(n_sites={self.n_sites})"


@dataclass(frozen=True, eq=False)
class IsingGibbsSpace:
    """Boltzmann weights of the periodic Ising chain over all configurations.

    ``space`` carries the normalized weights with one point per
    configuration, point i being configuration index i (ids are +/-
    strings, site 0 first, built on access); ``configs`` is the matching
    read-only (2^n, n) array of spins, built on first use;
    ``log_normalization`` is the log of the enumerated partition function.
    """

    coupling: CouplingVector
    n_sites: int
    space: FiniteProbabilitySpace
    log_normalization: float

    @cached_property
    def configs(self) -> np.ndarray:
        spins = spin_configurations(self.n_sites)
        spins.setflags(write=False)
        return spins


def gibbs_space(
    k: CouplingVector | Sequence[float],
    n_sites: int,
) -> IsingGibbsSpace:
    """Enumerate the Gibbs measure exp(K0 sum S + K1 sum SS') / Z.

    The chain is periodic. Weights are exponentiated relative to the
    largest exponent, so every coupling inside the |K| <= 300 cap gives
    finite weights (the least likely configurations may underflow to 0).
    The enumerated log normalization agrees with the transfer-matrix
    ``log_partition_function`` to 1e-10, which is checked by the test
    suite rather than on every construction.
    """
    kk = _as_coupling(k)
    n = int(n_sites)
    if n < 2:
        raise ValidationError(f"need at least 2 sites, got {n_sites}")
    _check_config_cap(n)
    field, bonds = _field_and_bond_sums(n)
    # one buffer from the exponent to the weights: a new array per step
    # made the heap grow and shrink by about 1 MB on every cap-sized call
    # (224 minor page faults per call, glibc malloc, 2-core Linux host)
    weights = kk.k0 * field
    weights += kk.k1 * bonds
    weights, log_z = _shifted_boltzmann(weights)
    weights /= weights.sum()
    # the second rescaling gives the bytes of make_space(..., normalize=True)
    # on the once-normalized weights
    weights /= float(weights.sum())
    space = FiniteProbabilitySpace._from_distinct_ids(_ConfigIds(n), weights)
    return IsingGibbsSpace(coupling=kk, n_sites=n, space=space, log_normalization=log_z)


def _check_config_cap(n: int) -> None:
    """Refuse 2^n configurations past the cap, without building them."""
    cap = effective_config_cap()
    if n >= cap.bit_length():  # 2^n > cap
        count = 2**n if n <= 64 else f"2^{n}"
        raise ResourceCapError(
            f"{count} configurations exceed the cap of {cap} "
            f"({ENV_CONFIG_CAP} lowers it, never raises it)"
        )


def _rule_table(block_map: BlockMap, length: int) -> np.ndarray:
    """The rule on every sign pattern of a block of ``length`` spins.

    Entry p is 1 when the rule sends pattern p down and 0 when up, pattern
    p having spin t down when bit t of p is set: the same packing as the
    configuration indices, so the entries index the next level's tables.
    """
    patterns = spin_configurations(length)
    values = np.asarray(block_map(patterns))
    if values.shape != (patterns.shape[0],) or not np.all(np.abs(values) == 1):
        raise ValidationError("block map must return one +-1 value per row")
    return (values < 0).astype(np.int64)


def _block_codes(
    codes: np.ndarray,
    runs: Sequence[tuple[int, int]],
    table_of: Callable[[int], np.ndarray],
) -> np.ndarray:
    """Apply a block rule to runs of bits of every code.

    Each run is a (first bit, length) pair, and the rule's value on run t,
    one lookup in ``table_of(length)``, becomes bit t of the result; bits
    outside every run (sites left out) are ignored.
    """
    out = np.zeros_like(codes)
    for t, (first, length) in enumerate(runs):
        # the mask works in place: at 2^16 codes each temporary can be a
        # fresh mmap, and a third one per run made this loop twice as slow
        bits = codes >> first
        bits &= (1 << length) - 1
        out |= (table_of(length) << t)[bits]
    return out


def induced_config_partition(
    gibbs: IsingGibbsSpace,
    site_partition: Partition,
    block_map: BlockMap = majority_first_site,
) -> Partition:
    """Push a site blocking to the configuration space.

    Applies the block rule to the raw spins of every (contiguous) site
    block and gathers configurations with identical block-variable tuples
    into one atom.
    """
    if site_partition.space.size != gibbs.n_sites:
        raise ValidationError(
            f"site partition covers {site_partition.space.size} sites, "
            f"the configurations have {gibbs.n_sites}"
        )
    runs = []
    for atom in site_partition.atoms:
        sites = sorted(atom)
        if sites[-1] - sites[0] + 1 != len(sites):
            raise ValidationError(f"site block {sites} is not contiguous")
        runs.append((sites[0], len(sites)))
    table_of = cache(partial(_rule_table, block_map))
    keys = _block_codes(np.arange(gibbs.space.size, dtype=np.int64), runs, table_of)
    return Partition._from_labels(gibbs.space, keys)


class _Classes(NamedTuple):
    """The configurations of one chain length grouped by (field sum, bond sum).

    ``of`` is the read-only class of each configuration index. ``field``,
    ``bonds`` and ``counts`` hold each class's sums and its number of
    configurations, as floats. Classes are ordered by field sum, then by
    bond sum.
    """

    of: np.ndarray
    field: np.ndarray
    bonds: np.ndarray
    counts: np.ndarray


@lru_cache(maxsize=1)
def _classes(n_sites: int) -> _Classes:
    """The classes of the periodic n-site chain; only the last length is kept."""
    n = int(n_sites)
    field, bonds = _field_and_bond_sums(n)
    width = 2 * n + 1  # both sums lie in [-n, n]
    key = (field.astype(np.int64) + n) * width + (bonds.astype(np.int64) + n)
    counts = np.bincount(key, minlength=width * width)
    present = np.flatnonzero(counts)
    index = np.zeros(counts.size, dtype=np.int64)
    index[present] = np.arange(present.size)
    of = index[key]
    of.setflags(write=False)
    return _Classes(
        of,
        (present // width - n).astype(float),
        (present % width - n).astype(float),
        counts[present].astype(float),
    )


def _class_weights(kk: CouplingVector, classes: _Classes) -> tuple[np.ndarray, float, float]:
    """exp(K.c - top) for every class c, their total over the configurations, and log Z.

    top is the largest exponent, and each weight's exponent is taken from
    the class that reaches it, K0 (f - f_top) + K1 (b - b_top): a
    difference of exact integer sums, so the weights of the classes that
    carry the entropy keep their digits at |K| = 300, where K.c itself is
    off by up to about 1e-12.
    """
    exponent = kk.k0 * classes.field + kk.k1 * classes.bonds
    top = int(exponent.argmax())
    weights = np.exp(
        kk.k0 * (classes.field - classes.field[top])
        + kk.k1 * (classes.bonds - classes.bonds[top])
    )
    total = float(classes.counts @ weights)
    return weights, total, float(exponent[top]) + math.log(total)


def _runs(n_sites: int, block_size: int, level: int) -> list[tuple[int, int]]:
    """The (first bit, length) runs of a level's blocks in its packed codes."""
    return [(t * block_size, block_size) for t in range(n_sites // block_size ** (level + 1))]


def _level_zero(
    n_sites: int, block_size: int, table: np.ndarray, positive: np.ndarray | None
) -> tuple[np.ndarray, _Grouping]:
    """The level-0 code of every configuration, and the grouping of the ``positive`` ones."""
    codes = _block_codes(
        np.arange(1 << n_sites, dtype=np.int64),
        _runs(n_sites, block_size, 0),
        lambda length: table,
    )
    return codes, _canonical_grouping(codes, positive)


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """What a block-spin flow keeps of one shape: no coupling changes it.

    ``counts`` stacks the count tables of the levels, level 0 first, as
    float64 rows of exact integers: the row of a level-k atom counts its
    configurations in each class. ``atom_counts`` gives each level's rows,
    and ``quotient`` groups the quotient points (the level-0 atoms) into
    each level's atoms. ``table`` is the rule table of one block, and
    ``positive`` masks the configurations outside the zero-weight classes
    (None when there are none). The configurations grouped into each
    level's atoms, ``levels``, are built on first read.
    """

    n_sites: int
    block_size: int
    table: np.ndarray
    positive: np.ndarray | None
    counts: np.ndarray
    atom_counts: tuple[int, ...]
    quotient: tuple[_Grouping, ...]

    @cached_property
    def levels(self) -> tuple[_Grouping, ...]:
        """The configurations grouped into each level's atoms, level 0 first.

        A coarser level groups by the quotient label of each
        configuration's level-0 atom; the zero-weight ones are masked out.
        """
        positive = self.positive
        _, level0 = _level_zero(self.n_sites, self.block_size, self.table, positive)
        coarser = (
            _canonical_grouping(q.labels[level0.labels], positive) for q in self.quotient[1:]
        )
        return (level0, *coarser)


@lru_cache(maxsize=1)
def _skeleton(
    n_sites: int, block_size: int, levels: int, rule: bytes, zeros: bytes
) -> _Skeleton:
    """The skeleton of a shape whose zero-weight classes are ``zeros``.

    ``rule`` holds the rule table of one block (``_rule_table``) and
    ``zeros`` the indices of the zero-weight classes, both as int64
    bytes. ``_canonical_grouping`` groups the positive-weight
    configurations by level-0 code, and one ``np.bincount`` over their
    (atom, class) pairs makes level 0's count table. The quotient levels
    group the level-0 atoms by their codes, and each sums level 0's table
    over its atoms. Only the last shape is kept.
    """
    table = np.frombuffer(rule, dtype=np.int64)
    classes = _classes(n_sites)
    positive = None
    if zeros:
        zero = np.zeros(classes.counts.size, dtype=bool)
        zero[np.frombuffer(zeros, dtype=np.int64)] = True
        positive = ~zero[classes.of]
    codes, level0 = _level_zero(n_sites, block_size, table, positive)
    width = classes.counts.size
    kept = level0.order  # the positive-weight configurations
    count0 = np.bincount(
        level0.labels[kept] * width + classes.of[kept], minlength=level0.n_atoms * width
    ).reshape(level0.n_atoms, width)
    # the level-0 code of each atom, read at the atom's first point
    atom_codes = codes[level0.order[level0.starts[level0.by_first]]]
    # the atom masses are positive, so every quotient point is kept
    quotient = [_canonical_grouping(np.arange(level0.n_atoms), None)]
    tables = [count0]
    for level in range(1, levels):
        atom_codes = _block_codes(
            atom_codes, _runs(n_sites, block_size, level), lambda length: table
        )
        q = _canonical_grouping(atom_codes, None)
        quotient.append(q)
        tables.append(np.add.reduceat(count0[q.order], q.starts)[q.by_first])
    counts = np.concatenate(tables).astype(float)
    counts.setflags(write=False)
    return _Skeleton(
        n_sites=n_sites,
        block_size=block_size,
        table=table,
        positive=positive,
        counts=counts,
        atom_counts=tuple(t.shape[0] for t in tables),
        quotient=tuple(quotient),
    )


_LN2 = math.log(2.0)


def _entropy_bits(masses: np.ndarray) -> float:
    """Shannon entropy in bits of positive masses that sum to 1 up to rounding.

    The largest mass p enters as -(1 - e) log1p(-e) / ln 2, e being the
    sum of the others, not as -p log2 p: where p rounds to 1, the latter
    drops about e / ln 2, the whole entropy of a level that is nearly one
    atom.
    """
    top = int(masses.argmax())
    rest = np.concatenate((masses[:top], masses[top + 1 :]))
    rest_sum = float(rest.sum())
    others = float((rest * np.log2(rest)).sum())
    # the + 0.0 turns the signed zero of a one-atom level into plain 0.0
    return -others - (1.0 - rest_sum) * math.log1p(-rest_sum) / _LN2 + 0.0


@dataclass(frozen=True)
class RgEntropyFlowResult:
    """Entropy profile of a chained block-spin coarse graining.

    ``entropies`` and ``atom_counts`` hold each level's, level 0 first,
    and ``log_normalization`` is log Z from the class weights.
    ``quotient_flow`` is the validated coarse-graining flow of the levels
    on the quotient space, whose point j is level-0 atom j weighted by its
    mass. The Gibbs space (``gibbs_space``), every level as a partition of
    it (``partitions``), their flow ``coarse_flow`` and its reverse
    ``refinement_flow`` are built on first read, the flows validated.
    """

    coupling: CouplingVector
    n_sites: int
    block_size: int
    levels: int
    entropies: tuple[float, ...]
    atom_counts: tuple[int, ...]
    log_normalization: float
    quotient_flow: PartitionFlow
    coarse_verdict: LimitPointVerdict
    refinement_verdict: LimitPointVerdict
    _skeleton: _Skeleton = field(repr=False, compare=False)

    @cached_property
    def gibbs_space(self) -> IsingGibbsSpace:
        """The Gibbs space of the couplings, enumerated on first read."""
        return gibbs_space(self.coupling, self.n_sites)

    @cached_property
    def partitions(self) -> tuple[Partition, ...]:
        """Every level as a partition of the Gibbs space, level 0 first.

        A configuration takes the label of its level-0 atom. The Gibbs
        space must give weight 0 to the configurations of the zero-weight
        classes and to no others, or an :class:`InconsistencyError` is
        raised.
        """
        space = self.gibbs_space.space
        expected, found = self._skeleton.positive, space._positive
        if (expected is None) != (found is None) or (
            found is not None and not np.array_equal(found, expected)
        ):
            raise InconsistencyError(
                "the Gibbs space and the class weights disagree on which "
                "configurations have weight 0"
            )
        return tuple(Partition._from_grouping(space, g) for g in self._skeleton.levels)

    @property
    def level0(self) -> Partition:
        """The level-0 partition of the Gibbs space."""
        return self.partitions[0]

    @cached_property
    def coarse_flow(self) -> PartitionFlow:
        """The levels as partitions of the Gibbs space, validated on first read."""
        return PartitionFlow(self.level0.space, self.partitions, "coarse-graining")

    @cached_property
    def refinement_flow(self) -> PartitionFlow:
        """The coarse flow reversed, built and validated on first read."""
        return reverse(self.coarse_flow)


def rg_entropy_flow(
    k: CouplingVector | Sequence[float],
    n_sites: int,
    block_size: int = 2,
    levels: int = 1,
    block_map: BlockMap = majority_first_site,
) -> RgEntropyFlowResult:
    """Entropies along the chained block-spin flow, both directions.

    Level 0 blocks the raw spins of every configuration, one table lookup
    per block, as site blockings do. Each further level blocks the previous
    level's variables, and these are functions of the level-0 code, so
    they are computed once per level-0 atom: on the quotient space with
    one point per level-0 atom, weighted by its mass. The levels there
    nest by construction and are validated as a coarse-graining flow on
    every call. Both directions' plateau verdicts are read from the
    entropies (trivially witnessed for a single level).

    Per shape (sites, block size, levels, the block rule's values on the
    sign patterns of one block, and the zero-weight classes) the count
    tables of the levels and one grouping of the quotient points per
    level are built once, and the last shape is kept. Per call the rule
    is called once and the weights of the (field sum, bond sum) classes
    are exponentiated, 66 at 16 sites; one product with the count tables
    gives every level's atom masses, and the quotient flow is built and
    validated. The largest atom's entropy term is formed from the other
    masses (``_entropy_bits``). The Gibbs space and the levels as its
    partitions are built only when read; their labels are shared between
    results of one shape and cannot be written.
    """
    if levels < 1:
        raise ValidationError(f"levels must be at least 1, got {levels}")
    spec = LatticeSpec(site_count=int(n_sites), block_size=int(block_size))
    for level in range(levels):
        spec.block_length(level)  # validates divisibility up front
    kk = _as_coupling(k)
    n = spec.site_count
    _check_config_cap(n)
    # the rule is called on every call, so the shape holds its values
    rule = _rule_table(block_map, spec.block_size).tobytes()
    weights, total, log_z = _class_weights(kk, _classes(n))
    # a class whose normalized weight underflows weighs 0, as in the Gibbs space
    zero = weights / total == 0.0
    weights[zero] = 0.0
    skeleton = _skeleton(n, spec.block_size, levels, rule, np.flatnonzero(zero).tobytes())
    masses = skeleton.counts @ weights
    masses /= total
    by_level = np.split(masses, np.cumsum(skeleton.atom_counts[:-1]))
    entropies = tuple(map(_entropy_bits, by_level))
    quotient = FiniteProbabilitySpace._from_distinct_ids(
        range(skeleton.atom_counts[0]), by_level[0].copy()
    )
    on_quotient = tuple(Partition._from_grouping(quotient, q) for q in skeleton.quotient)
    flow = PartitionFlow(quotient, on_quotient, "coarse-graining")
    if levels == 1:
        trivial = LimitPointVerdict("witnessed", 0, 0.0)
        coarse_verdict = refinement_verdict = trivial
    else:
        coarse_verdict = detect_entropy_plateau(entropies)
        refinement_verdict = detect_entropy_plateau(entropies[::-1])
    return RgEntropyFlowResult(
        coupling=kk,
        n_sites=n,
        block_size=spec.block_size,
        levels=levels,
        entropies=entropies,
        atom_counts=skeleton.atom_counts,
        log_normalization=log_z,
        quotient_flow=flow,
        coarse_verdict=coarse_verdict,
        refinement_verdict=refinement_verdict,
        _skeleton=skeleton,
    )
