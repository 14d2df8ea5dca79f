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
way, one bit per block. A block rule must act on each row on its own,
so it is evaluated once, on the (2^b, b) table of every sign pattern of
a block, and range-checked there: a rule that returns anything but +-1
on some pattern is rejected even when no configuration shows that
pattern. The levels are then table lookups on the packed integers, which
also serve as the partition keys.

Configuration enumeration is exact and capped at 2^16 configurations; the
environment variable ENTROFLOW_MAX_CONFIGS may lower (never raise) that
cap.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError
from .flows import LimitPointVerdict, PartitionFlow, detect_limit_point, reverse
from .ising import CouplingVector, _as_coupling, _field_and_bond_sums, spin_configurations
from .partitions import FiniteProbabilitySpace, Partition, entropy, make_space

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
        return make_space(tuple(range(n)), (1.0 / n,) * n)


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

    def __hash__(self) -> int:
        return hash(tuple(self))

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
    cap = effective_config_cap()
    if 2**n > cap:
        raise ResourceCapError(
            f"{2**n} configurations exceed the cap of {cap} "
            f"({ENV_CONFIG_CAP} lowers it, never raises it)"
        )
    field, bonds = _field_and_bond_sums(n)
    exponent = kk.k0 * field + kk.k1 * bonds
    top = exponent.max()
    boltzmann = np.exp(exponent - top)
    total = boltzmann.sum()
    weights = boltzmann / total
    # the second rescaling gives the bytes of make_space(..., normalize=True)
    # on the once-normalized weights
    space = FiniteProbabilitySpace._from_distinct_ids(
        _ConfigIds(n), weights / float(weights.sum())
    )
    log_z = float(top + np.log(total))
    return IsingGibbsSpace(coupling=kk, n_sites=n, space=space, log_normalization=log_z)


def _contiguous_blocks(site_partition: Partition) -> list[np.ndarray]:
    blocks = []
    for atom in site_partition.atoms:
        sites = np.array(sorted(atom), dtype=np.int64)
        if sites.size > 1 and np.any(np.diff(sites) != 1):
            raise ValidationError(
                f"site block {sorted(atom)} is not contiguous"
            )
        blocks.append(sites)
    return blocks


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
    codes: np.ndarray, table: np.ndarray, length: int, blocks: int
) -> np.ndarray:
    """Apply a rule table to the first ``blocks`` runs of ``length`` bits.

    Block t of each code is bits t*length .. (t+1)*length - 1, and its
    variable becomes bit t of the result. Neighbouring blocks are looked
    up together, up to 12 bits at once, through the table of the rule on
    that many blocks.
    """
    group = min(blocks, max(1, 12 // length))
    patterns = np.arange(1 << group * length, dtype=np.int64)
    wide = np.zeros_like(patterns)
    for t in range(group):
        wide |= table[(patterns >> t * length) & ((1 << length) - 1)] << t
    out = np.zeros_like(codes)
    for start in range(0, blocks, group):
        out |= wide[(codes >> start * length) & (patterns.size - 1)] << start
    # a short last group reads absent blocks as pattern 0; drop their bits
    return out & ((1 << blocks) - 1)


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
    index = np.arange(gibbs.space.size, dtype=np.int64)
    tables: dict[int, np.ndarray] = {}
    keys = np.zeros_like(index)
    for column, sites in enumerate(_contiguous_blocks(site_partition)):
        length = sites.size
        if length not in tables:
            tables[length] = _rule_table(block_map, length)
        pattern = (index >> sites[0]) & ((1 << length) - 1)
        keys |= tables[length][pattern] << column
    return Partition._from_labels(gibbs.space, keys)


@dataclass(frozen=True)
class RgEntropyFlowResult:
    """Entropy profile of a chained block-spin coarse graining."""

    coupling: CouplingVector
    n_sites: int
    block_size: int
    levels: int
    entropies: tuple[float, ...]
    atom_counts: tuple[int, ...]
    coarse_flow: PartitionFlow
    refinement_flow: PartitionFlow
    coarse_verdict: LimitPointVerdict
    refinement_verdict: LimitPointVerdict


def rg_entropy_flow(
    k: CouplingVector | Sequence[float],
    n_sites: int,
    block_size: int = 2,
    levels: int = 1,
    block_map: BlockMap = majority_first_site,
    *,
    epsilon: float = 1e-9,
) -> RgEntropyFlowResult:
    """Entropies along the chained block-spin flow, both directions.

    Level 0 blocks the raw spins; each further level blocks the previous
    level's block variables. The induced configuration partitions are
    nested by construction, so the forward flow validates as coarse
    graining and its reverse as refinement, and the entropy sequence is
    nonincreasing. Plateau verdicts are attached for both directions
    (trivially witnessed for a single level).
    """
    if levels < 1:
        raise ValidationError(f"levels must be at least 1, got {levels}")
    spec = LatticeSpec(site_count=int(n_sites), block_size=int(block_size))
    for level in range(levels):
        spec.block_length(level)  # validates divisibility up front
    gibbs = gibbs_space(k, n_sites)
    table = _rule_table(block_map, spec.block_size)
    codes = np.arange(gibbs.space.size, dtype=np.int64)
    width = gibbs.n_sites
    partitions: list[Partition] = []
    for _ in range(levels):
        width //= spec.block_size
        codes = _block_codes(codes, table, spec.block_size, width)
        partitions.append(Partition._from_labels(gibbs.space, codes))
    coarse = PartitionFlow(gibbs.space, tuple(partitions), "coarse-graining")
    refinement = reverse(coarse)
    entropies = tuple(entropy(p) for p in partitions)
    if levels == 1:
        trivial = LimitPointVerdict("witnessed", 0, 0.0)
        coarse_verdict = refinement_verdict = trivial
    else:
        window = min(len(coarse), 8)
        coarse_verdict = detect_limit_point(coarse, epsilon=epsilon, window=window)
        refinement_verdict = detect_limit_point(
            refinement, epsilon=epsilon, window=window
        )
    return RgEntropyFlowResult(
        coupling=gibbs.coupling,
        n_sites=gibbs.n_sites,
        block_size=spec.block_size,
        levels=levels,
        entropies=entropies,
        atom_counts=tuple(p.n_atoms for p in partitions),
        coarse_flow=coarse,
        refinement_flow=refinement,
        coarse_verdict=coarse_verdict,
        refinement_verdict=refinement_verdict,
    )

