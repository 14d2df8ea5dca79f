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
shows. Site blockings and chained levels are then one and the same table
lookup on the packed integers, whose results are the partition keys. The
plateau verdicts are read from the level entropies, each computed once,
and the reversed (refinement) flow is built only when read.

Configuration enumeration is exact and capped at 2^16 configurations; the
environment variable ENTROFLOW_MAX_CONFIGS may lower (never raise) that
cap.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError
from .flows import LimitPointVerdict, PartitionFlow, detect_entropy_plateau, reverse
from .ising import (
    CouplingVector,
    _as_coupling,
    _field_and_bond_sums,
    _shifted_boltzmann,
    spin_configurations,
)
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
    # named, so that it lives until the space is built: freed sooner, it
    # moved the heap top, and the page faults slowed a cap-sized
    # entropy-flow by 6-8% (glibc malloc, 2-core Linux host)
    exponent = kk.k0 * field + kk.k1 * bonds
    boltzmann, log_z = _shifted_boltzmann(exponent)
    weights = boltzmann / boltzmann.sum()
    # the second rescaling gives the bytes of make_space(..., normalize=True)
    # on the once-normalized weights
    space = FiniteProbabilitySpace._from_distinct_ids(
        _ConfigIds(n), weights / float(weights.sum())
    )
    return IsingGibbsSpace(coupling=kk, n_sites=n, space=space, log_normalization=log_z)


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

    Each run is a (first bit, length) pair, runs in bit order, and the
    rule's value on run t becomes bit t of the result. Neighbouring runs
    are looked up together, 12 // longest run at a time, through one table
    built from ``table_of(length)`` over the bits they span; bits between
    runs (sites left out) sit in its patterns and are ignored.
    """
    group = max(1, 12 // max(length for _, length in runs))
    out = np.zeros_like(codes)
    for start in range(0, len(runs), group):
        chunk = runs[start : start + group]
        low = chunk[0][0]
        patterns = np.arange(1 << (chunk[-1][0] + chunk[-1][1] - low), dtype=np.int64)
        wide = np.zeros_like(patterns)
        for t, (first, length) in enumerate(chunk):
            bits = (patterns >> (first - low)) & ((1 << length) - 1)
            wide |= table_of(length)[bits] << t
        out |= wide[(codes >> low) & (patterns.size - 1)] << start
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
    keys = _block_codes(
        np.arange(gibbs.space.size, dtype=np.int64),
        sorted(runs),
        cache(partial(_rule_table, block_map)),
    )
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
    coarse_verdict: LimitPointVerdict
    refinement_verdict: LimitPointVerdict

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

    Level 0 blocks the raw spins and each further level the previous
    level's block variables, by the lookup that site blockings use too.
    The induced configuration partitions nest by construction, so the
    forward flow validates as coarse graining, once, and the entropies
    are nonincreasing. Both directions' plateau verdicts are read from
    those entropies (trivially witnessed for a single level); the
    refinement flow is built on first read.
    """
    if levels < 1:
        raise ValidationError(f"levels must be at least 1, got {levels}")
    spec = LatticeSpec(site_count=int(n_sites), block_size=int(block_size))
    for level in range(levels):
        spec.block_length(level)  # validates divisibility up front
    gibbs = gibbs_space(k, n_sites)
    b = spec.block_size
    table_of = cache(partial(_rule_table, block_map))
    codes = np.arange(gibbs.space.size, dtype=np.int64)
    partitions: list[Partition] = []
    for level in range(levels):
        runs = [(t * b, b) for t in range(gibbs.n_sites // b ** (level + 1))]
        codes = _block_codes(codes, runs, table_of)
        partitions.append(Partition._from_labels(gibbs.space, codes))
    coarse = PartitionFlow(gibbs.space, tuple(partitions), "coarse-graining")
    entropies = tuple(entropy(p) for p in partitions)
    if levels == 1:
        trivial = LimitPointVerdict("witnessed", 0, 0.0)
        coarse_verdict = refinement_verdict = trivial
    else:
        coarse_verdict = detect_entropy_plateau(entropies)
        refinement_verdict = detect_entropy_plateau(entropies[::-1])
    return RgEntropyFlowResult(
        coupling=gibbs.coupling,
        n_sites=gibbs.n_sites,
        block_size=spec.block_size,
        levels=levels,
        entropies=entropies,
        atom_counts=tuple(p.n_atoms for p in partitions),
        coarse_flow=coarse,
        coarse_verdict=coarse_verdict,
        refinement_verdict=refinement_verdict,
    )
