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

Configuration enumeration is exact and capped at 2^16 configurations; the
environment variable ENTROFLOW_MAX_CONFIGS may lower (never raise) that
cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError
from .flows import LimitPointVerdict, PartitionFlow, detect_limit_point, reverse
from .ising import CouplingVector, spin_configurations
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

#: A block rule: (n_configs, block_len) array of +-1 -> (n_configs,) of +-1.
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


@dataclass(frozen=True, eq=False)
class IsingGibbsSpace:
    """Boltzmann weights of the periodic Ising chain over all configurations.

    ``space`` carries the normalized weights with one point per
    configuration (ids are +/- strings, site 0 first); ``configs`` is the
    matching (2^n, n) array of spins; ``log_normalization`` is the log of
    the enumerated partition function.
    """

    coupling: CouplingVector
    n_sites: int
    space: FiniteProbabilitySpace
    configs: np.ndarray
    log_normalization: float

    def __post_init__(self) -> None:
        self.configs.setflags(write=False)


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
    kk = k if isinstance(k, CouplingVector) else CouplingVector(*map(float, k))
    n = int(n_sites)
    if n < 2:
        raise ValidationError(f"need at least 2 sites, got {n_sites}")
    cap = effective_config_cap()
    if 2**n > cap:
        raise ResourceCapError(
            f"{2**n} configurations exceed the cap of {cap} "
            f"({ENV_CONFIG_CAP} lowers it, never raises it)"
        )
    spins = spin_configurations(n)
    field = spins.sum(axis=1, dtype=np.int64)
    bonds = (spins * np.roll(spins, -1, axis=1)).sum(axis=1, dtype=np.int64)
    exponent = kk.k0 * field + kk.k1 * bonds
    top = exponent.max()
    boltzmann = np.exp(exponent - top)
    total = boltzmann.sum()
    ids = np.where(spins > 0, "+", "-").view(f"<U{n}").ravel().tolist()
    space = make_space(ids, boltzmann / total, normalize=True)
    log_z = float(top + np.log(total))
    return IsingGibbsSpace(
        coupling=kk, n_sites=n, space=space, configs=spins, log_normalization=log_z
    )


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


def _partition_from_variables(
    gibbs: IsingGibbsSpace, variables: np.ndarray
) -> Partition:
    """Group configurations by identical block-variable rows.

    Each row of +-1 values is packed into one integer key, bit j set when
    column j is +1; at most 16 columns arise under the configuration cap.
    """
    bits = np.left_shift(1, np.arange(variables.shape[1], dtype=np.int64))
    return Partition._from_labels(gibbs.space, (variables > 0) @ bits)


def _apply_block_map(
    values: np.ndarray, block_size: int, block_map: BlockMap
) -> np.ndarray:
    n_cols = values.shape[1]
    if n_cols % block_size != 0:
        raise ValidationError(
            f"{n_cols} columns do not split into blocks of {block_size}"
        )
    out = np.empty((values.shape[0], n_cols // block_size), dtype=np.int8)
    for b in range(n_cols // block_size):
        result = np.asarray(
            block_map(values[:, b * block_size : (b + 1) * block_size])
        )
        if not np.all(np.abs(result) == 1):
            raise ValidationError("block map must return +-1 values")
        out[:, b] = result
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
    blocks = _contiguous_blocks(site_partition)
    columns = [
        _apply_block_map(gibbs.configs[:, sites], sites.size, block_map)
        for sites in blocks
    ]
    return _partition_from_variables(gibbs, np.hstack(columns))


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
    variables = gibbs.configs
    partitions: list[Partition] = []
    for _ in range(levels):
        variables = _apply_block_map(variables, spec.block_size, block_map)
        partitions.append(_partition_from_variables(gibbs, variables))
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

