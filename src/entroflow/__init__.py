"""Entropy of partition flows on finite probability spaces.

The package models measurable partitions of finite probability spaces,
sequences of such partitions ordered by coarsening or refinement, and two
families of systems that generate those sequences: measure-preserving
dynamics (permutations and shift spaces, leading to information-rate
estimates) and the nearest-neighbour Ising chain under decimation
(transfer matrices, the coupling-space flow, and block-spin entropy
profiles over exact Gibbs distributions).

Import from here for the public API; the submodules group the same names
by topic (``partitions``, ``flows``, ``dynamics``, ``ising``,
``lattice``, ``errors``).
"""

from __future__ import annotations

from . import dynamics, errors, flows, ising, lattice, partitions
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .flows import *  # noqa: F403
from .ising import *  # noqa: F403
from .lattice import *  # noqa: F403
from .partitions import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *partitions.__all__,
    *flows.__all__,
    *dynamics.__all__,
    *ising.__all__,
    *lattice.__all__,
]
