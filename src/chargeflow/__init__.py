"""Quantum particle-creation models with point sources.

Subpackages cover: symmetry classification of source couplings (`model`),
the explicit ground state with its currents and samplers (`groundstate`),
truncated lattice Fock models with Bell-type jump processes (`lattice`),
continuum Bohmian trajectories with stochastic creation/annihilation
(`process`), one-dimensional boundary-condition analogues (`boundary`),
and a config-driven command line interface (`cli`).  The package re-exports
the `__all__` of each of these modules except `cli`, plus `presets`.
"""

from . import boundary, groundstate, lattice, model, presets, process
from .boundary import *  # noqa: F403
from .groundstate import *  # noqa: F403
from .lattice import *  # noqa: F403
from .model import *  # noqa: F403
from .presets import *  # noqa: F403
from .process import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *groundstate.__all__,
    *lattice.__all__,
    *process.__all__,
    *boundary.__all__,
    *presets.__all__,
    "__version__",
]
