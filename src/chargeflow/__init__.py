"""Quantum particle-creation models with point sources.

Subpackages cover: symmetry classification of source couplings (`model`),
the explicit ground state with its currents and samplers (`groundstate`),
truncated lattice Fock models with Bell-type jump processes (`lattice`),
continuum Bohmian trajectories with stochastic creation/annihilation
(`process`), one-dimensional boundary-condition analogues (`boundary`),
and a config-driven command line interface (`cli`).  The package re-exports
the `__all__` of each of these modules except `cli`.

The re-exports resolve on first access (PEP 562), so importing the package
or one of its light modules (`model`, `config`, `io`, `cli`) loads no scipy.
"""

import importlib

__version__ = "0.1.0"

# the re-exporting modules, in the order of `__all__`
_MODULES = ("model", "groundstate", "lattice", "process", "boundary")
# every submodule: `from chargeflow import cli` asks this hook for `cli`
# before it imports the submodule, and must not load the others to answer
_SUBMODULES = (*_MODULES, "pvalues", "config", "io", "g17", "cli")


def __getattr__(name):
    """Import the submodule `name`, or the module of `_MODULES` that exports
    `name`, and bind the result in the package namespace."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = [*(n for m in _MODULES for n in __getattr__(m).__all__), "__version__"]
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        module = next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value
