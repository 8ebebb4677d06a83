"""The per-layer tracer of the benchmark harness still binds the package.

`perfbench/run.py --trace 1` wraps named functions of every layer; a rename
or deletion of one of them breaks only that mode, which nothing else in the
test suite runs.
"""

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import chargeflow

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _bindings():
    """Every attribute of every chargeflow module, plus LatticeModel.eig."""
    from chargeflow.lattice import LatticeModel

    modules = [chargeflow] + [
        importlib.import_module(f"chargeflow.{info.name}")
        for info in pkgutil.iter_modules(chargeflow.__path__)
    ]
    found = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    found["LatticeModel", "eig"] = LatticeModel.__dict__["eig"]
    return found


def test_the_tracer_binds_every_layer_and_uninstall_restores_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        during = _bindings()
    finally:
        tracer.uninstall()
    patched = {key for key in before if during[key] is not before[key]}
    # 23 names, five of them also bound in a second module
    assert len(patched) == 28
    # each traced binding wraps the object it replaced
    assert all(inspect.unwrap(during[key]) is before[key] for key in patched)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
