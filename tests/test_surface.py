"""Every public name of the package runs, is traced, or is verification API.

A public top-level function or class of `src/chargeflow`, or a public method
of such a class, passes when code in the package references it (as a name
or an attribute) outside its own definition, when perfbench's tracer patches
it by name, or when the README's "Verification API" section lists it.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chargeflow"


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )


def _references(tree):
    """(name, line) of every Name and Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _traced_names():
    """The names that perfbench's tracer patches in the package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        return {attr for _, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()


def _verification_api():
    """The names that open the bullets of the README's Verification API section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Verification API\n(.*?)(?=^## )", text, re.M | re.S)
    assert section, "README.md has no '## Verification API' section"
    return set(re.findall(r"^- `(\w+)`", section.group(1), re.M))


def test_every_public_name_has_a_caller_a_tracer_hook_or_a_verification_entry():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    allowed = _traced_names() | _verification_api()
    uncalled = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for node in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            called = any(
                name == node.name and not (where == path and line in own)
                for where, found in refs.items()
                for name, line in found
            )
            if not called and node.name not in allowed:
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, "public names that nothing in src/chargeflow calls: " + ", ".join(uncalled)


def test_the_verification_api_names_exist_and_have_no_caller():
    # a listed name that gained a caller, or that no longer exists, is stale
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    defined = {node.name for tree in trees for node in _public_definitions(tree)}
    referenced = {name for tree in trees for name, _ in _references(tree)}
    api = _verification_api()
    assert api <= defined
    assert not api & referenced
