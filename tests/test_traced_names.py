"""The benchmark's span list and imports against the liporbit modules."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_spanned_name_resolves_in_its_module():
    # perfbench/tracing.py patches these functions by name; a rename or a
    # deletion in liporbit must fail here, not only in a traced run.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANNED
    missing = [f"{mod}.{name}" for mod, names in tracing.SPANNED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"liporbit.{mod}"),
                                       name, None))]
    assert missing == []


def test_names_perfbench_patches_are_the_action_functions():
    # perfbench/test_perfbench.py patches and restores these bindings; a
    # cleanup that drops one of the imports must fail here too.
    from liporbit import action, solver, verification

    assert solver.action_value is action.action_value
    assert verification.project_hull is action.project_hull


def test_every_name_perfbench_imports_resolves():
    # perfbench imports these names from liporbit; deleting one must fail
    # here, not only when the benchmark runs.
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("liporbit"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("liporbit"):
                        importlib.import_module(alias.name)
    assert missing == []
