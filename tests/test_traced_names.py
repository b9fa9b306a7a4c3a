"""The traced benchmark's span list against the liporbit modules."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
