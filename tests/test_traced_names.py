"""The benchmark's span list and imports against the liporbit modules."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from liporbit import cli

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


def test_inclusion_gate_projects_each_kink_node_through_action(monkeypatch):
    # perfbench/test_perfbench.py counts one traced action.project_hull
    # call per node of the unit circle, where every node sits on the kink.
    from liporbit import action, verification
    from liporbit.potentials import make_maxpair
    from liporbit.trajectory import PeriodicTrajectory, default_grid_size

    calls = []
    project_hull = action.project_hull

    def counted(*args, **kwargs):
        calls.append(args)
        return project_hull(*args, **kwargs)

    monkeypatch.setattr(action, "project_hull", counted)
    K = 64
    a, b = np.zeros((K, 2)), np.zeros((K, 2))
    a[0, 0] = b[0, 1] = 1.0
    verification.inclusion_residual(PeriodicTrajectory(2.5, np.zeros(2), a, b),
                                    make_maxpair(2))
    assert len(calls) == default_grid_size(K) == 260


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


def _bench_configs():
    yield from cli.BENCH_CONFIGS.values()
    # workloads.py imports checks and speed from perfbench/.
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, workloads)     # for its dataclasses
        spec.loader.exec_module(workloads)
    yield workloads.SmoothSweep.config(*workloads.SmoothSweep.GRID[0], 0)
    yield workloads.KinkSweep.config(workloads.KinkSweep.GRID[0], 0)


def test_every_config_perfbench_solves_is_accepted():
    # A config the benchmark passes and from_dict rejects kills the
    # benchmark's setup before any solve.
    for raw in _bench_configs():
        cfg = cli.RunConfig.from_dict(dict(raw))
        cfg.build_model()
        cfg.solver_config()
