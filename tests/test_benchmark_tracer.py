"""The benchmark's tracer wraps public names in majlab's module namespaces
(for example `majlab.structure.step` or `majlab.oracle.step_mask`).  A
change that drops one of those names breaks every traced benchmark run, so
the tracer must still install, record and uninstall against these sources.
"""

import sys
import types
from pathlib import Path

import majlab
from majlab.harness import ExperimentConfig, run_sweep
from majlab.stats import lemma_report

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # compiled from its text, so nothing is written next to the benchmark
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _namespaces() -> dict[str, dict]:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "majlab" or name.startswith("majlab.")}


def test_tracer_installs_records_and_uninstalls():
    tracing = _load_tracer()
    before = _namespaces()
    t = tracing.Tracer()
    tracing.install(t)
    try:
        assert majlab.dynamics.step is not before["majlab.dynamics"]["step"]
        run_sweep(ExperimentConfig(n_values=(30,), p_values=(0.2,),
                                   delta_values=(2,), trials=3, master_seed=1))
        lemma_report(30, 0.2, 2, 100)
    finally:
        t.uninstall()
    assert t.calls("dynamics.run") >= 3 and t.calls("graphs.sample_gnp") >= 3
    assert t.calls("dynamics.run") >= 103 and t.calls("graphs.sample_gnp") >= 103
    assert t.counters["graphs.edges"] > 0
    after = _namespaces()
    for name, names in before.items():
        assert all(after[name][k] is v for k, v in names.items()), name
