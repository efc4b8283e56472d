"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps functions
of interpmac by name.  Installing it here makes a renamed or removed
traced name fail the tier-1 suite, not only `pytest perfbench`."""

import importlib.util
from pathlib import Path

from interpmac import interpolation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_on_current_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = interpolation.monomial_matrix
    with tracer.Tracer():
        assert interpolation.monomial_matrix.__wrapped__ is original
    assert interpolation.monomial_matrix is original
