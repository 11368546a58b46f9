"""Every call site the benchmark's tracer wraps still names a callable.

The tracer looks each site up at run time and skips a missing one, so a
renamed or moved function shows up there only as an absent per-layer
metric. This reads its CALL_SITES and resolves each site here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# sites whose function the program no longer calls through that module
STALE = {"bunchsim.cli_harness.accumulate", "bunchsim.simulate.chunk_arrays"}


def call_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.CALL_SITES]


def test_every_traced_call_site_resolves_to_a_callable():
    sites = call_sites()
    assert sites
    lost = [
        f"{module}.{attr}"
        for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert [site for site in lost if site not in STALE] == []
