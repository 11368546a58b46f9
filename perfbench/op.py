"""One benchmark operation in a fresh interpreter.

Usage: python3 op.py SPEC.json

The spec (written by run.py) names the checkout, the configuration, the
``bunchsim`` command line and where to write the result. The child imports
``bunchsim.cli_harness`` and runs ``parse_config`` (set-up, which includes
the block-1 calibration), then times the operation: ``cli_harness.main`` with
the given arguments, followed for a replay by ``detector_bank.read_events``
and ``coincidence_unit.accumulate`` on the dumped events. The result JSON
holds the timings, ``ru_maxrss`` of this process, the library versions and,
when traced, the spans and counts.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, install

# configuration keys the output checks in run.py need
CONFIG_KEYS = ("mean_photon_number", "slot_rate", "efficiency", "dark_rate", "window_ps", "acquisition_s")


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def run(spec: dict, result: dict) -> int:
    tracer = Tracer(spec["op_id"]) if spec["trace"] else None
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()

    with span("setup"):
        with span("cli_harness.import"):
            import bunchsim.cli_harness  # noqa: F401

        modules = sys.modules
        source = Path(modules["bunchsim"].__file__).resolve()
        if Path(spec["root"]).resolve() / "src" not in source.parents:
            raise RuntimeError(f"imported bunchsim from {source}, not from the checkout")
        if tracer:
            install(tracer)
        cli = modules["bunchsim.cli_harness"]
        cfg = cli.parse_config("", dict(spec["overrides"]))
    result["setup_done"] = time.perf_counter()
    result["versions"] = _versions()
    if spec["setup_only"]:
        return 0

    start = time.perf_counter()
    with span("op"):
        rc = cli.main(list(spec["argv"]))
        replay = spec["replay"]
        if rc == 0 and replay:
            bank = modules["bunchsim.detector_bank"]
            unit = modules["bunchsim.coincidence_unit"]
            streams = bank.read_events(replay["events"], "binary")
            tally = unit.accumulate(
                streams, unit.CcuConfig(window_ps=cfg.window_ps, acquisition_s=cfg.acquisition_s)
            )
            Path(replay["tally"]).write_text(unit.tally_to_csv(tally))
    result["wall"] = time.perf_counter() - start
    result["slots"] = math.floor(cfg.acquisition_s * cfg.slot_rate)
    result["config"] = {key: getattr(cfg, key) for key in CONFIG_KEYS}
    if tracer:
        result.update(spans=tracer.spans, counts=tracer.counts, installed=sorted(tracer.installed),
                      absent=tracer.absent)
    return rc


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result: dict = {}
    try:
        rc = run(spec, result)
    except Exception:  # boundary: run.py counts this operation as failed
        result["error"] = traceback.format_exc()
        rc = 2
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
