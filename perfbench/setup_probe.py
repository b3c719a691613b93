"""Time one set-up in a fresh interpreter; prints ``{"setup_s": ...}``.

    python3 perfbench/setup_probe.py experiment <spec.json>
    python3 perfbench/setup_probe.py service <spool-dir>

``experiment``: ``import repro`` plus ``Experiment.from_spec`` (read the
PHYLIP file, validate the config, compute Watterson's θ₀).
``service``: ``import repro`` plus ``ExperimentService`` construction.
The interpreter's own start-up is not timed.  ``repro`` must be importable
(``PYTHONPATH=src``).
"""

import json
import sys
import time

mode, target = sys.argv[1], sys.argv[2]
start = time.perf_counter()
import repro  # noqa: E402,F401

if mode == "experiment":
    from repro.api import Experiment

    Experiment.from_spec(target)
elif mode == "service":
    from repro.service.runner import ExperimentService

    ExperimentService(target, n_workers=2, multichain_mode="stacked").close()
else:
    raise SystemExit(f"unknown mode {mode!r}")
print(json.dumps({"setup_s": time.perf_counter() - start}))
