"""scipy stays off the run path.

Importing ``scipy.optimize`` costs a process about as much start-up time
and memory as everything else a run imports, so nothing ``repro`` imports
or runs may pull scipy in; only :mod:`repro.simulate.wright_fisher`
imports ``scipy.stats`` lazily.  A fresh interpreter drives the package
end to end and then checks ``sys.modules``; the static lint
``tools/check_runtime_imports.py`` guards the source.  The same run must
not load ``numpy.ma`` either (about 1 MiB of resident memory per process).
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_RUN_SCRIPT = textwrap.dedent(
    """
    import math
    import sys
    from pathlib import Path

    import numpy as np

    import repro
    from repro.api import Experiment, RunSpec
    from repro.core.config import MPCGSConfig, SamplerConfig
    from repro.demography.models import LogisticDemography
    from repro.sequences.phylip import write_phylip
    from repro.simulate.datasets import synthesize_dataset

    work = Path(sys.argv[1])
    data = synthesize_dataset(
        n_sequences=8, n_sites=60, true_theta=1.0, rng=np.random.default_rng(3)
    )
    write_phylip(data.alignment, work / "seqs.phy")
    chain = SamplerConfig(n_proposals=4, n_samples=20, burn_in=5)
    for n, demography in enumerate(("constant", "exponential")):
        config = MPCGSConfig(sampler=chain, n_em_iterations=2, demography=demography)
        spec = RunSpec(config=config, sequence_file=str(work / "seqs.phy"), seed=11)
        spec.save(work / f"spec{n}.json")
        report = Experiment.from_spec(work / f"spec{n}.json").run()
        assert math.isfinite(report.theta) and report.theta > 0
    t = LogisticDemography().inverse_cumulative_intensity(0.7)
    assert 0.0 < t < math.inf

    print("NUMPY_MA=" + str("numpy.ma" in sys.modules))
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print("SCIPY_MODULES=" + ",".join(loaded))
    """
)


def test_a_run_loads_no_scipy(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _RUN_SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    *_, numpy_ma, marker = out.stdout.strip().splitlines()
    assert marker == "SCIPY_MODULES=", f"scipy loaded on the run path: {marker[:120]}..."
    # numpy.ma (pulled in by np.unique, among others) costs about 1 MiB per process.
    assert numpy_ma == "NUMPY_MA=False", "numpy.ma loaded on the run path"


def _load_lint():
    path = REPO_ROOT / "tools" / "check_runtime_imports.py"
    spec = importlib.util.spec_from_file_location("check_runtime_imports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_static_lint_passes_on_the_tree():
    assert _load_lint().violations() == []


def test_static_lint_flags_every_import_form(tmp_path):
    lint = _load_lint()
    source = textwrap.dedent(
        """
        import scipy
        import numpy, scipy.stats as st
        from scipy.optimize import brentq
        from scipy import special

        def lazy():
            from scipy.linalg import solve
        """
    )
    path = tmp_path / "module.py"
    path.write_text(source)
    assert [line for line, _ in lint.scipy_imports(path)] == [2, 3, 4, 5, 8]
    path.write_text("import numpy\nfrom .scipy_like import x\n# import scipy\n")
    assert lint.scipy_imports(path) == []
