"""The ``backend`` config field and engine keyword accept numpy only.

The likelihood kernels call numpy directly.  ``MPCGSConfig.backend`` and the
``backend=`` keyword of :func:`repro.core.registry.make_engine` remain, but
any value other than ``"numpy"`` is rejected with a ``ValueError`` that names
numpy, and the field never reaches a spec document or its content hash.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec
from repro.core.config import MPCGSConfig
from repro.core.registry import make_engine
from repro.likelihood.fused import FusedEngine
from repro.likelihood.mutation_models import Felsenstein81
from repro.simulate.datasets import synthesize_dataset


@pytest.fixture(scope="module")
def instance():
    dataset = synthesize_dataset(4, 30, true_theta=1.0, rng=np.random.default_rng(0))
    model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
    return dataset.alignment, model


class TestRegistry:
    def test_numpy_always_available(self, instance):
        alignment, model = instance
        assert isinstance(make_engine("fused", alignment, model, backend="numpy"), FusedEngine)
        assert isinstance(make_engine("fused", alignment, model, backend="NumPy"), FusedEngine)

    def test_unknown_backend_rejected(self, instance):
        alignment, model = instance
        with pytest.raises(ValueError, match="unknown backend 'cupy'.*numpy"):
            make_engine("fused", alignment, model, backend="cupy")


class TestConfigSurface:
    def test_default_backend(self):
        assert MPCGSConfig().backend == "numpy"

    def test_backend_name_canonicalized(self):
        assert MPCGSConfig(backend="NUMPY").backend == "numpy"

    def test_unknown_backend_rejected(self):
        for name in ("torch", "cupy"):
            with pytest.raises(ValueError, match=f"unknown backend '{name}'.*numpy"):
                MPCGSConfig(backend=name)
        doc = RunSpec(theta0=0.5, seed=3).to_dict()
        doc["config"]["backend"] = "torch"
        with pytest.raises(ValueError, match="unknown backend 'torch'.*numpy"):
            RunSpec.from_dict(doc)

    def test_to_dict_omits_default_backend(self):
        """Spec documents (and their content hashes) never carry the field."""
        doc = MPCGSConfig().to_dict()
        assert "backend" not in doc
        assert MPCGSConfig.from_dict(doc).backend == "numpy"

    def test_numpy_backend_key_keeps_the_content_hash(self):
        doc = RunSpec(theta0=0.5, seed=3).to_dict()
        named = {**doc, "config": {**doc["config"], "backend": "numpy"}}
        spec = RunSpec.from_dict(named)
        assert spec.config.backend == "numpy"
        assert spec.content_hash(data_digest="0" * 64) == RunSpec.from_dict(doc).content_hash(
            data_digest="0" * 64
        )
