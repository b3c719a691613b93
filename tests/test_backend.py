"""Array-backend protocol: registry surface, numpy passthrough, bit-identity.

Three layers of guarantee:

1. the ``BACKENDS`` registry lists numpy (always constructible) and torch
   (always listed, constructible only where installed — selecting it
   without the library fails with an explicit message);
2. the numpy backend is a pure pass-through, so abstracted kernels on the
   default backend run the byte-identical numpy calls the pre-backend code
   ran;
3. the golden fixed-seed chain regression: serial/fused chains on
   the default backend reproduce the exact pre-refactor floats (values
   recorded from the pre-backend tree).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    ArrayBackend,
    NumpyBackend,
    backend_available,
    get_backend,
)
from repro.backend.numpy_backend import NUMPY
from repro.core.config import MPCGSConfig
from repro.core.registry import available_backends, make_engine
from repro.core.sampler import MultiProposalSampler
from repro.core.config import SamplerConfig
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import VectorizedEngine
from repro.likelihood.fused import FusedEngine
from repro.likelihood.mutation_models import Felsenstein81
from repro.simulate.datasets import synthesize_dataset


class TestRegistry:
    def test_numpy_and_torch_registered(self):
        names = set(BACKENDS.names())
        assert {"numpy", "torch"} <= names
        assert set(available_backends()) == names

    def test_numpy_always_available(self):
        assert backend_available("numpy")
        assert get_backend("numpy") is NUMPY

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_capability_metadata(self):
        assert BACKENDS.metadata("numpy")["dtype"] == "float64"
        assert BACKENDS.metadata("numpy")["determinism"] == "bitwise"
        assert BACKENDS.metadata("torch")["requires"] == "torch"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            get_backend("cupy")

    def test_unavailable_backend_fails_with_guidance(self):
        if backend_available("torch"):
            pytest.skip("torch installed here; the unavailable path has nothing to test")
        with pytest.raises(RuntimeError, match="numpy"):
            get_backend("torch")

    def test_protocol_conformance(self):
        assert isinstance(NUMPY, ArrayBackend)


class TestNumpyPassthrough:
    def test_identity_conversions(self):
        x = np.arange(6.0).reshape(2, 3)
        assert NUMPY.asarray(x) is x
        assert NUMPY.to_numpy(x) is x
        assert NUMPY.asindex(x) is x

    def test_ops_are_numpy_ops(self):
        b = NumpyBackend()
        assert b.ndarray is np.ndarray
        x = np.linspace(0.1, 1.0, 12).reshape(3, 4)
        assert np.array_equal(b.exp(x), np.exp(x))
        assert np.array_equal(b.max(x, axis=1, keepdims=True), np.max(x, axis=1, keepdims=True))
        assert np.array_equal(b.sum(x, axis=0), np.sum(x, axis=0))
        vals, inverse = b.unique(np.array([3.0, 1.0, 3.0]), return_inverse=True)
        assert np.array_equal(vals, [1.0, 3.0])
        assert np.array_equal(inverse, [1, 0, 1])

    def test_copy_is_a_copy(self):
        x = np.zeros(3)
        y = NUMPY.copy(x)
        y[0] = 1.0
        assert x[0] == 0.0


class TestConfigSurface:
    def test_default_backend(self):
        assert MPCGSConfig().backend == "numpy"

    def test_backend_name_canonicalized(self):
        assert MPCGSConfig(backend="TORCH").backend == "torch"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            MPCGSConfig(backend="cupy")

    def test_to_dict_omits_default_backend(self):
        """Pre-backend spec documents (and their content hashes) are unchanged."""
        doc = MPCGSConfig().to_dict()
        assert "backend" not in doc
        assert MPCGSConfig.from_dict(doc).backend == "numpy"

    def test_to_dict_round_trips_non_default(self):
        doc = MPCGSConfig(backend="torch").to_dict()
        assert doc["backend"] == "torch"
        assert MPCGSConfig.from_dict(doc).backend == "torch"

    def test_engine_carries_backend(self):
        dataset = synthesize_dataset(4, 30, true_theta=1.0, rng=np.random.default_rng(0))
        model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
        engine = make_engine("fused", dataset.alignment, model)
        assert engine.backend == "numpy"
        assert engine.xp is NUMPY


class TestCLISurface:
    def test_info_lists_backends(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "info", "--json"],
            capture_output=True,
            text=True,
            check=True,
        )
        doc = json.loads(out.stdout)
        assert "numpy" in doc["backends"]
        assert "torch" in doc["backends"]

    def test_run_accepts_backend_flag(self):
        from repro.cli import build_cli

        args = build_cli().parse_args(["run", "data.phy", "0.5", "--backend", "numpy"])
        assert args.backend == "numpy"


# Golden fixed-seed chain values recorded from the pre-backend-refactor
# tree (commit 2d7310d): the default numpy backend must reproduce every
# float bit-for-bit.  (ll_first, ll_last, np.sum(lls), n_accepted.)
#
# The fused readout reduces each tree's pattern weights through its own
# 1-D dot, so batch composition cannot move a value's last bit (the
# stacked cross-chain executor's contract).
_GOLDEN = {
    "serial": (-322.3815795125959, -319.24835895850373, -6417.293081893069, 17),
    "fused": (-322.38157951259603, -319.24835895850384, -6417.293081893071, 17),
}
_GOLDEN_INTERVAL_SHA = "3514a90f828e383a916529a5c580ef51954abb569e0d6d7b6f70b39a18dea86e"


class TestGoldenChainRegression:
    """The acceptance bar: backend refactor changed no bit of the default path."""

    @pytest.fixture(scope="class")
    def instance(self):
        dataset = synthesize_dataset(6, 60, true_theta=1.0, rng=np.random.default_rng(17))
        model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
        tree = upgma_tree(dataset.alignment, 1.0)
        return dataset, model, tree

    @pytest.mark.parametrize("engine_name", sorted(_GOLDEN))
    def test_fixed_seed_chain_is_bit_identical(self, instance, engine_name):
        dataset, model, tree = instance
        engine = make_engine(engine_name, dataset.alignment, model)
        cfg = SamplerConfig(n_proposals=6, n_samples=20, burn_in=5)
        res = MultiProposalSampler(engine, 1.0, cfg).run(tree, np.random.default_rng(31))
        lls = np.asarray(res.trace.log_likelihoods)
        ll_first, ll_last, ll_sum, n_accepted = _GOLDEN[engine_name]
        assert float(lls[0]) == ll_first
        assert float(lls[-1]) == ll_last
        assert float(np.sum(lls)) == ll_sum
        assert res.n_accepted == n_accepted
        sha = hashlib.sha256(
            np.ascontiguousarray(res.trace.interval_matrix).tobytes()
        ).hexdigest()
        assert sha == _GOLDEN_INTERVAL_SHA


@pytest.mark.skipif(not backend_available("torch"), reason="torch not installed")
class TestTorchBackend:
    """Exercised by the optional-dependency CI job (CPU torch)."""

    def test_adapter_surface(self):
        xp = get_backend("torch")
        assert isinstance(xp, ArrayBackend)
        x = xp.asarray(np.linspace(0.0, 1.0, 6).reshape(2, 3))
        assert xp.to_numpy(xp.max(x, axis=None, keepdims=True)).shape == (1, 1)
        assert np.allclose(
            xp.to_numpy(xp.sum(x, axis=1)), np.linspace(0.0, 1.0, 6).reshape(2, 3).sum(axis=1)
        )

    def test_engine_runs_on_torch(self):
        dataset = synthesize_dataset(5, 40, true_theta=1.0, rng=np.random.default_rng(1))
        model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
        tree = upgma_tree(dataset.alignment, 1.0)
        reference = VectorizedEngine(alignment=dataset.alignment, model=model).evaluate(tree)
        engine = FusedEngine(alignment=dataset.alignment, model=model, backend="torch")
        assert engine.evaluate(tree) == pytest.approx(reference, abs=1e-9)
