"""Tests for the likelihood evaluation engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.likelihood.engines import BatchedEngine, SerialEngine, VectorizedEngine, make_engine
from repro.simulate.coalescent_sim import simulate_genealogy


@pytest.fixture
def trees(rng, small_dataset):
    return [
        simulate_genealogy(8, 1.0, rng, tip_names=small_dataset.alignment.names)
        for _ in range(4)
    ]


class TestAgreement:
    def test_all_engines_agree_single(self, small_dataset, uniform_model, trees):
        values = []
        for cls in (SerialEngine, VectorizedEngine, BatchedEngine):
            engine = cls(alignment=small_dataset.alignment, model=uniform_model)
            values.append(engine.evaluate(trees[0]))
        assert values[0] == pytest.approx(values[1], rel=1e-9)
        assert values[0] == pytest.approx(values[2], rel=1e-9)

    def test_all_engines_agree_batch(self, small_dataset, uniform_model, trees):
        results = []
        for cls in (SerialEngine, VectorizedEngine, BatchedEngine):
            engine = cls(alignment=small_dataset.alignment, model=uniform_model)
            results.append(engine.evaluate_batch(trees))
        assert np.allclose(results[0], results[1], rtol=1e-9)
        assert np.allclose(results[0], results[2], rtol=1e-9)


class TestCounters:
    def test_counts_evaluations(self, small_dataset, uniform_model, trees):
        engine = BatchedEngine(alignment=small_dataset.alignment, model=uniform_model)
        engine.evaluate(trees[0])
        engine.evaluate_batch(trees)
        assert engine.n_evaluations == 1 + len(trees)
        expected_products = (1 + len(trees)) * small_dataset.alignment.n_sites
        assert engine.n_tree_site_products == expected_products

    def test_reset_counters(self, small_dataset, uniform_model, trees):
        engine = SerialEngine(alignment=small_dataset.alignment, model=uniform_model)
        engine.evaluate(trees[0])
        engine.reset_counters()
        assert engine.n_evaluations == 0
        assert engine.n_tree_site_products == 0

    def test_empty_batch(self, small_dataset, uniform_model):
        engine = BatchedEngine(alignment=small_dataset.alignment, model=uniform_model)
        assert engine.evaluate_batch([]).size == 0
        assert engine.n_evaluations == 0


class TestFactory:
    def test_make_engine_by_name(self, small_dataset, uniform_model):
        assert isinstance(
            make_engine("serial", small_dataset.alignment, uniform_model), SerialEngine
        )
        assert isinstance(
            make_engine("VECTORIZED", small_dataset.alignment, uniform_model), VectorizedEngine
        )
        assert isinstance(
            make_engine("batched", small_dataset.alignment, uniform_model), BatchedEngine
        )

    def test_unknown_engine(self, small_dataset, uniform_model):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("gpu", small_dataset.alignment, uniform_model)

    def test_unknown_engine_error_shape_matches_registry(self, small_dataset, uniform_model):
        """Same "unknown name, available: ..." shape as core.registry.make_sampler."""
        from repro.core.registry import make_sampler

        with pytest.raises(ValueError) as engine_err:
            make_engine("gpu", small_dataset.alignment, uniform_model)
        with pytest.raises(ValueError) as sampler_err:
            make_sampler("gpu", engine_factory=lambda: None)
        # Both messages: unknown <kind> '<name>'; choose from a, b, c
        assert str(engine_err.value) == (
            "unknown engine 'gpu'; choose from batched, constant, fused, "
            "serial, vectorized"
        )
        assert str(sampler_err.value).startswith("unknown sampler 'gpu'; choose from ")
        assert "[" not in str(engine_err.value)  # no raw list repr

    def test_case_normalization_covers_fused(self, small_dataset, uniform_model):
        from repro.likelihood.fused import FusedEngine

        for name in ("fused", "Fused", "FUSED"):
            assert isinstance(
                make_engine(name, small_dataset.alignment, uniform_model), FusedEngine
            )
