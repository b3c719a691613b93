"""Tests for the sampler/engine/model registries of repro.core.registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.heated import HeatedChainSampler
from repro.baselines.lamarc import LamarcSampler
from repro.baselines.multichain import MultiChainSampler
from repro.core.config import SamplerConfig
from repro.core.registry import (
    SAMPLERS,
    BayesianSamplerAdapter,
    Registry,
    Sampler,
    available_engines,
    available_models,
    available_samplers,
    make_engine,
    make_model,
    make_sampler,
    register_sampler,
)
from repro.core.sampler import MultiProposalSampler
from repro.diagnostics.traces import ChainResult
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import ConstantEngine

SMALL = SamplerConfig(n_proposals=2, n_samples=5, burn_in=2)


@pytest.fixture
def engine(tiny_alignment, uniform_model):
    return ConstantEngine(alignment=tiny_alignment, model=uniform_model)


@pytest.fixture
def seed_tree(tiny_alignment):
    return upgma_tree(tiny_alignment, driving_theta=1.0)


class TestRegistryCore:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            SAMPLERS.get("nope")
        message = str(excinfo.value)
        assert "unknown sampler 'nope'" in message
        for name in ("bayesian", "gmh", "heated", "lamarc", "multichain"):
            assert name in message

    def test_lookup_is_case_insensitive(self):
        assert SAMPLERS.get("GMH") is SAMPLERS.get("gmh")

    def test_contains_and_names(self):
        assert "lamarc" in SAMPLERS
        assert SAMPLERS.names() == tuple(sorted(SAMPLERS.names()))

    def test_register_decorator_and_replace(self):
        reg = Registry("widget")

        @reg.register("w", description="a widget")
        def build():
            return "first"

        assert reg.create("w") == "first"
        assert reg.describe()["w"] == "a widget"
        reg.register("w", lambda: "second")
        assert reg.create("w") == "second"


class TestMakeSampler:
    @pytest.mark.parametrize(
        "name, options, expected_type",
        [
            ("gmh", {}, MultiProposalSampler),
            ("lamarc", {}, LamarcSampler),
            ("multichain", {"n_chains": 2}, MultiChainSampler),
            ("heated", {"n_chains": 2}, HeatedChainSampler),
            ("bayesian", {}, BayesianSamplerAdapter),
        ],
    )
    def test_constructs_all_five_behind_one_protocol(
        self, engine, seed_tree, rng, name, options, expected_type
    ):
        sampler = make_sampler(name, engine=engine, theta=1.0, config=SMALL, **options)
        assert isinstance(sampler, expected_type)
        assert isinstance(sampler, Sampler)
        chain = sampler.run(seed_tree, rng)
        assert isinstance(chain, ChainResult)
        assert chain.n_samples >= SMALL.n_samples

    def test_requires_exactly_one_engine_argument(self, engine):
        with pytest.raises(ValueError, match="exactly one"):
            make_sampler("gmh", theta=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            make_sampler("gmh", engine=engine, engine_factory=lambda: engine, theta=1.0)

    def test_engine_factory_called_per_chain(self, tiny_alignment, uniform_model, seed_tree, rng):
        created = []

        def factory():
            engine = ConstantEngine(alignment=tiny_alignment, model=uniform_model)
            created.append(engine)
            return engine

        sampler = make_sampler(
            "multichain", engine_factory=factory, theta=1.0, config=SMALL, n_chains=3
        )
        sampler.run(seed_tree, rng)
        assert len(created) == 3

    def test_bayesian_adapter_reports_posterior_in_extras(self, engine, seed_tree, rng):
        sampler = make_sampler("bayesian", engine=engine, theta=1.0, config=SMALL)
        chain = sampler.run(seed_tree, rng)
        assert chain.extras["posterior_mean"] > 0
        assert len(chain.extras["theta_samples"]) == chain.n_samples
        lo, hi = chain.extras["credible_90"]
        assert lo <= chain.extras["posterior_median"] <= hi
        assert sampler.last_posterior is not None

    def test_heated_accepts_explicit_temperatures(self, engine, seed_tree, rng):
        sampler = make_sampler(
            "heated", engine=engine, theta=1.0, config=SMALL, temperatures=[1.0, 0.5]
        )
        assert sampler.temperatures == (1.0, 0.5)

    def test_heated_rejects_conflicting_chain_count(self, engine):
        with pytest.raises(ValueError, match="n_chains=2 but 4 temperatures"):
            make_sampler(
                "heated",
                engine=engine,
                theta=1.0,
                config=SMALL,
                n_chains=2,
                temperatures=[1.0, 0.8, 0.6, 0.4],
            )
        matching = make_sampler(
            "heated", engine=engine, theta=1.0, config=SMALL, n_chains=2, temperatures=[1.0, 0.5]
        )
        assert matching.temperatures == (1.0, 0.5)

    def test_register_sampler_extends_the_surface(self, engine, seed_tree, rng):
        class EchoSampler:
            def __init__(self, engine, theta):
                self.engine = engine
                self.theta = theta

            def run(self, initial_tree, rng):
                raise NotImplementedError

        try:
            register_sampler(
                "echo",
                lambda engine_factory, theta, config, **options: EchoSampler(
                    engine_factory(), theta
                ),
                description="test-only sampler",
            )
            sampler = make_sampler("echo", engine=engine, theta=2.0)
            assert isinstance(sampler, EchoSampler)
            assert sampler.theta == 2.0
            assert available_samplers()["echo"] == "test-only sampler"
        finally:
            SAMPLERS._builders.pop("echo", None)
            SAMPLERS._descriptions.pop("echo", None)


class TestEngineAndModelRegistries:
    def test_engine_registry_mirrors_factory(self, tiny_alignment, uniform_model):
        engine = make_engine("serial", tiny_alignment, uniform_model)
        assert type(engine).__name__ == "SerialEngine"
        with pytest.raises(ValueError) as excinfo:
            make_engine("gpu", tiny_alignment, uniform_model)
        message = str(excinfo.value)
        assert "unknown engine 'gpu'" in message
        assert "batched" in message and "serial" in message

    def test_model_registry_mirrors_factory(self):
        model = make_model("JC69")
        assert type(model).__name__ == "JukesCantor69"
        with pytest.raises(ValueError) as excinfo:
            make_model("WAG")
        assert "unknown mutation model 'WAG'" in str(excinfo.value)
        assert "jc69" in str(excinfo.value)

    def test_available_listings_have_descriptions(self):
        samplers = available_samplers()
        assert set(samplers) == {"bayesian", "gmh", "heated", "lamarc", "multichain"}
        assert all(desc for desc in samplers.values())
        assert {"serial", "vectorized", "batched", "constant"} <= set(available_engines())
        assert {"f81", "jc69", "k80", "f84", "hky85", "gtr"} <= set(available_models())
