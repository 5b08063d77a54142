"""Unit tests for repro.sim.rng (deterministic named streams)."""

import pytest

from repro.sim import RngRegistry, UndeclaredStreamError, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "alpha") == derive_seed(42, "alpha")

    def test_name_changes_seed(self):
        assert derive_seed(42, "alpha") != derive_seed(42, "beta")

    def test_master_changes_seed(self):
        assert derive_seed(1, "alpha") != derive_seed(2, "alpha")

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "stream")
        assert 0 <= seed < 2**64


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        rngs = RngRegistry(seed=1)
        assert rngs.stream("channel") is rngs.stream("channel")

    def test_streams_are_independent(self):
        rngs = RngRegistry(seed=1)
        a = [rngs.stream("deployment").random() for _ in range(5)]
        b = [rngs.stream("battery").random() for _ in range(5)]
        assert a != b

    def test_replay_across_registries(self):
        draws1 = [RngRegistry(seed=9).stream("node.3").random() for _ in range(1)]
        draws2 = [RngRegistry(seed=9).stream("node.3").random() for _ in range(1)]
        assert draws1 == draws2

    def test_different_master_seeds_differ(self):
        a = RngRegistry(seed=1).stream("node.3").random()
        b = RngRegistry(seed=2).stream("node.3").random()
        assert a != b

    def test_consuming_one_stream_does_not_perturb_another(self):
        rngs1 = RngRegistry(seed=5)
        rngs1.stream("channel").random()
        value_after_noise = rngs1.stream("deployment").random()
        rngs2 = RngRegistry(seed=5)
        value_clean = rngs2.stream("deployment").random()
        assert value_after_noise == value_clean

    def test_names_lists_created_streams(self):
        rngs = RngRegistry(seed=1)
        rngs.stream("node.0")
        rngs.stream("deployment")
        assert list(rngs.names()) == ["deployment", "node.0"]


class TestUndeclaredStreams:
    @pytest.mark.parametrize("name", ["nodeX", "unheard-of"])
    def test_undeclared_name_raises_naming_the_catalogue(self, name):
        rngs = RngRegistry(seed=1)
        with pytest.raises(UndeclaredStreamError, match="STREAM_NAMES") as err:
            rngs.stream(name)
        assert repr(name) in str(err.value)
        assert list(rngs.names()) == []

    @pytest.mark.parametrize("name", ["node.anchor0", "faults.3.region"])
    def test_family_members_pass(self, name):
        rngs = RngRegistry(seed=1)
        assert rngs.stream(name) is rngs.stream(name)
