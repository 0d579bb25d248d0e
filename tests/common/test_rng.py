"""Deterministic RNG derivation tests."""

import pytest

from repro.common.rng import derive_seed, make_rng, seed_scope


def test_derive_seed_deterministic():
    assert derive_seed("radix", 3, "hist") == derive_seed("radix", 3, "hist")


def test_derive_seed_sensitive_to_parts():
    assert derive_seed("radix", 1) != derive_seed("radix", 2)
    assert derive_seed("a", "b") != derive_seed("ab")


def test_make_rng_reproducible_streams():
    a = [make_rng("x", 1).random() for _ in range(5)]
    b = [make_rng("x", 1).random() for _ in range(5)]
    assert a == b


def test_make_rng_distinct_streams():
    a = make_rng("x", 1).random()
    b = make_rng("x", 2).random()
    assert a != b


class TestSeedScope:
    def test_zero_salt_is_identity(self):
        unsalted = derive_seed("radix", 3)
        with seed_scope(0):
            assert derive_seed("radix", 3) == unsalted

    def test_salt_changes_every_derivation(self):
        unsalted = derive_seed("radix", 3)
        with seed_scope(7):
            assert derive_seed("radix", 3) != unsalted

    def test_distinct_salts_distinct_streams(self):
        with seed_scope(1):
            one = derive_seed("radix", 3)
        with seed_scope(2):
            two = derive_seed("radix", 3)
        assert one != two

    def test_scope_restores_on_exit_and_error(self):
        unsalted = derive_seed("radix", 3)
        with seed_scope(5):
            five = derive_seed("radix", 3)
            with seed_scope(9):
                assert derive_seed("radix", 3) not in (unsalted, five)
            assert derive_seed("radix", 3) == five
        assert derive_seed("radix", 3) == unsalted != five
        with pytest.raises(RuntimeError):
            with seed_scope(3):
                raise RuntimeError("boom")
        assert derive_seed("radix", 3) == unsalted

    def test_salted_derivation_still_deterministic(self):
        with seed_scope(42):
            first = [make_rng("x", 1).random() for _ in range(3)]
        with seed_scope(42):
            second = [make_rng("x", 1).random() for _ in range(3)]
        assert first == second
