"""Deterministic RNG tests, pinned against the published SplitMix64 outputs."""

import math

import pytest

from rallyforge.errors import ConfigError
from rallyforge.rng import SplitMix64

# First outputs of the reference splitmix64.c for seed 0; any deviation means
# the generator is not the algorithm it claims to be.
REFERENCE_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_reference_vector_seed0():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == REFERENCE_SEED0


def test_same_seed_same_sequence():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_negative_and_huge_seeds_are_masked():
    assert SplitMix64(-1).next_u64() == SplitMix64((1 << 64) - 1).next_u64()
    assert SplitMix64(1 << 70).next_u64() == SplitMix64(0).next_u64()


def test_uniform_range_and_moments():
    rng = SplitMix64(7)
    xs = [rng.uniform() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    mean = sum(xs) / len(xs)
    assert mean == pytest.approx(0.5, abs=0.01)
    assert rng.uniform(-4.0, -2.0) < -2.0


def test_randint_bounds_and_coverage():
    rng = SplitMix64(11)
    seen = set()
    for _ in range(2000):
        v = rng.randint(3, 9)
        assert 3 <= v <= 9
        seen.add(v)
    assert seen == set(range(3, 10))
    assert rng.randint(5, 5) == 5
    with pytest.raises(ConfigError):
        rng.randint(5, 4)


def test_choice_and_weighted_choice():
    rng = SplitMix64(13)
    counts = {"x": 0, "y": 0}
    for _ in range(8000):
        counts[rng.choice_weighted(["x", "y"], [3.0, 1.0])] += 1
    assert counts["x"] / 8000 == pytest.approx(0.75, abs=0.03)
    with pytest.raises(ConfigError):
        rng.choice_weighted(["x"], [0.0])
    with pytest.raises(ConfigError):
        rng.choice_weighted([], [])


def test_normal_moments():
    rng = SplitMix64(21)
    xs = [rng.normal(2.0, 3.0) for _ in range(40000)]
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert mean == pytest.approx(2.0, abs=0.05)
    assert math.sqrt(var) == pytest.approx(3.0, abs=0.05)
    with pytest.raises(ConfigError):
        rng.normal(0.0, -1.0)


def test_substreams_are_stable_and_distinct():
    base = SplitMix64(42)
    base.next_u64()  # parent draws must not shift children
    s0 = base.substream(0)
    s1 = base.substream(1)
    again = SplitMix64(42).substream(0)
    seq0 = [s0.next_u64() for _ in range(10)]
    assert seq0 == [again.next_u64() for _ in range(10)]
    assert seq0 != [s1.next_u64() for _ in range(10)]
    with pytest.raises(ConfigError):
        base.substream(-1)


def test_non_integer_seed_rejected():
    with pytest.raises(ConfigError):
        SplitMix64(1.5)


# ------------------------------------------------------------
# bulk draws: n scalar draws in one array, bit for bit
# ------------------------------------------------------------

# scalar method and its arguments, which the bulk method takes after n
BULK_DRAWS = {
    "next_u64": ("next_u64", ()),
    "uniform": ("uniform", ()),
    "uniform(-3.5, 11.25)": ("uniform", (-3.5, 11.25)),
    "normal": ("normal", ()),
    "normal(2.0, 0.7)": ("normal", (2.0, 0.7)),
    "normal(0.0, 0.0)": ("normal", (0.0, 0.0)),
}


@pytest.mark.parametrize("name", sorted(BULK_DRAWS))
@pytest.mark.parametrize("seed", [0, 3, 987654321, -1])
def test_bulk_draws_equal_scalar_draws_and_leave_the_same_state(name, seed):
    method, args = BULK_DRAWS[name]
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    scalar.next_u64()
    bulk.next_u64_many(1)
    for n in (1, 0, 2, 7, 64, 1001):
        many = getattr(bulk, f"{method}_many")(n, *args)
        assert len(many) == n
        assert many.tolist() == [getattr(scalar, method)(*args) for _ in range(n)]
        # scalar draws continue exactly where the bulk draw stopped
        assert bulk.next_u64() == scalar.next_u64()
        assert bulk.uniform() == scalar.uniform()


@pytest.mark.parametrize("below", [1, 2, 5, 0x9E3779B97F4A7C15 - 1])
def test_bulk_draws_wrap_at_two_to_the_64(below):
    # a state just under 2**64: the first step already wraps
    rng, reference = SplitMix64(-below), SplitMix64((1 << 64) - below)
    assert rng.next_u64_many(9).tolist() == [reference.next_u64() for _ in range(9)]
    assert rng.next_u64() == reference.next_u64()


def test_bulk_draws_of_nothing_draw_nothing():
    rng = SplitMix64(5)
    assert rng.next_u64_many(0).tolist() == []
    assert rng.uniform_many(0).tolist() == []
    assert rng.normal_many(0, 1.0, 2.0).tolist() == []
    assert rng.next_u64() == SplitMix64(5).next_u64()


def test_bulk_draws_reject_bad_arguments():
    rng = SplitMix64(1)
    with pytest.raises(ConfigError, match="sigma must be >= 0"):
        rng.normal_many(3, 0.0, -1.0)
    for n in (-1, 2.0, None):
        with pytest.raises(ConfigError, match="draw count"):
            rng.next_u64_many(n)
    assert rng.next_u64() == SplitMix64(1).next_u64()  # nothing was drawn


def test_reference_vector_seed0_in_bulk():
    assert SplitMix64(0).next_u64_many(5).tolist() == REFERENCE_SEED0
