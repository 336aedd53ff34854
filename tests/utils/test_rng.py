"""Tests for the keyed RNG streams — the schedule-invariance foundation."""

import enum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import KeyedRng, stable_hash64

key_parts = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=20),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("a", 1) == stable_hash64("a", 1)

    def test_distinct_keys_differ(self):
        assert stable_hash64("a", 1) != stable_hash64("a", 2)

    def test_type_tagging_int_vs_str(self):
        assert stable_hash64(1) != stable_hash64("1")

    def test_type_tagging_bool_vs_int(self):
        assert stable_hash64(True) != stable_hash64(1)

    def test_tuple_not_flattened(self):
        assert stable_hash64((1, 2), 3) != stable_hash64(1, (2, 3))
        assert stable_hash64((1, 2)) != stable_hash64(1, 2)

    def test_nested_tuples(self):
        assert stable_hash64(((1,), 2)) != stable_hash64((1, (2,)))

    def test_negative_ints(self):
        assert stable_hash64(-5) != stable_hash64(5)

    def test_bytes_supported(self):
        assert stable_hash64(b"ab") == stable_hash64(b"ab")
        assert stable_hash64(b"ab") != stable_hash64("ab")

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash64([1, 2])  # type: ignore[arg-type]

    @given(st.lists(key_parts, min_size=1, max_size=5))
    def test_hash_is_pure(self, parts):
        assert stable_hash64(*parts) == stable_hash64(*parts)

    @given(key_parts, key_parts)
    def test_distinct_single_parts_rarely_collide(self, a, b):
        if a != b or (isinstance(a, float) and np.isnan(a)):
            # not a strict guarantee, but collisions would break the design
            if type(a) is not type(b) or a != b:
                assert stable_hash64(a) != stable_hash64(b)


class _Colour(enum.IntEnum):
    RED = 1


class _Mode(str, enum.Enum):
    FAST = "fast"


class TestKnownAnswers:
    """Literal ``stable_hash64`` values: the encoding is pinned bit for bit.

    Every stream, segment id and lane-tree node id derives from these
    hashes, so any change to ``_encode_part`` that alters one byte shows
    up here before it shows up as a golden diff.
    """

    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((0,), 13379413122819086221),
            ((1,), 2632205999180479934),
            ((-5,), 10038540427407271855),
            ((2**100,), 9779777206118983677),
            ((-(2**100),), 3950417202828662970),
            (("segment",), 13336556272354270643),
            (("",), 6077324852010204411),
            (("héllo",), 16243657649293798511),
            ((1.5,), 2360676658618195140),
            ((0.0,), 13079953250601521484),
            ((-0.0,), 7078274196909867524),
            ((b"ab",), 7999464954132853539),
            ((b"",), 3216400274392579565),
            ((True,), 15779520396620607129),
            ((False,), 1695539116833864595),
            (((),), 17575196894853103366),
            ((((1,), (2, "a")),), 11513814035703597135),
            (((1,),), 8479051287743791904),
            (((True,),), 8040336517273310778),
            (("segment", "p-3", (0, 1, 2), 2), 2164775944554260499),
        ],
    )
    def test_literal_values(self, parts, expected):
        assert stable_hash64(*parts) == expected

    def test_bool_is_not_int(self):
        assert stable_hash64(True) != stable_hash64(1)
        assert stable_hash64((True,)) != stable_hash64((1,))

    def test_negative_zero_is_its_own_key(self):
        assert stable_hash64(-0.0) != stable_hash64(0.0)

    def test_int_enum_member_encodes_as_its_int(self):
        # Subclasses take the isinstance fallback, not the exact-type path.
        assert stable_hash64(_Colour.RED) == 2632205999180479934
        assert stable_hash64(_Colour.RED) == stable_hash64(1)

    def test_str_enum_member_encodes_as_its_str(self):
        assert stable_hash64(_Mode.FAST) == 7265197414259184957
        assert stable_hash64(_Mode.FAST) == stable_hash64("fast")

    def test_numpy_int_is_rejected(self):
        with pytest.raises(TypeError):
            stable_hash64(np.int64(1))

    def test_first_draws(self):
        rng = KeyedRng(7)
        assert rng.uniform("kat", 3) == 0.6044039980480707
        assert rng.normal("kat", 3) == -0.9278909887002297
        assert rng.randint("kat", 3, low=0, high=1000) == 188


class TestKeyedRng:
    def test_same_key_same_draw(self):
        rng = KeyedRng(7)
        assert rng.uniform("x", 3) == rng.uniform("x", 3)

    def test_different_seed_different_draw(self):
        assert KeyedRng(1).uniform("x") != KeyedRng(2).uniform("x")

    def test_stream_reproducible_sequence(self):
        rng = KeyedRng(0)
        a = rng.stream("s").random(5)
        b = rng.stream("s").random(5)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        rng = KeyedRng(0)
        a = rng.stream("a").random(100)
        b = rng.stream("b").random(100)
        assert not np.array_equal(a, b)

    def test_seed_must_be_int(self):
        with pytest.raises(TypeError):
            KeyedRng("seed")  # type: ignore[arg-type]
        # bool is an int subclass, but True would silently draw a stream
        # different from KeyedRng(1)'s.
        with pytest.raises(TypeError):
            KeyedRng(True)
        with pytest.raises(TypeError):
            KeyedRng(False)

    def test_normal_location(self):
        rng = KeyedRng(3)
        draws = [rng.normal("n", i, loc=10.0, scale=0.1) for i in range(200)]
        assert 9.9 < float(np.mean(draws)) < 10.1

    def test_lognormal_positive(self):
        rng = KeyedRng(3)
        assert rng.lognormal("l", mean=2.0, sigma=0.5) > 0

    def test_randint_bounds(self):
        rng = KeyedRng(5)
        for i in range(100):
            assert 3 <= rng.randint("r", i, low=3, high=9) < 9

    def test_choice_index_weights(self):
        rng = KeyedRng(1)
        picks = [rng.choice_index("c", i, weights=[0.0, 1.0, 0.0]) for i in range(20)]
        assert all(p == 1 for p in picks)

    def test_choice_index_empty_raises(self):
        with pytest.raises(ValueError):
            KeyedRng(0).choice_index("c", weights=[])

    def test_choice_index_negative_raises(self):
        with pytest.raises(ValueError):
            KeyedRng(0).choice_index("c", weights=[-1.0, 2.0])

    def test_choice_index_all_zero_uniform(self):
        rng = KeyedRng(9)
        picks = {rng.choice_index("z", i, weights=[0, 0, 0]) for i in range(60)}
        assert picks == {0, 1, 2}

    def test_fork_namespaces(self):
        rng = KeyedRng(0)
        child_a = rng.fork("a")
        child_b = rng.fork("b")
        assert child_a.uniform("k") != child_b.uniform("k")
        assert child_a.uniform("k") == rng.fork("a").uniform("k")

    @given(st.lists(key_parts, min_size=1, max_size=4), st.integers(0, 2**31))
    def test_draws_schedule_invariant(self, parts, seed):
        """Draw order can never influence values — the core property."""
        rng = KeyedRng(seed)
        first = rng.uniform(*parts)
        rng.uniform("unrelated", 1)
        rng.normal("other", loc=0, scale=2)
        assert rng.uniform(*parts) == first
