"""Tests for shared helpers and the error hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigError,
    ExperimentError,
    GraphError,
    GraphFormatError,
    OperationError,
    ReproError,
    SimulationError,
)
from repro.utils import (
    as_float_array,
    as_int_array,
    chunked,
    format_si,
    geometric_mean,
    require,
    rng_from_seed,
    unique_sorted,
)


class TestErrors:
    @pytest.mark.parametrize(
        "error",
        [GraphError, ConfigError, SimulationError, OperationError, ExperimentError],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)

    def test_format_error_is_graph_error(self):
        assert issubclass(GraphFormatError, GraphError)


class TestUniqueSorted:
    @given(st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_sorted_input_gives_np_unique(self, raw):
        values = np.asarray(raw, dtype=np.int64)
        result = unique_sorted(np.sort(values))
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, np.unique(values))


class TestRng:
    def test_none_is_deterministic(self):
        a = rng_from_seed(None).integers(0, 100, 10)
        b = rng_from_seed(None).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(5)
        assert rng_from_seed(gen) is gen

    def test_int_seed(self):
        a = rng_from_seed(7).random()
        b = rng_from_seed(7).random()
        assert a == b


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_with_type(self):
        with pytest.raises(ConfigError, match="boom"):
            require(False, "boom", ConfigError)


class TestArrays:
    def test_as_int_array(self):
        arr = as_int_array([1, 2, 3])
        assert arr.dtype == np.int64

    def test_as_int_array_rejects_2d(self):
        with pytest.raises(ReproError, match="one-dimensional"):
            as_int_array(np.zeros((2, 2)))

    def test_as_float_array(self):
        arr = as_float_array([1, 2])
        assert arr.dtype == np.float64

    def test_as_float_array_rejects_2d(self):
        with pytest.raises(ReproError):
            as_float_array(np.zeros((2, 2)))


class TestChunked:
    def test_even_chunks(self):
        assert list(chunked([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_ragged_tail(self):
        assert list(chunked([1, 2, 3], 2)) == [[1, 2], [3]]

    def test_bad_size(self):
        with pytest.raises(ReproError):
            list(chunked([1], 0))


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ReproError):
            geometric_mean([1.0, 0.0])


class TestFormatSi:
    @pytest.mark.parametrize(
        "value,expected",
        [(1.0, "1.00"), (1500.0, "1.50 k"), (2.5e6, "2.50 M"), (3e9, "3.00 G")],
    )
    def test_prefixes(self, value, expected):
        assert format_si(value) == expected

    def test_with_unit(self):
        assert format_si(2e6, "B/s") == "2.00 MB/s"
