"""The package's public surface."""

import importlib
import pkgutil

import ionlattice


def test_every_exported_name_resolves():
    missing = [name for name in ionlattice.__all__ if not hasattr(ionlattice, name)]
    assert missing == []
    assert len(set(ionlattice.__all__)) == len(ionlattice.__all__)


def test_every_cache_is_bounded():
    """Callers can feed a cache any number of distinct keys (quadrature
    nodes, ring sizes), so none may grow for the life of the process."""
    caches = {}
    for info in pkgutil.walk_packages(ionlattice.__path__, "ionlattice."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj.cache_info().maxsize
    assert "ionlattice.covariance._dispersion_sum" in caches
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert unbounded == []
