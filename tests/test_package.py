import fracstar


def test_all_names_resolve():
    missing = [name for name in fracstar.__all__ if not hasattr(fracstar, name)]
    assert missing == []
    assert len(set(fracstar.__all__)) == len(fracstar.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from fracstar import *", namespace)
    assert set(fracstar.__all__) <= set(namespace)
