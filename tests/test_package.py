"""Package surface: every name the package advertises can be imported."""

import dyonfw


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from dyonfw import *", namespace)
    assert set(dyonfw.__all__) <= set(namespace)
