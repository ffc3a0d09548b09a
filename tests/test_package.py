import types

import sparsekaczmarz


def test_all_lists_exactly_the_public_names_the_package_binds():
    public = {
        name
        for name, value in vars(sparsekaczmarz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(sparsekaczmarz.__all__) == len(set(sparsekaczmarz.__all__))
    assert set(sparsekaczmarz.__all__) == public


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from sparsekaczmarz import *", namespace)
    for name in sparsekaczmarz.__all__:
        assert namespace[name] is getattr(sparsekaczmarz, name)
