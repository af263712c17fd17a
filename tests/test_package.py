import blindcal


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from blindcal import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(blindcal.__all__)
    for name in blindcal.__all__:
        assert namespace[name] is getattr(blindcal, name)
