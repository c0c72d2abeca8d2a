"""Pytest configuration shared by every suite in this repository."""


def pytest_addoption(parser, pluginmanager):
    # pytest.ini sets pytest-timeout's per-test ``timeout``.  Where that
    # plugin is installed it owns the key and enforces the ceiling; where
    # it is absent, register the key here so pytest does not warn about
    # an unknown config option on every run.
    if not pluginmanager.hasplugin("timeout"):
        parser.addini("timeout", "per-test timeout in seconds (pytest-timeout)")
