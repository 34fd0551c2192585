"""Fixtures shared by the test files."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name, counter=None) wraps module.name so each call
    adds 1 to counter[name]; it returns counter, a new dict if none is given."""

    def count(module, name, counter=None):
        counter = {} if counter is None else counter
        counter.setdefault(name, 0)
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counter[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return counter

    return count
