import re

import pytest
from hypothesis import settings

from latentid import tensor_core

#: hypothesis runs the same examples on every run, with no example database
settings.register_profile(
    "latentid", derandomize=True, deadline=None, database=None, max_examples=60
)
settings.load_profile("latentid")

#: the entry cap a size-guard row of a refusal table runs under
SMALL_CAP = 15


def _must_not_build(*args, **kwargs):
    raise AssertionError("a builder ran although its array exceeds the entry cap")


@pytest.fixture
def refuses(monkeypatch):
    """Check one refusal-table row: ``call()`` raises ``error`` with exactly
    ``message``, a literal string; a message that carries a computed number
    is given as a compiled pattern instead.

    A size-guard row also names ``builder``, an ``(owner, attribute)`` pair:
    it runs with :data:`~latentid.tensor_core.ENTRY_CAP` at :data:`SMALL_CAP`
    and the builder replaced by a function that fails if called, so the guard
    is shown to refuse before anything is built.
    """

    def check(call, error, message, builder=None):
        if builder is not None:
            monkeypatch.setattr(tensor_core, "ENTRY_CAP", SMALL_CAP)
            monkeypatch.setattr(*builder, _must_not_build)
        if not isinstance(message, re.Pattern):
            message = f"^{re.escape(message)}$"
        with pytest.raises(error, match=message):
            call()

    return check
