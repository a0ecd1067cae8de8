"""Acceptance criteria, one test per criterion.

Each case prints its criterion's name and quantitative detail (visible under
``pytest -v -s`` or on failure) and asserts the criterion's pass flag.
The runners pin their own seeds and tolerances; nothing here loosens
them.
"""

import os

import pytest

from cslsim import acceptance

_THREADS = min(4, os.cpu_count() or 1)


@pytest.mark.parametrize(
    "name, runner", acceptance.RUNNERS,
    ids=[runner.__name__ for _, runner in acceptance.RUNNERS])
def test_criterion(name, runner):
    passed, detail = runner(_THREADS)
    print(f"{name}: {detail}")
    assert passed, detail
