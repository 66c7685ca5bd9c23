"""Every fan the tests validate is validated twice.

``frobtilt.fan.validate`` (the ridge walk from one adjugate) is replaced,
for each test module under ``tests/``, by a wrapper that also runs
``oracles.validate_by_adjugates`` (the adjugate of every cone) and asserts
that the two reports are equal, failure strings byte for byte.  The wrapper
returns the library's report, so no test sees another answer.  The
library's own calls (``Fan.validation``) and a test module's
``from frobtilt.fan import validate`` both go through it.
"""

import pytest

import frobtilt.fan
from oracles import validate_by_adjugates

_validate = frobtilt.fan.validate


def _checked_validate(fan):
    report = _validate(fan)
    assert report == validate_by_adjugates(fan), (fan, report)
    return report


@pytest.fixture(autouse=True, scope="module")
def validate_against_the_adjugate_oracle(request):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frobtilt.fan, "validate", _checked_validate)
        if getattr(request.module, "validate", None) is _validate:
            patch.setattr(request.module, "validate", _checked_validate)
        yield
