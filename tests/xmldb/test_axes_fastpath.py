"""``evaluate_axis`` rejects an axis name outside the 12 XPath axes.

``test_axes.py`` checks the rejection without an encoding; here the context
is a real node of a real encoding, so the name is refused before any record
is scanned rather than silently yielding an empty result.
"""

import pytest

from repro.xmldb.axes import evaluate_axis


def test_unknown_axis_still_raises(xmark_encoding):
    with pytest.raises(ValueError):
        evaluate_axis(xmark_encoding, 0, "sideways")
