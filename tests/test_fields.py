"""The initial data: each side's value at the interface node, and the
sides and branches it refuses."""

from __future__ import annotations

import numpy as np
import pytest

from llx.fields import constant_per_side, named_field

MINUS = np.array([0.6, 0.8, 0.0])
PLUS = np.array([-0.6, 0.8, 0.0])


def test_the_side_decides_the_interface_value():
    data = constant_per_side(MINUS, PLUS)
    x = np.array([-0.5, 0.0, 0.5])
    np.testing.assert_array_equal(data(x, "minus"), [MINUS, MINUS, PLUS])
    np.testing.assert_array_equal(data(x, "plus"), [MINUS, PLUS, PLUS])


@pytest.mark.parametrize("data", [constant_per_side(MINUS, PLUS),
                                  named_field("swirl")])
@pytest.mark.parametrize("side", ["Plus", "left", ""])
def test_unknown_side_is_refused_naming_it(data, side):
    with pytest.raises(ValueError, match=f"side must be .* got {side!r}"):
        data(np.array([0.0]), side)


def test_unknown_branch_is_refused_naming_it():
    data = constant_per_side(MINUS, PLUS)
    with pytest.raises(ValueError, match="got 'up'"):
        data.branch(np.array([0.0]), "up")
