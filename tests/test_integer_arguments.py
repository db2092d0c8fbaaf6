"""One rule for every scalar integer argument of the library: an ``int``, not
a ``bool``, and at least the parameter's minimum, else InputError."""

import pytest

from abeltile import (
    ZERO,
    FinMap,
    GroupSpec,
    InputError,
    PeriodicMap,
    SearchBudget,
    TorusAssignment,
    box_refute,
    cyclotomic_poly,
    decide_level_shift,
    decide_zero_annihilator,
    dilate,
    dilation_check,
    mann_bound,
    periodic_search,
    retraction_coeff0,
)

Z = GroupSpec(1)
Z2 = GroupSpec(2)
POINT = FinMap.delta(Z, (0,))
CELL = FinMap.delta(Z2, (0, 0))
ONE_Z = PeriodicMap.constant(Z, 1)
ONE_Z2 = PeriodicMap.constant(Z2, 1)

# (parameter, minimum, call with the argument under test)
PARAMETERS = [
    ("GroupSpec.free_rank", 0, lambda v: GroupSpec(v)),
    ("GroupSpec torsion modulus", 1, lambda v: GroupSpec(0, (v,))),
    ("PeriodicMap.period", 1, lambda v: PeriodicMap(Z, v, [1])),
    ("dilate r", 1, lambda v: dilate(POINT, v)),
    # the level-1 entry is cached first: True must still not hit it
    ("cyclotomic_poly L", 1, lambda v: cyclotomic_poly(1) and cyclotomic_poly(v)),
    ("retraction_coeff0 L", 1, lambda v: retraction_coeff0(ZERO, v)),
    ("mann_bound k", 1, lambda v: mann_bound(1) and mann_bound(v)),  # cached too
    ("decide_zero_annihilator cap", 1, lambda v: decide_zero_annihilator(Z, POINT, cap=v)),
    ("decide_level_shift cap", 1, lambda v: decide_level_shift(Z, POINT, cap=v)),
    ("TorusAssignment.q", 1, lambda v: TorusAssignment(v, (1,))),
    ("SearchBudget.max_q", 1, lambda v: SearchBudget(max_q=v)),
    ("SearchBudget.max_box_radius", 1, lambda v: SearchBudget(max_box_radius=v)),
    ("SearchBudget.max_nodes", 1, lambda v: SearchBudget(max_nodes=v)),
    ("periodic_search q", 1, lambda v: periodic_search(CELL, ONE_Z2, v)),
    ("periodic_search max_nodes", 1, lambda v: periodic_search(CELL, ONE_Z2, 1, max_nodes=v)),
    ("box_refute n", 0, lambda v: box_refute(CELL, ONE_Z2, v)),
    ("box_refute max_nodes", 1, lambda v: box_refute(CELL, ONE_Z2, 0, max_nodes=v)),
    ("dilation_check q", 1, lambda v: dilation_check(POINT, ONE_Z, ONE_Z, v, [1])),
    ("dilation_check r", 1, lambda v: dilation_check(POINT, ONE_Z, ONE_Z, 1, [v])),
]
IDS = [name for name, _, _ in PARAMETERS]


@pytest.mark.parametrize("name, minimum, call", PARAMETERS, ids=IDS)
@pytest.mark.parametrize("bad", ["true", "float", "below"])
def test_bad_integer_argument_is_input_error(name, minimum, call, bad):
    value = {"true": True, "float": 2.5, "below": minimum - 1}[bad]
    with pytest.raises(InputError, match=r": expected an integer"):
        call(value)


@pytest.mark.parametrize("name, minimum, call", PARAMETERS, ids=IDS)
def test_minimum_integer_argument_is_accepted(name, minimum, call):
    call(minimum)


def test_zero_node_budget_does_not_return_a_torus():
    # one torus cell is forced by propagation alone, so only the argument
    # check stands between a zero budget and a certificate
    assert periodic_search(CELL, ONE_Z2, 1, max_nodes=1) is not None
    with pytest.raises(InputError, match=r"^max_nodes: expected an integer >= 1, got 0$"):
        periodic_search(CELL, ONE_Z2, 1, max_nodes=0)
    with pytest.raises(InputError, match=r"^max_nodes: expected an integer >= 1, got -5$"):
        box_refute(CELL, ONE_Z2, 0, max_nodes=-5)
