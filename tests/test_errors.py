"""The shared integer validator, seen through every public entry point.

bool is a subclass of int, so True would otherwise pass as 1.
"""

import pytest

from covolume import bernoulli, lattice, lvalues, quadfield, survey
from covolume.errors import InvalidInput


@pytest.mark.parametrize(
    "call",
    [
        lambda f: bernoulli.bernoulli_number(True),
        lambda f: bernoulli.generalized_bernoulli(True, -3),
        lambda f: lvalues.zeta_numeric(True),
        lambda f: quadfield.from_squarefree_d(True),
        lambda f: quadfield.kronecker_symbol(-3, True),
        lambda f: lattice.nu(f, True),
        lambda f: survey.scan(2, True),
        lambda f: survey.minimal_field(4, safety_margin=True),
        lambda f: survey.overall_minimum(True),
        lambda f: survey.hwang_bound(2, True),
    ],
    ids=[
        "bernoulli_number",
        "generalized_bernoulli",
        "zeta_numeric",
        "from_squarefree_d",
        "kronecker_symbol",
        "nu",
        "scan-max_disc",
        "minimal_field-safety_margin",
        "overall_minimum",
        "hwang_bound-k",
    ],
)
def test_bool_rejected(call, f3):
    with pytest.raises(InvalidInput):
        call(f3)

