"""The routes are independent: each one runs only its own code.

The agreement of the routes means something only if no route computes
its rows through another's code.  Each route of ``families._ROUTES``
runs here under ``sys.setprofile``, and every ``qeuler`` function it
calls must lie in that route's allowed set.  Left out are the shared
ring (``algebra``), imports (module and class bodies, and the package's
lazy ``__getattr__``), comprehensions (their enclosing function is
counted), and the family plumbing that turns a ``FamilySpec`` into
parameters.
"""

import inspect
import sys
from pathlib import Path

import pytest

import qeuler
from qeuler.families import Family, FamilySpec, _ROUTES

_PACKAGE = str(Path(qeuler.__file__).resolve().parent)

#: What each route may call: a module name allows every function of that
#: module, a dotted name one function.
_ALLOWED = {
    "egf": {"series"},
    "cfrac": {"jacobi", "families._weight_forms"},
    "enum": {"walks"},
    "recurrence": {"families.recurrence_polynomial", "families.eulerian_rows"},
}

#: The one exception: General has no group walk, so its ``enum`` rows are
#: the recurrence's.
_GENERAL_ENUM = _ALLOWED["recurrence"]

#: Family plumbing: a spec's parameters (``FamilySpec.params``), its (a, b, d),
#: and the lambdas of ``_FAMILIES`` and ``_ROUTES``.
_PLUMBING = {"families.params", "families.family_egf_params", "families.<lambda>"}

_COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}

_SPECS = [FamilySpec(Family.TYPE_B), FamilySpec(Family.GENERAL, a=2, d=3),
          FamilySpec(Family.TYPE_A_QT, t=2)]


def _calls(route, spec, count: int) -> set[str]:
    """``module.name`` of every ``qeuler`` function ROUTE calls below itself.

    A method is named without its class: ``co_qualname`` is Python 3.11+.
    """
    seen = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if (
            event == "call"
            and code is not route.__code__
            and code.co_flags & inspect.CO_OPTIMIZED  # not a module or class body
            and code.co_name not in _COMPREHENSIONS
            and str(Path(code.co_filename).resolve().parent) == _PACKAGE
        ):
            seen.add(f"{Path(code.co_filename).stem}.{code.co_name}")

    sys.setprofile(hook)
    try:
        route(spec, count)
    finally:
        sys.setprofile(None)
    return {name for name in seen if not name.startswith(("algebra.", "__init__."))} - _PLUMBING


def _allowed(name: str, allowed: set[str]) -> bool:
    return name in allowed or name.split(".")[0] in allowed


@pytest.mark.parametrize("spec", _SPECS, ids=[s.label() for s in _SPECS])
@pytest.mark.parametrize("route", list(_ROUTES))
def test_each_route_calls_only_its_own_code(route, spec):
    allowed = _GENERAL_ENUM if (route, spec.family) == ("enum", Family.GENERAL) else _ALLOWED[route]
    calls = _calls(_ROUTES[route], spec, 7)
    assert calls, "the route called no qeuler code"
    assert {name for name in calls if not _allowed(name, allowed)} == set()
