"""The package's public names: each library module's ``__all__``, re-exported
by ``abeltile`` with nothing added but ``__version__``."""

import importlib
import pkgutil

import abeltile

# the command-line front end is reached as abeltile.cli, not re-exported
LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(abeltile.__path__) if m.name != "cli"
)

# abeltile.__all__ as it stood when it was still written out by hand
EARLIER_NAMES = (
    "AnnihilatorVerdict", "BlockTrace", "BudgetExceededError", "CapacityError",
    "CharacterVector", "CycElement", "DilationReport", "FinMap", "GroupSpec", "HALF",
    "InputError", "IntMatrix", "MinimalTuple", "MultitileVerdict", "PeriodicMap",
    "Quotient", "QzSolutionSet", "RationalMod1", "SearchBudget", "SliceReport",
    "SnfDecomposition", "TorusAssignment", "Window2D", "ZERO", "box_refute",
    "cesaro_average", "complement", "convolve", "convolve_periodic", "coset_slice",
    "cyclotomic_poly", "decide_level_shift", "decide_multitile",
    "decide_zero_annihilator", "difference", "dilate", "dilation_check",
    "enumerate_minimal_tuples", "is_minimal_vanishing", "l1_norm", "mann_bound",
    "periodic_search", "pushforward", "quotient_by", "retraction_coeff0",
    "slicing_periodicity_check", "smith_normal_form", "solve_qz", "sum_roots_is_zero",
    "unit_expansion", "verify_annihilator", "verify_multitile", "verify_qz", "wedge",
    "witness_periodic_annihilator", "__version__",
)


def test_every_module_name_is_reexported_as_the_same_object():
    listed = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"abeltile.{name}")
        for attr in module.__all__:
            assert getattr(abeltile, attr) is getattr(module, attr), (name, attr)
            listed.add(attr)
    assert len(abeltile.__all__) == len(set(abeltile.__all__))
    assert set(abeltile.__all__) == listed | {"__version__"}


def test_earlier_public_names_still_import():
    namespace = {}
    exec("from abeltile import *", namespace)
    assert set(EARLIER_NAMES) <= set(namespace)
    assert {"qz_solution_set", "GroupElement"} <= set(namespace)
