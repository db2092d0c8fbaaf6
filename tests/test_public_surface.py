"""The package's public names: each library module's ``__all__``, re-exported
by ``abeltile`` with nothing added but ``__version__``; and the value
semantics of its record classes."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import abeltile
from abeltile import (
    HALF, ZERO, AnnihilatorVerdict, CharacterVector, CycElement,
    DilationReport, FinMap, GroupSpec, IntMatrix, MinimalTuple, MultitileVerdict,
    QzSolutionSet, SearchBudget, SnfDecomposition, TorusAssignment, quotient_by,
    smith_normal_form,
)
from abeltile.cli import ProblemFile
from abeltile.errors import _Record

# the command-line front end is reached as abeltile.cli, not re-exported
LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(abeltile.__path__) if m.name != "cli"
)

# abeltile.__all__ as it stood when it was still written out by hand, less
# BlockTrace, SliceReport, Window2D, cesaro_average and
# slicing_periodicity_check, which were removed later
EARLIER_NAMES = (
    "AnnihilatorVerdict", "BudgetExceededError", "CapacityError",
    "CharacterVector", "CycElement", "DilationReport", "FinMap", "GroupSpec", "HALF",
    "InputError", "IntMatrix", "MinimalTuple", "MultitileVerdict", "PeriodicMap",
    "Quotient", "QzSolutionSet", "RationalMod1", "SearchBudget", "SnfDecomposition",
    "TorusAssignment", "ZERO", "box_refute", "complement", "convolve",
    "convolve_periodic", "coset_slice", "cyclotomic_poly", "decide_level_shift",
    "decide_multitile", "decide_zero_annihilator", "difference", "dilate",
    "dilation_check", "enumerate_minimal_tuples", "is_minimal_vanishing", "l1_norm",
    "mann_bound", "periodic_search", "pushforward", "quotient_by", "retraction_coeff0",
    "smith_normal_form", "solve_qz", "sum_roots_is_zero", "unit_expansion",
    "verify_annihilator", "verify_multitile", "verify_qz", "wedge",
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


# ------------------------------------------------------------ value records

Z1, Z2 = GroupSpec(1), GroupSpec(2)

# One sample per record class: a factory (called twice, so that equality is
# by value, not identity), the field names in order, and the repr.
RECORDS = [
    (lambda: GroupSpec(1, (2,)), ("free_rank", "torsion"),
     "GroupSpec(free_rank=1, torsion=(2,))"),
    (lambda: CharacterVector(Z1, (HALF,)), ("group", "etas"),
     "CharacterVector(group=GroupSpec(free_rank=1, torsion=()), etas=(RationalMod1(1, 2),))"),
    (lambda: AnnihilatorVerdict("NO"), ("answer", "witness_character", "witness_map"),
     "AnnihilatorVerdict(answer='NO', witness_character=None, witness_map=None)"),
    (lambda: CycElement(3, (1, 0)), ("level", "coeffs"), "CycElement(level=3, coeffs=(1, 0))"),
    (lambda: MinimalTuple(2, (ZERO, HALF)), ("k", "entries"),
     "MinimalTuple(k=2, entries=(RationalMod1(0, 1), RationalMod1(1, 2)))"),
    (lambda: quotient_by(Z2, (1, 0)),
     ("source", "group", "_transform", "_free_idx", "_torsion_idx", "_moduli"),
     "Quotient(source=GroupSpec(free_rank=2, torsion=()), group=GroupSpec(free_rank=1,"
     " torsion=()), _transform=((1, 0), (0, 1)), _free_idx=(1,), _torsion_idx=(),"
     " _moduli=(1, 0))"),
    (lambda: smith_normal_form(IntMatrix([[2]])), ("U", "D", "V"),
     "SnfDecomposition(U=IntMatrix([[1]]), D=IntMatrix([[2]]), V=IntMatrix([[1]]))"),
    (lambda: QzSolutionSet((ZERO,), ((1,),), (2,)),
     ("particular", "shift_vectors", "shift_moduli"),
     "QzSolutionSet(particular=(RationalMod1(0, 1),), shift_vectors=((1,),),"
     " shift_moduli=(2,))"),
    (lambda: TorusAssignment(1, (1,)), ("q", "bits"), "TorusAssignment(q=1, bits=(1,))"),
    (lambda: SearchBudget(), ("max_q", "max_box_radius", "max_nodes"),
     "SearchBudget(max_q=12, max_box_radius=6, max_nodes=200000)"),
    (lambda: MultitileVerdict("NO", refutation_box_radius=1),
     ("answer", "certificate", "refutation_box_radius", "budget_note", "nodes_used"),
     "MultitileVerdict(answer='NO', certificate=None, refutation_box_radius=1,"
     " budget_note=None, nodes_used=0)"),
    (lambda: DilationReport(2, ((3, True),)), ("q", "results"),
     "DilationReport(q=2, results=((3, True),))"),
    (lambda: ProblemFile(Z1, FinMap(Z1, [((0,), 1)])),
     ("group", "f", "g", "a", "cert", "budget", "dilation"),
     "ProblemFile(group=GroupSpec(free_rank=1, torsion=()), f=FinMap({(0,): 1}), g=None,"
     " a=None, cert=None, budget=SearchBudget(max_q=12, max_box_radius=6,"
     " max_nodes=200000), dilation=None)"),
]


def test_every_record_class_has_a_sample():
    classes, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.add(sub)
            todo.append(sub)
    assert {type(make()) for make, _, _ in RECORDS} == classes


@pytest.mark.parametrize(
    "make, fields, text", [pytest.param(*r, id=r[2].split("(")[0]) for r in RECORDS]
)
def test_record_value_semantics(make, fields, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    assert type(a)(**{name: getattr(a, name) for name in fields}) == a
    values = tuple(getattr(a, name) for name in fields)
    assert a != values
    assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    assert all(a != other() for other, _, _ in RECORDS if other is not make)
    try:
        hash(values)
    except TypeError:  # a FinMap or PeriodicMap field makes the record unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and repr(a) == text


def test_record_defaults():
    assert GroupSpec(1) == GroupSpec(1, ())
    assert SearchBudget() == SearchBudget(12, 6, 200_000)
    assert SearchBudget(max_nodes=5) == SearchBudget(12, 6, 5) != SearchBudget()
    assert MultitileVerdict("NO") == MultitileVerdict("NO", None, None, None, 0)
    assert MultitileVerdict("NO").nodes_used == 0
    assert AnnihilatorVerdict("NO") == AnnihilatorVerdict("NO", None, None)
    p = ProblemFile(Z1, FinMap(Z1))
    assert (p.g, p.a, p.cert, p.budget, p.dilation) == (None, None, None, SearchBudget(), None)


# a holder record and a validating record: constructor misuse is Python's own
# TypeError, never an AttributeError or a silently ignored argument
@pytest.mark.parametrize(
    "build",
    [
        lambda: MultitileVerdict(),
        lambda: MultitileVerdict("NO", witness=None),
        lambda: MultitileVerdict("NO", answer="NO"),
        lambda: MultitileVerdict("NO", None, None, None, 0, 7),
        lambda: GroupSpec(),
        lambda: GroupSpec(1, rank=1),
        lambda: GroupSpec(1, free_rank=1),
        lambda: GroupSpec(1, (), 2),
    ],
    ids=[
        f"{cls}-{case}"
        for cls in ("MultitileVerdict", "GroupSpec")
        for case in ("missing", "unknown-keyword", "repeated-keyword", "extra-positional")
    ],
)
def test_record_constructor_misuse_is_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_verdict_is_yes():
    assert MultitileVerdict("YES", TorusAssignment(1, (1,))).is_yes
    assert not MultitileVerdict("NO").is_yes
    assert not MultitileVerdict("UNKNOWN").is_yes
    assert AnnihilatorVerdict("YES").is_yes and not AnnihilatorVerdict("NO").is_yes
