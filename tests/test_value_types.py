"""The contract of the package's eleven value types: construction, equality,
hashing, repr and immutability; and an import of the package that loads
none of dataclasses, inspect and typing."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from circunits import (
    Certificate,
    CycInt,
    F2System,
    FunnelPartition,
    GeneratorSystem,
    GroupRingElt,
    LabeledWord,
    Level,
    SpecialCoordsMod2,
    UnitWord,
    V1Report,
    verify_main_theorem,
)

L3, L4 = Level(3), Level(4)
HEAD = LabeledWord("d_1^2", None, 1, 2, UnitWord(L4, 0, ((1, 2),)))
STEP = LabeledWord("q(1,1)", 1, 1, 1, UnitWord(L4, 0, ((1, -1), (3, 1))))
X0 = GroupRingElt(L3, (1, 0, 0, 0, 0, 0, 0, 0))
X4 = GroupRingElt(L3, (0, 0, 0, 0, 1, 0, 0, 0))
CLASSES = (SpecialCoordsMod2(L4, 5), SpecialCoordsMod2(L4, 9))

# Each case: the class; its fields by name, in order; one field changed to
# another value; and the repr of the instance, as recorded when these
# classes were dataclasses.
CASES = [
    (Level, {"n": 4}, ("n", 5), "Level(n=4)"),
    (
        CycInt,
        {"level": L4, "coeffs": (1, 2, 0, -3, 0, 0, 0, 0)},
        ("coeffs", (1, 2, 0, -3, 0, 0, 0, 1)),
        "CycInt(level=Level(n=4), coeffs=(1, 2, 0, -3, 0, 0, 0, 0))",
    ),
    (
        UnitWord,
        {"level": L4, "alpha_exp": 3, "d_exps": ((1, -2), (3, 1))},
        ("alpha_exp", 4),
        "UnitWord(level=Level(n=4), alpha_exp=3, d_exps=((1, -2), (3, 1)))",
    ),
    (
        SpecialCoordsMod2,
        {"level": Level(5), "mask": 32},
        ("mask", 33),
        "SpecialCoordsMod2(level=Level(n=5), mask=32)",
    ),
    (
        FunnelPartition,
        {"level": L4, "A_sets": ((1, 3), (1,)), "B_sets": ((5,), (3,))},
        ("B_sets", ((5,), (1,))),
        "FunnelPartition(level=Level(n=4), A_sets=((1, 3), (1,)), "
        "B_sets=((5,), (3,)))",
    ),
    (
        LabeledWord,
        {"label": "d_1^2", "k": None, "j": 1, "exponent": 2, "word": HEAD.word},
        ("k", 0),
        "LabeledWord(label='d_1^2', k=None, j=1, exponent=2, "
        "word=UnitWord(level=Level(n=4), alpha_exp=0, d_exps=((1, 2),)))",
    ),
    (
        GeneratorSystem,
        {"level": L4, "sqrt_gens": (HEAD, STEP)},
        ("sqrt_gens", (HEAD,)),
        "GeneratorSystem(level=Level(n=4), sqrt_gens=(LabeledWord(label='d_1^2', "
        "k=None, j=1, exponent=2, word=UnitWord(level=Level(n=4), alpha_exp=0, "
        "d_exps=((1, 2),))), LabeledWord(label='q(1,1)', k=1, j=1, exponent=1, "
        "word=UnitWord(level=Level(n=4), alpha_exp=0, d_exps=((1, -1), (3, 1))))))",
    ),
    (F2System, {"rank": 2, "nullity": 0}, ("nullity", 1), "F2System(rank=2, nullity=0)"),
    (
        Certificate,
        {
            "level": L4,
            "generators": CLASSES,
            "generator_labels": ("d_1^2", "q(1,1)"),
            "system": F2System(2, 0),
            "method": "exhaustive+linearized",
            "exhaustive_assignments": 4,
            "exhaustive_kernel_size": 1,
            "odd_r_subsystem": None,
            "trivial_only": True,
            "elapsed_ms": 0.5,
        },
        ("elapsed_ms", 0.25),
        "Certificate(level=Level(n=4), generators=(SpecialCoordsMod2("
        "level=Level(n=4), mask=5), SpecialCoordsMod2(level=Level(n=4), mask=9)), "
        "generator_labels=('d_1^2', 'q(1,1)'), system=F2System(rank=2, nullity=0), "
        "method='exhaustive+linearized', exhaustive_assignments=4, "
        "exhaustive_kernel_size=1, odd_r_subsystem=None, trivial_only=True, "
        "elapsed_ms=0.5)",
    ),
    (
        GroupRingElt,
        {"level": L3, "coeffs": (1, 0, 0, 0, 0, 0, 0, 0)},
        ("coeffs", (0, 1, 0, 0, 0, 0, 0, 0)),
        "GroupRingElt(level=Level(n=3), coeffs=(1, 0, 0, 0, 0, 0, 0, 0))",
    ),
    (
        V1Report,
        {"level": L3, "labels": ("d_1^2",), "images": (X0,), "torsion_generator": X4},
        ("labels", ("d_1^4",)),
        "V1Report(level=Level(n=3), labels=('d_1^2',), images=(GroupRingElt("
        "level=Level(n=3), coeffs=(1, 0, 0, 0, 0, 0, 0, 0)),), torsion_generator="
        "GroupRingElt(level=Level(n=3), coeffs=(0, 0, 0, 0, 1, 0, 0, 0)))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_value_type_is_covered():
    assert len(CASES) == 11


@pytest.mark.parametrize("cls, fields, changed, shown", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, changed, shown):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls, fields, changed, shown", CASES, ids=IDS)
def test_equality_and_hash_over_the_fields(cls, fields, changed, shown):
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    name, value = changed
    other = cls(**{**fields, name: value})
    assert a != other and not a == other
    assert a != fields and a != tuple(fields.values())


@pytest.mark.parametrize("cls, fields, changed, shown", CASES, ids=IDS)
def test_repr_as_recorded(cls, fields, changed, shown):
    assert repr(cls(**fields)) == shown


@pytest.mark.parametrize("cls, fields, changed, shown", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, changed, shown):
    value = cls(**fields)
    name, new = changed
    with pytest.raises(AttributeError):
        setattr(value, name, new)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is fields[name]
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls, fields, changed, shown", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, changed, shown):
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and repr(twin) == shown


def test_known_unit_defaults_to_false_and_stays_out_of_the_contract():
    coeffs = (1, 2, 0, -3, 0, 0, 0, 0)
    plain, marked = CycInt(L4, coeffs), CycInt(L4, coeffs, True)
    assert plain.known_unit is False
    assert marked.known_unit is True
    assert CycInt(L4, coeffs, known_unit=True).known_unit is True
    assert plain == marked and hash(plain) == hash(marked)
    assert repr(plain) == repr(marked)
    assert pickle.loads(pickle.dumps(marked)).known_unit is True
    with pytest.raises(AttributeError):
        marked.known_unit = False


def test_the_verifier_builds_its_records_by_keyword():
    cert = verify_main_theorem(L4)
    assert cert.system == F2System(rank=2, nullity=0)
    rebuilt = Certificate(
        level=cert.level,
        generators=cert.generators,
        generator_labels=cert.generator_labels,
        system=F2System(rank=cert.system.rank, nullity=cert.system.nullity),
        method=cert.method,
        exhaustive_assignments=cert.exhaustive_assignments,
        exhaustive_kernel_size=cert.exhaustive_kernel_size,
        odd_r_subsystem=cert.odd_r_subsystem,
        trivial_only=cert.trivial_only,
        elapsed_ms=cert.elapsed_ms,
    )
    assert rebuilt == cert
    assert rebuilt.to_json_dict() == cert.to_json_dict()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Level(2), "level n must satisfy 3 <= n <= 12, got 2"),
        (lambda: Level(13), "level n must satisfy 3 <= n <= 12, got 13"),
        (lambda: CycInt(L4, (1, 2)), "need 8 coefficients at n=4, got 2"),
        (lambda: UnitWord(L4, 16, ()), "alpha exponent must be stored reduced; use make()"),
        (lambda: UnitWord(L4, 0, ((3, 1), (1, 1))), "d-exponents must be sorted by index"),
        (lambda: UnitWord(L4, 0, ((1, 0),)), "zero exponents must be dropped; use make()"),
        (lambda: SpecialCoordsMod2(L4, 16), "need a mask of 4 bits at n=4, got 0x10"),
        (lambda: GroupRingElt(L3, (1,)), "need 8 coefficients at n=3, got 1"),
    ],
)
def test_construction_validates_with_the_same_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_level_refuses_a_non_int():
    with pytest.raises(TypeError, match="level must be an int, got float"):
        Level(4.0)


def test_missing_and_surplus_arguments_raise_type_error():
    with pytest.raises(TypeError):
        Level()
    with pytest.raises(TypeError):
        F2System(1, 0, 0)
    with pytest.raises(TypeError):
        CycInt(L4, (0,) * 8, False, 1)
    with pytest.raises(TypeError):
        UnitWord(level=L4, alpha=0, d_exps=())
    with pytest.raises(TypeError, match="F2System field 'nullity' missing"):
        F2System(1)
    with pytest.raises(TypeError, match="F2System field 'rank' given twice"):
        F2System(1, rank=1)
    with pytest.raises(TypeError, match="F2System field 'nulity' unknown"):
        F2System(rank=1, nulity=0)
    with pytest.raises(TypeError, match="F2System takes 2 fields, got 3"):
        F2System(1, 0, 0)


def test_only_cycint_writes_its_own_eq_and_hash():
    """One ==/hash/repr path: every value type takes all three from the
    shared base, and only CycInt keys them on fewer fields than __slots__,
    so that its known_unit mark stays out of them."""
    written = {"__eq__", "__hash__", "__repr__"}
    assert [cls for cls, *_ in CASES if written & cls.__dict__.keys()] == []
    narrowed = [cls for cls, *_ in CASES if cls._key != cls.__slots__]
    assert narrowed == [CycInt]
    assert CycInt._key == ("level", "coeffs")


def test_only_the_validating_or_hot_types_write_their_own_init():
    """One constructor path: the records take the shared base's binder;
    only the types that validate their fields write their own."""
    own = {cls for cls, *_ in CASES if "__init__" in cls.__dict__}
    assert own == {Level, CycInt, UnitWord, SpecialCoordsMod2, GroupRingElt}


# ---------------------------------------------------------------------- #
# the import graph


def _loaded_by_fresh_import(imports, modules):
    """Which of modules a fresh interpreter, with no site packages (-S),
    has loaded after the given import statement.  This is measured in a
    subprocess because pytest itself loads them."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, {imports}; print(sorted({modules!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.strip()


def test_importing_the_package_loads_no_code_generators():
    """The package and its CLI import without dataclasses, inspect or
    typing."""
    loaded = _loaded_by_fresh_import(
        "circunits, circunits.cli", {"dataclasses", "inspect", "typing"}
    )
    assert loaded == "[]"


def test_importing_the_package_alone_loads_no_re():
    """The library imports without re or enum: only parse_word needs re,
    and imports it when called."""
    assert _loaded_by_fresh_import("circunits", {"re", "enum"}) == "[]"
