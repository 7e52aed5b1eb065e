"""Every exported name resolves, so a deletion cannot leave a stale export,
and the top-level API is exactly the pinned set of names."""

import importlib
import pkgutil

import pytest

import circunits

MODULES = ["circunits"] + [
    f"circunits.{info.name}"
    for info in pkgutil.iter_modules(circunits.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


# The package's top-level API, written out so that a change to any module's
# __all__ shows up here.
TOP_LEVEL = [
    "Certificate", "CircUnitsError", "CycInt", "DisagreementError",
    "EvenGaloisIndex", "F2System", "FunnelPartition", "GeneratorSystem",
    "GroupRingElt", "IndexNotInPartition", "IndexOutOfRange",
    "InternalInconsistency", "LabeledWord", "Level", "LevelMismatch",
    "LevelTooSmall", "NonRealWord", "NotAUnit", "NotIntegral", "NotReal",
    "SpecialCoordsMod2", "TOOL_VERSION", "UnitWord", "V1Report", "beta",
    "build_partition", "canonical_r_token", "canonical_s_token",
    "d_index_set", "e_membership", "eval_word", "galois_transport_check",
    "generator_system", "gr_mul", "is_admissible", "p_factor_indices",
    "parse_word", "q_power_identities", "q_word", "r_table_tokens",
    "rtilde_member", "s_table_tokens", "seq_d", "seq_r", "seq_s",
    "special_mod2", "u_chi1", "v1_generators", "verify_main_theorem",
    "word_mod2",
]

REEXPORTED = [
    "circular_units", "congruence", "cyclotomic", "errors",
    "funnel", "group_ring", "real_basis", "version",
]


def test_top_level_names_are_pinned():
    assert len(TOP_LEVEL) == 50
    assert sorted(circunits.__all__) == TOP_LEVEL


def test_star_import_binds_exactly_the_top_level_names():
    namespace = {}
    exec("from circunits import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == TOP_LEVEL


def test_internal_names_stay_off_the_top_level():
    from circunits import gf2

    hidden = [*gf2.__all__, "WALK_GENERATORS", "special_mod2_from_parities"]
    for name in hidden:
        assert name not in circunits.__all__
        assert not hasattr(circunits, name), name


@pytest.mark.parametrize("name", REEXPORTED)
def test_reexported_module_defines_all(name):
    module = importlib.import_module(f"circunits.{name}")
    assert "__all__" in vars(module)
