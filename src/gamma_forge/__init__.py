"""Commutative loops from odd-order groups: construction and exhaustive verification."""

from .core import (
    CayleyTable,
    ConstructionError,
    EvenOrderError,
    GammaForgeError,
    build_table,
    classify,
)
from .groups import (
    Group,
    SemidirectSpec,
    Subgroup,
    center,
    construct,
    cyclic,
    derived_series,
    direct,
    from_file,
    heisenberg,
    is_metabelian,
    is_two_engel,
    is_uniquely_2_divisible,
    lower_central_series,
    nilpotency_class,
    sd,
    unitriangular,
    upper_central_series,
    wreath_cyclic,
)
from .constructions import bruck_from_gamma, circ_loop, gamma_from_bruck, oplus_loop
from .loops import (
    Loop,
    check_gamma_axioms,
    is_automorphic,
    is_left_bruck,
    is_moufang,
    is_power_associative,
    loop_center,
    loop_nilpotency_class,
    powers_coincide,
    quotient_loop,
)
from .sdforms import SdForms

__version__ = "0.1.0"
