"""Finite two-tier poset fragments, their pair order of (curves, points)
nodes, fiber statistics, and reconstruction of fragment isomorphisms from
isomorphisms of the pair order."""

from .core import (HARD_MAX_TIER, IsoMap, PosetFragment, ValidationReport,
                   bits_of, mask_of, relabel, validate)
from .conditions import (BatteryReport, ConditionReport, check_j1, check_j2,
                         check_j4, check_p1_to_p4, find_j3_witness,
                         find_p5_witness, survey_j3, survey_p5,
                         witness_battery)
from .structure import (FiberView, StrNode, counting_formula,
                        down_set_in_fiber, enumerate_fiber, finite_node,
                        format_node, has_strictly_smaller, mu_statistic,
                        parity_mub_check, ray_node, str_leq, str_member,
                        w_max)
from .models import (FragmentFormatError, GeneratorParams,
                     affine_plane_fragment, cusp_fragment, dumps_fragment,
                     fragment_from_json, fragment_to_json, json_text,
                     load_fragment, random_fragment, save_fragment)
from .reconstruction import (DomainSpec, ReconstructionError,
                             ReconstructionTrace, RoundTripResult, StrIso,
                             build_rho, corrupt_str_iso, induce_str_iso,
                             round_trip, verify_factorization)

__version__ = "0.1.0"

__all__ = [
    "HARD_MAX_TIER", "IsoMap", "PosetFragment", "ValidationReport",
    "bits_of", "mask_of", "relabel", "validate",
    "BatteryReport", "ConditionReport", "check_j1", "check_j2", "check_j4",
    "check_p1_to_p4", "find_j3_witness", "find_p5_witness", "survey_j3",
    "survey_p5", "witness_battery",
    "FiberView", "StrNode", "counting_formula", "down_set_in_fiber",
    "enumerate_fiber", "finite_node", "format_node", "has_strictly_smaller",
    "mu_statistic", "parity_mub_check", "ray_node", "str_leq", "str_member",
    "w_max",
    "FragmentFormatError", "GeneratorParams", "affine_plane_fragment",
    "cusp_fragment", "dumps_fragment", "fragment_from_json",
    "fragment_to_json", "json_text", "load_fragment", "random_fragment",
    "save_fragment",
    "DomainSpec", "ReconstructionError",
    "ReconstructionTrace", "RoundTripResult", "StrIso", "build_rho",
    "corrupt_str_iso", "induce_str_iso", "round_trip", "verify_factorization",
]
