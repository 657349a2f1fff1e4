"""Witt and Grothendieck-Witt groups of complex curves and surfaces, with
their topological KO-theory counterparts.

The usual entry points: build a space with ``make_curve`` / ``make_surface``
or fetch one from the catalog, then ask for ``witt_table``, ``ko_table``, or
``compare_w_kok``. Everything else (spectral sequence engines, finitely
generated group arithmetic, characteristic class rings) backs those three.
"""

import importlib

# each public name once, under the name of the module that defines it. A name
# is read from its module (imported on first use, PEP 562) on every access and
# never bound here, so a function rebound in its module by a tracer is seen.
_EXPORTS = {
    "catalog": (
        "CatalogEntry",
        "catalog_get",
        "catalog_instances",
        "catalog_list",
    ),
    "compare": (
        "ComparisonReport",
        "ShiftRow",
        "compare_w_kok",
        "report_from_json",
        "report_to_json",
        "s1_vs_sq2z",
    ),
    "errors": (
        "DegreeOutOfRange",
        "InconsistentDescriptor",
        "MalformedPage",
        "NoSuchTwist",
        "RenderParseError",
        "RingMismatch",
        "ShapeMismatch",
        "TruncationError",
        "UnknownName",
        "UnsupportedDivisibleMap",
        "UnsupportedTwist",
        "WittkitError",
    ),
    "groups": (
        "ExactnessReport",
        "GroupMap",
        "SymGroup",
        "check_exact",
        "cokernel",
        "cyclic",
        "direct_sum",
        "direct_sum_all",
        "divisible",
        "elementary_two",
        "free",
        "kernel",
        "mod2",
        "mod2_rank",
        "parse_group",
        "render",
        "snf",
        "two_torsion",
    ),
    "spaces": (
        "INTEGRAL",
        "MOD2",
        "SpaceDescriptor",
        "betti",
        "descriptor_from_json",
        "descriptor_to_json",
        "etale_h",
        "make_curve",
        "make_point",
        "make_surface",
        "pic_surjective",
        "picard",
        "singular_h",
    ),
    "specseq": (
        "BigradedPage",
        "EInfinityReport",
        "ahss_k",
        "ahss_ko",
        "pardon_e2",
        "pardon_stable",
        "run_to_stable",
        "turn_page",
    ),
    "topko": (
        "KoTable",
        "Mod2Ranks",
        "QlReport",
        "eta_iso_check",
        "k1_two_torsion",
        "k_top_graded",
        "ko_curve",
        "ko_point",
        "ko_table",
        "kok",
        "mod2_ranks",
        "ql_hermitian_verdict",
        "topko_json_payload",
    ),
    "witt": (
        "FHImage",
        "KaroubiReport",
        "RingContext",
        "TruncatedClass",
        "WittTable",
        "curve_symplectic_ring",
        "fh_image",
        "generic_sw_ring",
        "gw_curve",
        "gw_point",
        "karoubi_check",
        "projective_space_ring",
        "sw_metabolic_total",
        "sw_whitney_product",
        "w0_graded_surface",
        "w_curve",
        "w_point",
        "w_surface",
        "witt_json_payload",
        "witt_table",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_LOADED = {}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module not in _LOADED:
        if module not in _EXPORTS:
            raise AttributeError("module %r has no attribute %r" % (__name__, name))
        _LOADED[module] = importlib.import_module("." + module, __name__)
    return _LOADED[module] if module == name else getattr(_LOADED[module], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNER})
