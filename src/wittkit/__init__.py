"""Witt and Grothendieck-Witt groups of complex curves and surfaces, with
their topological KO-theory counterparts.

The usual entry points: build a space with ``make_curve`` / ``make_surface``
or fetch one from the catalog, then ask for ``witt_table``, ``ko_table``, or
``compare_w_kok``. Everything else (spectral sequence engines, finitely
generated group arithmetic, characteristic class rings) backs those three.
"""

from . import catalog, compare, errors, groups, spaces, specseq, topko, witt

# each public name once, under the module that defines it. The modules are
# imported eagerly, so a tracer that wraps the functions of loaded modules
# sees every public name.
_EXPORTS = {
    catalog: (
        "CatalogEntry",
        "catalog_get",
        "catalog_instances",
        "catalog_list",
    ),
    compare: (
        "ComparisonReport",
        "ShiftRow",
        "compare_w_kok",
        "report_from_json",
        "report_to_json",
        "s1_vs_sq2z",
    ),
    errors: (
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
    groups: (
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
    spaces: (
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
    specseq: (
        "BigradedPage",
        "EInfinityReport",
        "ahss_k",
        "ahss_ko",
        "pardon_e2",
        "pardon_stable",
        "run_to_stable",
        "turn_page",
    ),
    topko: (
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
    witt: (
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

for _module, _names in _EXPORTS.items():
    globals().update((name, getattr(_module, name)) for name in _names)
del _module, _names

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
