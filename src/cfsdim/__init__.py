"""Hausdorff dimensions of self-similar measures and attractors for IFSs on
the line whose maps share fixed points, with the 4-corner self-affine
application and independent empirical cross-checks.

The public names resolve on first use (PEP 562), so ``import cfsdim`` loads
no submodule and a caller pays only for the modules it touches.
"""

import importlib
import sys

# submodule -> the public names it provides
_EXPORTS = {
    "ifs": ("BudgetExceeded", "CFSystem", "FourCornerProb", "FourCornerSystem",
            "ProbVector", "ValidationError", "load_system", "prune_zeros",
            "validate_4c", "validate_probabilities", "validate_system"),
    "words": ("Block",),
    "entropy": ("PhiResult", "RWEntropyResult", "lyapunov", "phi_lower_bound",
                "phi_monte_carlo", "phi_series", "rw_entropy_bruteforce",
                "rw_entropy_closed", "shannon_entropy"),
    "dimension": ("DimensionReport", "attractor_dimension", "gd_dimension",
                  "measure_dimension", "similarity_dimension"),
    "separation": ("ProbeResult", "SeparationReport", "esc_probe", "min_gap"),
    "fourcorner": ("measure_dimension_4c", "natural_p", "render_cylinders_svg",
                   "set_dimension_4c"),
    "estimate": ("ScalingFit", "box_dimension_1d", "box_dimension_2d",
                 "cover_boxes_1d", "entropy_slope", "render_attractor_ppm"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached in globals(): a name follows later rebinding in its module
    short = name if name in _EXPORTS else _MODULE_OF.get(name)
    if short is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{short}"
    # a loaded submodule costs one dict lookup, not a trip through importlib
    module = sys.modules.get(path) or importlib.import_module(path)
    return module if short == name else getattr(module, name)
