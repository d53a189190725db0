"""Kernel backend selection.

The compiled Cython extension and the pure-Python module implement the same
five functions; the extension is used when it is importable, and the pure
module otherwise.
"""

from .pure import CLASS_ORDER, MAP_PROP_ORDER  # noqa: F401

try:
    from . import _speedups as _impl
    BACKEND = "compiled"
except ImportError:
    from . import pure as _impl
    BACKEND = "pure"

space_pack = _impl.space_pack
class_masks = _impl.class_masks
map_masks = _impl.map_masks
enumerate_masks = _impl.enumerate_masks
composition_failures = _impl.composition_failures
