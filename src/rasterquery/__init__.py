"""rasterquery: exact spatial queries evaluated on a software rasterizer.

Geometry is rendered into discrete pixel canvases; canvas-specific indexes
(boundary index, layer index) turn raster candidates into exact answers, and
a clustered grid index supports datasets larger than memory.

Importing the package sets the C allocator, where it is glibc's, to serve
arrays of up to 32 MiB from the heap and to keep freed heap memory (see
``_reuse_freed_memory``).
"""

import ctypes

from .config import Config, load_config
from .geometry import (
    GeometryRecord,
    Point2,
    PolygonGeom,
    Segment,
    Triangle,
    box_record,
    convex_hull,
    exact_distance,
    exact_intersects,
    line_record,
    parse_wkt,
    point_record,
    polygon_from_rings,
    polygon_record,
    project_4326_to_3857,
    triangulate,
)

__all__ = [
    "Config",
    "load_config",
    "GeometryRecord",
    "Point2",
    "PolygonGeom",
    "Segment",
    "Triangle",
    "box_record",
    "convex_hull",
    "exact_distance",
    "exact_intersects",
    "line_record",
    "parse_wkt",
    "point_record",
    "polygon_from_rings",
    "polygon_record",
    "project_4326_to_3857",
    "triangulate",
]

__version__ = "0.1.0"

# mallopt parameters of glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _reuse_freed_memory() -> None:
    """Have each query reuse the memory earlier queries freed.

    A query allocates canvas planes and pixel-key arrays of 1 to 16 MiB and
    frees them on return. glibc's default policy maps such a block afresh,
    or trims it off the heap when freed, depending on the largest block the
    process freed before (its dynamic mmap threshold), so every query
    page-faults in tens of MB again and its time varies with the
    allocation history and with how busy the host's memory is. Fixed
    thresholds keep these blocks on the heap and keep up to 256 MiB of
    freed heap for reuse. Does nothing where the C library has no
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest accepted value
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_reuse_freed_memory()
