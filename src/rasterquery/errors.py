"""Exception hierarchy shared across the package.

Everything the library itself raises derives from :class:`SpatialError` so
callers can map failures to exit codes in one place.
"""


class SpatialError(Exception):
    """Base class for all library errors."""


class ParseError(SpatialError):
    """Malformed input text. Carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedTypeError(SpatialError):
    """Well-formed input of a geometry type the engine does not handle."""


class TriangulationError(SpatialError):
    """Ring cannot be triangulated (self-intersecting or degenerate)."""

    def __init__(self, message: str, ring_index: int):
        super().__init__(f"{message} (ring {ring_index})")
        self.ring_index = ring_index


class DegenerateGeometryError(SpatialError):
    """Geometry violates a non-degeneracy precondition."""


class ProjectionError(SpatialError):
    """Coordinate outside the valid projection domain."""


class CanvasError(SpatialError):
    """Invalid viewport/canvas construction or mismatched canvas operands."""


class OverlapError(CanvasError):
    """Records rendered into one canvas overlap: the interiors of two of them
    cover one pixel. A canvas takes pairwise-disjoint records (one layer)."""


class DataError(SpatialError):
    """Bad user data: id collisions, missing values, malformed rows, bad radii."""


class CorruptionError(DataError):
    """On-disk data failed a checksum or magic/version check."""


class ConfigurationError(SpatialError, ValueError):
    """Invalid engine configuration: a value out of range, or a setting that
    is not a number. Also a ``ValueError``, for callers that catch that."""


class InternalInvariantError(SpatialError):
    """A supposedly-impossible state; aborts the query (exit code 4)."""
