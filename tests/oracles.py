"""Reference implementations that tests compare the library against."""

from eisenfold.coloring import FaceColoring, is_good
from eisenfold.eisenstein import DomainError
from eisenfold.flower import BLACK, WHITE
from eisenfold.surface import QuotientComplex


def brute_force_good_colorings(c: QuotientComplex) -> list[FaceColoring]:
    """Oracle: filter all 2^F colorings by the goodness predicate."""
    if c.face_count > 16:
        raise DomainError("brute force reserved for F <= 16")
    out = []
    for mask in range(1 << c.face_count):
        colors = tuple(
            BLACK if (mask >> i) & 1 else WHITE for i in range(c.face_count)
        )
        col = FaceColoring(c, colors)
        if is_good(col).good:
            out.append(col)
    return out
