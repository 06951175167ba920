"""Packed faces for the tests, written apart from `absorder.topology`.

`SimplicialComplex` takes and keeps each face, an ascending vertex tuple,
as one int: its labels w bits each, the first most significant, w the bit
length of the largest vertex label (at least 1).  `packed` and `tuples`
convert between that form and tuples by dimension, with no code of the
package, so the tests that use them check the package against them.
"""


def _label_bits(largest: int) -> int:
    return max(largest.bit_length(), 1)


def packed(faces: list) -> list:
    """Tuple faces grouped by dimension, as packed levels."""
    if not faces:
        return []
    w = _label_bits(max((max(face) for face in faces[0]), default=0))
    levels = []
    for level in faces:
        ints = []
        for face in level:
            value = 0
            for v in face:
                value = value * 2 ** w + v
            ints.append(value)
        levels.append(ints)
    return levels


def tuples(levels: list) -> list:
    """Packed levels, level d holding d-faces, as tuple faces."""
    if not levels:
        return []
    w = _label_bits(max(levels[0], default=0))
    return [[tuple(face // 2 ** (w * k) % 2 ** w for k in range(d, -1, -1))
             for face in level] for d, level in enumerate(levels)]
