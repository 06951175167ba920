"""Faces for the tests, written apart from `absorder.topology`.

`SimplicialComplex` keeps each face, an ascending vertex tuple, as one
int: its labels w bits each, the first most significant, w the bit length
of the largest vertex label (at least 1).  `packed` and `tuples` convert
between that form and tuples by dimension, with no code of the package,
so the tests that use them check the package against them; a complex
built by hand reaches the homology kernel through `levels_and_counts`.
An order complex of dimension 2 or more keeps its top level only as a
count; `every_face` builds it.  The tuple faces are what the reference
homologies read: `closure` builds a complex from its top faces,
`by_index` relabels one by poset indices, and `boundary_columns` and
`normalized` give the columns they eliminate.
"""

import itertools
from fractions import Fraction


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


def levels_and_counts(faces: list) -> tuple:
    """Tuple faces grouped by dimension, each level sorted and the vertices
    0, 1, ..., k-1, as `topology._homology_from_faces` takes them: the
    packed levels and the number of faces of each dimension."""
    return packed(faces), [len(level) for level in faces]


def tuples(levels: list) -> list:
    """Packed levels, level d holding d-faces, as tuple faces."""
    if not levels:
        return []
    w = _label_bits(max(levels[0], default=0))
    return [[tuple(face // 2 ** (w * k) % 2 ** w for k in range(d, -1, -1))
             for face in level] for d, level in enumerate(levels)]


def every_face(levels: list, counts: list) -> list:
    """Packed levels as tuple faces, and, when `counts` counts one level
    more, that top level built as a flag complex has it: each face of the
    level below extended by each vertex after its last that is joined to
    all of its vertices by edges."""
    faces = tuples(levels)
    if len(faces) < len(counts):
        edges, after = set(faces[1]), {}
        for a, b in faces[1]:
            after.setdefault(a, []).append(b)
        faces.append([face + (u,) for face in faces[-1]
                      for u in after.get(face[-1], ())
                      if all((v, u) in edges for v in face[:-1])])
    return faces


def closure(tops) -> list:
    """Faces by dimension, each sorted, of the complex the `tops` generate."""
    faces = set()
    for top in tops:
        for k in range(1, len(top) + 1):
            faces.update(itertools.combinations(sorted(top), k))
    by_dim = [[] for _ in range(max(map(len, faces)))]
    for face in faces:
        by_dim[len(face) - 1].append(face)
    return [sorted(dim_faces) for dim_faces in by_dim]


def by_index(indices, faces_by_dim) -> list:
    """Faces over vertex labels as ascending tuples of the poset indices
    `indices` gives them, each dimension sorted: the order in which
    `cm_check` walks them."""
    return [sorted(tuple(sorted(indices[v] for v in face)) for face in faces)
            for faces in faces_by_dim]


def boundary_columns(faces_by_dim, d) -> list:
    """The boundary map from d-faces to (d-1)-faces, as row->sign columns."""
    row_index = {face: k for k, face in enumerate(faces_by_dim[d - 1])}
    return [{row_index[face[:k] + face[k + 1:]]: (-1) ** k
             for k in range(d + 1)} for face in faces_by_dim[d]]


def normalized(col, pivot_row) -> dict:
    """`col` divided by its entry in `pivot_row`, over the rationals; the
    references' own, so the kernel's integral one is not their oracle."""
    pv = col[pivot_row]
    if pv in (1, -1):
        return {r: v * pv for r, v in col.items()}
    return {r: Fraction(v) / pv for r, v in col.items()}
