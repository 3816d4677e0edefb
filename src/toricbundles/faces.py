"""Faces of a simplicial fan as ray bitmasks.

A face is an int with bit rho set for each ray rho of it, and every face
comes from one walk of each maximal cone's submasks (``walk_faces``).
The rings read these masks for their columns, relation rows and face
tests; the h-vector is counted from their popcounts, the minimal
non-faces are grown from them, and the face monomials of every degree
(the columns of a face ring) are made from them in one pass.
"""

from __future__ import annotations

from math import comb


def ray_mask(rays) -> int:
    """The bitmask of a set of distinct ray indices."""
    return sum(map((1).__lshift__, rays))


def mask_rays(mask: int) -> list[int]:
    """The ray indices of a bitmask, ascending."""
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


def walk_faces(max_cones) -> set[int]:
    """Every face as a ray bitmask: one walk of each maximal cone's submasks."""
    faces = {0}
    for cone in max_cones:
        top = sub = ray_mask(cone)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & top
    return faces


def squarefree(mask: int, ray_count: int) -> tuple[int, ...]:
    """The squarefree monomial of a face mask."""
    return tuple([mask >> i & 1 for i in range(ray_count)])


def face_monomial_sum(faces, ray_count: int) -> dict:
    """The sum of x_tau over the face masks tau: prod_rho (1 + x_rho) expanded.

    Every other squarefree monomial of the expansion has a non-face support
    and vanishes in the Stanley-Reisner quotient.
    """
    return {squarefree(face, ray_count): 1 for face in faces}


def face_monomials(ray_count: int, faces, cap: int) -> list[tuple]:
    """All degree-d monomials whose support is a face, for d = 0..cap.

    Each degree-d monomial is a degree-(d-1) one times its last ray or a
    later ray, kept when its support bitmask is one of the face masks, so
    every monomial is made exactly once.  Each degree is ordered with
    x_0-heavy monomials first, so elimination pivots prefer low ray
    indices and basis monomials gravitate to high ones.
    """
    later = {face: [] for face in faces}  # [(ray past its last, wider face)]
    for face in later:
        if face:
            last = face.bit_length() - 1
            later[face ^ 1 << last].append((last, face))
    level = [((0,) * ray_count, 0, 0)]  # (monomial, support mask, last ray)
    out = [(level[0][0],)]
    for _ in range(cap):
        grown = []
        for mono, mask, last in level:
            if mask:
                grown.append((mono[:last] + (mono[last] + 1,) + mono[last + 1:],
                              mask, last))
            for i, wider in later[mask]:
                grown.append((mono[:i] + (mono[i] + 1,) + mono[i + 1:],
                              wider, i))
        grown.sort(reverse=True)
        out.append(tuple(mono for mono, _, _ in grown))
        level = grown
    return out


def nonfaces_of(faces, ray_count: int) -> list[frozenset[int]]:
    """Minimal non-faces of a set of face masks, by size, then
    lexicographically.

    A minimal non-face is a non-face tau + {rho} (tau a face) whose facets
    are all faces, so only face-sized candidates are tried, never every
    subset of the rays.
    """
    found = {tau | 1 << r for tau in faces for r in range(ray_count)
             if tau | 1 << r not in faces
             and all(tau ^ 1 << x | 1 << r in faces for x in mask_rays(tau))}
    return list(map(frozenset, sorted(sorted(map(mask_rays, found)), key=len)))


def h_vector_of(faces, n: int) -> list[int]:
    """The h-vector of a pure n-dimensional complex from its face masks."""
    counts = [0] * (n + 1)  # counts[s] = number of face masks with s bits
    for face in faces:
        counts[face.bit_count()] += 1
    return [
        sum(
            (-1) ** (k - i) * comb(n - i, k - i) * counts[i]
            for i in range(k + 1)
        )
        for k in range(n + 1)
    ]
