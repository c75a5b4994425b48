import itertools
import math

import numpy as np
import pytest

from lpiforms.cochains import Cochain
from lpiforms.complexes import (MetricComplex, barycentric_subdivide, build_complex,
                                ray_complex)


def regular_simplex(k: int) -> MetricComplex:
    """Single regular k-simplex with unit edges (vertices e_i / sqrt 2)."""
    s = 1.0 / math.sqrt(2.0)
    verts = {
        i: tuple(s if j == i else 0.0 for j in range(k + 1)) for i in range(k + 1)
    }
    return build_complex(verts, [tuple(range(k + 1))])


def simplex_complex(n: int) -> MetricComplex:
    verts = {i: tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n + 1)}
    return build_complex(verts, [tuple(range(n + 1))])


def sphere_complex(n: int) -> MetricComplex:
    """Boundary of the (n+1)-simplex: a triangulated n-sphere."""
    verts = {
        i: tuple(1.0 if j == i else 0.0 for j in range(n + 1)) for i in range(n + 2)
    }
    tops = list(itertools.combinations(range(n + 2), n + 1))
    return build_complex(verts, tops)


@pytest.fixture
def triangle() -> MetricComplex:
    return build_complex(
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, math.sqrt(3) / 2)}, [(0, 1, 2)]
    )


@pytest.fixture
def subdivided_triangle(triangle) -> MetricComplex:
    return barycentric_subdivide(triangle)


def assert_same_complex(K, ref):
    """K equals ref, with the same insertion order and the same private
    tables of vertex ranks, faces and places (read-only in K)."""
    assert K == ref
    assert K.dim == ref.dim
    for name in ("vertices", "simplices", "cofaces", "carriers"):
        assert list(getattr(K, name).items()) == list(getattr(ref, name).items()), name
    coords = [np.array(list(C.vertices.values()), dtype=float) for C in (K, ref)]
    assert coords[0].tobytes() == coords[1].tobytes()
    for name, tables, want in zip(("ranks", "faces", "places"), K._tables, ref._tables, strict=True):
        assert len(tables) == len(want), name
        for a, b in zip(tables, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b), name
            assert not a.flags.writeable, name


def reference_coboundary(c):
    """The coface loop the face-table coboundary replaced, kept as its reference."""
    K = c.complex
    out = {}
    for key, v in c.values.items():
        for tau, sign in K.cofaces.get(key, ()):
            out[tau] = out.get(tau, 0.0) + sign * v
    return Cochain(c.degree + 1, out, K)


def reference_whitney(c):
    """The loop over the cochain's values that the batched Whitney kernel
    replaced, kept as its reference: each value times the cached local form
    of its face, added into each maximal carrier's piece in turn."""
    from lpiforms.derham import _local_whitney
    from lpiforms.polyform import PolyForm

    K = c.complex
    pieces = {}
    for sigma, val in c.values.items():
        for T in K.carriers[sigma]:
            piece = pieces.setdefault(T, {})
            for key, v in _local_whitney(tuple(map(T.index, sigma)), len(T) - 1):
                piece[key] = piece.get(key, 0.0) + val * v
    return PolyForm(c.degree, K, pieces)


# a triangle, a dangling edge and an isolated vertex
TRIANGLE_EDGE_VERTEX = (
    {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (2.0, 2.0), 4: (5.0, 0.0)},
    [(0, 1, 2), (2, 3), (4,)])

# the complexes the face-table kernels are held to their dict references on
COCHAIN_COMPLEXES = {
    "strip_4": lambda: barycentric_subdivide(ray_complex(2, 4)),
    "strip_48": lambda: barycentric_subdivide(ray_complex(2, 48)),
    "tetrahedron": lambda: barycentric_subdivide(simplex_complex(3)),
    "mixed": lambda: build_complex(*TRIANGLE_EDGE_VERTEX),
    "empty": lambda: build_complex({}, []),
}

