import random
from fractions import Fraction

import pytest

from splitalg.linalg import rref
from splitalg.model import SIGNATURE_OPS, Algebra, BilinearOp, LinearMap

from splitalg.constructions import averaging_quadri, dual_extension, induced_six
from splitalg.documents import Document, serialize_document
from splitalg.model import adjoint_representation, self_action
from splitalg.samples import (
    integration_map,
    one_dim_dendriform,
    truncated_polynomial_algebra,
    truncated_polynomial_dendriform,
)


def shift_map(n):
    """Multiplication by the generator on the truncated polynomial basis."""
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        matrix[i + 1][i] = Fraction(1)
    return LinearMap(n, n, matrix)


def random_quadri(seed: int, n: int = 3) -> Algebra:
    """A seeded algebra of quadri signature with entries in {-1, 0, 1}."""
    rng = random.Random(seed)
    ops = {
        name: BilinearOp(n, n, n, [[[Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(n)]
                                    for _ in range(n)] for _ in range(n)])
        for name in SIGNATURE_OPS["quadri"]
    }
    return Algebra(n, "quadri", ops)


def transport(algebra: Algebra, p) -> Algebra:
    """The algebra in the basis e'_i = sum_a p[a][i] e_a, for an invertible
    matrix p: e'_i * e'_j = sum_ab p[a][i] p[b][j] (e_a * e_b), written in
    the new coordinates."""
    n = algebra.dimension
    reduced, _ = rref([[*row, *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(p)])
    p_inv = [row[n:] for row in reduced]

    def moved(op):
        def product(i, j):
            old = [Fraction(0)] * n
            for a in range(n):
                for b in range(n):
                    c = p[a][i] * p[b][j]
                    if c:
                        for k, e in enumerate(op.coeffs[a][b]):
                            old[k] += c * e
            return [sum((p_inv[q][k] * old[k] for k in range(n)), Fraction(0)) for q in range(n)]

        return BilinearOp.build(n, n, n, product)

    return Algebra(n, algebra.signature, {name: moved(op) for name, op in algebra.operations.items()})


@pytest.fixture(scope="session")
def poly():
    return truncated_polynomial_algebra()


@pytest.fixture(scope="session")
def integ():
    return integration_map()


@pytest.fixture(scope="session")
def dend():
    return truncated_polynomial_dendriform()


@pytest.fixture(scope="session")
def adjoint(dend):
    return adjoint_representation(dend)


@pytest.fixture(scope="session")
def quadri(dend):
    """Quadri-dendriform algebra induced by the identity averaging operator."""
    return averaging_quadri(dend, LinearMap.identity(dend.dimension))


@pytest.fixture(scope="session")
def six(dend):
    """Six-dendriform algebra from the dual extension of the main fixture."""
    act, proj = dual_extension(dend)
    return induced_six(act, proj)


@pytest.fixture(scope="session")
def sample_doc_path(tmp_path_factory, poly, integ, dend, adjoint):
    """A document holding the main fixtures, written once per session."""
    doc = Document(
        algebras={"poly": poly, "dend": dend},
        maps={"integrate": integ},
        representations={"adjoint": adjoint},
        actions={"self": self_action(dend)},
    )
    path = tmp_path_factory.mktemp("docs") / "sample.json"
    path.write_text(serialize_document(doc))
    return str(path)


@pytest.fixture(scope="session")
def recipe_doc_path(tmp_path_factory):
    """A document with an input for every `construct` recipe, and inputs
    that fail some recipes' hypotheses, written once per session."""
    poly = truncated_polynomial_algebra()
    dend = truncated_polynomial_dendriform()
    n = dend.dimension
    act, proj = dual_extension(dend)
    bad = one_dim_dendriform(1, 1)
    off_diagonal = [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)]
    doc = Document(
        algebras={
            "poly": poly,
            "dend": dend,
            "quadri": averaging_quadri(dend, LinearMap.identity(n)),
            "six": induced_six(act, proj),
            "bad": bad,
        },
        maps={
            "integrate": integration_map(),
            "shift": shift_map(n),
            "ident": LinearMap.identity(n),
            "zero": LinearMap.zero(n, n),
            "off_diagonal": LinearMap(n, n, off_diagonal),
        },
        representations={"adjoint": adjoint_representation(dend)},
        actions={"self": self_action(dend), "bad_self": self_action(bad)},
    )
    path = tmp_path_factory.mktemp("docs") / "recipes.json"
    path.write_text(serialize_document(doc))
    return str(path)


@pytest.fixture(scope="session")
def broken_doc_path(tmp_path_factory):
    """Document whose algebra violates the dendriform axioms (a=b=1)."""
    doc = Document(algebras={"bad": one_dim_dendriform(1, 1)})
    path = tmp_path_factory.mktemp("docs") / "broken.json"
    path.write_text(serialize_document(doc))
    return str(path)
