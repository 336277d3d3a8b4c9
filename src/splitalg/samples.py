"""Small worked instances used by the tests, the docs and the CLI examples.

The central one is the truncated polynomial algebra span(x, ..., x^N) with
x^i * x^j = x^(i+j) cut off above degree N, together with the integration
map x^i -> x^(i+1)/(i+1); integration by parts makes it a Rota-Baxter
operator, and the Aguiar construction turns the algebra dendriform.
"""

from __future__ import annotations

from fractions import Fraction

from .constructions import aguiar_dendriform
from .linalg import basis_vector, zero_vector
from .model import Algebra, BilinearOp, LinearMap, SIGNATURE_OPS


def zero_algebra(dimension: int, signature: str) -> Algebra:
    z = BilinearOp.zero(dimension, dimension, dimension)
    return Algebra(dimension, signature, {name: z for name in SIGNATURE_OPS[signature]})


def truncated_polynomial_algebra(degree: int = 4) -> Algebra:
    """Associative algebra on basis x, x^2, ..., x^degree with products
    truncated above the top degree."""
    n = degree

    def product(i, j):
        # basis index i holds x^(i+1)
        k = i + j + 1
        return basis_vector(n, k) if k < n else zero_vector(n)

    return Algebra(
        n,
        "associative",
        {"mul": BilinearOp.build(n, n, n, product)},
        [f"x^{i + 1}" for i in range(n)],
    )


def integration_map(degree: int = 4) -> LinearMap:
    """x^i -> x^(i+1)/(i+1), zero at the top degree."""
    n = degree
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        matrix[i + 1][i] = Fraction(1, i + 2)
    return LinearMap(n, n, matrix)


def truncated_polynomial_dendriform(degree: int = 4) -> Algebra:
    """The Aguiar dendriform algebra of the truncated polynomials with the
    integration map."""
    return aguiar_dendriform(truncated_polynomial_algebra(degree), integration_map(degree))


def one_dim_dendriform(a, b) -> Algebra:
    """Dimension 1 with e prec e = a*e and e succ e = b*e; satisfies the
    dendriform axioms exactly when a*b = 0."""
    return Algebra(
        1,
        "dendriform",
        {
            "prec": BilinearOp(1, 1, 1, [[[Fraction(a)]]]),
            "succ": BilinearOp(1, 1, 1, [[[Fraction(b)]]]),
        },
    )
