"""Data model for multi-operation algebras, representations, actions and maps.

Operations are stored as dense structure-constant tensors over exact
rationals: coeffs[i][j] is the vector of e_i * e_j in the output basis.
All values are immutable; every constructor validates its invariants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Mapping, Sequence

from .linalg import (
    DimensionMismatch,
    Subspace,
    Vector,
    frac,
    vector,
    zero_vector,
)


def split(op: str) -> tuple[str, str]:
    """The prec and succ halves of a di- or tri-associative operation."""
    return f"prec_{op}", f"succ_{op}"


def half(name: str) -> str:
    """The half, prec or succ, of a split operation or of an action."""
    return name.partition("_")[0]


# Canonical operation names per signature.  The ASCII names fix the usual
# symbols: prec/succ for the dendriform pair and dashv/vdash/perp for the
# (di/tri-)associative operations.  Quadri and six split each di-/tri-associative
# operation into its halves (Bai-Bellier-Guo-Ni); the splitting ideal identifies
# every split operation with the others of its half.
SIGNATURE_OPS: dict[str, tuple[str, ...]] = {
    "associative": ("mul",),
    "dendriform": ("prec", "succ"),
    "diassociative": ("dashv", "vdash"),
    "triassociative": ("dashv", "perp", "vdash"),
}
SIGNATURE_OPS.update(
    {signature: tuple(sorted(name for op in SIGNATURE_OPS[whole] for name in split(op)))
     for signature, whole in (("quadri", "diassociative"), ("six", "triassociative"))},
    raw=(),
)


def signature_of(names) -> str:
    """The signature whose operations are exactly names, in any order, else raw."""
    return next((signature for signature, ops in SIGNATURE_OPS.items() if set(ops) == set(names)), "raw")

# The four action tensors of a representation or action and the sorts of
# (left argument, right argument, output): A the base algebra, V the module.
ACTION_SORTS: dict[str, tuple[str, str, str]] = {
    "prec_l": ("A", "V", "V"),
    "succ_l": ("A", "V", "V"),
    "prec_r": ("V", "A", "V"),
    "succ_r": ("V", "A", "V"),
}


class SpecError(ValueError):
    """Invalid object construction (bad dimensions, missing operations)."""


def _clear(vectors) -> tuple[int, list[list[tuple[int, int]]]]:
    """(D, the non-zero (k, c) of each vector times D as ints): D is the lcm
    of the denominators of the non-zero entries."""
    d = math.lcm(*(c.denominator for v in vectors for c in v if c))
    return d, [[(k, c.numerator * (d // c.denominator)) for k, c in enumerate(v) if c] for v in vectors]


def _lines(left_dim: int, right_dim: int, d: int, cells) -> tuple[int, list, list]:
    """(D, rows, columns) from the ((i, j), the non-zero (k, c) of the pair)
    of the pairs in sorted order: rows[i] lists (j, its (k, c)) for each j
    where there are any, and columns[j] the same (i, its (k, c)) for each i."""
    rows, columns = [[] for _ in range(left_dim)], [[] for _ in range(right_dim)]
    for (i, j), line in cells:
        if line:
            rows[i].append((j, line))
            columns[j].append((i, line))
    return d, rows, columns


class BilinearOp:
    """Structure constants of one bilinear operation between (possibly
    distinct) spaces."""

    def __init__(self, left_dim: int, right_dim: int, out_dim: int, coeffs):
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.out_dim = out_dim
        coeffs = tuple(tuple(vector(v) for v in row) for row in coeffs)
        if len(coeffs) != left_dim or any(len(row) != right_dim for row in coeffs):
            raise SpecError(f"coefficient tensor shape does not match {left_dim}x{right_dim}")
        for row in coeffs:
            for v in row:
                if len(v) != out_dim:
                    raise SpecError(f"coefficient vector length {len(v)} vs out_dim {out_dim}")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, left_dim: int, right_dim: int, out_dim: int) -> "BilinearOp":
        z = zero_vector(out_dim)
        return cls(left_dim, right_dim, out_dim, [[z] * right_dim for _ in range(left_dim)])

    @classmethod
    def build(cls, left_dim: int, right_dim: int, out_dim: int, fn) -> "BilinearOp":
        """Construct from fn(i, j) -> output Vector on basis pairs."""
        return cls(
            left_dim,
            right_dim,
            out_dim,
            [[fn(i, j) for j in range(right_dim)] for i in range(left_dim)],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BilinearOp)
            and (self.left_dim, self.right_dim, self.out_dim)
            == (other.left_dim, other.right_dim, other.out_dim)
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"BilinearOp({self.left_dim}x{self.right_dim}->{self.out_dim})"

    @classmethod
    def from_integers(cls, left_dim: int, right_dim: int, out_dim: int, cells) -> "BilinearOp":
        """The operation whose e_i * e_j is v / s for each (i, j): (v, s) of
        cells, v a vector of ints and s > 0, and zero on every other pair.
        Its integer form is made from those ints, equal to the one its
        Fractions would give, so it never passes over them."""
        # the lcm of the denominators of the entries in lowest terms
        d = math.lcm(*(s // math.gcd(s, *v) for v, s in cells.values()))
        zero = Fraction(0)  # shared by every zero component
        coeffs = [[(zero,) * out_dim] * right_dim for _ in range(left_dim)]
        for (i, j), (v, s) in cells.items():
            coeffs[i][j] = tuple(Fraction(a, s) if a else zero for a in v)
        op = cls(left_dim, right_dim, out_dim, coeffs)
        op.__dict__["integer_form"] = _lines(left_dim, right_dim, d, sorted(
            (pair, [(k, a * d // s) for k, a in enumerate(v) if a]) for pair, (v, s) in cells.items()))
        return op

    @cached_property
    def integer_form(self) -> tuple[int, list, list]:
        """(D, rows, columns), computed once: rows[i] lists (j, the non-zero
        (k, c) of D * (e_i * e_j) as ints) for each j where e_i * e_j is not
        zero, and columns[j] the same (i, (k, c)) for each i; D as in _clear."""
        d, cells = _clear([v for row in self.coeffs for v in row])
        return _lines(self.left_dim, self.right_dim, d, zip(product(range(self.left_dim), range(self.right_dim)), cells))


def evaluate(op: BilinearOp, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the structure constants: sum x_i y_j e_i*e_j."""
    if len(x) != op.left_dim or len(y) != op.right_dim:
        raise DimensionMismatch(
            f"arguments of lengths {len(x)},{len(y)} vs operation "
            f"{op.left_dim}x{op.right_dim}"
        )
    out = [Fraction(0)] * op.out_dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = op.coeffs[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            c = xi * yj
            cij = row[j]
            for k in range(op.out_dim):
                if cij[k]:
                    out[k] += c * cij[k]
    return tuple(out)


class LinearMap:
    """Exact rational linear map, stored as a (target_dim x source_dim) matrix."""

    def __init__(self, source_dim: int, target_dim: int, matrix):
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.matrix: tuple[Vector, ...] = tuple(vector(row) for row in matrix)
        if len(self.matrix) != target_dim or any(
            len(row) != source_dim for row in self.matrix
        ):
            raise SpecError(f"matrix shape does not match {target_dim}x{source_dim}")

    @classmethod
    def zero(cls, source_dim: int, target_dim: int) -> "LinearMap":
        return cls(source_dim, target_dim, [zero_vector(source_dim)] * target_dim)

    @classmethod
    def scalar(cls, dim: int, k) -> "LinearMap":
        k, zero = frac(k), Fraction(0)  # so vector() takes the rows as they are
        return cls(
            dim, dim, [[k if i == j else zero for j in range(dim)] for i in range(dim)]
        )

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls.scalar(dim, 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearMap)
            and (self.source_dim, self.target_dim) == (other.source_dim, other.target_dim)
            and self.matrix == other.matrix
        )

    def __repr__(self) -> str:
        return f"LinearMap({self.source_dim}->{self.target_dim})"

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.source_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} vs source dimension {self.source_dim}"
            )
        return tuple(sum((r * a for r, a in zip(row, v)), Fraction(0)) for row in self.matrix)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.matrix)

    @cached_property
    def integer_form(self) -> tuple[int, list]:
        """(D, columns), computed once: the non-zero (k, c) of D times each
        column as ints, for D as in _clear."""
        return _clear([self.column(j) for j in range(self.source_dim)])


def reduction(sub: Subspace) -> LinearMap:
    """Reduction modulo the subspace (Subspace.reduce) as a linear map."""
    n = sub.ambient_dim
    return LinearMap(n, n, list(zip(*map(sub.reduce, LinearMap.identity(n).matrix))))


class Algebra:
    """A finite-dimensional algebra given by named structure-constant tensors."""

    def __init__(
        self,
        dimension: int,
        signature: str,
        operations: Mapping[str, BilinearOp],
        basis_labels: Sequence[str] | None = None,
    ):
        if signature not in SIGNATURE_OPS:
            raise SpecError(f"unknown signature {signature!r}")
        self.dimension = dimension
        self.signature = signature
        self.operations = dict(operations)
        self.basis_labels = None if basis_labels is None else tuple(basis_labels)
        required = SIGNATURE_OPS[signature]
        for name in required:
            if name not in self.operations:
                raise SpecError(f"signature {signature!r} requires operation {name!r}")
        if signature != "raw":
            extra = set(self.operations) - set(required)
            if extra:
                raise SpecError(
                    f"operations {sorted(extra)} not allowed under signature {signature!r}"
                )
        for name, op in self.operations.items():
            if (op.left_dim, op.right_dim, op.out_dim) != (dimension,) * 3:
                raise SpecError(
                    f"operation {name!r} has shape {op.left_dim}x{op.right_dim}->"
                    f"{op.out_dim}, expected dimension {dimension}"
                )
        if self.basis_labels is not None and len(self.basis_labels) != dimension:
            raise SpecError("basis label count does not match dimension")

    def __repr__(self) -> str:
        return f"Algebra(dim {self.dimension}, {self.signature})"

    def op(self, name: str) -> BilinearOp:
        try:
            return self.operations[name]
        except KeyError:
            raise SpecError(f"algebra has no operation {name!r}") from None

    def with_signature(self, signature: str, rename: Mapping[str, str]) -> "Algebra":
        """View of this algebra under another signature, renaming operations.

        rename maps old op name -> new op name; unmentioned ops are dropped.
        """
        ops = {new: self.op(old) for old, new in rename.items()}
        return Algebra(self.dimension, signature, ops, self.basis_labels)


class Representation:
    """A module over a dendriform algebra, with the four action tensors."""

    def __init__(self, base: Algebra, module_dim: int, actions: Mapping[str, BilinearOp]):
        if base.signature != "dendriform":
            raise SpecError("representation base must be a dendriform algebra")
        self.base = base
        self.module_dim = module_dim
        self.actions = dict(actions)
        dims = {"A": base.dimension, "V": module_dim}
        for name, sorts in ACTION_SORTS.items():
            if name not in self.actions:
                raise SpecError(f"representation requires action {name!r}")
            op, shape = self.actions[name], tuple(dims[s] for s in sorts)
            if (op.left_dim, op.right_dim, op.out_dim) != shape:
                raise SpecError(
                    f"action {name!r} has shape {op.left_dim}x{op.right_dim}->"
                    f"{op.out_dim}, expected {shape}"
                )
        if set(self.actions) != set(ACTION_SORTS):
            raise SpecError("representation carries exactly the four action tensors")

    def __repr__(self) -> str:
        return f"Representation(base dim {self.base.dimension}, module dim {self.module_dim})"


class Action(Representation):
    """A dendriform algebra acting on another dendriform algebra: a
    representation whose module is the target algebra."""

    def __init__(self, base: Algebra, target: Algebra, actions: Mapping[str, BilinearOp]):
        if target.signature != "dendriform":
            raise SpecError("action target must be a dendriform algebra")
        super().__init__(base, target.dimension, actions)
        self.target = target

    def __repr__(self) -> str:
        return f"Action(base dim {self.base.dimension}, target dim {self.target.dimension})"


def adjoint_representation(d: Algebra) -> Representation:
    """The algebra acting on itself: each action is the algebra's operation
    of its half."""
    if d.signature != "dendriform":
        raise SpecError("adjoint representation needs a dendriform algebra")
    return Representation(d, d.dimension, {name: d.op(half(name)) for name in ACTION_SORTS})


def self_action(d: Algebra) -> Action:
    """The adjoint representation packaged as an action of d on itself."""
    return Action(d, d, {name: d.op(half(name)) for name in ACTION_SORTS})


def dendriform_to_quadri(d: Algebra) -> Algebra:
    """Promote a dendriform algebra to quadri with both split pairs equal."""
    return quadri_part(dendriform_to_six(d))


def dendriform_to_six(d: Algebra) -> Algebra:
    """Promote a dendriform algebra to six: each operation is d's of its half."""
    ops = {name: d.op(half(name)) for name in SIGNATURE_OPS["six"]}
    return Algebra(d.dimension, "six", ops, d.basis_labels)


def quadri_part(s: Algebra) -> Algebra:
    """The quadri-dendriform quadruple inside a six-dendriform algebra."""
    return s.with_signature(
        "quadri", {name: name for name in SIGNATURE_OPS["quadri"]}
    )


def perp_dendriform_part(s: Algebra) -> Algebra:
    """The dendriform pair of the two perp halves inside a six algebra."""
    return s.with_signature("dendriform", {name: half(name) for name in split("perp")})
