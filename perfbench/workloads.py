"""Seeded inputs, command sequences and output checks for the benchmark.

Every input is built with the public splitalg API from a theorem, so the
expected verdict of each command follows from how its input was made:
a transported theorem output passes (exit 0) and a planted random tensor
set fails (exit 1).  Each object is moved to a seeded basis before it is
written, which changes its tensors but not its verdicts:

- a unimodular basis change (integer matrix with integer inverse) makes
  sparse fixtures dense;
- a permutation-times-diagonal basis change keeps them sparse but makes
  the entries rational.

Check time follows the number and the size of the structure constants,
which these changes spread over a wide range.  So that every seed asks
for the same work, each workload draws its basis changes once, from a
stream that does not depend on the seed (a dense change is redrawn until
the non-zero share of the transported tensors falls in a fixed band).
The seed then relabels each basis by a signed permutation: a different
input document, whose structure constants are those of the fixed one up
to position and sign.

The module needs `splitalg` to be importable; run.py puts the checkout's
`src` directory on the path before importing it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from splitalg.constructions import (
    dual_extension,
    hemisemidirect,
    induced_six,
    sum_collapse_quadri,
    sum_collapse_six,
)
from splitalg.documents import Document, parse_document, serialize_document
from splitalg.identities import catalog
from splitalg.linalg import basis_vector, zero_vector
from splitalg.model import (
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    adjoint_representation,
    self_action,
)
from splitalg.operators import check_operator
from splitalg.samples import (
    integration_map,
    truncated_polynomial_algebra,
    truncated_polynomial_dendriform,
)

# Equations per basis pair of one operator check, by kind (see operators.py).
EQUATIONS_PER_PAIR = {
    "rota_baxter": 1,
    "assoc_averaging": 2,
    "dend_averaging": 4,
    "relative_averaging": 4,
    "homomorphic_relative": 6,
}

VIOLATION_CAP = 100


class GenerationError(RuntimeError):
    """No basis change in the draw budget put the tensors in the band."""


# ----------------------------------------------------------------------
# Basis changes.  A basis change of dimension n is a pair (P, P^-1) of
# n x n matrices; column i of P holds new basis vector i in old coordinates.

Matrix = list[list[Fraction]]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    inner = len(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _inverse(p: Matrix) -> Matrix:
    n = len(p)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [e * inv for e in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _permute_columns(p: Matrix, rng: random.Random) -> Matrix:
    perm = list(range(len(p)))
    rng.shuffle(perm)
    return [[row[perm[j]] for j in range(len(row))] for row in p]


def unimodular(n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """L * U * permutation with unit triangular L, U over {-1, 0, 1}."""
    lower = [
        [Fraction(1) if i == j else Fraction(rng.choice((-1, 0, 1)) if i > j else 0) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [Fraction(1) if i == j else Fraction(rng.choice((-1, 0, 1)) if i < j else 0) for j in range(n)]
        for i in range(n)
    ]
    p = _permute_columns(_matmul(lower, upper), rng)
    return p, _inverse(p)


def signed_permutation(n: int, rng: random.Random, signs: bool = True) -> tuple[Matrix, Matrix]:
    """A permutation matrix whose entries are +-1 (only +1 without signs)."""
    diag = [
        [Fraction(rng.choice((1, -1)) if signs else 1) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    p = _permute_columns(diag, rng)
    return p, _inverse(p)


def compose(first, then) -> tuple[Matrix, Matrix]:
    """The basis change `first` followed by `then`, relative to the new basis."""
    (pa, pa_inv), (pb, pb_inv) = first, then
    return _matmul(pa, pb), _matmul(pb_inv, pa_inv)


_DIAGONAL = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2"))


def permutation_diagonal(n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    diag = [[rng.choice(_DIAGONAL) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    p = _permute_columns(diag, rng)
    return p, _inverse(p)


def transport_op(op: BilinearOp, left, right, out) -> BilinearOp:
    """Structure constants of op in new bases of its three spaces:
    e'_i * e'_j = sum_ab PL[a][i] PR[b][j] (e_a * e_b), in new coordinates.
    Sums over the non-zero constants only, as the fixtures are sparse."""
    (pl, _), (pr, _), (_, po_inv) = left, right, out
    L, R, O = op.left_dim, op.right_dim, op.out_dim
    acc = [[[Fraction(0)] * O for _ in range(R)] for _ in range(L)]
    for a, row in enumerate(op.coeffs):
        for b, vec in enumerate(row):
            for k, c in enumerate(vec):
                if not c:
                    continue
                image = [(q, po_inv[q][k] * c) for q in range(O) if po_inv[q][k]]
                for i in range(L):
                    x = pl[a][i]
                    if not x:
                        continue
                    for j in range(R):
                        xy = x * pr[b][j]
                        if not xy:
                            continue
                        target = acc[i][j]
                        for q, v in image:
                            target[q] += xy * v
    return BilinearOp(L, R, O, acc)


def transport_algebra(a: Algebra, change) -> Algebra:
    return Algebra(
        a.dimension,
        a.signature,
        {name: transport_op(op, change, change, change) for name, op in a.operations.items()},
    )


def relabel(a: Algebra, rng: random.Random, signs: bool = True) -> Algebra:
    """A seeded copy of a with the same structure constants up to position
    and sign, so it asks the same work of every command."""
    return transport_algebra(a, signed_permutation(a.dimension, rng, signs))


def transport_map(m: LinearMap, source, target) -> LinearMap:
    (ps, _), (_, pt_inv) = source, target
    return LinearMap(m.source_dim, m.target_dim, _matmul(pt_inv, _matmul([list(r) for r in m.matrix], ps)))


def tensors(obj) -> list[BilinearOp]:
    if isinstance(obj, Algebra):
        return list(obj.operations.values())
    if isinstance(obj, Action):
        return tensors(obj.base) + tensors(obj.target) + list(obj.actions.values())
    if isinstance(obj, Representation):
        return tensors(obj.base) + list(obj.actions.values())
    raise TypeError(f"no tensors in {type(obj).__name__}")


def nonzeros(obj) -> tuple[int, int]:
    """(non-zero structure constants, all structure constants)."""
    nz = total = 0
    for op in tensors(obj):
        for row in op.coeffs:
            for vec in row:
                total += len(vec)
                nz += sum(1 for e in vec if e)
    return nz, total


def draw_in_band(build: Callable[[random.Random], object], rng: random.Random, band, tries: int = 500):
    """Redraw build(rng) until its non-zero share lies in the band."""
    lo, hi = band
    for _ in range(tries):
        obj = build(rng)
        nz, total = nonzeros(obj)
        if lo <= nz / total <= hi:
            return obj
    raise GenerationError(f"no basis change in {tries} draws gives a non-zero share in {band}")


# ----------------------------------------------------------------------
# Commands and their output checks.

@dataclass
class Command:
    """One CLI invocation: `splitalg <argv>` run in the work directory."""

    label: str
    argv: list[str]
    expect_exit: int
    # validate(stdout, {output name: bytes}) -> (problem or None, instances),
    # where instances counts the identity or operator instances checked
    validate: Callable[[bytes, dict], tuple]
    outputs: tuple[str, ...] = ()
    candidates: int = 0  # grid candidates a search scans


@dataclass
class Workload:
    name: str
    inputs: dict[str, str]  # file name -> document text
    commands: list[Command]
    info: dict = field(default_factory=dict)  # per input: dims and non-zeros


def catalog_instances(name: str, dims: dict[str, int]) -> int:
    """Basis tuples a full check of the catalog visits: sum over schemas of
    the product of the slot dimensions (dim^3 per schema for an algebra)."""
    total = 0
    for schema in catalog(name):
        d = [dims[s] for s in schema.slot_sorts]
        total += d[0] * d[1] * d[2]
    return total


def sort_dims(obj) -> dict[str, int]:
    if isinstance(obj, Algebra):
        return {"A": obj.dimension, "V": 0}
    if isinstance(obj, Action):
        return {"A": obj.base.dimension, "V": obj.target.dimension}
    return {"A": obj.base.dimension, "V": obj.module_dim}


def _json(stdout: bytes):
    try:
        return json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"stdout is not JSON: {e}") from None


def _check_report(report: dict, expected_checked: int, passing: bool) -> str | None:
    if report.get("checked") != expected_checked:
        return f"checked {report.get('checked')} instances, expected {expected_checked}"
    violations = report.get("violations")
    if not isinstance(violations, list):
        return "report has no violation list"
    if passing:
        if violations or report.get("truncated"):
            return f"{len(violations)} violation(s) on an input that passes by construction"
        return None
    if len(violations) != VIOLATION_CAP or report.get("truncated") is not True:
        return f"expected {VIOLATION_CAP} truncated witnesses, got {len(violations)}"
    for v in violations:
        if not any(Fraction(e) != 0 for e in v["residual"]):
            return f"witness {v['witness']} of {v['id']} has a zero residual"
    return None


def _doc_text(**sections) -> str:
    return serialize_document(Document(**sections))


def _check_command(label, path, object_name, catalog_name, obj, passing) -> Command:
    expected = catalog_instances(catalog_name, sort_dims(obj))

    def validate(stdout, files):
        report = _json(stdout)
        if report.get("object") != object_name or report.get("catalog") != catalog_name:
            return "report names another object or catalog", expected
        return _check_report(report, expected, passing), expected

    return Command(
        label,
        ["check", path, "--object", object_name, "--catalog", catalog_name, "--json"],
        0 if passing else 1,
        validate,
    )


def _info(obj) -> dict:
    nz, total = nonzeros(obj)
    return {"dims": sort_dims(obj), "tensor_nnz": nz, "tensor_entries": total}


# ----------------------------------------------------------------------
# check-dense

def _random_quadri(n: int, rng: random.Random) -> Algebra:
    def op():
        return BilinearOp.build(n, n, n, lambda i, j: tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))

    return Algebra(n, "quadri", {name: op() for name in ("prec_dashv", "prec_vdash", "succ_dashv", "succ_vdash")})


# Narrow bands of non-zero share for check-dense: the theorem outputs and
# the dendriform algebra under the module checks.  Each is a share that a
# good fraction of unimodular draws reach, so few redraws are needed.  The
# theorem outputs have about 1 % non-zero constants before the change; a
# quarter of them keeps each check well under a second, so that a run
# repeats the sequence often.
DENSE_BAND = (0.25, 0.30)
MODULE_BAND = (0.90, 0.96)


def check_dense(seed: int, smoke: bool = False) -> Workload:
    fixed = random.Random("check-dense")  # the same basis changes for every seed
    rng = random.Random(f"check-dense:{seed}")
    poly_degree, rep_degree, random_dim = (2, 2, 3) if smoke else (3, 4, 4)
    band, module_band = ((0.0, 1.0),) * 2 if smoke else (DENSE_BAND, MODULE_BAND)
    dend = truncated_polynomial_dendriform(poly_degree)
    quadri = hemisemidirect(adjoint_representation(dend))
    action, projection = dual_extension(dend)
    six = induced_six(action, projection)
    theorem_outputs = [
        ("quadri", quadri, "quadri"),
        ("six", six, "six"),
        ("diass", sum_collapse_quadri(quadri), "diassociative"),
        ("triass", sum_collapse_six(six), "triassociative"),
    ]
    inputs: dict[str, str] = {}
    commands: list[Command] = []
    info: dict = {}
    for name, obj, catalog_name in theorem_outputs:
        moved = draw_in_band(lambda r, o=obj: transport_algebra(o, unimodular(o.dimension, r)), fixed, band)
        moved = relabel(moved, rng)
        path = f"{name}.json"
        inputs[path] = _doc_text(algebras={name: moved})
        info[path] = _info(moved)
        commands.append(_check_command(f"check {name}", path, name, catalog_name, moved, True))

    base = truncated_polynomial_dendriform(rep_degree)
    moved = draw_in_band(lambda r: transport_algebra(base, unimodular(base.dimension, r)), fixed, module_band)
    moved = relabel(moved, rng)
    rep, act = adjoint_representation(moved), self_action(moved)
    inputs["module.json"] = _doc_text(
        algebras={"dend": moved}, representations={"adjoint": rep}, actions={"self": act}
    )
    info["module.json"] = _info(act)
    commands.append(_check_command("check adjoint", "module.json", "adjoint", "dend-representation", rep, True))
    commands.append(_check_command("check self-action", "module.json", "self", "dend-action", act, True))

    planted = relabel(_random_quadri(random_dim, fixed), rng)
    inputs["random.json"] = _doc_text(algebras={"random": planted})
    info["random.json"] = _info(planted)
    commands.append(_check_command("check random", "random.json", "random", "quadri", planted, False))
    return Workload("check-dense", inputs, commands, info)


# ----------------------------------------------------------------------
# construct-sparse

# (label in the CLI report, catalog or operator kind, object or map name in the output)
_VERIFY = {
    "aguiar-dendriform": [("dendriform", "dendriform", "dendriform")],
    "dual-extension": [
        ("dual_extension:dend-action", "dend-action", "dual_extension"),
        ("projection:homomorphic_relative", "homomorphic_relative", "dual_extension"),
    ],
    "induced-six": [("induced_six:six", "six", "induced_six")],
    "six-to-homomorphic": [
        ("action:dend-action", "dend-action", "action"),
        ("quotient_map:homomorphic_relative", "homomorphic_relative", "action"),
    ],
    "sum-triass": [("sum_triass:triassociative", "triassociative", "sum_triass")],
    "hemisemidirect": [("hemisemidirect:quadri", "quadri", "hemisemidirect")],
    "quadri-to-relative": [
        ("representation:dend-representation", "dend-representation", "representation"),
        ("quotient_map:relative_averaging", "relative_averaging", "representation"),
    ],
    "semidirect": [("semidirect:dendriform", "dendriform", "semidirect")],
    "embed-averaging": [
        ("ambient:dendriform", "dendriform", "ambient"),
        ("averaging:dend_averaging", "dend_averaging", "ambient"),
    ],
    "quotient-dend": [("quotient:dendriform", "dendriform", "quotient")],
    "sum-diass": [("sum_diass:diassociative", "diassociative", "sum_diass")],
}


def _operator_instances(kind: str, subject) -> int:
    if isinstance(subject, Algebra):
        n = subject.dimension
    elif isinstance(subject, Action):
        n = subject.target.dimension
    else:
        n = subject.module_dim
    return EQUATIONS_PER_PAIR[kind] * n * n


def _construct_validate(recipe: str, out: str):
    expected_labels = [label for label, _, _ in _VERIFY[recipe]]

    def validate(stdout, files):
        payload = _json(stdout)
        if payload.get("recipe") != recipe or payload.get("out") != out:
            return "report names another recipe or output", 0
        try:
            doc = parse_document(files[out].decode("utf-8"))
        except ValueError as e:
            return f"output document does not parse: {e}", 0
        reports = payload.get("verifications", [])
        if [r.get("label") for r in reports] != expected_labels:
            return f"verification labels {[r.get('label') for r in reports]}", 0
        instances = 0
        for report, (_, what, name) in zip(reports, _VERIFY[recipe]):
            subject = doc.lookup_object(name)
            if what in EQUATIONS_PER_PAIR:
                expected = _operator_instances(what, subject)
            else:
                expected = catalog_instances(what, sort_dims(subject))
            problem = _check_report(report, expected, True)
            if problem:
                return f"{report['label']}: {problem}", instances
            instances += expected
        return None, instances

    return validate


def construct_sparse(seed: int, smoke: bool = False) -> Workload:
    fixed = random.Random("construct-sparse")  # the same scaling for every seed
    rng = random.Random(f"construct-sparse:{seed}")
    degree = 2 if smoke else 3
    change = compose(permutation_diagonal(degree, fixed), signed_permutation(degree, rng))
    poly = transport_algebra(truncated_polynomial_algebra(degree), change)
    integrate = transport_map(integration_map(degree), change, change)
    dend = transport_algebra(truncated_polynomial_dendriform(degree), change)
    rep = adjoint_representation(dend)
    inputs = {
        "input.json": _doc_text(
            algebras={"poly": poly, "dend": dend},
            maps={"integrate": integrate},
            representations={"adjoint": rep},
        )
    }
    nz, total = (a + b for a, b in zip(nonzeros(poly), nonzeros(rep)))
    info = {"input.json": {"dims": {"A": degree, "V": degree}, "tensor_nnz": nz, "tensor_entries": total}}
    # (recipe, input file, object flags, output file); each step reads an
    # earlier step's output, so documents are written and re-read.
    steps = [
        ("aguiar-dendriform", "input.json", ["--algebra", "poly", "--map", "integrate"], "dendriform.json"),
        ("dual-extension", "dendriform.json", ["--algebra", "dendriform"], "dual.json"),
        ("induced-six", "dual.json", ["--action", "dual_extension", "--map", "projection"], "six.json"),
        ("six-to-homomorphic", "six.json", ["--algebra", "induced_six"], "homomorphic.json"),
        ("sum-triass", "six.json", ["--algebra", "induced_six"], "triass.json"),
        ("hemisemidirect", "input.json", ["--rep", "adjoint"], "hemi.json"),
        ("quadri-to-relative", "hemi.json", ["--algebra", "hemisemidirect"], "relative.json"),
        ("semidirect", "relative.json", ["--rep", "representation"], "semidirect.json"),
        ("embed-averaging", "hemi.json", ["--algebra", "hemisemidirect"], "embed.json"),
        ("quotient-dend", "hemi.json", ["--algebra", "hemisemidirect"], "quotient.json"),
        ("sum-diass", "hemi.json", ["--algebra", "hemisemidirect"], "diass.json"),
    ]
    commands = []
    for recipe, source, flags, out in steps:
        commands.append(
            Command(
                f"construct {recipe}",
                ["construct", source, "--recipe", recipe, *flags, "--out", out, "--json"],
                0,
                _construct_validate(recipe, out),
                outputs=(out,),
            )
        )
    return Workload("construct-sparse", inputs, commands, info)


# ----------------------------------------------------------------------
# search-grid

def _grid_text(grid) -> str:
    return ",".join(str(g) for g in grid)


def _search_validate(subject, kind: str, grid, shape, instances: int):
    grid_index = {g: i for i, g in enumerate(grid)}
    target_dim, source_dim = shape

    def validate(stdout, files):
        return _search_problem(stdout), instances

    def _search_problem(stdout):
        payload = _json(stdout)
        matrices = payload.get("matrices")
        if payload.get("kind") != kind or payload.get("shape") != [target_dim, source_dim]:
            return "report names another kind or shape"
        if not isinstance(matrices, list) or payload.get("count") != len(matrices):
            return "hit count does not match the matrices listed"
        keys = []
        for m in matrices:
            entries = [Fraction(e) for row in m for e in row]
            if len(m) != target_dim or len(entries) != target_dim * source_dim:
                return "hit has the wrong shape"
            if any(e not in grid_index for e in entries):
                return "hit has an entry outside the grid"
            keys.append([grid_index[e] for e in entries])
        if keys != sorted(keys) or len(set(map(tuple, keys))) != len(keys):
            return "hits are not in row-major grid order"
        if Fraction(0) in grid_index and [grid_index[Fraction(0)]] * (target_dim * source_dim) not in keys:
            return "the zero map, which always passes, is missing"
        for m in matrices:
            t = LinearMap(source_dim, target_dim, [[Fraction(e) for e in row] for row in m])
            if not check_operator(subject, kind, t).ok:
                return f"hit {m} fails check_operator"
        return None

    return validate


def _dual_numbers() -> BilinearOp:
    """Product of the dual numbers: basis (1, x) with x*x = 0."""
    return BilinearOp.build(2, 2, 2, lambda i, j: basis_vector(2, i + j) if i + j < 2 else zero_vector(2))


def _one_sided_dendriform(side: str) -> Algebra:
    """Dimension 2 with one of prec, succ the dual-number product and the
    other zero; either choice satisfies the dendriform axioms, because the
    product is associative."""
    ops = {"prec": BilinearOp.zero(2, 2, 2), "succ": BilinearOp.zero(2, 2, 2)}
    ops[side] = _dual_numbers()
    return Algebra(2, "dendriform", ops)


def search_grid(seed: int, smoke: bool = False) -> Workload:
    fixed = random.Random("search-grid")  # the same basis changes for every seed
    rng = random.Random(f"search-grid:{seed}")
    g01 = [Fraction(0), Fraction(1)]
    g5 = [Fraction(i) for i in range(-2, 3)]
    g3 = [Fraction(i) for i in range(-1, 2)]

    def moved(a: Algebra, nonzero: int, signs: bool = True) -> Algebra:
        """A seeded copy with exactly the given number of non-zero constants,
        the most common count among unimodular draws.  Signs flip only where
        the grid is symmetric under negation, so that the relabelling maps
        the grid's candidates onto themselves."""
        total = len(a.operations) * a.dimension**3
        band = ((nonzero - 0.5) / total, (nonzero + 0.5) / total)
        drawn = draw_in_band(lambda r: transport_algebra(a, unimodular(a.dimension, r)), fixed, band)
        return relabel(drawn, rng, signs)

    dual = Algebra(2, "associative", {"mul": _dual_numbers()})
    left, right = moved(_one_sided_dendriform("prec"), 5), moved(_one_sided_dendriform("succ"), 5)
    # (name, object, CLI kind, kind, grid): basis-changed objects of
    # dimension 2-3, kinds of high and low pass rates, and grids of 512-625
    # candidates, so each command runs for well under a second and a run
    # repeats the sequence often.  An odd number of commands puts the
    # median latency inside one command's samples.
    plan = [
        ("poly", moved(truncated_polynomial_algebra(3), 22, signs=False), "rota-baxter", "rota_baxter", g01),
        ("dual", moved(dual, 5), "rota-baxter", "rota_baxter", g5),
        ("left", left, "dend-averaging", "dend_averaging", g5),
        ("right_adjoint", adjoint_representation(right), "relative-averaging", "relative_averaging", g5),
        ("left_self", self_action(left), "homomorphic-relative", "homomorphic_relative", g5),
    ]
    if smoke:
        plan = [(name, obj, cli_kind, kind, g3) for name, obj, cli_kind, kind, _ in plan[2:]]
    inputs, commands, info = {}, [], {}
    for name, obj, cli_kind, kind, grid in plan:
        path = f"{name}.json"
        if isinstance(obj, Algebra):
            inputs[path] = _doc_text(algebras={name: obj})
            source_dim = target_dim = obj.dimension
        elif isinstance(obj, Action):
            inputs[path] = _doc_text(algebras={"base": obj.base}, actions={name: obj})
            source_dim, target_dim = obj.target.dimension, obj.base.dimension
        else:
            inputs[path] = _doc_text(algebras={"base": obj.base}, representations={name: obj})
            source_dim, target_dim = obj.module_dim, obj.base.dimension
        info[path] = _info(obj)
        candidates = len(grid) ** (source_dim * target_dim)
        # The equations a full scan evaluates: a fixed amount of work that
        # an early stop or pruning does not change.
        instances = candidates * EQUATIONS_PER_PAIR[kind] * source_dim * source_dim
        commands.append(
            Command(
                f"search {cli_kind} {name}",
                ["search", path, "--object", name, "--kind", cli_kind, f"--grid={_grid_text(grid)}", "--json"],
                0,
                _search_validate(obj, kind, grid, (target_dim, source_dim), instances),
                candidates=candidates,
            )
        )
    return Workload("search-grid", inputs, commands, info)


GENERATORS = {
    "check-dense": check_dense,
    "construct-sparse": construct_sparse,
    "search-grid": search_grid,
}
