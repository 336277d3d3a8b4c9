import itertools
import random
from fractions import Fraction

import pytest

from splitalg.linalg import basis_vector, span, vector
from splitalg.model import (
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SIGNATURE_OPS,
    SpecError,
    adjoint_representation,
    dendriform_to_quadri,
    dendriform_to_six,
    evaluate,
    perp_dendriform_part,
    quadri_part,
    self_action,
    signature_of,
)


def test_bilinear_evaluation_is_bilinear(dend):
    rng = random.Random(7)
    n = dend.dimension
    op = dend.op("prec")

    def rand_vec():
        return vector([rng.randint(-3, 3) for _ in range(n)])

    def scale(c, v):
        return tuple(c * a for a in v)

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v, strict=True))

    for _ in range(20):
        x, y, z = rand_vec(), rand_vec(), rand_vec()
        c = Fraction(rng.randint(-2, 2))
        lhs = evaluate(op, add(x, scale(c, y)), z)
        rhs = add(evaluate(op, x, z), scale(c, evaluate(op, y, z)))
        assert lhs == rhs
        lhs = evaluate(op, z, add(x, scale(c, y)))
        rhs = add(evaluate(op, z, x), scale(c, evaluate(op, z, y)))
        assert lhs == rhs


@pytest.mark.parametrize("signature", sorted(SIGNATURE_OPS))
def test_signature_of_reads_the_operations_in_any_order(signature):
    for names in itertools.permutations(SIGNATURE_OPS[signature]):
        assert signature_of(names) == signature_of(dict.fromkeys(names)) == signature


@pytest.mark.parametrize("names", [("mul", "prec"), ("prec",), ("prec", "succ", "perp"), ("dashv", "vdash", "mul"),
                                   SIGNATURE_OPS["six"][1:], ("var",)])
def test_signature_of_gives_raw_when_none_fits(names):
    assert signature_of(names) == "raw"


def test_floats_are_refused():
    """A float never becomes a coefficient: Fraction(0.1) is a binary
    fraction, not 1/10.  Ints, Fractions and "p/q" strings are exact."""
    from splitalg.operators import search_operators
    from splitalg.samples import truncated_polynomial_algebra

    for build in (lambda x: LinearMap(1, 1, [[x]]), lambda x: BilinearOp(1, 1, 1, [[[x]]])):
        with pytest.raises(TypeError, match="0.1"):
            build(0.1)
        assert [build(x) for x in (1, Fraction(1, 10), "1/10")] == [build(Fraction(1)), *[build(Fraction(1, 10))] * 2]
    poly = truncated_polynomial_algebra(2)
    with pytest.raises(TypeError, match="0.5"):
        search_operators(poly, "rota_baxter", [0.5, 0])
    exact = search_operators(poly, "rota_baxter", [Fraction(0), Fraction(1, 2), Fraction(-1)])
    assert exact and search_operators(poly, "rota_baxter", [0, "1/2", -1]) == exact


def test_algebra_requires_signature_ops():
    z = BilinearOp.zero(2, 2, 2)
    with pytest.raises(SpecError):
        Algebra(2, "dendriform", {"prec": z})  # succ missing
    with pytest.raises(SpecError):
        Algebra(2, "dendriform", {"prec": z, "succ": z, "extra": z})


def test_algebra_rejects_bad_shapes():
    with pytest.raises(SpecError):
        Algebra(2, "associative", {"mul": BilinearOp.zero(2, 2, 3)})


def test_unknown_signature():
    with pytest.raises(SpecError):
        Algebra(1, "octo-dendriform", {})


def _rank(f: LinearMap) -> int:
    return span([f.column(j) for j in range(f.source_dim)], f.target_dim).dim


def test_linear_map_apply_and_rank():
    m = LinearMap(2, 3, [[1, 0], [0, 2], [1, 2]])
    assert m.apply(vector([1, 1])) == vector([1, 2, 3])
    assert _rank(m) == 2
    assert m.column(1) == vector([0, 2, 2])
    assert _rank(LinearMap.identity(4)) == 4
    assert _rank(LinearMap.zero(3, 3)) == 0
    assert LinearMap.scalar(2, Fraction(5)).apply(basis_vector(2, 0)) == vector([5, 0])


def test_with_signature_rename(dend):
    renamed = dend.with_signature("raw", {"prec": "a", "succ": "b"})
    assert set(renamed.operations) == {"a", "b"}
    assert renamed.op("a").coeffs == dend.op("prec").coeffs


def test_adjoint_representation_shape(dend, adjoint):
    n = dend.dimension
    assert adjoint.module_dim == n
    # left action by prec is just prec itself
    assert adjoint.actions["prec_l"].coeffs == dend.op("prec").coeffs


def test_self_action_wraps_adjoint(dend):
    act = self_action(dend)
    assert act.target is dend
    assert act.base is dend


def test_representation_validates_shapes(dend):
    good = adjoint_representation(dend)
    bad_actions = dict(good.actions)
    bad_actions["prec_l"] = BilinearOp.zero(dend.dimension + 1, dend.dimension, dend.dimension)
    with pytest.raises(SpecError):
        Representation(dend, dend.dimension, bad_actions)


def test_action_requires_matching_target(dend):
    rep = adjoint_representation(dend)
    other = Algebra(
        2,
        "dendriform",
        {"prec": BilinearOp.zero(2, 2, 2), "succ": BilinearOp.zero(2, 2, 2)},
    )
    with pytest.raises(SpecError):
        Action(dend, other, rep.actions)


def test_dendriform_promotions_share_tensors(dend):
    # the split signatures keep their order: prec halves first, each sorted
    assert SIGNATURE_OPS["quadri"] == ("prec_dashv", "prec_vdash", "succ_dashv", "succ_vdash")
    assert SIGNATURE_OPS["six"] == ("prec_dashv", "prec_perp", "prec_vdash", "succ_dashv", "succ_perp", "succ_vdash")
    q = dendriform_to_quadri(dend)
    assert q.signature == "quadri"
    for name in ("prec_vdash", "prec_dashv"):
        assert q.op(name).coeffs == dend.op("prec").coeffs
    s = dendriform_to_six(dend)
    assert s.signature == "six"
    assert s.op("prec_perp").coeffs == dend.op("prec").coeffs
    assert quadri_part(s).op("succ_vdash").coeffs == dend.op("succ").coeffs
    assert perp_dendriform_part(s).op("succ").coeffs == dend.op("succ").coeffs


def test_model_refusals(poly, dend, adjoint):
    """Each model refusal no other test reaches, with its one line."""
    actions, n = adjoint.actions, dend.dimension
    refusals = [
        (lambda: adjoint_representation(poly), "adjoint representation needs a dendriform algebra"),
        (lambda: Representation(dend, n, {k: v for k, v in actions.items() if k != "succ_r"}),
         "representation requires action 'succ_r'"),
        (lambda: Representation(dend, n, {**actions, "extra": dend.op("prec")}),
         "representation carries exactly the four action tensors"),
        (lambda: BilinearOp(1, 1, 1, []), "coefficient tensor shape does not match 1x1"),
        (lambda: BilinearOp(1, 1, 2, [[[0]]]), "coefficient vector length 1 vs out_dim 2"),
        (lambda: LinearMap(1, 2, [[0]]), "matrix shape does not match 2x1"),
        (lambda: dend.op("mul"), "algebra has no operation 'mul'"),
    ]
    for build, message in refusals:
        with pytest.raises(SpecError) as exc:
            build()
        assert str(exc.value) == message
