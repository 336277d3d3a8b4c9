import hashlib
import json
import random
from fractions import Fraction

import pytest

from splitalg.constructions import aguiar_dendriform, check_differential
from splitalg.identities import _scan, check_morphism
from splitalg.model import Algebra, BilinearOp, LinearMap, SpecError, self_action
from splitalg.operators import (
    _KINDS,
    SearchCapExceeded,
    _context,
    check_assoc_averaging,
    check_dend_averaging,
    check_homomorphic_relative,
    check_operator,
    check_relative_averaging,
    check_rota_baxter,
    graph_subalgebra_check,
    operator_map_shape,
    search_operators,
)
from splitalg.samples import one_dim_dendriform, truncated_polynomial_algebra, truncated_polynomial_dendriform

from conftest import shift_map


def test_integration_is_rota_baxter(poly, integ):
    verdict = check_rota_baxter(poly, integ)
    assert verdict.ok
    assert verdict.checked == poly.dimension ** 2


def test_rota_baxter_failure_detected(poly):
    bad = LinearMap.scalar(poly.dimension, 1)
    verdict = check_rota_baxter(poly, bad)
    assert not verdict.ok
    assert verdict.violations[0].identity == "rota-baxter"


def test_shift_is_assoc_averaging(poly):
    verdict = check_assoc_averaging(poly, shift_map(poly.dimension))
    assert verdict.ok
    assert verdict.checked == 2 * poly.dimension ** 2


def test_scalar_maps_are_dend_averaging(dend):
    for k in (-2, -1, 0, 1, 2):
        assert check_dend_averaging(dend, LinearMap.scalar(dend.dimension, k)).ok


def test_dend_averaging_failure(dend):
    n = dend.dimension
    bad = LinearMap(n, n, [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)])
    assert not check_dend_averaging(dend, bad).ok


def test_identity_is_relative_averaging_on_adjoint(adjoint):
    assert check_relative_averaging(adjoint, LinearMap.identity(4)).ok
    assert graph_subalgebra_check(adjoint, LinearMap.identity(4)).ok


def test_graph_theorem_equivalence(adjoint):
    """The direct equations and the graph-closure criterion agree on random
    maps, with both verdicts represented."""
    rng = random.Random(20260823)
    n = adjoint.base.dimension
    maps = [LinearMap.zero(n, n), LinearMap.identity(n)]
    while len(maps) < 102:
        maps.append(
            LinearMap(n, n, [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)])
        )
    verdicts = []
    for t in maps:
        direct = check_relative_averaging(adjoint, t).ok
        graph = graph_subalgebra_check(adjoint, t).ok
        assert direct == graph
        verdicts.append(direct)
    assert any(verdicts) and not all(verdicts)


def test_homomorphic_relative(dend):
    act = self_action(dend)
    n = dend.dimension
    assert check_homomorphic_relative(act, LinearMap.identity(n)).ok
    # 2*Id is relative averaging but not a homomorphism (prec nonzero)
    verdict = check_homomorphic_relative(act, LinearMap.scalar(n, 2))
    assert not verdict.ok
    assert all(v.identity.startswith("hom:") for v in verdict.violations)


def test_wrong_shape_rejected(poly, adjoint):
    with pytest.raises(SpecError):
        check_rota_baxter(poly, LinearMap.zero(2, 2))
    with pytest.raises(SpecError):
        check_relative_averaging(adjoint, LinearMap.zero(3, 4))


def test_check_operator_dispatch(poly, integ, dend, adjoint):
    assert check_operator(poly, "rota_baxter", integ).ok
    assert check_operator(dend, "dend_averaging", LinearMap.identity(4)).ok
    assert check_operator(adjoint, "relative_averaging", LinearMap.identity(4)).ok
    with pytest.raises(SpecError):
        check_operator(poly, "cayley", integ)


def test_operator_map_shape(poly, adjoint, dend):
    assert operator_map_shape(poly, "rota_baxter") == (4, 4)
    assert operator_map_shape(adjoint, "relative_averaging") == (4, 4)
    assert operator_map_shape(self_action(dend), "homomorphic_relative") == (4, 4)
    with pytest.raises(SpecError):
        operator_map_shape(adjoint, "rota_baxter")


def test_search_one_dim_averaging():
    d = one_dim_dendriform(1, 0)
    grid = [Fraction(-1), Fraction(0), Fraction(1)]
    maps = search_operators(d, "dend_averaging", grid)
    found = [m.matrix[0][0] for m in maps]
    assert found == [Fraction(-1), Fraction(0), Fraction(1)]


def test_search_zero_algebra_all_pass():
    z = Algebra(
        2,
        "associative",
        {"mul": BilinearOp.zero(2, 2, 2)},
    )
    maps = search_operators(z, "rota_baxter", [Fraction(0), Fraction(1)])
    assert len(maps) == 16


def test_search_lexicographic_order():
    z = Algebra(1, "associative", {"mul": BilinearOp.zero(1, 1, 1)})
    maps = search_operators(z, "rota_baxter", [Fraction(1), Fraction(-1), Fraction(0)])
    assert [m.matrix[0][0] for m in maps] == [Fraction(1), Fraction(-1), Fraction(0)]


def test_search_cap(poly):
    # 5 grid values on a 3x3 map space exceeds the default cap 3^9
    z = Algebra(3, "associative", {"mul": BilinearOp.zero(3, 3, 3)})
    with pytest.raises(SearchCapExceeded):
        search_operators(z, "rota_baxter", [Fraction(k) for k in range(5)])


@pytest.mark.parametrize(
    "matrix", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]]], ids=["identity", "e12"]
)
def test_graph_check_on_an_action(matrix):
    """An action is checked through its representation, with the same
    verdict as the direct equations."""
    act = self_action(truncated_polynomial_dendriform(3))
    t = LinearMap(3, 3, matrix)
    graph, direct = graph_subalgebra_check(act, t), check_relative_averaging(act, t)
    assert graph.ok == direct.ok
    assert graph.checked == direct.checked == 36


def test_truncated_operator_report_is_not_ok():
    """A report whose cap dropped every violation still fails; a cap of 1
    holds the one witness, so its report is the check's."""
    a, t = truncated_polynomial_algebra(2), LinearMap.identity(2)
    ctx = _context(a, "rota_baxter", t)
    verdict = _scan(ctx, _KINDS["rota_baxter"].groups, 0, "rota_baxter")
    assert verdict.truncated and not verdict.violations
    assert not verdict.ok
    assert verdict.render().splitlines()[0] == "rota_baxter: FAIL (4 instance(s) checked)"
    one = _scan(ctx, _KINDS["rota_baxter"].groups, 1, "rota_baxter")
    assert not one.truncated and one == check_operator(a, "rota_baxter", t)


@pytest.mark.parametrize("grid", [[0, 0, 1], [Fraction(1, 2), Fraction(0), Fraction(2, 4)]])
def test_search_refuses_repeated_grid_values(grid):
    with pytest.raises(SpecError, match="grid repeats the value '(0|1/2)'"):
        search_operators(truncated_polynomial_algebra(2), "rota_baxter", grid)


def test_search_degree_three_dend_averaging():
    """The full 3^9 grid on the degree-3 truncated polynomials: the hit list
    recorded before the search compiled its kind once."""
    maps = search_operators(truncated_polynomial_dendriform(3), "dend_averaging", [Fraction(k) for k in (-1, 0, 1)])
    rendered = json.dumps([[[str(e) for e in row] for row in m.matrix] for m in maps])
    assert len(maps) == 891
    assert hashlib.sha256(rendered.encode()).hexdigest() == (
        "ae49a1f7066f1c004721e3f28bafae2886accb024a58e0beb0565b6e60ab4804"
    )


@pytest.mark.parametrize("entry", ["rota_baxter", "relative_averaging", "differential", "morphism",
                                   "aguiar_dendriform", "graph_subalgebra"])
def test_map_of_the_wrong_shape_is_refused_by_its_sorts(entry, poly, dend, adjoint):
    """Every entry point refuses a 2x2 map on dimension-4 objects with the
    one message of the context, which names the map and its sorts."""
    skew = LinearMap(2, 2, [[0, 1], [0, 0]])
    call, name, sorts = {
        "rota_baxter": (lambda: check_operator(poly, "rota_baxter", skew), "T", "A->A"),
        "relative_averaging": (lambda: check_operator(adjoint, "relative_averaging", skew), "T", "V->A"),
        "differential": (lambda: check_differential(dend, skew), "T", "A->A"),
        "morphism": (lambda: check_morphism(skew, dend, dend, {"prec": "prec", "succ": "succ"}), "f", "A->B"),
        "aguiar_dendriform": (lambda: aguiar_dendriform(poly, skew), "T", "A->A"),
        "graph_subalgebra": (lambda: graph_subalgebra_check(adjoint, skew), "T", "V->A"),
    }[entry]
    with pytest.raises(SpecError) as refused:
        call()
    assert str(refused.value) == f"map {name} is 2->2, but its sorts {sorts} need 4->4"
