"""The hand-written catalogs against the splitting rule (tests/oracle.py):
each split catalog is compared, as a span of degree-3 relations, with the
successor of its parent's axioms.  A change of transcription shows as a
changed span here, not only as a changed catalog digest.

The successor is what the sum collapses rest on: the split axioms of an
axiom add up to that axiom with each operation read as the sum of its two
parts.  The quadri and six catalogs state more than the successor; the
relations they add are named by schema id below."""

import pytest

from splitalg.identities import IdentitySchema, catalog, hypothesis
from splitalg.model import SIGNATURE_OPS

from oracle import degree3_vector, rank, rename, split_expr, successor

PERP = {"prec": "prec_perp", "succ": "succ_perp"}


def outside(schemas, span, ops):
    """The ids of the schemas that add to the rank of span."""
    base = rank(span, ops)
    return [s.id for s in schemas if rank([*span, s], ops) > base]


def test_successor_of_associative_is_dendriform():
    ops = SIGNATURE_OPS["dendriform"]
    split, dend = successor(catalog("associative")), catalog("dendriform")
    assert (rank(dend, ops), rank(split, ops), rank(dend + split, ops)) == (3, 3, 3)


@pytest.mark.parametrize("parent, split", [("associative", "dendriform"), ("diassociative", "quadri"),
                                           ("triassociative", "six")])
def test_split_axioms_sum_to_the_collapsed_axiom(parent, split):
    """So the sum collapse of an algebra that satisfies the successor
    satisfies the parent axioms."""
    ops = SIGNATURE_OPS[split]
    for axiom in catalog(parent):
        parts = [degree3_vector(s, ops) for s in successor([axiom])]
        collapsed = IdentitySchema(axiom.id, axiom.slot_sorts, split_expr(axiom.lhs, None), split_expr(axiom.rhs, None))
        assert tuple(map(sum, zip(*parts))) == degree3_vector(collapsed, ops)


def test_quadri_strictly_contains_the_successor_of_diassociative():
    ops = SIGNATURE_OPS["quadri"]
    split, quadri = successor(catalog("diassociative")), catalog("quadri")
    assert (len(quadri), len(split)) == (19, 15)
    assert (rank(quadri, ops), rank(split, ops), rank(quadri + split, ops)) == (17, 15, 17)
    # the tails of the five-term braces quadri.3 and quadri.7
    extra = ["quadri.3c", "quadri.3d", "quadri.7c", "quadri.7d"]
    assert outside(quadri, split, ops) == extra
    assert rank(split + [s for s in quadri if s.id in extra], ops) == 17


def test_six_strictly_contains_the_successor_of_triassociative():
    """six with its quadri quadruple and the dendriform axioms of its perp
    pair, the whole six hypothesis, against the successor of the
    tri-associative axioms."""
    ops = SIGNATURE_OPS["six"]
    split = successor(catalog("triassociative"))
    six = catalog("six") + catalog("quadri") + rename(catalog("dendriform"), PERP)
    assert set(six) == set(hypothesis("six"))
    assert (len(six), len(split)) == (47, 33)
    assert (rank(six, ops), rank(split, ops), rank(six + split, ops)) == (37, 33, 37)
    chains = ("six.2.3", "six.2.4", "six.3.1", "six.3.3")
    extra = [s for s in catalog("six") if s.id[:-1] in chains]
    assert [s.id for s in extra] == [f"{c}{p}" for c in chains for p in "ab"]
    # the quadri tails lie outside the successor too, but inside its span
    # together with the four six chains, which alone reach the joint rank
    assert outside(six, split, ops) == [s.id for s in extra] + ["quadri.3c", "quadri.3d", "quadri.7c", "quadri.7d"]
    assert rank(split + extra, ops) == 37

