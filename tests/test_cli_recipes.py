"""Every `construct` recipe pinned byte for byte: exit code and the SHA-256
of stdout, of stderr and of the written document.  With the removed
--no-verify switch, every recipe is refused before it reads its input.

The expected digests were recorded from the CLI before its recipe dispatch
became a table; a change to them is a change of CLI output.
"""

import hashlib
import json
from fractions import Fraction
from importlib import import_module

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from splitalg.cli import _SECTIONS, RECIPES, _outputs, _verifications, main
from splitalg.constructions import PreconditionFailure, induced_six
from splitalg.documents import Document, parse_document, serialize_document
from splitalg.identities import check
from splitalg.model import Action, Algebra, BilinearOp, LinearMap, Representation, perp_dendriform_part, quadri_part
from splitalg.operators import check_operator
from splitalg.quotients import dendriform_quotient, six_to_homomorphic_setup


INPUT_SHA = "4535eb3c33280fc6038ee5f0f31e7f48089ab371b769d7ac761f39e1e95d3ce1"

# (recipe, object flags): the first fifteen are accepted; the last four
# are refused because their input fails the recipe's hypothesis.
CASES = [
    ("semidirect", ["--rep", "adjoint"]),
    ("hemisemidirect", ["--rep", "adjoint"]),
    ("action-semidirect", ["--action", "self"]),
    ("aguiar-dendriform", ["--algebra", "poly", "--map", "integrate"]),
    ("aguiar-diass", ["--algebra", "poly", "--map", "shift"]),
    ("induced-quadri", ["--rep", "adjoint", "--map", "ident"]),
    ("induced-six", ["--action", "self", "--map", "ident"]),
    ("differential-quadri", ["--algebra", "dend", "--map", "zero"]),
    ("dual-extension", ["--algebra", "dend"]),
    ("sum-diass", ["--algebra", "quadri"]),
    ("sum-triass", ["--algebra", "six"]),
    ("quotient-dend", ["--algebra", "quadri"]),
    ("embed-averaging", ["--algebra", "quadri"]),
    ("quadri-to-relative", ["--algebra", "quadri"]),
    ("six-to-homomorphic", ["--algebra", "six"]),
    ("action-semidirect", ["--action", "bad_self"]),
    ("aguiar-diass", ["--algebra", "poly", "--map", "integrate"]),
    ("induced-quadri", ["--rep", "adjoint", "--map", "off_diagonal"]),
    ("differential-quadri", ["--algebra", "dend", "--map", "ident"]),
]

# (recipe, last flag value) -> (exit code, stdout SHA-256, stderr SHA-256,
#                               file SHA-256 or None)
EXPECTED = {
    ("semidirect", "adjoint"): (0, "2ecad7284b244e30d68747a7a7e5233cfa732e4d0375143af307e3cee19923b5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "27b16a0738c28dfb78beb39cae2f104b7eff023e1077140f30b3165cc1328ff4"),
    ("hemisemidirect", "adjoint"): (0, "da00805f46924b54d3a566e9eeef854fa58d45e13c3f86962dd47f54bc1cab3d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b0da6c7630cbe536895126b7512ac4d9de34eedbf9448c11df32249e0ac737f1"),
    ("action-semidirect", "self"): (0, "7cd8e151398bc48b486946a565f8f04903f35e06df11288f556e40f8b534760c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c8bc2686a692d77443e2a0f7aeb47fdf891e6f9e0ff652f88b8e0f602496d982"),
    ("aguiar-dendriform", "integrate"): (0, "9ba3e04c86f407310b59c38d1ed1b52505545557a4626ca49443ecfca598992f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c21ff5e622971333b6ea2edcff626b6d68e4b7acd4f4c6ab66339c17174bfcc6"),
    ("aguiar-diass", "shift"): (0, "a1dc1401548535d55fdcd59692de5bd4c442e61d1dca213403da308e19151772", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d0e4d914db0022d48bb44a89bfc2e8abbe730c7c13b5c94d0ac47eff1abb0594"),
    ("induced-quadri", "ident"): (0, "afd26a2f8c904698d0043b4e4e8c3284f93d1edbd9cf1d4b682ee74be5b35bd9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b77184b5f52e2aaa882bcfb91044b501cbab2528880c55d3cf954bfa61dc5ec3"),
    ("induced-six", "ident"): (0, "d1bfc2fe1913d8b19c551a00a768f45a990701c3c599029ff5a197c0fa110ae0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4eeceae6dc8f887e4d9774df6039c7541f808bd3d6b7acc24d59566debd4fad1"),
    ("differential-quadri", "zero"): (0, "c01a63752f68697524ca8161861b89de643d14f0698295e8df6602eaa204d570", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a2e6a6244ccde7980038ff6c68c1745d787206fbe0c8d9db06a71ea3a761aba7"),
    ("dual-extension", "dend"): (0, "8de807b36dfb1b09694323e514c2915578537dbfc500aa46ccba3d6fa206c5f4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f036296f0e51cea4af7466769179035cc7e38192461f332ec307cc022cb398c5"),
    ("sum-diass", "quadri"): (0, "c917d88bdea979558c3d7b5c34c31a7e45f9bffe581fd9101b25f2a9007aff04", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d9539ae0b679c544077c61c791280a092d253fcdb9de9abfccb9b00ac3e928f6"),
    ("sum-triass", "six"): (0, "4371fb0ff134e2b77dab605171e1b4d738f9a9ad847d818ffb3db1c20f368877", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b75ffa4fc5af55b27425b75bb664a0b17d3bfc7fe4dd32a33ce084dae11cc7c8"),
    ("quotient-dend", "quadri"): (0, "e3b5c79e2fdf54f263d50c48bcf7e1978043d798c59747217d4aec1ccfe20aa9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f2e505604c58493909fea970459592b0dfc9a5a3741771be42ea856ae6e2422a"),
    ("embed-averaging", "quadri"): (0, "7e88ae1864b85af41af4449bf97152fdc0d9f2e0feb7a2ac7ad8de442083928c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "cd3964d2751cb25a944996b87daee2a259ab34cb9b09f588e87552cd2d754822"),
    ("quadri-to-relative", "quadri"): (0, "5999cc1cd567ff4702e9fa062b24c4fdf6795787e87cadbb264cf061f634d883", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d0cc27447e170fa95ddc8c9caa49dd22dcac795cd417073c50116fb6e8d83a05"),
    ("six-to-homomorphic", "six"): (0, "a2c3819543a371691020638e6d9efaf232204f94406c66dc2a4894ab7c9c81b0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a9c09f05c0e59f99f5a8bdc0f32ec88cef123258e88ac836f6c7c095d1d1595d"),
    ("action-semidirect", "bad_self"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "2e5b9d140d9b216eafeeff38676f48dade94dbc6bbe12796beb4360596dac2cd", None),
    ("aguiar-diass", "integrate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "30c6029ebb8b004f61472a3ec729b18b7101cd805a8e788e7e6c1bea330fbe12", None),
    ("induced-quadri", "off_diagonal"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ec73962ff15a44956e7cd9c12d6b9edc2418722bfb5be925f708c7baf3475496", None),
    ("differential-quadri", "ident"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "db1d45ff84af59b8e00ac45a110afe0da9253abf034dd310a30c69d57bdb2afb", None),
}


# recipe -> the verifications its run makes (label, catalog or operator
# kind, output checked, output map or None), written out here because a
# RECIPES row leaves each object's catalog to the type of the output
VERIFICATIONS = {
    "semidirect": [("semidirect:dendriform", "dendriform", "semidirect", None)],
    "hemisemidirect": [("hemisemidirect:quadri", "quadri", "hemisemidirect", None)],
    "action-semidirect": [("action_semidirect:dendriform", "dendriform", "action_semidirect", None)],
    "aguiar-dendriform": [("dendriform", "dendriform", "dendriform", None)],
    "aguiar-diass": [("diassociative", "diassociative", "diassociative", None)],
    "induced-quadri": [("induced_quadri:quadri", "quadri", "induced_quadri", None)],
    "induced-six": [("induced_six:six", "six", "induced_six", None)],
    "differential-quadri": [("differential_quadri:quadri", "quadri", "differential_quadri", None)],
    "dual-extension": [("dual_extension:dend-action", "dend-action", "dual_extension", None),
                       ("projection:homomorphic_relative", "homomorphic_relative", "dual_extension", "projection")],
    "sum-diass": [("sum_diass:diassociative", "diassociative", "sum_diass", None)],
    "sum-triass": [("sum_triass:triassociative", "triassociative", "sum_triass", None)],
    "quotient-dend": [("quotient:dendriform", "dendriform", "quotient", None)],
    "embed-averaging": [("ambient:dendriform", "dendriform", "ambient", None),
                        ("averaging:dend_averaging", "dend_averaging", "ambient", "averaging")],
    "quadri-to-relative": [("representation:dend-representation", "dend-representation", "representation", None),
                           ("quotient_map:relative_averaging", "relative_averaging", "representation", "quotient_map")],
    "six-to-homomorphic": [("action:dend-action", "dend-action", "action", None),
                           ("quotient_map:homomorphic_relative", "homomorphic_relative", "action", "quotient_map")],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_recipe_input_unchanged(recipe_doc_path):
    with open(recipe_doc_path, "rb") as fh:
        assert _sha(fh.read()) == INPUT_SHA


# the removed switch is an unknown argument: one error line, nothing written
REFUSED = (2, _sha(b""), _sha(b"error: unrecognized arguments: --no-verify\n"), None)


@pytest.mark.parametrize("switch", [[], ["--no-verify"]], ids=["verify", "no-verify"])
@pytest.mark.parametrize("recipe,flags", CASES, ids=[f"{r}-{f[-1]}" for r, f in CASES])
def test_recipe_output_pinned(recipe, flags, switch, recipe_doc_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["construct", recipe_doc_path, "--recipe", recipe, *flags, "--out", "out.json", *switch])
    captured = capsys.readouterr()
    written = tmp_path / "out.json"
    file_sha = _sha(written.read_bytes()) if written.exists() else None
    digests = (code, _sha(captured.out.encode()), _sha(captured.err.encode()), file_sha)
    assert digests == (REFUSED if switch else EXPECTED[(recipe, flags[-1])])


ACCEPTED = [(recipe, flags) for recipe, flags in CASES if EXPECTED[(recipe, flags[-1])][0] == 0]


@pytest.mark.parametrize("recipe,flags", ACCEPTED, ids=[f"{r}-{f[-1]}" for r, f in ACCEPTED])
def test_written_document_checks(recipe, flags, recipe_doc_path, tmp_path, monkeypatch, capsys):
    """What `construct` writes with exit 0, `check` reads back and passes:
    every object the recipe verified against a catalog passes that catalog
    again from the written file."""
    monkeypatch.chdir(tmp_path)
    assert main(["construct", recipe_doc_path, "--recipe", recipe, *flags, "--out", "out.json"]) == 0
    doc = parse_document((tmp_path / "out.json").read_text(encoding="utf-8"))
    checked = [(subject, what) for _, what, subject, map_name in VERIFICATIONS[recipe] if map_name is None]
    assert checked
    for subject, what in checked:
        assert check(doc.lookup_object(subject), what).ok
        assert main(["check", "out.json", "--object", subject, "--catalog", what]) == 0
    capsys.readouterr()


def _tensors(obj) -> dict:
    """Each table of structure constants of an input, by name: an algebra's
    operations; a module's base operations, actions and, for an action, the
    target's operations; a map's matrix."""
    if isinstance(obj, LinearMap):
        return {"matrix": obj}
    if isinstance(obj, Algebra):
        return dict(obj.operations)
    tensors = {f"base.{name}": op for name, op in obj.base.operations.items()}
    if isinstance(obj, Action):
        tensors.update({f"target.{name}": op for name, op in obj.target.operations.items()})
    return {**tensors, **obj.actions}


def _replace(obj, name: str, tensor):
    """obj with the table `name` of _tensors replaced by tensor."""
    if isinstance(obj, LinearMap):
        return tensor
    if isinstance(obj, Algebra):
        return Algebra(obj.dimension, obj.signature, {**obj.operations, name: tensor}, obj.basis_labels)
    part, _, op = name.partition(".")
    base = _replace(obj.base, op, tensor) if part == "base" else obj.base
    actions = {**obj.actions, **({name: tensor} if name in obj.actions else {})}
    if isinstance(obj, Action):
        target = _replace(obj.target, op, tensor) if part == "target" else obj.target
        return Action(base, target, actions)
    return Representation(base, obj.module_dim, actions)


def _type_axioms(obj):
    """(part, catalog) of every axiom of an output's type; a six algebra's
    own catalog leaves out its quadri part and perp pair."""
    if isinstance(obj, Algebra):
        yield obj, obj.signature
        if obj.signature == "six":
            yield quadri_part(obj), "quadri"
            yield perp_dendriform_part(obj), "dendriform"
    elif isinstance(obj, Representation):
        yield obj.base, "dendriform"
        yield obj, "dend-representation"
        if isinstance(obj, Action):
            yield obj.target, "dendriform"
            yield obj, "dend-action"


def _run(recipe: str, objects: list) -> dict:
    """The recipe's construction on the objects: its outputs by name."""
    _, construction, names, _ = RECIPES[recipe]
    module, function = construction.split(".")
    result = getattr(import_module(f"splitalg.{module}"), function)(*objects)
    return dict(zip(names, _outputs(result), strict=True))


def _inputs(recipe_doc, flags: list) -> list:
    return [getattr(recipe_doc, _SECTIONS[flag[2:]])[name] for flag, name in zip(flags[::2], flags[1::2])]


@pytest.fixture(scope="module")
def recipe_doc(recipe_doc_path):
    with open(recipe_doc_path, encoding="utf-8") as fh:
        return parse_document(fh.read())


@pytest.mark.parametrize("recipe,flags", ACCEPTED, ids=[f"{r}-{f[-1]}" for r, f in ACCEPTED])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_perturbed_input_is_refused_or_its_output_holds(recipe, flags, recipe_doc, data):
    """One structure constant of one part of an accepted input changed:
    the construction refuses it with the failing verdict, or its output
    passes every axiom of its type and every operator check of the recipe."""
    objects = _inputs(recipe_doc, flags)
    which = data.draw(st.integers(0, len(objects) - 1))
    tensors = _tensors(objects[which])
    name = data.draw(st.sampled_from(sorted(tensors)))
    tensor, delta = tensors[name], data.draw(st.sampled_from([-1, 1, 2, Fraction(1, 2)]))
    if isinstance(tensor, LinearMap):
        r, c = data.draw(st.integers(0, tensor.target_dim - 1)), data.draw(st.integers(0, tensor.source_dim - 1))
        matrix = [list(row) for row in tensor.matrix]
        matrix[r][c] += delta
        changed = LinearMap(tensor.source_dim, tensor.target_dim, matrix)
    else:
        i, j = data.draw(st.integers(0, tensor.left_dim - 1)), data.draw(st.integers(0, tensor.right_dim - 1))
        k = data.draw(st.integers(0, tensor.out_dim - 1))
        coeffs = [[list(v) for v in row] for row in tensor.coeffs]
        coeffs[i][j][k] += delta
        changed = BilinearOp(tensor.left_dim, tensor.right_dim, tensor.out_dim, coeffs)
    objects[which] = _replace(objects[which], name, changed)
    try:
        outputs = _run(recipe, objects)
    except PreconditionFailure as e:
        event("refused")
        assert not e.verdict.ok
        return
    event("accepted")
    for obj in outputs.values():
        for part, catalog_name in _type_axioms(obj):
            assert check(part, catalog_name).ok, catalog_name
    for _, kind, subject, map_name in VERIFICATIONS[recipe]:
        if map_name is not None:
            assert check_operator(outputs[subject], kind, outputs[map_name]).ok, kind


@pytest.mark.parametrize("recipe,flags", ACCEPTED, ids=[f"{r}-{f[-1]}" for r, f in ACCEPTED])
def test_verifications_pinned(recipe, flags, recipe_doc):
    """Each recipe's run makes the pinned verifications, each object output
    checked against the catalog of its type, under the same labels and in
    the same order."""
    outputs = _run(recipe, _inputs(recipe_doc, flags))
    assert list(_verifications(RECIPES[recipe][3], outputs)) == VERIFICATIONS[recipe]


@pytest.mark.parametrize("recipe,flags", ACCEPTED, ids=[f"{r}-{f[-1]}" for r, f in ACCEPTED])
def test_built_tensors_carry_their_integer_form(recipe, flags, recipe_doc):
    """Every tensor a theorem builds, as against an input tensor it passes
    through, holds its integer form from the moment it is made: each is
    tabulated, so nothing clears it through Fraction again."""
    objects = _inputs(recipe_doc, flags)
    given = {id(t) for obj in objects for t in _tensors(obj).values()}
    built = [(name, part, t) for name, obj in _run(recipe, objects).items() for part, t in _tensors(obj).items()
             if isinstance(t, BilinearOp) and id(t) not in given]
    assert built
    assert [(name, part) for name, part, t in built if "integer_form" not in t.__dict__] == []


def test_every_recipe_is_pinned():
    assert list(VERIFICATIONS) == list(RECIPES) == list(dict.fromkeys(recipe for recipe, _ in ACCEPTED))


def test_six_converse_quotient_map_is_homomorphic(recipe_doc, tmp_path, monkeypatch, capsys):
    """e0 prec_perp e0 of the recipe document's six algebra lowered by e2:
    the six, quadri and perp dendriform axioms still hold, and the splitting
    ideal also identifies perp with vdash and dashv.  So six-to-homomorphic
    passes both its verifications, induced_six gives back the input exactly,
    and both converse theorems quotient by the same ideal."""
    six = recipe_doc.algebras["six"]
    coeffs = [[list(v) for v in row] for row in six.op("prec_perp").coeffs]
    coeffs[0][0][2] -= 1
    s = Algebra(six.dimension, "six", {**six.operations, "prec_perp": BilinearOp(*(six.dimension,) * 3, coeffs)})
    assert all(check(part, catalog_name).ok for part, catalog_name in _type_axioms(s))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(serialize_document(Document(algebras={"s": s})))
    code = main(["construct", "s.json", "--recipe", "six-to-homomorphic", "--algebra", "s", "--out", "o.json", "--json"])
    verifications = json.loads(capsys.readouterr().out)["verifications"]
    assert code == 0
    assert [(v["label"], v["violations"]) for v in verifications] == [
        ("action:dend-action", []), ("quotient_map:homomorphic_relative", [])]
    act, projection = six_to_homomorphic_setup(s)
    back = induced_six(act, projection)
    assert (back.dimension, back.operations) == (s.dimension, s.operations)
    base, quotient_map = dendriform_quotient(s)
    assert (base.dimension, base.operations, quotient_map) == (5, act.base.operations, projection)
