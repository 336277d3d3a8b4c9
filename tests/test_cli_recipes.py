"""Every `construct` recipe pinned byte for byte: exit code and the SHA-256
of stdout, of stderr and of the written document.  With the removed
--no-verify switch, every recipe is refused before it reads its input.

The expected digests were recorded from the CLI before its recipe dispatch
became a table; a change to them is a change of CLI output.
"""

import hashlib

import pytest

from splitalg.cli import main


INPUT_SHA = "c0b85e39a74fa2a72043a0f70af209a89e44ab48633a301447fe36f56eca18ec"

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
    ("differential-quadri", "zero"): (0, "c01a63752f68697524ca8161861b89de643d14f0698295e8df6602eaa204d570", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "62d10a0916aa5bcb06b1f333d8c2cd6899e680f3ca720b844f39537670eaf9f3"),
    ("dual-extension", "dend"): (0, "8de807b36dfb1b09694323e514c2915578537dbfc500aa46ccba3d6fa206c5f4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f036296f0e51cea4af7466769179035cc7e38192461f332ec307cc022cb398c5"),
    ("sum-diass", "quadri"): (0, "c917d88bdea979558c3d7b5c34c31a7e45f9bffe581fd9101b25f2a9007aff04", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f06cd0e99348c5f46b0de632a74848061355ec3c7ebbd842d72294138abf2554"),
    ("sum-triass", "six"): (0, "4371fb0ff134e2b77dab605171e1b4d738f9a9ad847d818ffb3db1c20f368877", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b75ffa4fc5af55b27425b75bb664a0b17d3bfc7fe4dd32a33ce084dae11cc7c8"),
    ("quotient-dend", "quadri"): (0, "e3b5c79e2fdf54f263d50c48bcf7e1978043d798c59747217d4aec1ccfe20aa9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f2e505604c58493909fea970459592b0dfc9a5a3741771be42ea856ae6e2422a"),
    ("embed-averaging", "quadri"): (0, "7e88ae1864b85af41af4449bf97152fdc0d9f2e0feb7a2ac7ad8de442083928c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "cd3964d2751cb25a944996b87daee2a259ab34cb9b09f588e87552cd2d754822"),
    ("quadri-to-relative", "quadri"): (0, "5999cc1cd567ff4702e9fa062b24c4fdf6795787e87cadbb264cf061f634d883", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d0cc27447e170fa95ddc8c9caa49dd22dcac795cd417073c50116fb6e8d83a05"),
    ("six-to-homomorphic", "six"): (0, "a2c3819543a371691020638e6d9efaf232204f94406c66dc2a4894ab7c9c81b0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a9c09f05c0e59f99f5a8bdc0f32ec88cef123258e88ac836f6c7c095d1d1595d"),
    ("action-semidirect", "bad_self"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f4334c5e53979c2cf1ccaff788c2067dcb6a4db0df44c568ade04eeac335ba85", None),
    ("aguiar-diass", "integrate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "30c6029ebb8b004f61472a3ec729b18b7101cd805a8e788e7e6c1bea330fbe12", None),
    ("induced-quadri", "off_diagonal"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ec73962ff15a44956e7cd9c12d6b9edc2418722bfb5be925f708c7baf3475496", None),
    ("differential-quadri", "ident"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "db1d45ff84af59b8e00ac45a110afe0da9253abf034dd310a30c69d57bdb2afb", None),
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
