"""Every `construct` recipe, with and without --no-verify, pinned byte for
byte: exit code and the SHA-256 of stdout, of stderr and of the written
document.

The expected digests were recorded from the CLI before its recipe dispatch
became a table; a change to them is a change of CLI output.
"""

import hashlib

import pytest

from splitalg.cli import main


INPUT_SHA = "c0b85e39a74fa2a72043a0f70af209a89e44ab48633a301447fe36f56eca18ec"

# (recipe, object flags): the first fifteen are accepted; the last four
# are refused because their input fails the recipe's hypothesis
# (action-semidirect only when verifying, as --no-verify skips its check).
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

# (recipe, last flag value, verify) -> (exit code, stdout SHA-256, stderr SHA-256,
#                                      file SHA-256 or None)
EXPECTED = {
    ("semidirect", "adjoint", True): (0, "2ecad7284b244e30d68747a7a7e5233cfa732e4d0375143af307e3cee19923b5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "27b16a0738c28dfb78beb39cae2f104b7eff023e1077140f30b3165cc1328ff4"),
    ("semidirect", "adjoint", False): (0, "52308536c931aee138001679aa0f6dca27ed93d7100598db403efd0da6521c21", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "27b16a0738c28dfb78beb39cae2f104b7eff023e1077140f30b3165cc1328ff4"),
    ("hemisemidirect", "adjoint", True): (0, "da00805f46924b54d3a566e9eeef854fa58d45e13c3f86962dd47f54bc1cab3d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b0da6c7630cbe536895126b7512ac4d9de34eedbf9448c11df32249e0ac737f1"),
    ("hemisemidirect", "adjoint", False): (0, "61baabb7f74d153c13ec77b0d9b4ebeeb3ecc9c706d8955688b4b4a099503c9c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b0da6c7630cbe536895126b7512ac4d9de34eedbf9448c11df32249e0ac737f1"),
    ("action-semidirect", "self", True): (0, "7cd8e151398bc48b486946a565f8f04903f35e06df11288f556e40f8b534760c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c8bc2686a692d77443e2a0f7aeb47fdf891e6f9e0ff652f88b8e0f602496d982"),
    ("action-semidirect", "self", False): (0, "0abf86f91c79413f79bf20f6d313ecd0c619bbcc0386c19ab191f76f95fc852c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c8bc2686a692d77443e2a0f7aeb47fdf891e6f9e0ff652f88b8e0f602496d982"),
    ("aguiar-dendriform", "integrate", True): (0, "9ba3e04c86f407310b59c38d1ed1b52505545557a4626ca49443ecfca598992f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c21ff5e622971333b6ea2edcff626b6d68e4b7acd4f4c6ab66339c17174bfcc6"),
    ("aguiar-dendriform", "integrate", False): (0, "ca164d7bde3a2e180569af3d7861208439141e5042353d4bceae16a1127fa2f2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c21ff5e622971333b6ea2edcff626b6d68e4b7acd4f4c6ab66339c17174bfcc6"),
    ("aguiar-diass", "shift", True): (0, "a1dc1401548535d55fdcd59692de5bd4c442e61d1dca213403da308e19151772", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d0e4d914db0022d48bb44a89bfc2e8abbe730c7c13b5c94d0ac47eff1abb0594"),
    ("aguiar-diass", "shift", False): (0, "32625d90300fd0b3d20b67e29057e3710a10eb53e29c132a632d5635dea76d81", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d0e4d914db0022d48bb44a89bfc2e8abbe730c7c13b5c94d0ac47eff1abb0594"),
    ("induced-quadri", "ident", True): (0, "afd26a2f8c904698d0043b4e4e8c3284f93d1edbd9cf1d4b682ee74be5b35bd9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b77184b5f52e2aaa882bcfb91044b501cbab2528880c55d3cf954bfa61dc5ec3"),
    ("induced-quadri", "ident", False): (0, "0f03a56b08bf4a4c623e803185f29a2c3d85179d75a110dc87f50491f2ab337e", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b77184b5f52e2aaa882bcfb91044b501cbab2528880c55d3cf954bfa61dc5ec3"),
    ("induced-six", "ident", True): (0, "d1bfc2fe1913d8b19c551a00a768f45a990701c3c599029ff5a197c0fa110ae0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4eeceae6dc8f887e4d9774df6039c7541f808bd3d6b7acc24d59566debd4fad1"),
    ("induced-six", "ident", False): (0, "2d98c73cc6cfcac81a090e807220ca4216d5a8b0adcd67a1382039ba1536d5b5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4eeceae6dc8f887e4d9774df6039c7541f808bd3d6b7acc24d59566debd4fad1"),
    ("differential-quadri", "zero", True): (0, "c01a63752f68697524ca8161861b89de643d14f0698295e8df6602eaa204d570", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "62d10a0916aa5bcb06b1f333d8c2cd6899e680f3ca720b844f39537670eaf9f3"),
    ("differential-quadri", "zero", False): (0, "5fc9a2e14dcd6362ec11a41a96c924ebe2d61710d23a704d0c74823db094b07f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "62d10a0916aa5bcb06b1f333d8c2cd6899e680f3ca720b844f39537670eaf9f3"),
    ("dual-extension", "dend", True): (0, "8de807b36dfb1b09694323e514c2915578537dbfc500aa46ccba3d6fa206c5f4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f036296f0e51cea4af7466769179035cc7e38192461f332ec307cc022cb398c5"),
    ("dual-extension", "dend", False): (0, "9832662e38ad24c2f39c27bcc6329f58631d1314ca0a5d55f9a000be30e74c47", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f036296f0e51cea4af7466769179035cc7e38192461f332ec307cc022cb398c5"),
    ("sum-diass", "quadri", True): (0, "c917d88bdea979558c3d7b5c34c31a7e45f9bffe581fd9101b25f2a9007aff04", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f06cd0e99348c5f46b0de632a74848061355ec3c7ebbd842d72294138abf2554"),
    ("sum-diass", "quadri", False): (0, "c135c3c8a1544715d56e2727f51efbb89be5f1db24602869e5954ab38f4a8fff", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f06cd0e99348c5f46b0de632a74848061355ec3c7ebbd842d72294138abf2554"),
    ("sum-triass", "six", True): (0, "4371fb0ff134e2b77dab605171e1b4d738f9a9ad847d818ffb3db1c20f368877", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b75ffa4fc5af55b27425b75bb664a0b17d3bfc7fe4dd32a33ce084dae11cc7c8"),
    ("sum-triass", "six", False): (0, "3c3e7811eaff717713b79748b41376748f28a7b295a25b4036a7f79cae48d9a4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b75ffa4fc5af55b27425b75bb664a0b17d3bfc7fe4dd32a33ce084dae11cc7c8"),
    ("quotient-dend", "quadri", True): (0, "e3b5c79e2fdf54f263d50c48bcf7e1978043d798c59747217d4aec1ccfe20aa9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f2e505604c58493909fea970459592b0dfc9a5a3741771be42ea856ae6e2422a"),
    ("quotient-dend", "quadri", False): (0, "9830fc33fac28c615394410d8c0eb92361125fefc9c087ca1b9568d755077d5e", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f2e505604c58493909fea970459592b0dfc9a5a3741771be42ea856ae6e2422a"),
    ("embed-averaging", "quadri", True): (0, "7e88ae1864b85af41af4449bf97152fdc0d9f2e0feb7a2ac7ad8de442083928c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "cd3964d2751cb25a944996b87daee2a259ab34cb9b09f588e87552cd2d754822"),
    ("embed-averaging", "quadri", False): (0, "a2f62520ad8c81ccaafa97a1a00e15810b3055c2b5406af5db8ccf48262f9a29", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "cd3964d2751cb25a944996b87daee2a259ab34cb9b09f588e87552cd2d754822"),
    ("quadri-to-relative", "quadri", True): (0, "5999cc1cd567ff4702e9fa062b24c4fdf6795787e87cadbb264cf061f634d883", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d0cc27447e170fa95ddc8c9caa49dd22dcac795cd417073c50116fb6e8d83a05"),
    ("quadri-to-relative", "quadri", False): (0, "d75923ae6046a56b1b892427a0841ffc7b5e6bffa93882131797e7ab11d97f50", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d0cc27447e170fa95ddc8c9caa49dd22dcac795cd417073c50116fb6e8d83a05"),
    ("six-to-homomorphic", "six", True): (0, "a2c3819543a371691020638e6d9efaf232204f94406c66dc2a4894ab7c9c81b0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a9c09f05c0e59f99f5a8bdc0f32ec88cef123258e88ac836f6c7c095d1d1595d"),
    ("six-to-homomorphic", "six", False): (0, "1b0d9a9f1b47d938912d8ef50b2a3aa9c3de0a6dc3cd74aa1c1c5b5967bf63a6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a9c09f05c0e59f99f5a8bdc0f32ec88cef123258e88ac836f6c7c095d1d1595d"),
    ("action-semidirect", "bad_self", True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f4334c5e53979c2cf1ccaff788c2067dcb6a4db0df44c568ade04eeac335ba85", None),
    ("action-semidirect", "bad_self", False): (0, "0abf86f91c79413f79bf20f6d313ecd0c619bbcc0386c19ab191f76f95fc852c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e0889cf4fe32ffd7f9d7bc3a521cc4aef159bb635e952f79977d1826d6691efa"),
    ("aguiar-diass", "integrate", True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "30c6029ebb8b004f61472a3ec729b18b7101cd805a8e788e7e6c1bea330fbe12", None),
    ("aguiar-diass", "integrate", False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "30c6029ebb8b004f61472a3ec729b18b7101cd805a8e788e7e6c1bea330fbe12", None),
    ("induced-quadri", "off_diagonal", True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ec73962ff15a44956e7cd9c12d6b9edc2418722bfb5be925f708c7baf3475496", None),
    ("induced-quadri", "off_diagonal", False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ec73962ff15a44956e7cd9c12d6b9edc2418722bfb5be925f708c7baf3475496", None),
    ("differential-quadri", "ident", True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "db1d45ff84af59b8e00ac45a110afe0da9253abf034dd310a30c69d57bdb2afb", None),
    ("differential-quadri", "ident", False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "db1d45ff84af59b8e00ac45a110afe0da9253abf034dd310a30c69d57bdb2afb", None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_recipe_input_unchanged(recipe_doc_path):
    with open(recipe_doc_path, "rb") as fh:
        assert _sha(fh.read()) == INPUT_SHA


@pytest.mark.parametrize("verify", [True, False], ids=["verify", "no-verify"])
@pytest.mark.parametrize("recipe,flags", CASES, ids=[f"{r}-{f[-1]}" for r, f in CASES])
def test_recipe_output_pinned(recipe, flags, verify, recipe_doc_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["construct", recipe_doc_path, "--recipe", recipe, *flags, "--out", "out.json"]
    code = main(argv + ([] if verify else ["--no-verify"]))
    captured = capsys.readouterr()
    written = tmp_path / "out.json"
    file_sha = _sha(written.read_bytes()) if written.exists() else None
    digests = (code, _sha(captured.out.encode()), _sha(captured.err.encode()), file_sha)
    assert digests == EXPECTED[(recipe, flags[-1], verify)]
