"""Byte-identity guard for the command line: the sha256 of (exit code, stdout,
stderr) of fixed in-process ``main`` calls, one per case.

The digests pin every subcommand and format on small params, refused inputs,
usage errors and ``verify`` (with its wall times stripped from stderr).  A
change that means to keep the output as it is must keep every digest; a change
that means to alter some output updates the digests it names, and only those.
No case's output holds a path of the run's temporary directory.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from random import Random

from twistroots.cli import main
from twistroots.families import AffineFamily, AlgebraParams
from twistroots.rootsys import doubling_pairs, real_dot_roots
from twistroots.sampling import adversarial_config, random_tight_config
from twistroots.shadow import FULL_IN, FULL_LN, ShadowConfig

WALL_TIME = re.compile(r" in \d+\.\d\ds$", re.MULTILINE)

PARAMS = {
    "ae": ("a-even-2", 1, 1),
    "ae0": ("a-even-2", 0, 2),
    "ao": ("a-odd-2", 1, 2),
    "a4": ("a-4", 1, 1),
    "d2": ("d-2", 2, 1),
    "d0": ("d-2", 0, 1),
}


def _base(name):
    family, k, l = PARAMS[name]
    return ["--family", family, "--k", str(k), "--l", str(l)]


def _params(name):
    family, k, l = PARAMS[name]
    return AlgebraParams(AffineFamily.from_token(family), k, l)


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _cases(tmp_path):
    """label -> argv; the input files are written to tmp_path."""
    cases = {
        "list-families": ["--list-families"],
        "no-command": [],
        "usage-missing-l": ["roots", "--family", "a-4", "--k", "1"],
        "usage-unknown-family": ["tables", "--family", "b-2", "--k", "1", "--l", "1"],
        "invalid-params": ["roots", "--family", "a-odd-2", "--k", "1", "--l", "1"],
        "roots-negative-mmax": ["roots", *_base("ae"), "--mmax", "-1"],
        "verify-negative-count": ["verify", *_base("ae"), "--configs", "-3"],
        "classify-bad-json": ["classify", *_base("ae"), "--root", "{bad"],
        "classify-float": ["classify", *_base("ae"), "--root",
                           '{"eps":[0.5],"del":[2],"dc":0}'],
        "classify-other-ambient": ["classify", *_base("ae"), "--root",
                                   '{"eps":[0,0],"del":[1],"dc":0}'],
        "classify-real": ["classify", *_base("ae"), "--root", '{"eps":[1],"del":[1],"dc":3}'],
        "classify-imaginary": ["classify", *_base("ae"), "--root",
                               '{"eps":[0],"del":[0],"dc":1}'],
        "classify-zero": ["classify", *_base("ae"), "--root", '{"eps":[0],"del":[0],"dc":0}'],
        "classify-non-root": ["classify", *_base("ae"), "--root",
                              '{"eps":[0],"del":[3],"dc":0}'],
        "classify-d2": ["classify", *_base("d2"), "--root",
                        '{"eps":[1,-1],"del":[0],"dc":2}'],
    }
    for name, mmax in (("ae", 1), ("d0", 2), ("a4", 1), ("ao", 0)):
        for fmt in ("json", "csv", "tex"):
            cases[f"roots-{name}-{fmt}"] = ["roots", *_base(name), "--mmax", str(mmax),
                                            "--format", fmt]
    for name in ("ae", "ae0", "ao", "a4", "d2", "d0"):
        for fmt in ("json", "csv", "tex"):
            cases[f"tables-{name}-{fmt}"] = ["tables", *_base(name), "--format", fmt]

    configs = {}
    for name, seed in (("ae", 3), ("ae0", 5), ("a4", 7), ("d2", 9)):
        cfg, _ = random_tight_config(_params(name), Random(seed))
        configs[f"seeded-{name}"] = (name, cfg)
    p = _params("ae")
    configs["all-ln-ae"] = ("ae", ShadowConfig(p, {d: FULL_LN for d in real_dot_roots(p)}))
    _, doubled = doubling_pairs(p)[0]
    configs["broken-doubling-ae"] = ("ae", ShadowConfig.from_assignments(
        p, {d: FULL_IN if d == doubled else FULL_LN for d in real_dot_roots(p)}))
    for label, (name, cfg) in configs.items():
        path = _write(tmp_path / f"{label}.json", cfg.to_json())
        for command in ("shadow-validate", "shadow-derive-p", "parabolic-synth"):
            cases[f"{command}-{label}"] = [command, *_base(name), "--config", path]
    # Closure failures, witnesses included: validate passes, check_parabolic fails.
    for name, seed in (("ae", 1), ("d2", 0)):
        cfg = adversarial_config(_params(name), Random(seed), "broken_closure")
        path = _write(tmp_path / f"broken-closure-{name}.json", cfg.to_json())
        cases[f"shadow-derive-p-broken-closure-{name}"] = [
            "shadow-derive-p", *_base(name), "--config", path]

    functionals = {
        "ae": {"eps": ["2"], "del": ["1"], "delta": "0"},
        "a4": {"eps": ["-3/4"], "del": ["1/2"], "delta": "0"},
        "d0": {"eps": [], "del": [3], "delta": 0},
    }
    for name, doc in functionals.items():
        path = _write(tmp_path / f"zeta-{name}.json", doc)
        cases[f"phi-pi-{name}"] = ["phi-pi", *_base(name), "--functional", path]
    path = str(tmp_path / "zeta-ae.json")
    cases["decompose-ae"] = ["decompose", *_base("ae"), "--functional", path,
                             "--root", '{"eps":[0],"del":[2],"dc":0}']
    cases["decompose-generator"] = ["decompose", *_base("ae"), "--functional", path,
                                    "--root", '{"eps":[1],"del":[0],"dc":1}']
    cases["decompose-not-positive"] = ["decompose", *_base("ae"), "--functional", path,
                                       "--root", '{"eps":[0],"del":[-2],"dc":0}']

    small = ["--configs", "3", "--adversarial", "3", "--functionals", "2",
             "--roundtrip", "3", "--mmax", "2"]
    cases["verify-ae"] = ["verify", *_base("ae"), *small]
    cases["verify-a4"] = ["verify", *_base("a4"), *small]
    cases["verify-ao"] = ["verify", *_base("ao"), *small]
    cases["verify-d0"] = ["verify", *_base("d0"), *small, "--seed", "4"]
    cases["verify-d2"] = ["verify", *_base("d2"), *small, "--adversarial", "9"]
    return cases


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: usage errors
            rc = exc.code
    blob = json.dumps([rc, out.getvalue(), WALL_TIME.sub("", err.getvalue())])
    return hashlib.sha256(blob.encode()).hexdigest()


EXPECTED = {
    "list-families":
        "1b713e3a03001e6c3f112b196af7616387ea42365accc46b05fbfd9f171d41c8",
    "no-command":
        "e51d5c7b5348b17855e14a794c2a1a8cbfe640dfd38e2d6d19b7450e36173ad5",
    "usage-missing-l":
        "ad366a32af713f348b255490c44d083b68992b4e3a6fc867345dbf448a26710e",
    "usage-unknown-family":
        "f5d47b4d372ecf768eca8ac835a2003374db764df677cc05790fa604032e7a76",
    "invalid-params":
        "05c6ffca8022df281c1498cab7cf38c0930a1a91275b8e51006191db680e5e3a",
    "roots-negative-mmax":
        "c12bef1108c72274936980618e328ffb7f0875f0083566604b59ee6be2064b87",
    "verify-negative-count":
        "b4a4d3a25f0dc11b8e6342effd2559a811a9e53761dab07349714a489017bd39",
    "classify-bad-json":
        "b92f0c096adba7132f232c1adc9672909a9c5a5a098286744c04c6cd2a9aeaf3",
    "classify-float":
        "70761cb4ecfe47bd95bff56fcb86ac158a9d43acfe85a0c8ce6c563eefdb46ab",
    "classify-other-ambient":
        "369974c702b8aa66fb72f0beb03e2e4dbe1b52286841d2cdb47681192d3b9004",
    "classify-real":
        "765c1bb9e4ec0bd21904d32deb10b0a6129612ae36db1f75ff1f895160ca93c7",
    "classify-imaginary":
        "c67c5519d7500e0c452bcc66a814f1f16ba4ec6e4e1d54e76caa1beb699934db",
    "classify-zero":
        "028a3b0689d1f3d7360d2e32338851835ecc6a5b387aea4949cb21ec25f40e9a",
    "classify-non-root":
        "8b612f4bbcb1e5a2729c566de1923700a85e5fe66112e4c25f0734a258c057f0",
    "classify-d2":
        "abe75abb363d16cfb650d98fdeb1435c2f3633432c79d7e96ede389288fd14bc",
    "roots-ae-json":
        "fd8965047b1a25c643a1e6d6313ddd5aa630fa241c88785daab7c9bfd5626f0f",
    "roots-ae-csv":
        "3efc56181deb838923a955f9a06a6548d8798db9e3c5c0b5dc89518629bc0029",
    "roots-ae-tex":
        "d3bd5a158d7d8b9d305b233c61e1741bbe7284f65608a304e3fd21b55e0625de",
    "roots-d0-json":
        "6b39c73ee65239a70ab39a70f049232e981e55d722a4a5a47823fa5a22b7ec4b",
    "roots-d0-csv":
        "20a79aefc760873a7f159fcd921bb975b0b97daf0722e0b906793932bf5d3303",
    "roots-d0-tex":
        "26197437893175973d72efa50a2a4ba3528d27a2e708f871689a5bb9ea52b5cf",
    "roots-a4-json":
        "c9a1f434c4527b922940350b3490ae4dca88fed97c4d73dd681b4c82e8ea5a9a",
    "roots-a4-csv":
        "06b8c6d151513427d1b8a7c995c1862ad8ff9e586889c48e14aa467c60158dae",
    "roots-a4-tex":
        "8d2a63cba255c07231277b2a52357422a87720396f0e7a7803a3c6e4141519e6",
    "roots-ao-json":
        "cfdf388c6e45da8fabe1d4c4e3f8cc0537a1fee4bacc1025eda14312de4307c2",
    "roots-ao-csv":
        "3fa1916e703af08a74d574eb65d92be6d031363958e703806b6ad6c456118027",
    "roots-ao-tex":
        "85509d8b245d524c17da3bcd5599db2d38a66f7c86d3e0ba3b1b1b09f7da59b4",
    "tables-ae-json":
        "6d5f20e6044616734a265633cb753c6ab1569f29e3e2e04bbc69d53b1e2a3df9",
    "tables-ae-csv":
        "423326946821c00f71958bcd11a5bd54b1447b30524847a1213cdccf2db526f7",
    "tables-ae-tex":
        "ff215b3ca55620787a803ab10b01d23ac67ce94bf1df5124d8487287300409d5",
    "tables-ae0-json":
        "dc32b7ab23f86059c8a86b8d36ca93e2cdc5f98c76ab42d1932ad033595c8ace",
    "tables-ae0-csv":
        "5bd00706a8aa819ad36699266ad5581dc82505fb526e17cd515f0ab9a26da699",
    "tables-ae0-tex":
        "49d3ea51b1e6bab308481cc50f9e33d1c601847e6b6e743117719489582cc163",
    "tables-ao-json":
        "001ae076d1883f1e89345145e11c6bd835d77c1341758d528ac9cbc8a7ce2aed",
    "tables-ao-csv":
        "51f14a85adecb572a429e7ff76359173cb85ac353f87a64d6bb959e9a7fb59a6",
    "tables-ao-tex":
        "fcf9e85df0a5adfa65cb7f177f314e2126e60077412cca24db3a5266b504b57b",
    "tables-a4-json":
        "4f97b99c4d59af473590f94a60c8c1c9d2ceb1f2a0e8ffd80d30b2a248c28396",
    "tables-a4-csv":
        "dec8e93e6756fce9cc0487a52ed7253554b35758b1d941570c1e18ee6929f785",
    "tables-a4-tex":
        "d9062fad582150ddf12ac9e5305d0b22267b435d165d9bb68e359fe78c6299b0",
    "tables-d2-json":
        "5386bf0797c7a72c5a48f41a687c64571107b62067bc97f0427cc190a59d5e02",
    "tables-d2-csv":
        "3c624edfb2e4fdb6549234d7aff45df13a273ebe89bd18c99f8527f37f26c8d2",
    "tables-d2-tex":
        "a8e52693538e810406cbcfb2f6653f0d802d105a5c71f793b7c28b3e42356b64",
    "tables-d0-json":
        "c25fb63b8c9b7d84e327bb23bfb3288c1f611a4eb5d598ddfcd4198627940428",
    "tables-d0-csv":
        "8a93d08496e813dbd29835072df87e29becc7dacaf1579e4a72688ce0ad92e92",
    "tables-d0-tex":
        "e3ef00e27f903c4d51af984f9bb8b4b05721a2240b9094402e9094f6ffc27091",
    "shadow-validate-seeded-ae":
        "d5f0a44250ebecf9fdd6df6ae86c40ff42ec4ca70c15e6dd15ad3dc9d04aa252",
    "shadow-derive-p-seeded-ae":
        "785c4126f512fe7ed3f65b5e1401e9af0c1102115c2262943551ff3228003ddb",
    "parabolic-synth-seeded-ae":
        "6bf32a8dcc7d31c16fa97833458d3bb982d5df469016da2b3fe96e3b0d69cc93",
    "shadow-validate-seeded-ae0":
        "25e091fcbf225c9c6901446a99b89a0d106be3b96bc81fc3904d941eebab3962",
    "shadow-derive-p-seeded-ae0":
        "043ca7c0316dd76e61bd652fb934c8528b9a87ae0e7062329619799678fc372b",
    "parabolic-synth-seeded-ae0":
        "0664116179e07ba969ed74275547b8671b75b26692de922d6d76c5befe57ea79",
    "shadow-validate-seeded-a4":
        "dc84109464618a1b33254d1dbcd7909042f6121a54109a83d183b5661493d47d",
    "shadow-derive-p-seeded-a4":
        "9e122dc547ba397e91feb503c788d6fdc86e25f63d1d3b7d97e20eba1ef6e21a",
    "parabolic-synth-seeded-a4":
        "c0318f6fe9037d8fcb733d265e54795ed9f960e06225f80e51d28c2ac3197404",
    "shadow-validate-seeded-d2":
        "dc84109464618a1b33254d1dbcd7909042f6121a54109a83d183b5661493d47d",
    "shadow-derive-p-seeded-d2":
        "0f1134f5e8cff7ea811c1725e457009ad05566162117bac42f33466b859ae2e2",
    "parabolic-synth-seeded-d2":
        "4f387bac03dc1af81c0dd5a4507ba18079b6bca528ad3a76f2e65ddcf22abcaf",
    "shadow-validate-all-ln-ae":
        "d5f0a44250ebecf9fdd6df6ae86c40ff42ec4ca70c15e6dd15ad3dc9d04aa252",
    "shadow-derive-p-all-ln-ae":
        "89e5a4c23e56c13e8a1cea8257643ab7c5990576815bedb787ece197c6af60f7",
    "parabolic-synth-all-ln-ae":
        "bad1de9282fa3dd341a828d26836f973022b6862c3e76e657224f049373e70db",
    "shadow-validate-broken-doubling-ae":
        "fef7ea3573becd1075280ec1ce17ae58b374d1a8830cf03b2c8c8a9a9b1fc8c5",
    "shadow-derive-p-broken-doubling-ae":
        "92380f41cac1aa60ad5abf99c5cd261c090fa0d53745556875a7a215307d55a8",
    "parabolic-synth-broken-doubling-ae":
        "68de0f095b9ed42217f8ae9d691bff58598f495ddda0e7a91bf78aac845914fd",
    "shadow-derive-p-broken-closure-ae":
        "86c20c5064c8c1c4929a2b53d4a780d416f98d0e6ac1024361f94f65590dae87",
    "shadow-derive-p-broken-closure-d2":
        "51b892d63e1e74a789cf92b59d106b2b9dbe65a1207de20d0a89a23400f4ecad",
    "phi-pi-ae":
        "060586d87c82ca91145417e7dfd6c67180c85b7ca6ff5af102ad5a93363fbd6a",
    "phi-pi-a4":
        "927dac243d17e0d7b6a1446886cbad40fa3d8941281e6f07161e9f907dbb8d7e",
    "phi-pi-d0":
        "abc2c1f365d11eb8b5ecf696a95e3ae6ba87d10d4f0ac29e0ed5928f9d5e109e",
    "decompose-ae":
        "e0eaab9f3ac61e31744292981978093df2c1b4809cdb6b56ae482665da3ec8df",
    "decompose-generator":
        "6d7158be9dae8eb37012860db0d738c06e9671dc0dfd1ed9cf1ce95bf24ec189",
    "decompose-not-positive":
        "809223612e1e17031c64fe4d48d98f0a134ebcff4474c5687cd06315f897c290",
    "verify-ae":
        "36acb59d1b0882b45ee4bf724a9a29145dd916d5a397ff842b54e63134d1b062",
    "verify-a4":
        "c1737493baade2b6d29dcf292c18931daecd20e4ecf61832d97309bc0d22ef1b",
    "verify-ao":
        "1af4bd6b4e026a1dd0b3c5599408f0287519b79577bdf6f8b794853339b18758",
    "verify-d0":
        "6a920464db71bdc11c93740b66e787ceec14f54e4f9de73e54a4db43ff7a32f2",
    "verify-d2":
        "ff0a9b47e62495587891ac6835d609c83be8e30568b1422abb691f0f5f8b6500",
}


def test_cli_output_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
    digests = {label: _digest(argv) for label, argv in _cases(tmp_path).items()}
    assert {k: v for k, v in digests.items() if EXPECTED.get(k) != v} == {}
    assert digests.keys() == EXPECTED.keys()
