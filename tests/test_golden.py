"""Golden bytes: the sha256 of every CLI subcommand's stdout and files.

A command's entry is "<exit code> <sha256 of stdout>"; a file's entry is
the sha256 of its bytes.  A refactor must leave every entry unchanged; a
change that alters output on purpose re-records them and says why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from helpers import PAPER_CIRCUITS, run_main, sha


def _call(argv: list[str]) -> str:
    code, out = run_main(argv)
    return f"{code} {sha(out.encode('utf-8'))}"


def _file(name: str) -> str:
    return sha(Path(name).read_bytes())


def circuit_digests(kind: str) -> dict[str, str]:
    """Run gen, kink, sim and truth on one circuit in the current directory."""
    return {
        "gen": _call(["gen", kind, "--out", "layout.qcl"]),
        "layout.qcl": _file("layout.qcl"),
        "kink": _call(["kink", "layout.qcl", "--out", "pairs.csv"]),
        "pairs.csv": _file("pairs.csv"),
        "sim": _call(["sim", "layout.qcl", "--out", "trace.csv", "--measure", "steady.csv"]),
        "trace.csv": _file("trace.csv"),
        "steady.csv": _file("steady.csv"),
        "truth": _call(["truth", "layout.qcl", "--expect", PAPER_CIRCUITS[kind]]),
    }


def sweep_digests() -> dict[str, str]:
    """Run the default sweep with both output files in the current directory."""
    return {
        "sweep": _call(["sweep", "--out", "sweep.csv", "--compare", "trend.md"]),
        "sweep.csv": _file("sweep.csv"),
        "trend.md": _file("trend.md"),
    }


GOLDEN: dict[str, dict[str, str]] = {
    "inverter:2": {
        "gen": "0 45bd089708916d89362427414766a8457e183ced0022891668ca0b849404e479",
        "layout.qcl": "686b9a3c773a160d3088c73ec6063678a817f9cd20db76c7e6f32c1db48fbe64",
        "kink": "0 8a0504508b79374dfdf150ea0481d0b3c536bc76d4bfee3c17855e02a8858129",
        "pairs.csv": "fcfe30361a9e32c139d7e6459697527b61167a33b37171c203628e7802adf5a8",
        "sim": "0 0a87b933256bd68997d53484c85c402b9e27150633c60a05aaa5f1a99d35eb91",
        "trace.csv": "c09dea70e4f54e5f0bc13fb3978736815d874201952b0e97207607b6d7745248",
        "steady.csv": "d106a385ca1609035f1c1b5472c40082c1cc4d92f7f6a5ffe67a8d5be484780b",
        "truth": "0 78ab4e93afad610f731182b66cdf60440903a94e92c25fd426c55af03c72a30d",
    },
    "inverter:3": {
        "gen": "0 24f804efaf7e9a5f3c7626ea79ccb2fd425a73e7b45f128ef80119a041eab36f",
        "layout.qcl": "93f9731d58848db1c466b1a2993dc66ae9d32db0b1638967508ffe9f6415475f",
        "kink": "0 1f937bcbbf0712b91b1704fbc8828fdf762fd93886cad38b97306095b8f38a96",
        "pairs.csv": "5a25898420c14e70115a59e4a1d69b04ce034e0ec062278e0bccd1ad90b6c224",
        "sim": "0 b6a95c1049544a18304f1a75913382e0d3585a032c3d9803a9098b4e34625d77",
        "trace.csv": "c9f6bcd65dc0e403c610525c83e473e1f0ac71aaeb39b021216876f030c4f13a",
        "steady.csv": "1fd46519f58ce10995a89775516d06e9d69b0407aaf4cd7a42ee49e00420d681",
        "truth": "0 570196d4671dfd8cf44eaabb23e6c55c27e87f8de72fbdaf6ebbb75ee9b51e2a",
    },
    "inverter:4": {
        "gen": "0 5f9f70983741b80ad27ee0cdffffdf070ebbdfb16757b8179db651a79215e814",
        "layout.qcl": "c322d4727da92ef3d9c9155c69c094ad769396e1bf566bf93b7534e9de086dbb",
        "kink": "0 b6668f87d13cc8724963df24a36402f8c7e09dd3b171411e789bea0508086cda",
        "pairs.csv": "f0651d19cfe9d2dc7268aafbfe7700a10a1138af300c66343756b2f07f6604cf",
        "sim": "0 91489534f63c238c94bffeb9bf2bdeefe2e17d5cf772cae8e2b6806b17571c3d",
        "trace.csv": "6cf9399a82df520112eec16fe56668a9de9453e446e65a089b998b9965a566ea",
        "steady.csv": "4439f7f998af56d38836efd6d697cfeee2443a89e01da479d06e493e4ed3f520",
        "truth": "0 c4281c78f24362b90d4c045318e5ca8b0bdbf26f15ddc62c7ba24c3567a0c955",
    },
    "inverter:5": {
        "gen": "0 a1822e1c24763781b4a9a930fb6970f991a2f5ba7ded63acf4e879c7cff8bef3",
        "layout.qcl": "d92f85b3f27ce5486e38aa9bc2dfbc93297d2ed80468df89893b0494c3caeebc",
        "kink": "0 e7768bc4dff80b42abec01bb9e9ab5ce95ca54018101a4e8ff42ddeeda29ae7d",
        "pairs.csv": "852fdf7feecc2f97b7fe72f3df1285deba6ee5c43e5d0e2ea9c6451331fe831f",
        "sim": "0 bbea6a403c5087fe0b1b422198318aad78492e128642874ace176a87bf2f22c8",
        "trace.csv": "f041cf9b90534f5ae05d4ecf2058881cde47baec44d942e2560d3a09400bd21d",
        "steady.csv": "7173e36850e735f4798ba6ba0068b0098093370fa1698969859762714662b4e3",
        "truth": "0 dc4df3a6f76ac43c81cdad2e910ed61f9cd2659128e65921c4a173b61ff3d90c",
    },
    "inverter:6": {
        "gen": "0 d8c15fd7489ed03aa697176a63c7797838b7a9972b6bb6934d1a6ad6a6100b23",
        "layout.qcl": "822eb2b6dabcba755f205499c6ad9437e83cb294b0651d6ccc00d78e274b84b6",
        "kink": "0 873246d573232d361e613d51344270f9b58a85b582890edaaeb6e23a6bf40717",
        "pairs.csv": "716a627d33f52a11a72b9e1d3d6e64a164c7f692c6d0a8915ff1c475cf10e0e8",
        "sim": "0 cb1df337ab568c42db484a7d2e46a5bdb33e555f394f6781206148f0d47afca8",
        "trace.csv": "6105711e76a19b97ae0ebbd455b7f122e5d31da24b0b0c24c73ca767991b9066",
        "steady.csv": "c35baf0c2ae0e792afd644078c361624db37ca8dfa2a2d50601f667c49707ee4",
        "truth": "0 4bd7a9a758bc182af2674c55bcbccf05af17c1d237d9a93781bb6d4025fd4b0c",
    },
    "inverter:conventional": {
        "gen": "0 46315415cc9dad5d9af02fb9f124e8209ffbcc039515a6076e7173cb3078dec0",
        "layout.qcl": "81c739f458ebf4f8fe31c5080409bc0b75a5bbdc34a8f7fc224c6436beb32f61",
        "kink": "0 eae14f038faa57f4025c52c1060bf25bf6cbac78796b4564fbddefe307f6e593",
        "pairs.csv": "2e5d8a57a01f3fd8e31629ee3591b71e6675f37b842d3f59a58722ee59c587d4",
        "sim": "0 eee07e43dd23272d3ac58800d3983f295498c08a2e3587982380e49287e92928",
        "trace.csv": "5a0e0eae9d5887e336673762f136c07178a31fd3b65b97aa75014a4e772b15f0",
        "steady.csv": "81df06a3618a4c80f2c875243ad5fd677bd75d78b2894df62b15eca0e63d058c",
        "truth": "0 538e21f110bb10a45f85f4bb99f132a5dc921b4e683cb43c584daa41c179d058",
    },
    "majority": {
        "gen": "0 a1822e1c24763781b4a9a930fb6970f991a2f5ba7ded63acf4e879c7cff8bef3",
        "layout.qcl": "3bd149650849a8f73ffeac5f3cbb7dcdc43e65d63fa62ad5764db53168325a76",
        "kink": "0 aaa1d73d2ccddef463fa75b0049dbbea02270b90cc233f40e34ec310dfacdc4c",
        "pairs.csv": "fd82feeba1a88fd47b9cb51932f3c674a6f19d6c6db2093a4c92f260ce720f98",
        "sim": "0 e490bad3ae118866678c6916b5a6842e3823a3ae1237ad3727b1771f137b5800",
        "trace.csv": "79a2b8efe985bac013fd157e709a92db6c20e15a28efef3bd6d4e83d2168f5f3",
        "steady.csv": "8cac33c8061d9c425df1f07e2a2f677414169cba4626b1948adb7405f12e0683",
        "truth": "0 778b07a36f3d345912a670b9bc99a662f6deb08578ec4342fd775592d8165305",
    },
    "wire:8": {
        "gen": "0 65dd93ad137b1d2bd1dfb08c7109fa3e1a91ffe7a98f8bcce0b71b0f7b57cc15",
        "layout.qcl": "0925f356a10fd7ab0ee2ae540ba286c0eec653e6a382c557cdfcb9e9de45ddf7",
        "kink": "0 2cd5779b07def780674ab8987dcb9a0ae2d5a7213592031b9014a65e3bbe01ba",
        "pairs.csv": "d5afa70f42d9b6b5a2bcf5ca145ee285d1292167a0503bc7e10d876625ff875f",
        "sim": "0 31c940cca10f6d51eb87be305fd5d93a7ce0402af94372d1448cc63b75719d64",
        "trace.csv": "7bbcbcc221705374298b380e0abcfdbbf014e34e9528a459f68a894376317b57",
        "steady.csv": "f269c981953e00d42922d56462372c46507967d5aa351c8ca948ecffd0152392",
        "truth": "0 d0040eff5d6142e49ac3167b0cf9c1fa6919f103e850a3d6ff6b32394d5e24cb",
    },
    "sweep": {
        "sweep": "0 00067ab149186ffbf308b672cde5d3407305dd6e564dca2263fff70f3a79b4ff",
        "sweep.csv": "9a44d4a13b50fc95488e843c5f76d2e7e83a744793d3731e6bd64824c0fb1f7e",
        "trend.md": "a82d31cb22aaab4b1799b95ece73870ff547b98be35e393c111418f30df2fefb",
    },
}


@pytest.mark.parametrize("kind", sorted(PAPER_CIRCUITS))
def test_circuit_bytes(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert circuit_digests(kind) == GOLDEN[kind]


def test_sweep_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert sweep_digests() == GOLDEN["sweep"]
