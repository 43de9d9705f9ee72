"""Exact character tables, captured as digests: the sha256 of the degrees
and the integer power-basis numerators of every row, in the canonical row
and class order, for every bundled group and the pools `POOL` and
`COLD_POOL` of `tests/test_characters.py`.  The table is unique (rows
sorted on degree, then numerators; classes in the class data's order), so
any correct implementation reproduces these digests exactly."""

import hashlib

import pytest

from rigidtori.characters import character_table
from rigidtori.fixtures import group_by_name, small_groups
from test_characters import COLD_POOL, POOL, _pool_group

GOLDEN = {
    "Z1":
        "59b91390878a911abdef1387686f8cdae8cf372026a2ce21e0c474ee359ba735",
    "Z2":
        "ef06adddf098f653bd5c589fef9c61d358eed2d7b26556f50e2bff2c6ffb61ab",
    "Z3":
        "2ec1bdcad1070cedbbd6ef90e4116e128a0b1fd53604c082aeedd03f17580c49",
    "Z4":
        "071e354c975c0cc367460f8d2c5992140288643d9ddc237b6b8a2cbbea6c9ddc",
    "Z2xZ2":
        "e56d7af9c7d604d1dad08d76060ef5fb7c643413d8b3c147650f6e7255a303be",
    "Z5":
        "0b62832c152e1ed6bfeebcfb8f0feaa28f1e40c859446c2b03fe1df2be27b626",
    "Z6":
        "77185642322f01ccd159be0572affb47e6f40ecae9d2d2ec277c3be2f67c0485",
    "S3":
        "8cf5547755a386bde3d678e8a50b72b2266dc32c08a7254551f3ff598aa48bc0",
    "Z7":
        "c02315912f12396b058e454ab41d61b0806272be21064ff8faaee39a2a718001",
    "Z8":
        "21d3a2cb6da8c98759f5f4f0c08c363c3db332e561b9a60b821df38a7512bcdf",
    "Z2xZ4":
        "118e78751137b502b9c4b84257755ee400f69f4d28832380d6a1a71962a32954",
    "Z2xZ2xZ2":
        "1af91e2798ad04a72927e1088fd067332b373a8255eebacab3020f87de3fd9a1",
    "D4":
        "a9962750dfe9b2769955abb69a26c14d40c1f91367b960b254a431006fdf390c",
    "Q8":
        "a9962750dfe9b2769955abb69a26c14d40c1f91367b960b254a431006fdf390c",
    "Z9":
        "81aa6202f5710dc3d471bc43e08ef8968602096fc024af787c4a520e93674650",
    "Z3xZ3":
        "b792cb23fe4f40ac90ce0ee0adbb800ef6fce93043ab1ad540c407616d8426f1",
    "Z10":
        "d6adf87a1140ad503dfda7e89422762d9528105424a6150b60a3b1b2e6b25be7",
    "D5":
        "aea806b29d718e04f023395462611140b212b39405a6f7e7415df3dde622c152",
    "Z11":
        "376749ab3386c99a8bd91cc4a465dec83ee3ffd7d63e50be2b177016a2c542bd",
    "Z12":
        "ec3c4d3e801e9795cc005c98bbc284c8cc79e2e18c4ecac1b8fcb1c2ca74a2f8",
    "Z2xZ6":
        "7939d377802f99ea4e0ba4d4518b04b76e60a241e5c7eba157568bd00e7f1a15",
    "D6":
        "82e03e502b76a6fb8082058288ebdda24aa8c5dab2f30485867b98c69cfff484",
    "A4":
        "4e433fe388bd9bdac66ff6e07ce109739c6e8750f8e7f9a80925f92e75a8cf50",
    "Dic3":
        "900ea59c96b4cc9b54ae1f5a809074b243ed75022014961d2649090d82109023",
    "Z13":
        "4381a042e1cb2e3b420bc135dfa698bdd27ad17a12ed5a727c84c642717b82f8",
    "Z14":
        "3d17d2ed0e36f5250d00a696df1c73520fdfba5ebb5cc9f0c51a4d8cd725c5b7",
    "D7":
        "a25010317d13ca34ec7e3e7bc85cedfbfedf10161cde60686725c075b0acdd6a",
    "Z15":
        "a54a8b436a8a1938ab9600b15bd08b638e1abb639cce84a026a8afa1df08c0ba",
    "S4":
        "4b1369b1159977bf1b7f6489b6c3a1dcf74a6ef6f94d81791e38c13d935f7767",
    "S5":
        "8b20121715956d674a99574193c4251ec0386569b30f0d3da48acae8d4a645e6",
    "A5":
        "b71a4a68e7136244222c1ab80a9e3eaee6085025fbe12f6379d56ba74b106383",
    "Z21":
        "aef99f1c0f94e3774fa6a8f4007df395177f45fdae192123fdcdfda76900f270",
    "Z24":
        "f3c74f350da5a9d567c486de136ccc74a15374072e840a51fc6bae6e73f5f6fc",
    "F21":
        "4fdb30fc1e8bc1047ba7d5280e5c8969bc56a7b2712d06e25fafba10c10da06b",
    "Z2xZ2xZ6":
        "ebc67d27d04a09b1ed1c4a2bc08936f6809267283aca6d4afb203b86faf668ca",
    "Z16":
        "845c49a503124962d251e43a17bbb602dacc80ce2c8c702b020f311b96997907",
    "Z4xZ4":
        "5ae67de1710495681eca0d3fcff44937ce0e4c6a089aecc0ee650ebf12916097",
    "Z2xZ8":
        "d918a22620203b50b7f64b33db389504f66cebe80a213fd1455387b74abab1b6",
    "Z2xZ2xZ4":
        "769d5c4264ec98a069e1faeafff3acc076c2bf4fcc5518510bfa41b1dd416b70",
    "Z2xZ2xZ2xZ2":
        "2291eb33b56632172460576a331782727b9335f6320ab0bb86703eb767577cf3",
    "D8":
        "fe4fb8c5e480b496bcdc41f4707079b8f35c099a0e7b290bc96ad4179df4e9dd",
    "Dic4":
        "fe4fb8c5e480b496bcdc41f4707079b8f35c099a0e7b290bc96ad4179df4e9dd",
    "Z2xD4":
        "8daa52b0a618d8e7000ed8eaab7d1d77348785286a6748fcef0bf83ce9005ee5",
    "Z2xQ8":
        "7195a8c14f3f2032cdae2cc420fcc2e1753c93912b2d211b9debd8c9e102abe4",
    "F20":
        "a52878c80b7dd5b2f57f59cf60010cbef7766c3f91c3b13991b03647ade9f366",
    "Z20":
        "baeaf3a5e2a8da0673835c78caee551982eb4d7e1019f2857511450adb4a654e",
    "D10":
        "46049605dd880be0de5e30f18675bcebfb222e5be0dc15ef9a6a47ad8f432fa2",
}


def table_digest(group):
    table = character_table(group)
    data = (table.degrees,
            tuple(tuple(x.num for x in row) for row in table.rows))
    return hashlib.sha256(repr(data).encode()).hexdigest()


def _group(name):
    if name in POOL or name in COLD_POOL:
        return _pool_group(name)
    return group_by_name(name)


def test_golden_covers_the_bundled_groups_and_the_pool():
    assert set(GOLDEN) == {g.name for g in small_groups()} | {"S4"} | \
        set(POOL) | set(COLD_POOL)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_table_matches_the_captured_digest(name):
    assert table_digest(_group(name)) == GOLDEN[name]
