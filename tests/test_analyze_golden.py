"""`analyze` reports, captured as sha256 digests of `dump_report`, for every
bundled group, S4 and the pools `POOL` and `COLD_POOL` of
`tests/test_characters.py` (together, the benchmark's cold-groups pool).  A
report holds the character table, each Galois orbit's member rows in order,
its fixing subgroup, tag and idempotent, and the centre fields, so these pin
the orbit decomposition byte for byte.  Bundled groups are sent by name,
the pools by Cayley table."""

import hashlib
from argparse import Namespace

import pytest

from rigidtori.cli import run_analyze
from rigidtori.fixtures import small_groups
from rigidtori.schemas import dump_report
from test_characters import COLD_POOL, POOL, _pool_group

GOLDEN = {
    "Z1":
        "a53d876f54b07afb4084648510b3568640e09c3831a781aa3360524818f72aaf",
    "Z2":
        "7a7eff0c2d029bb0c7406cac3509be0758389d859b38e2bc9f06aba0c1b3a111",
    "Z3":
        "fb5d7473a4d73fc1a501520b8878e1afddfb485745f384a2f78e792f5e262d24",
    "Z4":
        "fccaa5b746abb22e1d78300900a2182cc6af02d3b9aec8da2af5928eaab7113d",
    "Z2xZ2":
        "f696516dcba636671bf5442553fef4b8d2987a6403c17c56a28740f66da1fb89",
    "Z5":
        "3df0ab7a3b456dd2aed9e9395f2b7cb8fed17df20198ea0d6192f9a0982ddb73",
    "Z6":
        "0ab044078dfc61d80ce97f15fdc7c0c5fb2d37a9907af0a616cfc0eed83ed7c1",
    "S3":
        "f364bce1b695295b496d6ebaad26896e5ac014c5bded556d33246e3a4247452f",
    "Z7":
        "d1ccf32f437ef1fda1e4d1b61b718ef5a7602f3cbc7786b91eaa74dfc8570e4a",
    "Z8":
        "f82b2f209330c6b31db3c432c8ebb0d34b146e3ecf42d7de3d6271c4bf3e2538",
    "Z2xZ4":
        "640da3cbb32ff5ed97f2978f0418daca8db922e80e627be62e5f2bbfa0c6678e",
    "Z2xZ2xZ2":
        "b82c7f3bc5a3c3d4be5478e29656024aba5487e1b7b52ae8e6722f5ad7e938e3",
    "D4":
        "4d4fc70c90c96768729015d12b80c710903a57929e190b6c75a430e6e5f56484",
    "Q8":
        "d50a8d6eadba4f08037d47279004739f1ac8dcf8e87b268f91f013ed7790952f",
    "Z9":
        "fc2faf159f03efdb981d50989dfe2d854f5158229a82e13e113c81519c4ef184",
    "Z3xZ3":
        "a11e46c87c7cc7d5c6bc29c51ff97d57c16cf6f0bcf597be7a8739c5cebde3ef",
    "Z10":
        "208997ad8b1f71080f0cb88dd362a819f97b7ab50e672e3490d98e22e331ab3b",
    "D5":
        "f25de3c1cc27396880608292660367251966c217647c0031d0bdd01fbe0becb9",
    "Z11":
        "e748859f4b944be15d7eebf6636ad5786f6ba3018fe5d7ca19ef85030e59cb9f",
    "Z12":
        "5d076d0b8337b20aed8f9dc071e5cab14b86c5cc9fc941bc4b93ed32f6652f37",
    "Z2xZ6":
        "806a13295825c58a18077d6b762a3ddb3987f992f8f71a3241e2010e5177d9d5",
    "D6":
        "edccdc565878878bdb3c69e0ea77fb0c797597e1b301026054500ec4c16a1868",
    "A4":
        "43078ffaf37a36191504966bd6a11b1ca5871b5b7e70dd35afe7ff2f1c4c54af",
    "Dic3":
        "6a03fbb16cc3f8a9611fae9bdbdc387a6011fd26f1e2618ff89c8316e6ce8b34",
    "Z13":
        "32a21aa365ef7bde8fb99bc65a0846b432ce1899165cb126034d0724c0cc543b",
    "Z14":
        "76451e81f69f889d5b96726cb6a3160672d3ce238dea64c354dde6a288325bbe",
    "D7":
        "54372679d4c8ab2a2944ff7d598301e37e3202b451a7a940253146fbd05e2ecf",
    "Z15":
        "e68d872bc65fc592fa4114a26d335543c994d2dde04be8a4683ed49292047125",
    "S4":
        "9e769158df65413f131adb2d4e2346add013bd17737cdfddcb56e42ec36da421",
    "S5":
        "039acc3229457ce2ff2940150a363a3de4402b7bcd4006a20e3550576151272a",
    "A5":
        "c1526a21e0cb51598fac31c87648c3334fd251113771eb17212ea3c6c67d4891",
    "Z21":
        "572a20b52c41f6c0c816040b1bbd937a6144bf7e6c1fc9b58915e5a7a657123c",
    "Z24":
        "faa7c47227712e12d7042d7a5032ab17580dcd7eedf4edb581f66745938d9dfd",
    "F21":
        "ac4d886a18eab360056c27a9a457ababac28798c55494dc0dc6c973f9c1b69c9",
    "Z2xZ2xZ6":
        "091345c734027f670acbe42c9e4624c82c1037801145951c26b4072331b34177",
    "Z16":
        "bcbacc091dc17032f52d1ea1652210a8b88af94981077ed0b4ad906e7062b679",
    "Z4xZ4":
        "2331869915d2f2eb327c7ed5f418be4390352ead1f34adb454c56d6d9be00941",
    "Z2xZ8":
        "a8eb813c4cfa12ea2e1d6591124485dc4d2f2ac9f5469bd9975366a01308ad6a",
    "Z2xZ2xZ4":
        "66f2e5e0b0b11d8ea11de58e413aa421c357502830afbcb18cefb7d382de3aa5",
    "Z2xZ2xZ2xZ2":
        "3ed6c3f6970914bfffbd5542c8cd98be46c6e8f79944b9600891c6aa16ef1059",
    "D8":
        "5b24a09d0d558fe8544224c52d233cd4e6ebad50fabe67f900c684de8426bac6",
    "Dic4":
        "bb3a3868614bccb427dc87a69b3c8bf514f2bc7494769f80f855bfac77f24a6e",
    "Z2xD4":
        "10d47556325d054b57c185fcbe6af3a43da3cc441bea40bb7e8cb3112428655a",
    "Z2xQ8":
        "ebb451bd407528c1faeb92087c929722533c60805e5c289417f313c2dbac4174",
    "F20":
        "98a01b9927e207e1f3515a08da1cf4854a616d57279b032d66a3730691af0f8d",
    "Z20":
        "b643d5f8ae8b70873c0ce2da204e67be7eeb5c2b46971757aa6a65ce23e2f616",
    "D10":
        "ce0efe5dbee923e36478f1c8781854fffeda0125a749f89686df58764ec51e52",
}


def _document(name):
    if name in POOL or name in COLD_POOL:
        group = _pool_group(name)
        return {"name": name, "cayley_table": [list(r) for r in group.table]}
    return {"builtin": name}


def test_golden_covers_the_bundled_groups_and_the_pool():
    assert set(GOLDEN) == {g.name for g in small_groups()} | {"S4"} | \
        set(POOL) | set(COLD_POOL)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_analyze_report_matches_the_captured_digest(name):
    report = dump_report(run_analyze(_document(name), Namespace()))
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN[name]
