"""`rigidity` and `polarize` reports on the rigid actions of the benchmark
catalogue (two seeded `random_hodge_fixture` draws for each of the 28 groups
of order < 16), captured as sha256 digests of `dump_report`.  Each action is
sent twice: with its float J_matrix and with its exact symbolic_spec.  The
two documents take different paths to the exact structure (the numeric one
rounds a character first and cross-checks it against the structure), and
every report holds exact values only, so both give the same text."""

import hashlib
import random

from rigidtori.cli import run_polarize, run_rigidity
from rigidtori.fixtures import random_hodge_fixture, small_groups
from rigidtori.hodge import (hodge_character_from_numeric,
                             rigidity_by_character, spec_from_character)
from rigidtori.schemas import dump_report

# (catalogue index, group, rigidity digest, polarize digest)
GOLDEN = (
    (11, "Z5",
     "bb5900a333e31e5da477a505ba4f14d3d4bd1ff3aa79dd1b52d1106e72707309",
     "1f3db80ef95d624d526fd67ce345edfaf937c6f9a863fa212e48c98478f40625"),
    (19, "Z8",
     "ab64bb8146c088f7b5223bfc92a62df85cbca69b4a9f7275f70170d00325c5e6",
     "da483e0b146dd0205f354ecd92230af9f7979be3dc92ceacfdd6953a5c7ac1ec"),
    (28, "Z9",
     "c2db3df77db8a9bd4c71baec3312ba251a0835c157bdd53636cb74dfb1af5773",
     "34bef30e1896c4733cd711198e1508d6741db792d6df8cd3c5563975197ede83"),
    (30, "Z3xZ3",
     "9234616a726afbb5ac27dddf7045918ed1c3066189c9c55e506167969f22a33e",
     "9a19a554454b25f9697f1e0229a99bd6373c5904fd5c008b72ab2ac09b71ab06"),
    (33, "Z10",
     "0e72c4e70a24e6afcd95044c9de436cea12a80133e78e61cae64ba639400d2ed",
     "14da3b0f575ec9f446ab45a294eb76e20d24aa282b4358ded3d7e6c0495db249"),
    (39, "Z12",
     "e956acc8b24d7fdcb0ea90c13524484ac092fa542a14080ad907fe9e31e3f1c0",
     "be631fe82f80bb1eeb959f40696b3d426c35c585d9f035d3187fbbbbb358514b"),
    (40, "Z2xZ6",
     "182d576e2a5971c340056e2e56ce30c607154d510f7a00380947827d77175089",
     "85c668de659a13728985325a797d0e4ed718ea6d6a5e7ba20265b2958156641e"),
    (54, "Z15",
     "8e62e2e22852a52cb5f0ca0a455dc52379429aaf1e56154edd4ed0ff7431a8bd",
     "6d13e333eadafef59367ae4937d4a52bc537ee94ad8e09c3b8a6f9bfd2dd3e8a"),
)


def _spec_doc(spec):
    return {"multiplicities": [s.multiplicity for s in spec.summands],
            "tau": {str(s.orbit_index): {str(a): v for a, v in s.tau}
                    for s in spec.summands if s.multiplicity > 0}}


def _digest(report):
    return hashlib.sha256(dump_report(report).encode()).hexdigest()


def test_rigid_reports_match_the_record_on_the_catalogue():
    rng = random.Random("actions/catalogue")
    got = []
    for index, (group, rep, structure) in enumerate(
            (group, rep, structure) for group in small_groups()
            for rep, structure in (random_hodge_fixture(rng, groups=[group])
                                   for _ in range(2))):
        j = structure.j_matrix_float().tolist()
        chi10 = hodge_character_from_numeric(rep, j)
        if not rigidity_by_character(chi10).is_rigid:
            continue
        gens = rep.generator_indices()
        base = {"group": {"name": group.name,
                          "cayley_table": [list(r) for r in group.table]},
                "rank": rep.rank, "generator_elements": gens,
                "generator_matrices": [[list(r) for r in rep.matrices[g]]
                                       for g in gens]}
        digests = set()
        for key, value in (("J_matrix", j),
                           ("symbolic_spec",
                            _spec_doc(spec_from_character(chi10)))):
            doc = dict(base, **{key: value})
            digests.add((_digest(run_rigidity(doc, None)),
                         _digest(run_polarize(doc, None))))
        assert len(digests) == 1, index
        got.append((index, group.name, *digests.pop()))
    assert tuple(got) == GOLDEN
