"""Exact character tables and character-field classification.

Walks through three groups: the cyclic group Z4 (which has a CM character
field, Q(i)), the symmetric group S3 (everything rational), and the
quaternion group Q8.
"""

from rigidtori import character_table, galois_orbits
from rigidtori.fixtures import cyclic, quaternion_8, symmetric_3


def show(group):
    table = character_table(group)
    print(f"\n=== {group.name} (order {group.order}, "
          f"exponent {group.exponent}) ===")
    classes = table.classes
    print("class sizes:", classes.sizes)
    print("character table (rows sorted by degree, values in "
          f"Q(zeta_{table.field.m})):")
    for deg, row in zip(table.degrees, table.rows):
        print(f"  deg {deg}: [" + ", ".join(v.as_string() for v in row) + "]")
    table.verify()
    table.verify_columns()
    print("row and column orthogonality verified exactly")

    decomp = galois_orbits(table)
    print("Galois orbits and character fields:")
    for orbit in decomp.orbits:
        fs = orbit.field_spec
        print(f"  rows {orbit.rows}: field of degree {fs.degree} "
              f"inside Q(zeta_{fs.field.m}), {orbit.tag}")

    # the character fields of the orbits are the summands of the centre
    parts = " + ".join(
        f"F_{j}(deg {orbit.degree}, {orbit.tag})"
        for j, orbit in enumerate(decomp.orbits))
    print("centre of the rational group algebra:", parts)


if __name__ == "__main__":
    for g in (cyclic(4), symmetric_3(), quaternion_8()):
        show(g)
