"""Seeded request streams for the benchmark.

    python3 perfbench/generate.py --workload actions --seed 1 --out DIR

writes DIR/requests.json (the CLI documents, as JSON texts, in stream
order; this is all the measured program sees) and DIR/expect.json (what the
benchmark's own output checks compare against, one entry per request, plus
the stream's metadata).  The same workload and seed give byte-identical
files.

A stream is a fixed number of decks with the same composition: the same
groups, actions and document kinds in the same order, only their labellings
and parameters drawn from the seed.  A run serves the whole stream, so how
fast the host is changes how long a run takes but not what it serves.

This runs in its own process, before anything is timed, so that the library
caches it fills (character tables, sympy root isolation) are not inherited
by the measured process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Stream sizes: actions serves three decks (90 requests), cold-groups the
# pool twice (94 requests).  ACTION_DECKS names the catalogue entry each
# actions deck conjugates: entry 0 holds the heaviest actions (a rank-8
# Q(zeta_15) action takes about 10 s), so it is served once and the lighter
# entry 1 twice, which puts more samples around the median and the tail
# percentile for the same serving time.
ACTION_BASES_PER_GROUP = 2
ACTION_DECKS = (0, 1, 1)
FIELDS_PER_DECK = 2
GROUP_DECKS = 2
CATALOGUE_SEED = "actions/catalogue"

# Conductors m with phi(m) <= 6, by degree phi(m).
PHI_CONDUCTORS = {2: (3, 4), 4: (5, 8, 10, 12), 6: (7, 9, 14, 18)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    rng = random.Random(f"{args.workload}/{args.seed}")
    requests, expect = GENERATORS[args.workload](
        rng, os.path.dirname(os.path.abspath(args.out)))
    meta = {"workload": args.workload, "seed": args.seed}
    os.makedirs(args.out, exist_ok=True)
    # expect.json is written last and by rename: its presence marks a
    # complete stream.
    _write(os.path.join(args.out, "requests.json"),
           [json.dumps(doc, sort_keys=True) for doc in requests])
    _write(os.path.join(args.out, "expect.json"),
           {"meta": meta, "expect": expect})
    return 0


def _write(path, value):
    with open(path + ".tmp", "w") as fh:
        json.dump(value, fh)
    os.replace(path + ".tmp", path)


# -- actions ------------------------------------------------------------------


def actions_catalogue(cache_dir):
    """ACTION_BASES_PER_GROUP seeded random_hodge_fixture actions for each of
    the 28 groups of order < 16, drawn from a fixed seed so that every
    stream replays the same catalogue (and costs the same work), and cached
    in cache_dir because drawing it takes a while."""
    path = os.path.join(cache_dir, "actions-catalogue.json")
    if os.path.isfile(path):
        with open(path) as fh:
            return json.load(fh)
    from rigidtori import fixtures
    from rigidtori.hodge import hodge_character_from_numeric, spec_from_character
    from checks import numeric_hom_dimension
    rng = random.Random(CATALOGUE_SEED)
    catalogue = []
    for group in fixtures.small_groups():
        per_group = []
        for _ in range(ACTION_BASES_PER_GROUP):
            rep, structure = fixtures.random_hodge_fixture(rng, groups=[group])
            matrices = [[list(r) for r in m] for m in rep.matrices]
            j_matrix = structure.j_matrix_float().tolist()
            hom = numeric_hom_dimension(matrices, j_matrix)
            spec = None
            if hom == 0:
                spec = _spec_doc(spec_from_character(
                    hodge_character_from_numeric(rep, j_matrix)))
            per_group.append({"group": _group_doc(rep.group),
                              "gens": rep.generator_indices(),
                              "matrices": matrices, "J": j_matrix,
                              "hom": hom, "spec": spec})
        catalogue.append(per_group)
    os.makedirs(cache_dir, exist_ok=True)
    _write(path, catalogue)
    return catalogue


def actions_stream(rng, cache_dir):
    """The paper's pipeline on the catalogue's actions, and the standalone
    field decision.

    Each deck opens with FIELDS_PER_DECK standalone-field documents, then
    visits the 28 groups in a fixed order; deck d uses catalogue entry
    ACTION_DECKS[d] of each group, conjugated by a fresh random sign change
    of the lattice basis, a different one each time an entry recurs, so
    that documents do not repeat while groups and Hodge types do.  A sign change keeps every entry's size and every zero,
    so it leaves the cost of the exact linear algebra alone; permuting the
    basis as well changed single requests' times by factors of 0.45 to 3.1
    between seeds and moved the median latency with them.  Rigid actions
    of entry 1 are sent with their exact symbolic_spec, everything else
    with the float J_matrix.  Which documents are symbolic is fixed, not
    drawn per stream: a symbolic rank-8 Q(zeta_15) action costs as much as
    a hundred typical requests, and a coin flip on it would make the
    stream's cost depend on the seed.
    """
    catalogue = actions_catalogue(cache_dir)
    fields = field_documents(rng)
    requests, expect = [], []
    used_signs = set()
    for entry in ACTION_DECKS:
        for _ in range(FIELDS_PER_DECK):
            doc, expectation = next(fields)
            requests.append(doc)
            expect.append(expectation)
        for group, per_group in enumerate(catalogue):
            base = per_group[entry]
            while True:  # S and -S conjugate alike: keep signs[0] == 1
                signs = [1] + [rng.choice((-1, 1)) for _ in base["J"][1:]]
                if (group, entry, tuple(signs)) not in used_signs:
                    break
            used_signs.add((group, entry, tuple(signs)))
            mats = [_conjugate(m, signs) for m in base["matrices"]]
            j_matrix = _conjugate(base["J"], signs)
            doc = {"group": base["group"], "rank": len(j_matrix),
                   "generator_elements": base["gens"],
                   "generator_matrices": [mats[g] for g in base["gens"]]}
            rigid = base["hom"] == 0
            if rigid and entry == 1:
                doc["symbolic_spec"] = base["spec"]
            else:
                doc["J_matrix"] = j_matrix
            requests.append(doc)
            expect.append({"kind": "action", "rigid": rigid,
                           "hom_dimension": base["hom"],
                           "element_matrices": mats, "J": j_matrix})
    return requests, expect


def _group_doc(group):
    """Permutation generators when they rebuild this exact table, else the
    Cayley table itself."""
    from rigidtori.groups import FiniteGroup
    perms = getattr(group, "permutations", None)
    if perms:
        for k in (1, 2, 3):
            gens = [list(p) for p in perms[1:1 + k]]
            if FiniteGroup.from_permutations(gens).table == group.table:
                return {"name": group.name, "permutation_generators": gens}
    return {"name": group.name, "cayley_table": [list(r) for r in group.table]}


def _spec_doc(spec):
    return {"multiplicities": [s.multiplicity for s in spec.summands],
            "tau": {str(s.orbit_index): {str(a): v for a, v in s.tau}
                    for s in spec.summands if s.multiplicity > 0}}


def _conjugate(m, signs):
    """S m S for the diagonal sign change S = diag(signs)."""
    return [[si * sj * x for sj, x in zip(signs, row)]
            for si, row in zip(signs, m)]


# -- cold groups --------------------------------------------------------------


def group_pool():
    """The 28 groups of order < 16 and a broader set of larger ones."""
    from rigidtori import fixtures
    from rigidtori.groups import FiniteGroup

    def perms(name, *gens):
        return FiniteGroup.from_permutations(list(gens), name=name)

    def product(a, b, name):
        g = fixtures.direct_product(a, b)
        g.name = name
        return g

    z2 = fixtures.cyclic(2)
    return fixtures.small_groups() + [
        fixtures.symmetric_4(),
        fixtures.cyclic(16), fixtures.abelian([4, 4]), fixtures.abelian([2, 8]),
        fixtures.abelian([2, 2, 4]), fixtures.abelian([2, 2, 2, 2]),
        fixtures.dihedral(8), fixtures.dicyclic(4),
        product(z2, fixtures.dihedral(4), "Z2xD4"),
        product(z2, fixtures.quaternion_8(), "Z2xQ8"),
        perms("F20", (1, 2, 3, 4, 0), (0, 2, 4, 1, 3)),
        perms("F21", (1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)),
        fixtures.cyclic(20), fixtures.cyclic(21), fixtures.cyclic(24),
        fixtures.abelian([2, 2, 6]), fixtures.dihedral(10),
        perms("A5", (1, 2, 3, 4, 0), (1, 2, 0, 3, 4)),
        perms("S5", (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)),
    ]


def cold_groups_stream(rng, cache_dir):
    """run_analyze on every pool group per deck, in the pool's order, each
    time under a fresh labelling so that no group table repeats (except for
    groups of order <= 3, which have a single table).  The expected class
    count is counted here, from the document, not by the library."""
    pool = group_pool()
    seen = set()
    requests, expect = [], []
    for _deck in range(GROUP_DECKS):
        for group in pool:
            for _try in range(20):
                doc, table, classes = _relabelled_doc(rng, group)
                if table not in seen:
                    break
            seen.add(table)
            requests.append(doc)
            expect.append({"kind": "analyze", "order": group.order,
                           "classes": classes})
    return requests, expect


def _relabelled_doc(rng, group):
    """(document, resulting table, class count).  Permutation groups get a
    random generating set under a random relabelling of the points; the
    others a Cayley table under a random relabelling of the non-identity
    elements.  The table of a permutation document is the one the library
    builds from it, since that is what its content-keyed caches would see."""
    from rigidtori.groups import FiniteGroup
    perms = getattr(group, "permutations", None)
    if perms and len(perms) > 1:
        npts = len(perms[0])
        points = list(range(npts))
        rng.shuffle(points)
        inv = [0] * npts
        for i, p in enumerate(points):
            inv[p] = i
        while True:
            gens = [perms[rng.randrange(1, len(perms))]
                    for _ in range(rng.randint(2, 3))]
            gens = [tuple(points[g[inv[x]]] for x in range(npts)) for g in gens]
            elements = _closure(gens)
            if len(elements) == group.order:
                break
        return ({"name": group.name,
                 "permutation_generators": [list(g) for g in gens]},
                FiniteGroup.from_permutations(gens).table,
                _permutation_class_count(elements))
    n = group.order
    label = [0] + rng.sample(range(1, n), n - 1)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[label[a]][label[b]] = label[group.table[a][b]]
    table = tuple(tuple(r) for r in table)
    return ({"name": group.name, "cayley_table": [list(r) for r in table]},
            table, _table_class_count(table))


def _closure(gens):
    """The set of permutations the tuples gens generate."""
    elements = {tuple(range(len(gens[0])))}
    frontier = list(elements)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in elements:
                    elements.add(q)
                    new.append(q)
        frontier = new
    return elements


def _permutation_class_count(elements):
    inverses = []
    for g in elements:
        inverse = [0] * len(g)
        for i, gi in enumerate(g):
            inverse[gi] = i
        inverses.append((g, inverse))
    count, seen = 0, set()
    for x in elements:
        if x not in seen:
            count += 1
            seen.update(tuple(g[x[inverse[i]]] for i in range(len(g)))
                        for g, inverse in inverses)
    return count


def _table_class_count(table):
    """Conjugacy classes of a Cayley table whose identity is element 0."""
    n = len(table)
    inverse = [row.index(0) for row in table]
    count, seen = 0, set()
    for x in range(n):
        if x not in seen:
            count += 1
            seen.update(table[table[g][x]][inverse[g]] for g in range(n))
    return count


# -- standalone fields ----------------------------------------------------------


def field_documents(rng):
    """Endless standalone-field polarize documents from families with known
    answers, the families in a fixed rotation and the cyclotomic ones of
    degree 6, 2, 4 in turn.  Family parameters are drawn without
    replacement, so polynomials do not repeat within a stream (which would
    let sympy's root cache answer).  Yields (document, expectation)."""
    x2 = _deck(rng, range(2, 600))
    cm_quartics = _deck(rng, [(a, b) for a in range(1, 40)
                              for b in range(1, (a * a + 3) // 4)
                              if a * a - 4 * b > 0
                              and not _is_square(a * a - 4 * b)
                              and not _is_square(b)])
    phis = {degree: _deck(rng, ms) for degree, ms in PHI_CONDUCTORS.items()}
    non_cm = _deck(rng, range(1, 400))
    sextics = _deck(rng, [c for c in range(2, 400)
                          if round(c ** (1 / 3)) ** 3 != c])

    def document(coeffs, family, cm):
        roots = _roots_in_library_order(coeffs)
        designated = [2 * k + rng.randrange(2) for k in range(len(roots) // 2)]
        return ({"polynomial": coeffs, "designated_roots": designated},
                {"kind": "field", "family": family, "cm": cm,
                 "roots": [[z.real, z.imag] for z in roots]})

    for rotation in itertools.count():
        degree = (6, 2, 4)[rotation % 3]
        yield document(_cyclotomic_poly(next(phis[degree])), "Phi_m", True)
        yield document([next(sextics), 0, 0, 0, 0, 0, 1], "x^6+c", False)
        yield document([next(x2), 0, 1], "x^2+d", True)
        a, b = next(cm_quartics)
        yield document([b, 0, a, 0, 1], "x^4+ax^2+b", True)
        while True:
            coeffs = [next(non_cm), 1, 0, 0, 1]
            if _irreducible(coeffs):
                break
        yield document(coeffs, "x^4+x+c", False)


def _deck(rng, values):
    """Endless draws without replacement, reshuffling when exhausted."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _is_square(n):
    r = int(n ** 0.5)
    return any((r + d) ** 2 == n for d in (-1, 0, 1))


def _cyclotomic_poly(m):
    from sympy import Poly, cyclotomic_poly, symbols
    x = symbols("x")
    return [int(c) for c in reversed(Poly(cyclotomic_poly(m, x), x).all_coeffs())]


def _irreducible(coeffs):
    from sympy import Poly, factor_list, symbols
    x = symbols("x")
    factors = factor_list(Poly(list(reversed(coeffs)), x))[1]
    return len(factors) == 1 and factors[0][1] == 1


def _roots_in_library_order(coeffs):
    """numpy roots, in the order sympy's root isolation (and so the library)
    indexes them: each numpy root is matched to the one isolating box that
    contains it."""
    import numpy as np
    from sympy import Poly, symbols
    x = symbols("x")
    poly = Poly(list(reversed(coeffs)), x)
    numeric = np.roots([float(c) for c in reversed(coeffs)])
    ordered = []
    for root in poly.all_roots(radicals=False):
        if not hasattr(root, "_get_interval"):  # quadratics come out exact
            value = complex(root)
            inside = [z for z in numeric if abs(z - value) < 1e-9 * abs(value)]
        else:
            box = root._get_interval()
            pad = 1e-9
            inside = [z for z in numeric
                      if float(box.ax) - pad <= z.real <= float(box.bx) + pad
                      and float(box.ay) - pad <= z.imag <= float(box.by) + pad]
        if len(inside) != 1:
            raise RuntimeError(f"cannot match the roots of {coeffs}")
        ordered.append(complex(inside[0]))
    return ordered


GENERATORS = {
    "actions": actions_stream,
    "cold-groups": cold_groups_stream,
}


if __name__ == "__main__":
    sys.exit(main())
