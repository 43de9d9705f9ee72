"""Finite groups as Cayley tables, with conjugacy-class data.

Groups are accepted either as an explicit multiplication table (0-indexed,
element 0 the identity) or as a list of permutation generators, which are
expanded by orbit closure.  Class data includes the structure constants of
the class algebra, the input for the character-table computation, and the
power maps on classes.  A group computes its class data and its generating
set (`generators`) once, on first use, and keeps them.

The classes are the orbits under conjugation by a generating set: the
maps x -> s x s^-1, s in `generators`, generate G acting by conjugation,
so |G| #gens conjugations find every class (conjugating each new
representative by all of G took d |G|, which is |G|^2 for an abelian
group).  A permutation closure counts its classes the same way before its
Cayley table exists: the closure meets every left product g j, and with
the right multiplications that gives x -> g^-1 x g on element indices for
each given generator g; the group keeps those orbits for its class data.
More than `CLASS_CAP` classes is refused (InvalidGroup, exit 1 from the
command line) as soon as the count passes it: for a permutation document
before the |G|^2 table, for a Cayley table before the d x d grid of
structure constants.

The structure constants a_ijk = #{(x, y) in C_i x C_j : xy = g_k} are
counted at the class representatives g_k only: for each k, every x in G
gives the one pair (x, x^-1 g_k), in classes (i, j) read off the membership
table.  That is |G| steps per class, |G| d in all for d classes, and at most
|G| d nonzero constants.  They are stored as sparse rows,
coefficients[i][j] = {k: a_ijk}, row j of the class matrix M_i, which is
the form the character code reads.

A Cayley table is validated completely: rows and columns permute 0..n-1,
0 is the identity, and associativity holds by Light's test (Clifford and
Preston, The Algebraic Theory of Semigroups I, 1.2), (x b) y = x (b y) for
every b in `generators` and all x, y: n^2 #gens lookups.  The b that pass
are closed under the product, and the greedy closure reaches every element
as a product of generators through the table itself, so every triple
associates.  A closure of permutations is associative and is not checked.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import lcm

from .errors import DomainError

__all__ = ["FiniteGroup", "ConjugacyClassData", "InvalidGroup", "CLOSURE_CAP"]

CLOSURE_CAP = 10000
# Work bound of the closure, counted as elements x points: each element is a
# tuple of all points, so a cap on elements alone leaves the work unbounded
# in the degree.  A group at the element cap may act on up to 100 points.
CLOSURE_WORK_CAP = 100 * CLOSURE_CAP
# Class count above which the class data is refused, before its d x d grid
# of structure constants.  Measured on the abelian Z2^k (d = |G|, the worst
# case) on a shared 2-core x86 host, `analyze` in a fresh process takes
# 0.8-0.9 s and 37 MB at d = 256, 3.7-4.8 s and 102 MB at d = 512, and
# 21-28 s and 362 MB at d = 1024 (run with the cap raised); at d = 8192
# (Z2^13) the grid alone is 67 M dicts, about 4.3 GB.  The largest d of the
# tests, demos and benchmark workloads is 64.
CLASS_CAP = 512


class InvalidGroup(DomainError, ValueError):
    """The supplied table or generators do not define a group, or define
    one with more than `CLASS_CAP` classes (`too_many_classes`)."""

    too_many_classes = False


def _permutation_order(perm) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            order = lcm(order, length)
    return order


class FiniteGroup:
    """Group on elements 0..n-1 with 0 the identity."""

    def __init__(self, table, name: str = "G", validate: bool = True):
        # entries are ints already: documents are checked by the schema
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        self._classes = None   # see conjugacy_classes
        self._orbits = None    # the classes, unordered, once counted
        if validate:
            self._validate()
        self.inverse = self._inverses()
        self.element_order = tuple(self._element_order(g) for g in range(self.order))
        self.exponent = lcm(*self.element_order) if self.order else 1

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_permutations(generators, name: str = "G") -> "FiniteGroup":
        """Expand permutation generators (images, 0-indexed) by closure."""
        gens = [tuple(g) for g in generators]
        if not gens:
            gens = [(0,)]
        npts = len(gens[0])
        for g in gens:
            if len(g) != npts or sorted(g) != list(range(npts)):
                raise InvalidGroup(f"not a permutation of {npts} points: {g}")
            # a generator of order above the cap refuses before the closure:
            # the group it generates has at least that many elements
            order = _permutation_order(g)
            if order > CLOSURE_CAP:
                raise InvalidGroup(
                    f"closure exceeds the element cap {CLOSURE_CAP}: a "
                    f"generator has order {order}")
        ident = tuple(range(npts))
        elements = [ident]
        index = {ident: 0}
        parent = [None]   # per element j = g . j', the pair (j', g)
        below = [{} for _ in gens]   # per generator g: g j -> j
        frontier = [0]
        while frontier:
            j = frontier.pop()
            cur = elements[j]
            for gi, g in enumerate(gens):
                prod = tuple(g[cur[i]] for i in range(npts))
                k = index.get(prod)
                if k is None:
                    if len(elements) >= CLOSURE_CAP:
                        raise InvalidGroup("closure exceeds the element cap")
                    if (len(elements) + 1) * npts > CLOSURE_WORK_CAP:
                        raise InvalidGroup(
                            f"closure exceeds the work cap {CLOSURE_WORK_CAP} "
                            f"(elements x points) on {npts} points")
                    k = index[prod] = len(elements)
                    elements.append(prod)
                    parent.append((j, gi))
                    frontier.append(k)
                below[gi][k] = j
        # right multiplication by each generator, on element indices
        right = [[index[tuple(p[g[k]] for k in range(npts))]
                  for p in elements] for g in gens]
        # conjugation x -> g^-1 x g by each generator: the classes, and the
        # class-count refusal, before any |G|^2 object
        orbits = _class_orbits([[r[u[x]] for x in range(len(elements))]
                                for r, u in zip(right, below)])
        # column j = g . j' is column j' read through i -> i g, since
        # i (g j') = (i g) j'; a parent is found before its children
        columns = [list(range(len(elements)))]
        for j_prev, gi in parent[1:]:
            col = columns[j_prev]
            columns.append([col[r] for r in right[gi]])
        table = list(zip(*columns))
        # composition of permutations is associative and the closure holds
        # the identity and inverses, so the table needs no validation
        group = FiniteGroup(table, name=name, validate=False)
        group.permutations = tuple(elements)
        group._orbits = orbits
        return group

    # -- validation -------------------------------------------------------

    def _validate(self):
        n = self.order
        if n == 0:
            raise InvalidGroup("empty table")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise InvalidGroup("table is not square")
            if sorted(row) != list(range(n)):
                raise InvalidGroup(f"row {i} is not a permutation")
        for j in range(n):
            col = [self.table[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                raise InvalidGroup(f"column {j} is not a permutation")
        if any(self.table[0][j] != j for j in range(n)) or any(
                self.table[i][0] != i for i in range(n)):
            raise InvalidGroup("element 0 is not the identity")
        # Light's test; see the module docstring
        table = self.table
        for b in self.generators:
            row_b = table[b]
            for x, row_x in enumerate(table):
                if table[row_x[b]] != tuple([row_x[c] for c in row_b]):
                    raise InvalidGroup(f"associativity fails: (x b) y != "
                                       f"x (b y) at x={x}, b={b}, some y")

    def _inverses(self):
        return tuple(row.index(0) for row in self.table)

    def _element_order(self, g: int) -> int:
        k, cur = 1, g
        while cur != 0:
            cur = self.table[cur][g]
            k += 1
        return k

    # -- basics -------------------------------------------------------------

    def conjugate(self, g: int, h: int) -> int:
        """h g h^-1."""
        return self.table[self.table[h][g]][self.inverse[h]]

    @cached_property
    def generators(self) -> tuple:
        """A small generating set, computed once: the greedy choice of each
        element, in index order, that the subgroup generated by the ones
        chosen before it does not contain.  Each new subgroup is the closure
        of the old one under right multiplication by the chosen elements, so
        a choice costs at most |G| #gens products."""
        gens = []
        closed = {0}
        for x in range(1, self.order):
            if x in closed:
                continue
            gens.append(x)
            frontier = list(closed)
            while frontier:
                a = frontier.pop()
                row = self.table[a]
                for s in gens:
                    c = row[s]
                    if c not in closed:
                        closed.add(c)
                        frontier.append(c)
            if len(closed) == self.order:
                break
        return tuple(gens) or (0,)

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- conjugacy classes ----------------------------------------------

    def conjugacy_classes(self) -> "ConjugacyClassData":
        """The class data, computed on the first call and kept."""
        if self._classes is None:
            self._classes = self._class_data()
        return self._classes

    def _class_data(self) -> "ConjugacyClassData":
        n = self.order
        orbits = self._orbits or _class_orbits(
            [[self.conjugate(x, s) for x in range(n)]
             for s in self.generators])
        # canonical order: size, then element order, then smallest member
        classes = sorted(orbits, key=lambda c: (
            len(c), self.element_order[c[0]], c[0]))
        membership = [0] * n
        for idx, cls in enumerate(classes):
            for x in cls:
                membership[x] = idx
        d = len(classes)
        reps = tuple(cls[0] for cls in classes)
        sizes = tuple(len(cls) for cls in classes)
        # a_ijk: u = x^-1 runs over G, with x in C_i and y = u g_k in C_j;
        # k ascends, so each row lists its classes in order
        inverse_class = [membership[x] for x in self.inverse]
        coeffs = [[{} for _ in range(d)] for _ in range(d)]
        for k, rep in enumerate(reps):
            pairs = Counter(zip(inverse_class,
                                [membership[row[rep]] for row in self.table]))
            for (i, j), a in pairs.items():
                coeffs[i][j][k] = a
        # per class k, the classes of g_k^t for 0 <= t < ord(g_k)
        powers = []
        for g in reps:
            pw, cur = [0], g
            while cur != 0:
                pw.append(membership[cur])
                cur = self.table[cur][g]
            powers.append(tuple(pw))
        return ConjugacyClassData(
            group=self,
            classes=tuple(classes),
            membership=tuple(membership),
            sizes=sizes,
            representatives=reps,
            coefficients=tuple(tuple(m) for m in coeffs),
            power_classes=tuple(powers),
        )


def _class_orbits(conjugations):
    """The conjugacy classes, as sorted tuples of element indices, from the
    maps x -> h x h^-1 of a generating set of h, each a list on the element
    indices: the orbits of the group those maps generate, which is G acting
    by conjugation.  One lookup per element and map.  More than
    `CLASS_CAP` classes is refused (InvalidGroup) as the count passes it."""
    n = len(conjugations[0])
    seen = [False] * n
    orbits = []
    for g in range(n):
        if seen[g]:
            continue
        seen[g] = True
        orbit = [g]
        for x in orbit:   # the orbit grows while it is read
            for c in conjugations:
                y = c[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        orbit.sort()
        orbits.append(tuple(orbit))
        if len(orbits) > CLASS_CAP:
            error = InvalidGroup(
                f"more than {CLASS_CAP} conjugacy classes: the class "
                f"algebra's structure constants are refused")
            error.too_many_classes = True
            raise error
    return orbits


class ConjugacyClassData:
    """Classes in canonical order with class-algebra structure constants.

    coefficients[i][j] is the sparse row {k: a_ijk} (nonzero entries only)
    of the class matrix M_i, (M_i)[j][k] = a_ijk; power_classes[k] lists
    the classes of g_k^t for 0 <= t < ord(g_k)."""

    __slots__ = ("group", "classes", "membership", "sizes",
                 "representatives", "coefficients", "power_classes")

    def __init__(self, group: FiniteGroup, classes: tuple, membership: tuple,
                 sizes: tuple, representatives: tuple, coefficients: tuple,
                 power_classes: tuple):
        self.group = group
        self.classes = classes
        self.membership = membership
        self.sizes = sizes
        self.representatives = representatives
        self.coefficients = coefficients
        self.power_classes = power_classes

    @property
    def count(self) -> int:
        return len(self.classes)

    def inverse_class(self, i: int) -> int:
        g = self.representatives[i]
        return self.membership[self.group.inverse[g]]
