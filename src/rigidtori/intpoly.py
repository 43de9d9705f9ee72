"""Exact integer-polynomial algorithms behind standalone fields Q[t]/f.

`polyfields` imports this module when it builds its first field, so
`import rigidtori` does not load it.  Polynomials are coefficient lists,
low degree first, with no zero on top, on the `polyfields` kernel.

Factoring over Z is Zassenhaus's (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 14-16).  A squarefree monic F is split modulo a few
small primes by distinct-degree factorization.  The degree patterns give,
for each prime, the set of subset sums of the local degrees; the degree of
any factor of F over Z lies in all of them.  The local factors modulo the
prime with the fewest are separated by equal-degree (Cantor-Zassenhaus)
factorization, lifted by quadratic Hensel lifting past the Landau-Mignotte
bound, and recombined by trial division.  Only factors up to a given degree
are searched, and the lifting bound is the one for that degree, so a factor
beyond it is left in a cofactor without any recombination.

Real roots are counted by Sturm sequences with exact rational evaluation.

theta = alpha + conj(alpha) is a root of P(u) = prod_{i<j} (u - a_i - a_j)
over the roots a_i of f: Res_t(f(u - t), f(t)) = +-2^n f(u/2) P(u)^2, and
f(u/2) has no real root.  P follows exactly from the power sums of the a_i
by Newton's identities.

`root_order` reproduces the root order of sympy's complex root isolation
(`dup_isolate_complex_roots_sqf` after `preprocess_roots`) from certified
root discs, by simulating its bisection with exact decisions only.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

from .polyfields import _add, _divmod, _gcd, _mul, _trim

__all__ = ["factors_up_to", "is_irreducible", "pair_sum_polynomial",
           "real_root_count", "root_order", "squarefree_part"]

# Good primes (F stays squarefree modulo p) whose degree patterns are read.
_PATTERN_PRIMES = 5


def _derivative(a):
    return _trim([k * c for k, c in enumerate(a)][1:])


def _value(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


# -- polynomials modulo m -------------------------------------------------------


def _mod(a, m):
    return _trim([c % m for c in a])


def _pdivmod(a, b, m):
    """(q, r) with a = q b + r modulo m and deg r < deg b, for b whose
    leading coefficient is invertible modulo m."""
    r = _mod(a, m)
    q = [0] * max(len(r) - len(b) + 1, 0)
    inv = pow(b[-1], -1, m)
    low = b[:-1]
    while len(r) >= len(b):
        off = len(r) - len(b)
        c = q[off] = r.pop() * inv % m
        if c:
            for i, y in enumerate(low):
                r[off + i] = (r[off + i] - c * y) % m
        _trim(r)
    return q, r


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _pgcd(a, b, p):
    """The monic gcd of a and b modulo the prime p."""
    a, b = _mod(a, p), _mod(b, p)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _monic(a, p) if a else a


def _ppow(a, e, f, p):
    """a^e modulo f and p."""
    result, base = [1], _pdivmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_mul(result, base), f, p)[1]
        e >>= 1
        if e:
            base = _pdivmod(_mul(base, base), f, p)[1]
    return result


def _distinct_degree(f, p):
    """[(d, g)]: g the product of the monic irreducible factors of degree d
    of f modulo p, for a monic f squarefree modulo p."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppow(h, p, f, p)
        g = _pgcd(f, _add(h, [0, -1]), p)
        if len(g) > 1:
            out.append((d, g))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(f, d, p, rng):
    """The monic irreducible factors modulo the odd prime p of f, a product
    of distinct ones of degree d (Cantor-Zassenhaus)."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _pgcd(a, f, p)
        if len(g) == 1:
            g = _pgcd(_add(_ppow(a, (p ** d - 1) // 2, f, p), [1], -1), f, p)
        if 1 < len(g) < len(f):
            return (_equal_degree(g, d, p, rng)
                    + _equal_degree(_pdivmod(f, g, p)[0], d, p, rng))


def _bezout(g, h, p):
    """(s, t) with s g + t h = 1 modulo p, deg s < deg h and deg t < deg g,
    for g and h coprime modulo p."""
    r0, r1 = _mod(g, p), _mod(h, p)
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_add(s0, _mul(q, s1), -1), p)
        t0, t1 = t1, _mod(_add(t0, _mul(q, t1), -1), p)
    inv = pow(r0[0], -1, p)
    return _mod([c * inv for c in s0], p), _mod([c * inv for c in t0], p)


def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 modulo m, with g and h monic, the
    same modulo m^2 (Modern Computer Algebra, Algorithm 15.10)."""
    m2 = m * m
    e = _mod(_add(f, _mul(g, h), -1), m2)
    q, r = _pdivmod(_mul(s, e), h, m2)
    g = _mod(_add(_add(g, _mul(t, e)), _mul(q, g)), m2)
    h = _mod(_add(h, r), m2)
    b = _mod(_add(_add(_mul(s, g), _mul(t, h)), [1], -1), m2)
    c, d = _pdivmod(_mul(s, b), h, m2)
    s = _mod(_add(s, d, -1), m2)
    t = _mod(_add(_add(t, _mul(t, b), -1), _mul(c, g), -1), m2)
    return g, h, s, t


def _hensel_lift(f, local, p, steps):
    """The monic local factors of f modulo p, lifted to factors of f modulo
    p^(2^steps), by a balanced tree of two-factor lifts."""
    if len(local) == 1:
        return [_mod(f, p ** (2 ** steps))]
    half = len(local) // 2
    g, h = ([1], [1])
    for u in local[:half]:
        g = _mod(_mul(g, u), p)
    for u in local[half:]:
        h = _mod(_mul(h, u), p)
    s, t = _bezout(g, h, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_hensel_lift(g, local[:half], p, steps)
            + _hensel_lift(h, local[half:], p, steps))


# -- factoring over Z ---------------------------------------------------------


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _local_factorizations(F):
    """Distinct-degree factorizations of F modulo the first _PATTERN_PRIMES
    odd primes that keep it squarefree, and the degree set: bit d is set
    when a factor of F over Z may have degree d.  Stops early once the
    degree set proves F irreducible."""
    n = len(F) - 1
    dF = _derivative(F)
    found, degrees = [], (1 << (n + 1)) - 1
    for p in _odd_primes():
        if len(_pgcd(F, dF, p)) != 1:
            continue
        ddf = _distinct_degree(_mod(F, p), p)
        sums = 1
        for d, g in ddf:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        degrees &= sums
        found.append((p, ddf))
        irreducible = not degrees & ((1 << n) - 2)
        if irreducible or len(found) == _PATTERN_PRIMES:
            return found, degrees


def _symmetric(a, m):
    return [c - m if 2 * c > m else c for c in a]


def factors_up_to(F, max_degree):
    """(factors, rest, rest_degrees) for a monic squarefree F over Z:
    `factors` are the irreducible factors of F of degree at most
    max_degree, `rest` is the product of the others ([1] when there are
    none), and `rest_degrees` lists the degrees an irreducible factor of
    `rest` may have by the degree patterns."""
    n = len(F) - 1
    found, degrees = _local_factorizations(F)

    def admissible(d, total):
        return (degrees >> d) & 1 and (degrees >> (total - d)) & 1

    if n <= 1 or not degrees & ((1 << n) - 2):
        factors, rest = ([F], [1]) if n <= max_degree else ([], F)
    elif not any(admissible(d, n)
                 for d in range(1, min(max_degree, n - 1) + 1)):
        factors, rest = [], F
    else:
        p, ddf = min(found, key=lambda item: sum(
            (len(g) - 1) // d for d, g in item[1]))
        rng = random.Random(p)
        local = [u for d, g in ddf for u in _equal_degree(g, d, p, rng)]
        # Landau-Mignotte: a factor of degree d has coefficients at most
        # C(d, d/2) |F|_2
        d = min(max_degree, n)
        bound = comb(d, d // 2) * (isqrt(sum(c * c for c in F)) + 1)
        steps = 0
        while p ** (2 ** steps) <= 2 * bound:
            steps += 1
        lifted = _hensel_lift(F, local, p, steps)
        factors, rest = _recombine(F, lifted, p ** (2 ** steps), max_degree,
                                   admissible)
    total = len(rest) - 1
    rest_degrees = tuple(
        d for d in range(max_degree + 1, total + 1)
        if admissible(d, total)
        and (d == total or total - d > max_degree))
    return factors, rest, rest_degrees


def _recombine(F, local, m, max_degree, admissible):
    """Zassenhaus recombination: products of subsets of the monic local
    factors modulo m, smallest subsets first, tried as divisors of F over Z;
    a divisor found first is irreducible.  Subsets whose degree exceeds
    max_degree are not tried.  Once every proper factor of what is left has
    degree at most max_degree, half of the local factors suffice, as a
    factorization has a part with at most half of them."""
    factors, rest, size = [], F, 1
    while True:
        total = len(rest) - 1
        every_factor_bounded = total - 1 <= max_degree
        degrees = sorted(len(u) - 1 for u in local)
        if (every_factor_bounded and 2 * size > len(local)
                or size >= len(local)
                or sum(degrees[:size]) > max_degree):
            break
        for subset in itertools.combinations(range(len(local)), size):
            d = sum(len(local[i]) - 1 for i in subset)
            if d > max_degree or not admissible(d, total):
                continue
            g = [1]
            for i in subset:
                g = _mod(_mul(g, local[i]), m)
            g = _symmetric(g, m)
            q, r = _divmod(rest, g)
            if r:
                continue
            factors.append(g)
            rest = [int(c) for c in q]
            local = [u for i, u in enumerate(local) if i not in subset]
            break
        else:
            size += 1
    if len(rest) > 1 and len(rest) - 1 <= max_degree:
        factors.append(rest)
        rest = [1]
    return factors, rest


def is_irreducible(f):
    """Whether the monic integer polynomial f is irreducible over Q."""
    n = len(f) - 1
    if n < 1 or len(_gcd(f, _derivative(f))) > 1:
        return False
    factors, _, _ = factors_up_to(f, n // 2)
    return not factors


def _int_gcd(a, b):
    """The monic gcd of a monic integer polynomial a and an integer
    polynomial b: the integer gcd of their values at a large integer x,
    read in base x, whose primitive part is the gcd when it divides both
    (the heuristic GCDHEU); Euclid over Q when that fails."""
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        h = gcd(_value(a, x), _value(b, x))
        digits = []
        while h:
            d = h % x
            if 2 * d > x:
                d -= x
            digits.append(d)
            h = (h - d) // x
        content = gcd(*digits)
        digits = [d // content for d in digits]
        if (digits[-1] == 1 and not _divmod(a, digits)[1]
                and not _divmod(b, digits)[1]):
            return digits
        x = x * 73794 // 27011
    return [int(c) for c in _gcd(a, b)]


def squarefree_part(a):
    """The monic integer polynomial with the distinct roots of the monic
    integer polynomial a."""
    q, _ = _divmod(a, _int_gcd(a, _derivative(a)))
    return [int(c) for c in q]


def pair_sum_polynomial(f):
    """P(u) = prod_{i<j} (u - a_i - a_j) over the roots a_i of the monic
    integer polynomial f, from the power sums of the roots."""
    n = len(f) - 1
    top = comb(n, 2)
    # power sums p_k of the a_i (Newton's identities for f)
    p = [n]
    for k in range(1, top + 1):
        s = -sum(f[n - i] * p[k - i] for i in range(1, min(k, n + 1)))
        if k <= n:
            s -= k * f[n - k]
        p.append(s)
    # power sums of the a_i + a_j, i < j
    sums = [None] + [
        (sum(comb(k, j) * p[j] * p[k - j] for j in range(k + 1))
         - 2 ** k * p[k]) // 2 for k in range(1, top + 1)]
    # elementary symmetric functions e_k of the pair sums, by Newton
    e = [1]
    for k in range(1, top + 1):
        e.append(sum((-1) ** (j - 1) * e[k - j] * sums[j]
                     for j in range(1, k + 1)) // k)
    return [(-1) ** (top - k) * e[top - k] for k in range(top + 1)]


# -- Sturm counts ---------------------------------------------------------------


def _positive_primitive(a):
    """a times a positive rational, with coprime integer coefficients."""
    den = lcm(*(Fraction(c).denominator for c in a))
    ints = [int(c * den) for c in a]
    g = gcd(*ints)
    return [c // g for c in ints]


def _sturm_sequence(a):
    seq = [_positive_primitive(a)]
    r = _derivative(seq[0])
    while r:
        seq.append(_positive_primitive(r))
        r = [-c for c in _divmod(seq[-2], seq[-1])[1]]
    return seq


def _sign_at(a, x):
    """The sign of a(x), for integer a and rational x."""
    x = Fraction(x)
    num, den, n = x.numerator, x.denominator, len(a) - 1
    v = sum(c * num ** k * den ** (n - k) for k, c in enumerate(a))
    return (v > 0) - (v < 0)


def _variations(seq, x):
    signs = [s for s in (_sign_at(a, x) for a in seq) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def real_root_count(a):
    """The number of distinct real roots of a nonzero rational polynomial."""
    if len(a) < 2:
        return 0
    seq = _sturm_sequence(a)
    # every root lies strictly inside Cauchy's bound
    bound = 1 + max(abs(Fraction(c)) for c in seq[0]) / abs(seq[0][-1])
    return _variations(seq, -bound) - _variations(seq, bound)


def _has_root_in(a, lo, hi):
    """Whether the rational polynomial a (not constant) has a root in the
    closed interval [lo, hi]."""
    seq = _sturm_sequence(a)
    if not _sign_at(seq[0], lo) or not _sign_at(seq[0], hi):
        return True
    return _variations(seq, lo) > _variations(seq, hi)


# -- sympy's root order ---------------------------------------------------------


def _isolation_scale(f):
    """The c > 0 by which sympy's `preprocess_roots` rescales the monic
    integer f to g(y) = f(c y)/c^n before isolating g's roots: for the
    nonzero coefficients c_k below the top, the largest integer c with
    c^(n-k) | c_k for all of them (sympy's `_integer_basis`), tried only
    when the lowest one exceeds 1 in size; 1 when there is none.

    The largest such c is found without factoring the coefficients, on a
    coprime base of them and of the primes below 2^16 that divide their gcd
    (factor refinement), each element reduced to its largest perfect-power
    root.  That is exact unless some base element is a product of distinct
    primes above 2^16 to different powers, which needs two such primes
    shared by every coefficient."""
    n = len(f) - 1
    terms = [(n - k, abs(c)) for k, c in enumerate(f[:-1]) if c]
    if not terms or terms[0][1] <= 1:
        return 1
    if len(terms) == 1:
        m, c = terms[0]
        r = _iroot(c, m)
        return r if r ** m == c else 1
    rest, small = gcd(*(c for _, c in terms)), []
    for q in itertools.chain((2,), range(3, 1 << 16, 2)):
        if q * q > rest:
            break
        if rest % q == 0:
            small.append(q)
            while rest % q == 0:
                rest //= q
    scale = 1
    for q in _coprime_base([c for _, c in terms] + small):
        q = _perfect_root(q)
        scale *= q ** min(_valuation(c, q) // m for m, c in terms)
    return scale


def _iroot(c, m):
    """floor(c^(1/m)) for c >= 0, by Newton's method from above."""
    if c < 2:
        return c
    r = 1 << -(-c.bit_length() // m)
    while True:
        s = ((m - 1) * r + c // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _valuation(c, q):
    v = 0
    while c and c % q == 0:
        c //= q
        v += 1
    return v


def _coprime_base(numbers):
    """Pairwise coprime integers > 1, each of `numbers` a product of powers
    of them (factor refinement)."""
    base = set(x for x in numbers if x > 1)
    while True:
        for a, b in itertools.combinations(sorted(base), 2):
            g = gcd(a, b)
            if g > 1:
                base = (base - {a, b}) | {x for x in (g, a // g, b // g)
                                          if x > 1}
                break
        else:
            return sorted(base)


def _perfect_root(q):
    """The smallest r with q = r^j for some j >= 1."""
    for j in range(q.bit_length(), 1, -1):
        r = _iroot(q, j)
        if r > 1 and r ** j == q:
            return _perfect_root(r)
    return q


def _line_gcd(f, axis, value):
    """The monic gcd of the real and imaginary parts of f along a line, as
    polynomials in the real parameter s: f(value + i s) for axis 0 (the line
    Re z = value), f(s + i value) for axis 1 (the line Im z = value).  Its
    real roots are the parameters of the roots of f on the line."""
    x, y = ([value], [0, 1]) if axis == 0 else ([0, 1], [value])
    re = im = []
    for c in reversed(f):
        # (re + i im) (x + i y) + c, by Horner
        re, im = (_add(_add(_mul(re, x), _mul(im, y), -1), [c]),
                  _add(_mul(re, y), _mul(im, x)))
    return _gcd(re, im)


def root_order(f, centres, eps, refine):
    """The roots of the monic integer f, which has no real root, in the
    order of sympy's `dup_isolate_complex_roots_sqf` after
    `preprocess_roots`, as a list of indices into `centres`: the centres of
    disjoint certified discs of radius eps, each holding one root.
    refine(centres, eps) returns finer discs, indexed alike.

    sympy isolates the roots of g(y) = f(c y)/c^n in the upper half plane,
    starting from [-B, B] x [0, B], B = 2 max |g_k|.  It bisects a
    rectangle vertically when it is wider than high and horizontally
    otherwise, until each holds one root.  A root on a vertical line goes
    to the right half, one on a horizontal line to the lower half.  The
    rectangles are sorted by their lower-left corners, and each root is
    preceded by its conjugate.  Scaling by c > 0 keeps all of this, so the
    bisection runs on f's roots with B times c.

    A disc on one side of a line decides that root's side.  A disc that
    meets the line is tested exactly: the root is on the line when the
    line's gcd (`_line_gcd`) has a real root over the disc's box, which
    holds no other root; otherwise the discs are refined."""
    n = len(f) - 1
    scale = _isolation_scale(f)
    bound = 2 * scale * max(Fraction(abs(c), scale ** (n - k))
                            for k, c in enumerate(f))
    discs = [list(centres), eps]
    lines = {}

    def side(k, axis, value):
        """-1 below the line, 1 above, 0 on it."""
        while True:
            centre, e = discs[0][k], discs[1]
            if centre[axis] + e < value:
                return -1
            if centre[axis] - e > value:
                return 1
            if (axis, value) not in lines:
                lines[axis, value] = _line_gcd(f, axis, value)
            h = lines[axis, value]
            if len(h) > 1 and _has_root_in(h, centre[1 - axis] - e,
                                           centre[1 - axis] + e):
                return 0
            discs[:] = refine(*discs)

    upper = [k for k in range(len(centres)) if side(k, 1, 0) > 0]
    finals = []
    stack = [((-bound, Fraction(0), bound, bound), upper)]
    while stack:
        (u, v, s, t), inside = stack.pop()
        if s - u > t - v:
            x = (u + s) / 2
            right = [k for k in inside if side(k, 0, x) >= 0]
            halves = (((u, v, x, t), [k for k in inside if k not in right]),
                      ((x, v, s, t), right))
        else:
            y = (v + t) / 2
            top = [k for k in inside if side(k, 1, y) > 0]
            halves = (((u, v, s, y), [k for k in inside if k not in top]),
                      ((u, y, s, t), top))
        for rect, held in halves:
            if len(held) == 1:
                finals.append((rect[0], rect[1], held[0]))
            elif held:
                stack.append((rect, held))
    finals.sort()
    centres, e = discs
    order = []
    for _, _, k in finals:
        re, im = centres[k]
        conj = [j for j, (a, b) in enumerate(centres)
                if (a - re) ** 2 + (b + im) ** 2 <= 4 * e * e]
        order += [conj[0], k]
    return order
