"""Dense univariate polynomial arithmetic over exact coefficients.

Polynomials are lists of coefficients in *ascending* order, [c0, c1, ...],
with no trailing zeros (the zero polynomial is []).  Coefficients are
Fractions or ints; everything here is exact.  The mod-p^N routines work on
plain int lists reduced into [0, p^N).

Only what the number-field layer needs lives here: ring ops, division,
Sturm sequences for real root isolation, an integer resultant and the
discriminant, multifactor Hensel lifting of a squarefree factorization
mod p, factorization over F_p (distinct-degree, then equal-degree
splitting) and an exact irreducibility test over Q (Zassenhaus: factor
mod a good prime, Hensel-lift past the Mignotte bound, recombine).
"""

from fractions import Fraction
from itertools import combinations, count, islice
from math import comb, gcd, isqrt, lcm


def trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(p) - 1


def add(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p):
    return [-c for c in p]


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p, c):
    if c == 0:
        return []
    return [a * c for a in p]


def divmod_exact(p, q):
    """Euclidean division over a field (Fraction coefficients)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in p]
    d = degree(q)
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(0, len(r) - d)
    while len(r) - 1 >= d and r:
        k = len(r) - 1 - d
        c = r[-1] / lead
        quot[k] = c
        for i in range(d + 1):
            r[k + i] -= c * q[i]
        trim(r)
    return trim(quot), r


def poly_mod(p, q):
    return divmod_exact(p, q)[1]


def evaluate(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def sturm_chain(p):
    """The Sturm sequence of p, each member a positive rational multiple of
    the textbook one, as a primitive integer polynomial: the signs, which
    are all that a root count reads, are the same."""
    chain = [_primitive(p), _primitive(derivative(p))]
    while chain[-1]:
        chain.append(_primitive(neg(_positive_prem(chain[-2], chain[-1]))))
    chain.pop()
    return chain


def _primitive(p):
    """The primitive integer polynomial that is a positive multiple of p."""
    den = lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    g = gcd(*ints)
    return [c // g for c in ints] if g else []


def _positive_prem(p, q):
    """The remainder of |lc(q)|^k p by q in integers, k the number of
    reduction steps: a positive multiple of the remainder of p by q."""
    r, d = list(p), degree(q)
    lead = abs(q[-1])
    sign = 1 if q[-1] > 0 else -1
    while len(r) - 1 >= d:
        k, c = len(r) - 1 - d, sign * r[-1]
        r = [lead * a for a in r]
        for i in range(d + 1):
            r[k + i] -= c * q[i]
        trim(r)
    return r


def _sign_changes(chain, x):
    """Sign changes of the chain at the rational x = n / m, each member
    evaluated as m^deg q(n / m) in integers."""
    x = Fraction(x)
    n, m = x.numerator, x.denominator
    signs = []
    for q in chain:
        v, w = 0, 1
        for c in reversed(q):
            v = v * n + c * w
            w *= m
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo, hi, chain=None):
    """Number of distinct real roots in (lo, hi]; endpoints exact."""
    if chain is None:
        chain = sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def cauchy_bound(p):
    """All roots have absolute value below this (exact Fraction)."""
    lead = abs(Fraction(p[-1]))
    return 1 + max((abs(Fraction(c)) / lead for c in p[:-1]), default=Fraction(0))


def isolate_real_roots(p):
    """Disjoint rational intervals (lo, hi], one per distinct real root.

    p must be squarefree: the last member of its Sturm chain is gcd(p, p'),
    and a repeated root on a bisection point would split intervals forever,
    so a chain that ends in degree > 0 raises ValueError.
    """
    chain = sturm_chain(p)
    if degree(chain[-1]) > 0:
        raise ValueError("polynomial is not squarefree")
    bound = cauchy_bound(p)
    pending = [(-bound, bound)]
    done = []
    while pending:
        lo, hi = pending.pop()
        k = count_real_roots(p, lo, hi, chain)
        if k == 0:
            continue
        if k == 1:
            done.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        pending.append((lo, mid))
        pending.append((mid, hi))
    done.sort()
    return done


def refine_real_root(p, lo, hi, width):
    """Bisect an isolating interval until hi - lo < width."""
    flo = evaluate(p, lo)
    if flo == 0:
        # (lo, hi] convention: root cannot sit at lo, but guard anyway.
        return lo, lo
    neg_at_lo = flo < 0
    while hi - lo >= width:
        mid = (lo + hi) / 2
        fmid = evaluate(p, mid)
        if fmid == 0:
            return mid, mid
        if (fmid < 0) == neg_at_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Integer resultants (Sylvester matrix + fraction-free Bareiss elimination)

def int_resultant(p, q):
    """Resultant of two integer polynomials, exact."""
    p = trim([int(c) for c in p])
    q = trim([int(c) for c in q])
    if not p or not q:
        return 0
    m, n = degree(p), degree(q)
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    mat = [[0] * size for _ in range(size)]
    pr = list(reversed(p))
    qr = list(reversed(q))
    for i in range(n):
        mat[i][i:i + m + 1] = pr
    for i in range(m):
        mat[n + i][i:i + n + 1] = qr
    # Bareiss: exact integer determinant.
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


# ---------------------------------------------------------------------------
# Arithmetic mod p^N and Hensel lifting

def _mod_poly(p, m):
    return trim([c % m for c in p])


def _mul_mod(p, q, m):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = (out[i + j] + a * b) % m
    return trim(out)


def _sub_mod(p, q, m):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] = c
    for i, c in enumerate(q):
        out[i] = (out[i] - c) % m
    for i in range(len(p)):
        out[i] %= m
    return trim(out)


def _divmod_monic_mod(p, q, m):
    """Division by a monic divisor with coefficients mod m."""
    r = [c % m for c in p]
    d = degree(q)
    quot = [0] * max(0, len(r) - d)
    trim(r)
    while r and len(r) - 1 >= d:
        k = len(r) - 1 - d
        c = r[-1] % m
        quot[k] = c
        for i in range(d + 1):
            r[k + i] = (r[k + i] - c * q[i]) % m
        trim(r)
    return trim(quot), r


def rem_mod(p, q, m):
    """The remainder of an integer p by a monic q, coefficients in [0, m)."""
    return _divmod_monic_mod(p, q, m)[1]


def gf_gcdex_poly(f, g, p):
    """Extended gcd over GF(p): returns (s, t, h) with s f + t g = h, h monic."""
    r0, r1 = _mod_poly(f, p), _mod_poly(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        q, r = _divmod_monic_mod(r0, _mul_mod(r1, [inv], p), p)
        q = _mul_mod(q, [inv], p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return (_mul_mod(s0, [inv], p), _mul_mod(t0, [inv], p), _mul_mod(r0, [inv], p))


def _hensel_step(f, g, h, s, t, p, k):
    """Lift f = g*h with s*g + t*h = 1 from mod p^k to mod p^(2k).

    g and h monic, deg s < deg h, deg t < deg g; returns (g*, h*, s*, t*)
    satisfying the same relations mod p^(2k).
    """
    m2 = p ** (2 * k)
    e = _sub_mod(f, _mul_mod(g, h, m2), m2)
    q, r = _divmod_monic_mod(_mul_mod(s, e, m2), h, m2)
    g1 = _mod_poly(add(g, add(_mul_mod(t, e, m2), _mul_mod(q, g, m2))), m2)
    h1 = _mod_poly(add(h, r), m2)
    b = _sub_mod(add(_mul_mod(s, g1, m2), _mul_mod(t, h1, m2)), [1], m2)
    c, d = _divmod_monic_mod(_mul_mod(s, b, m2), h1, m2)
    s1 = _sub_mod(s, d, m2)
    t1 = _sub_mod(t, add(_mul_mod(t, b, m2), _mul_mod(c, g1, m2)), m2)
    return g1, h1, s1, t1


def _lift_pair(f, g, h, p, N):
    """Lift the coprime monic factorization f = g*h mod p up to mod p^N."""
    s, t, one = gf_gcdex_poly(g, h, p)
    if one != [1]:
        raise ValueError("factors not coprime mod p")
    # degree normalization: deg s < deg h, deg t < deg g
    q, s = _divmod_monic_mod(s, h, p)
    t = _mod_poly(add(t, _mul_mod(q, g, p)), p)
    k = 1
    while k < N:
        g, h, s, t = _hensel_step(f, g, h, s, t, p, k)
        k *= 2
    m = p ** N
    return _mod_poly(g, m), _mod_poly(h, m)


def hensel_lift_factors(f, factors, p, N):
    """Lift a squarefree monic factorization of f mod p to mod p^N.

    f: monic integer polynomial; factors: pairwise-coprime monic factors of
    f mod p (ascending coefficient lists).  Returns lifted factors, with
    product congruent to f mod p^N.
    """
    f = _mod_poly(f, p ** N)
    if len(factors) == 1:
        return [_mod_poly(f, p ** N)]
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    g = [1]
    for fac in left:
        g = _mul_mod(g, fac, p)
    h = [1]
    for fac in right:
        h = _mul_mod(h, fac, p)
    gl, hl = _lift_pair(f, g, h, p, N)
    return hensel_lift_factors(gl, left, p, N) + hensel_lift_factors(hl, right, p, N)


# ---------------------------------------------------------------------------
# Factorization over F_p and irreducibility over Q (Cohen, GTM 138, 3.4-3.5)

def _pow_mod(b, e, g, p):
    """b^e mod (g, p) by repeated squaring; g monic of degree >= 1."""
    out = [1]
    b = rem_mod(b, g, p)
    while e:
        if e & 1:
            out = rem_mod(_mul_mod(out, b, p), g, p)
        e >>= 1
        if e:
            b = rem_mod(_mul_mod(b, b, p), g, p)
    return out


def _distinct_degree(f, p):
    """(g, i) pairs: g the product of the degree-i irreducible factors of f.

    f monic and squarefree mod p.
    """
    out = []
    x = [0, 1]
    h = x
    i = 0
    while 2 * (i + 1) <= degree(f):
        i += 1
        h = _pow_mod(h, p, f, p)                     # x^(p^i) mod f
        g = gf_gcdex_poly(f, _sub_mod(h, x, p), p)[2]
        if g != [1]:
            out.append((g, i))
            f = _divmod_monic_mod(f, g, p)[0]
            h = rem_mod(h, f, p)
    if degree(f) > 0:
        out.append((f, degree(f)))
    return out


def _equal_degree(g, i, p):
    """Split g, a product of distinct monic irreducibles of degree i mod p.

    Trial elements a run through the nonconstant polynomials of degree
    < deg g in a fixed order (coefficients = base-p digits of k), so the
    splitting is deterministic; some a separates any two factors.  For odd
    p, gcd(g, a^((p^i - 1)/2) - 1) splits off the factors where a is a
    nonzero square; for p = 2 the trace a + a^2 + ... + a^(2^(i-1)) is 0 or
    1 on each factor and its gcd with g splits off the zeros.
    """
    n = degree(g)
    if n == i:
        return [g]
    for k in range(p, p ** n):
        a = []
        while k:
            k, c = divmod(k, p)
            a.append(c)
        if p == 2:
            t = b = a
            for _ in range(i - 1):
                b = rem_mod(_mul_mod(b, b, p), g, p)
                t = _mod_poly(add(t, b), p)
        else:
            t = _sub_mod(_pow_mod(a, (p ** i - 1) // 2, g, p), [1], p)
        h = gf_gcdex_poly(g, t, p)[2]
        if 0 < degree(h) < n:
            return (_equal_degree(h, i, p)
                    + _equal_degree(_divmod_monic_mod(g, h, p)[0], i, p))
    raise ArithmeticError(f"no split of {g} into degree-{i} factors mod {p}")


def gf_factor(f, p):
    """Monic irreducible factors of a monic f mod p, or None if not squarefree.

    Factors come as ascending coefficient lists in [0, p), sorted by
    (degree, coefficients).
    """
    f = _mod_poly(f, p)
    if not f or f[-1] != 1:
        raise ValueError("gf_factor needs a monic polynomial")
    if degree(f) == 0:
        return []
    if gf_gcdex_poly(f, _mod_poly(derivative(f), p), p)[2] != [1]:
        return None
    factors = [h for g, i in _distinct_degree(f, p) for h in _equal_degree(g, i, p)]
    return sorted(factors, key=lambda h: (len(h), h))


def discriminant(f):
    """Discriminant of a monic integer polynomial: (-1)^(d(d-1)/2) Res(f, f')."""
    d = degree(f)
    return (-1) ** (d * (d - 1) // 2) * int_resultant(f, derivative(f))


_IRREDUCIBILITY_PRIMES = 3


def is_irreducible(f):
    """Whether a monic integer polynomial is irreducible over Q, exactly.

    A zero discriminant means a repeated factor.  Otherwise f is factored
    mod the first few primes not dividing the discriminant (f stays
    squarefree there); one factor proves irreducibility.  Else the
    factorization with the fewest factors is Hensel-lifted mod p^N past
    twice the Mignotte bound C(k, k // 2) ||f||_2, k = d // 2, on the
    coefficients of any monic factor of degree <= k.  A reducible f has
    such a factor, congruent mod p^N to the product of some subset of the
    lifted factors, so testing every subset (of any size) with degree
    sum <= k by exact division decides.
    """
    f = trim([int(c) for c in f])
    d = degree(f)
    if d < 2:
        return d == 1
    disc = discriminant(f)
    if disc == 0:
        return False
    good = (p for p in count(2)
            if disc % p and all(p % q for q in range(2, isqrt(p) + 1)))
    best = None
    for p in islice(good, _IRREDUCIBILITY_PRIMES):
        factors = gf_factor(f, p)
        if len(factors) == 1:
            return True
        if best is None or len(factors) < len(best[1]):
            best = (p, factors)
    p, factors = best
    half = d // 2
    bound = 2 * comb(half, half // 2) * (isqrt(sum(c * c for c in f)) + 1)
    N = 1
    while p ** N <= bound:
        N += 1
    m = p ** N
    lifted = hensel_lift_factors(f, factors, p, N)
    for size in range(1, len(lifted)):
        for subset in combinations(lifted, size):
            if sum(degree(h) for h in subset) > half:
                continue
            g = [1]
            for h in subset:
                g = _mul_mod(g, h, m)
            g = [c - m if 2 * c > m else c for c in g]
            if not divmod_exact(f, g)[1]:
                return False
    return True
