"""The sparse monomial kernels, and the one definition of the monomial format.

A monomial is a tuple of (generator, order) factors, sorted by factor_key:
generator name ascending, then order descending.  A linear combination is
a dict mapping monomials to coefficients.  Coefficients are opaque ring
elements: the kernels only use +, *, unary truthiness, and integer
scaling, so the same code serves the exact scalar field.

Every sum into a linear combination is made by lc_add_scaled (in place,
zero sums dropped, no multiplication by the shared ONE of scalars) but
those of lc_mul and lc_derive, the free route that the product and
derivative tables are checked against: a fault in a shared sum would hide.
"""

from .scalars import ONE

# The one implementation; every report envelope names it.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "factor_key",
    "mono_weight",
    "mono_mul",
    "mono_derive",
    "lc_add_scaled",
    "lc_add",
    "lc_scale",
    "lc_mul",
    "lc_derive",
]


def factor_key(f):
    """Sort key of a (generator, order) factor in the canonical order."""
    return (f[0], -f[1])


def mono_weight(mono):
    """Total weight of a monomial: each (g, m) factor contributes m + 1."""
    w = 0
    for _, m in mono:
        w += m + 1
    return w


def mono_mul(m1, m2):
    """Merge two sorted factor tuples into the sorted product monomial."""
    n1 = len(m1)
    n2 = len(m2)
    if not n1:
        return m2
    if not n2:
        return m1
    out = []
    i = 0
    j = 0
    while i < n1 and j < n2:
        f1 = m1[i]
        f2 = m2[j]
        # factor_key(f1) <= factor_key(f2), inlined: this merge is hot.
        if (f1[0], -f1[1]) <= (f2[0], -f2[1]):
            out.append(f1)
            i += 1
        else:
            out.append(f2)
            j += 1
    if i < n1:
        out.extend(m1[i:])
    if j < n2:
        out.extend(m2[j:])
    return tuple(out)


def mono_derive(mono):
    """Leibniz derivative of one monomial.

    Returns a list of (multiplicity, monomial) pairs, one per distinct
    bumped factor; multiplicities are positive ints.
    """
    n = len(mono)
    seen = {}
    for i in range(n):
        g, m = mono[i]
        bumped = list(mono)
        bumped[i] = (g, m + 1)
        bumped.sort(key=factor_key)
        key = tuple(bumped)
        seen[key] = seen.get(key, 0) + 1
    return list(seen.items())


def lc_add_scaled(out, c, row):
    """out += c * row in place, zero sums dropped; row is not changed.
    With c the shared ONE the row's own values are kept, and a value that
    is ONE gives c itself."""
    for mono, v in row.items():
        t = v if c is ONE else c if v is ONE else c * v
        acc = out.get(mono)
        if acc is None:
            out[mono] = t
        else:
            t = acc + t
            if t:
                out[mono] = t
            else:
                del out[mono]


def lc_add(a, b):
    """Sum of two linear combinations in a new dict, zero terms pruned."""
    out = dict(a)
    lc_add_scaled(out, ONE, b)
    return out


def lc_scale(a, c):
    """Scalar multiple of a linear combination."""
    if not c or not a:
        return {}
    return {mono: c * v for mono, v in a.items()}


def lc_mul(a, b, wmax):
    """Product of two linear combinations, discarding weights above wmax."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    bw = [(mono, mono_weight(mono), c) for mono, c in b.items()]
    out = {}
    for m1, c1 in a.items():
        w1 = mono_weight(m1)
        for m2, w2, c2 in bw:
            if w1 + w2 > wmax:
                continue
            key = mono_mul(m1, m2)
            c = c1 * c2
            acc = out.get(key)
            nc = c if acc is None else acc + c
            if nc:
                out[key] = nc
            elif acc is not None:
                del out[key]
    return out


def lc_derive(a, wmax):
    """Leibniz derivative of a linear combination, truncated at wmax; a
    term of multiplicity one keeps its coefficient object."""
    out = {}
    for mono, c in a.items():
        if mono_weight(mono) + 1 > wmax:
            continue
        for key, mult in mono_derive(mono):
            term = c if mult == 1 else c * mult
            acc = out.get(key)
            nc = term if acc is None else acc + term
            if nc:
                out[key] = nc
            elif acc is not None:
                del out[key]
    return out
