"""Plain-Python permutation algebra on one-line maps, kept as the tests'
independent reference for the numpy commutator kernel `oracle._commutator_counts`.

A one-line map is a sequence m of range(M) with m[i] the image of i, such
as `Permutation.map`.
"""


def compose(a, b):
    """a∘b, i.e. apply b first: result[i] = a[b[i]]."""
    return tuple(a[j] for j in b)


def conjugate(s, t):
    """The conjugate s∘t∘s⁻¹, which sends s[i] to s[t[i]]."""
    out = [0] * len(s)
    for i, ti in enumerate(t):
        out[s[i]] = s[ti]
    return tuple(out)


def orbit_count(mapping):
    """Number of orbits of a bijection given in one-line notation."""
    seen = [False] * len(mapping)
    count = 0
    for start in range(len(mapping)):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = mapping[j]
    return count


def commutator_cycle_count(s, t):
    """C([s,t]), the cycle count of s∘t∘s⁻¹∘t⁻¹, from one list: [s,t]
    sends t[s[i]] to s[t[i]]."""
    comm = [0] * len(s)
    for si, ti in zip(s, t):
        comm[t[si]] = s[ti]
    return orbit_count(comm)
