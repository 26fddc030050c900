"""Bisection to the last float: the root-finder spectral.solve_alpha and
solve_delta used before their bracketed Newton, kept as the reference those
roots are pinned to bit for bit."""


def bisect(f, a, b, max_iter=200):
    fa = f(a)
    fb = f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        raise ValueError(f"no sign change on [{a}, {b}]")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b
