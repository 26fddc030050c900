"""Per-term reference for the monomial rules of disktransform.transforms.

Each image term is formed as an ExactScalar in normal form (scaled,
conjugate) and added under its output key at once (_accumulate); the result
goes through DiskPolynomial's checks.  transforms adds unreduced int fields
and reduces each output coefficient once, so the two routes must give the
same coefficients, fields and key order.
"""
from disktransform.diskalg import DiskPolynomial
from disktransform.transforms import TransformKind


def _accumulate(out: dict, key: tuple, val) -> None:
    if key in out:
        out[key] = out[key] + val
    else:
        out[key] = val


def cauchy_integral(phi: DiskPolynomial) -> DiskPolynomial:
    out: dict = {}
    for (m, n), a in phi.items():
        if m - n >= 1:
            _accumulate(out, (m - n - 1, 0), a.scaled(1, n + 1))
        _accumulate(out, (m, n + 1), a.scaled(-1, n + 1))
    return DiskPolynomial(out)


def j0_op(phi: DiskPolynomial) -> DiskPolynomial:
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= n:
            _accumulate(out, (m - n + 1, 0), a.scaled(1, m + 1))
    return DiskPolynomial(out)


def j0_star(phi: DiskPolynomial) -> DiskPolynomial:
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= n + 1:
            _accumulate(out, (m - n - 1, 0), a.scaled(1, m + 1))
    return DiskPolynomial(out)


def cauchy_P(phi: DiskPolynomial) -> DiskPolynomial:
    out: dict = {}
    for (m, n), a in phi.items():
        if m - n >= 1:
            _accumulate(out, (m - n - 1, 0), a.scaled(-1, n + 1))
            _accumulate(out, (m, n + 1), a.scaled(1, n + 1))
        else:
            _accumulate(out, (m, n + 1), a.scaled(1, n + 1))
            _accumulate(out, (1 + n - m, 0), a.conjugate().scaled(-1, n + 1))
    return DiskPolynomial(out)


def beurling_S(phi: DiskPolynomial) -> DiskPolynomial:
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= 1:
            _accumulate(out, (m - 1, n + 1), a.scaled(m, n + 1))
        if m - n > 1:
            _accumulate(out, (m - n - 2, 0), a.scaled(n + 1 - m, n + 1))
    return DiskPolynomial(out)


def bergman_B(phi: DiskPolynomial) -> DiskPolynomial:
    out: dict = {}
    for (p, q), a in phi.items():
        if p >= q:
            _accumulate(out, (p - q, 0), a.scaled(p - q + 1, p + 1))
    return DiskPolynomial(out)


def beurling_H(phi: DiskPolynomial) -> DiskPolynomial:
    out: dict = {}
    for (m, n), a in phi.items():
        if m >= 1:
            _accumulate(out, (m - 1, n + 1), a.scaled(m, n + 1))
        if m - n > 1:
            _accumulate(out, (m - n - 2, 0), a.scaled(n + 1 - m, n + 1))
        elif 1 - m + n > 0:
            _accumulate(out, (n - m, 0), a.conjugate().scaled(m - n - 1, n + 1))
    return DiskPolynomial(out)


def t_hs(phi: DiskPolynomial) -> DiskPolynomial:
    out = dict(cauchy_P(phi).coeffs)
    for (m, n), a in phi.items():
        if m == n + 1:
            corr = (a - a.conjugate()).scaled(1, 2 * m)
            _accumulate(out, (0, 0), corr)
    return DiskPolynomial(out)


RULES = {
    TransformKind.CauchyIntegral: cauchy_integral,
    TransformKind.J0: j0_op,
    TransformKind.J0Star: j0_star,
    TransformKind.CauchyTransformP: cauchy_P,
    TransformKind.BeurlingS: beurling_S,
    TransformKind.BergmanB: bergman_B,
    TransformKind.BeurlingH: beurling_H,
    TransformKind.HengartnerSchoberT: t_hs,
}
