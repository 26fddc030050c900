"""Operator-norm estimation on truncated monomial bases.

The conjugating transforms are only real-linear, so a complex coefficient
a = x + iy is split into (x, y) and an operator becomes a real matrix acting
on stacked (Re, Im) coordinates.  Because every transform here sends a
monomial to T1-part plus T2-part-of-the-conjugate with real rational monomial
matrices, the realified matrix is block diagonal: (T1 + T2) on the real
block, (T1 - T2) on the imaginary block.

Norms take one of two routes.

P (estimate_P_norm) is solved in the orthonormal disk-polynomial basis:
each angular sector's radial factors are Jacobi polynomials in |z|^2, so
P's matrix between orthonormal bases is assembled directly in float64 by
Gauss-Legendre quadrature, block by coupled sector pair, with no Gram
matrix at all.

Every other kind goes through assemble and operator_norm on the monomial
basis, which is far from orthogonal (its Gram matrix is Hilbert-like,
condition number around 1e30 at total degree 40), so floating whitening is
hopeless.  Norms are instead computed from the exact rational payload:
split into decoupled blocks by the exact zero pattern, whiten each block with
an exact rational LDL factorization (no square roots until the final
diagonal scaling), convert the whitened block to float, and take its largest
singular value.  Entries of the whitened block are bounded by the operator
norm, so the float conversion is benign.  For P this exact route is the
independent reference the float route is tested against.

Root-finders for the two transcendental norm equations and the exact
weighted Hardy-type ratio checks live here as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .diskalg import DiskPolynomial, ExactScalar, norm_sq
from .specfun import _gl_nodes, bessel_j, bessel_zero
from .transforms import TransformKind, apply_transform, cauchy_P

__all__ = [
    "TruncationSpec",
    "RealLinearOperatorMatrix",
    "NormEstimate",
    "assemble",
    "operator_norm",
    "estimate_P_norm",
    "solve_alpha",
    "solve_delta",
    "restricted_Z",
    "hardy_ratio",
    "extremal_phi0_ratio",
]


@dataclass(frozen=True)
class TruncationSpec:
    max_total_degree: int
    d_set: Optional[frozenset] = None

    def __post_init__(self):
        if self.max_total_degree < 0:
            raise ValueError("max_total_degree must be >= 0")
        if self.d_set is not None:
            object.__setattr__(self, "d_set", frozenset(self.d_set))


def _basis_monomials(trunc: TruncationSpec) -> list:
    out = []
    for t in range(trunc.max_total_degree + 1):
        for m in range(t + 1):
            n = t - m
            if trunc.d_set is None or (m - n) in trunc.d_set:
                out.append((m, n))
    return out


@dataclass(frozen=True)
class _ExactPayload:
    """Rational data behind the float matrices: per-column sparse maps
    output-index -> Fraction for the (T1 + T2) and (T1 - T2) blocks."""
    plus_cols: tuple
    minus_cols: tuple


@dataclass(frozen=True)
class RealLinearOperatorMatrix:
    basis: tuple            # input monomials (m, n)
    basis_out: tuple        # output monomials (m, n)
    A: np.ndarray           # 2M x 2N on stacked (Re, Im) coordinates
    gram_in: np.ndarray     # 2N x 2N
    gram_out: np.ndarray    # 2M x 2M
    exact: Optional[_ExactPayload] = field(default=None, repr=False)

    def __post_init__(self):
        n2 = 2 * len(self.basis)
        m2 = 2 * len(self.basis_out)
        if self.A.shape != (m2, n2):
            raise ValueError("A dimensions inconsistent with bases")
        if self.gram_in.shape != (n2, n2) or self.gram_out.shape != (m2, m2):
            raise ValueError("Gram dimensions inconsistent with bases")
        for g in (self.gram_in, self.gram_out):
            if g.size and not np.array_equal(g, g.T):
                raise ValueError("Gram matrix not symmetric")
            if g.size and np.any(np.diag(g) <= 0):
                raise ValueError("Gram matrix not positive definite")


@dataclass(frozen=True)
class NormEstimate:
    value: float
    truncation: TruncationSpec
    residual: float
    iterations: int
    degenerate: bool = False  # top singular value numerically multiple

    def __post_init__(self):
        if self.value < 0 or self.residual < 0:
            raise ValueError("value and residual must be >= 0")


def _mono_gram(mons) -> list:
    """Exact Gram matrix of a monomial list: <z^m zbar^n, z^p zbar^q> is
    1/(m+q+1) when m+q = n+p and 0 otherwise."""
    k = len(mons)
    G = [[Fraction(0)] * k for _ in range(k)]
    for i, (mi, ni) in enumerate(mons):
        for j, (mj, nj) in enumerate(mons):
            if mi + nj == ni + mj:
                G[i][j] = Fraction(1, mi + nj + 1)
    return G


def assemble(kind: TransformKind, trunc: TruncationSpec) -> RealLinearOperatorMatrix:
    """Matrix of a transform on the truncated basis, realified.

    Columns come from applying the transform to basis monomials with
    coefficients 1 and i; the linear part is (T(e) - i T(ie))/2 and the
    conjugating part (T(e) + i T(ie))/2, both real rational for every
    operator here (asserted).  All entries are exact, then converted.
    """
    basis = _basis_monomials(trunc)
    if not basis:
        raise ValueError("truncation admits no basis monomials")
    out_index: dict = {}
    lin_cols = []
    anti_cols = []
    for (m, n) in basis:
        u = apply_transform(kind, DiskPolynomial({(m, n): ExactScalar(1)}))
        v = apply_transform(kind, DiskPolynomial({(m, n): ExactScalar(0, 1)}))
        lin: dict = {}
        anti: dict = {}
        for key in sorted(set(u.coeffs) | set(v.coeffs)):
            a = u.coeffs.get(key, ExactScalar(0))
            b = v.coeffs.get(key, ExactScalar(0))
            lr = (a.re + b.im) / 2   # (a - i b) / 2
            li = (a.im - b.re) / 2
            ar = (a.re - b.im) / 2   # (a + i b) / 2
            ai = (a.im + b.re) / 2
            if li or ai:
                raise AssertionError("transform parts are not real rational")
            if key not in out_index:
                out_index[key] = len(out_index)
            if lr:
                lin[out_index[key]] = lr
            if ar:
                anti[out_index[key]] = ar
        lin_cols.append(lin)
        anti_cols.append(anti)
    basis_out = [None] * len(out_index)
    for key, i in out_index.items():
        basis_out[i] = key

    N, M = len(basis), len(basis_out)
    plus_cols = []
    minus_cols = []
    for lin, anti in zip(lin_cols, anti_cols):
        plus: dict = {}
        minus: dict = {}
        for o in set(lin) | set(anti):
            l = lin.get(o, Fraction(0))
            t = anti.get(o, Fraction(0))
            if l + t:
                plus[o] = l + t
            if l - t:
                minus[o] = l - t
        plus_cols.append(plus)
        minus_cols.append(minus)

    A = np.zeros((2 * M, 2 * N))
    for j in range(N):
        for o, val in plus_cols[j].items():
            A[o, j] = float(val)
        for o, val in minus_cols[j].items():
            A[M + o, N + j] = float(val)

    def realified_gram(mons):
        k = len(mons)
        G = np.zeros((2 * k, 2 * k))
        for i, row in enumerate(_mono_gram(mons)):
            for j, val in enumerate(row):
                if val:
                    G[i, j] = float(val)
                    G[k + i, k + j] = float(val)
        return G

    return RealLinearOperatorMatrix(
        basis=tuple(basis),
        basis_out=tuple(basis_out),
        A=A,
        gram_in=realified_gram(basis),
        gram_out=realified_gram(basis_out),
        exact=_ExactPayload(tuple(plus_cols), tuple(minus_cols)),
    )


def _ldl_exact(G):
    """G = L D L^T for a rational symmetric positive definite matrix;
    raises on a nonpositive pivot."""
    k = len(G)
    L = [[Fraction(0)] * k for _ in range(k)]
    D = [Fraction(0)] * k
    for j in range(k):
        s = G[j][j] - sum(L[j][r] * L[j][r] * D[r] for r in range(j))
        if s <= 0:
            raise ValueError("Gram matrix is not positive definite")
        D[j] = s
        L[j][j] = Fraction(1)
        for i in range(j + 1, k):
            t = G[i][j] - sum(L[i][r] * L[j][r] * D[r] for r in range(j))
            L[i][j] = t / s
    return L, D


def _whitened_block(in_mons, out_mons, cols):
    """Float matrix of the block in whitened coordinates.

    With Gram factorizations G_in = Li Di Li^T and G_out = Lo Do Lo^T, the
    generalized singular values of W are the singular values of
    Do^{1/2} (Lo^T W Li^{-T}) Di^{-1/2}.  The inner product Lo^T W Li^{-T}
    is done entirely in rationals; only the final diagonal scaling uses
    float square roots.
    """
    M, N = len(out_mons), len(in_mons)
    W = [[Fraction(0)] * N for _ in range(M)]
    for j, col in enumerate(cols):
        for o, val in col.items():
            W[o][j] = val
    Li, Di = _ldl_exact(_mono_gram(in_mons))
    Lo, Do = _ldl_exact(_mono_gram(out_mons))
    K = [[sum(Lo[r][i] * W[r][j] for r in range(i, M)) for j in range(N)]
         for i in range(M)]
    X = [[Fraction(0)] * N for _ in range(M)]
    for j in range(N):
        for i in range(M):
            X[i][j] = K[i][j] - sum(X[i][r] * Li[j][r] for r in range(j))
    B = np.zeros((M, N))
    so = [math.sqrt(float(x)) for x in Do]
    si = [math.sqrt(float(x)) for x in Di]
    for i in range(M):
        for j in range(N):
            if X[i][j]:
                B[i, j] = so[i] * float(X[i][j]) / si[j]
    return B


def _components(n_in, n_out, basis, basis_out, payloads):
    """Union-find blocks of the coupled problem.  Inputs sharing an angular
    degree d = m - n couple through the Gram matrix; an input couples to
    every output its column touches in either sign block; outputs couple
    through the output Gram the same way."""
    parent = list(range(n_in + n_out))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    by_d: dict = {}
    for i, (m, n) in enumerate(basis):
        by_d.setdefault(m - n, []).append(i)
    for idxs in by_d.values():
        for i in idxs[1:]:
            union(idxs[0], i)
    by_d_out: dict = {}
    for i, (m, n) in enumerate(basis_out):
        by_d_out.setdefault(m - n, []).append(n_in + i)
    for idxs in by_d_out.values():
        for i in idxs[1:]:
            union(idxs[0], i)
    for cols in payloads:
        for j, col in enumerate(cols):
            for o in col:
                union(j, n_in + o)

    groups: dict = {}
    for j in range(n_in):
        groups.setdefault(find(j), [[], []])[0].append(j)
    for o in range(n_out):
        groups.setdefault(find(n_in + o), [[], []])[1].append(o)
    return [g for g in groups.values() if g[0]]


def _top_singular(blocks, tol: float, truncation: TruncationSpec) -> NormEstimate:
    """Largest singular value over float blocks, one direct SVD each.

    The residual ||B v - s u|| of the winning singular triple is reported
    and must meet tol; iterations is 0 for this direct solver.  Among the
    two largest singular values of each block, the runner-up overall
    within 1e-10 of the winner marks the estimate degenerate.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    top_two = []
    best = 0.0
    best_block = None
    for B in blocks:
        svals = np.linalg.svd(B, compute_uv=False) if B.any() else [0.0]
        top_two = sorted([*top_two, *map(float, svals[:2])], reverse=True)[:2]
        if svals[0] > best:
            best = float(svals[0])
            best_block = B

    residual = 0.0
    if best_block is not None:
        U, S, Vt = np.linalg.svd(best_block)
        residual = float(np.linalg.norm(best_block @ Vt[0] - S[0] * U[:, 0]))
        if residual > max(tol, 1e-10):
            raise RuntimeError(f"singular value residual {residual:.3e} exceeds tol")
    degenerate = len(top_two) == 2 and best > 0 and (best - top_two[1]) < 1e-10
    return NormEstimate(value=best, truncation=truncation, residual=residual,
                        iterations=0, degenerate=degenerate)


def _whitened_blocks(opm: RealLinearOperatorMatrix):
    """Whitened float blocks of opm, one per decoupled component and sign."""
    if opm.exact is None:
        Li = np.linalg.cholesky(opm.gram_in)
        Lo = np.linalg.cholesky(opm.gram_out)
        Z = Lo.T @ opm.A
        yield np.linalg.solve(Li, Z.T).T
        return
    payloads = (opm.exact.plus_cols, opm.exact.minus_cols)
    comps = _components(len(opm.basis), len(opm.basis_out),
                        opm.basis, opm.basis_out, payloads)
    for in_idx, out_idx in comps:
        in_mons = [opm.basis[j] for j in in_idx]
        out_pos = {o: i for i, o in enumerate(out_idx)}
        out_mons = [opm.basis_out[o] for o in out_idx]
        for cols in payloads:
            sub = [{out_pos[o]: v for o, v in cols[j].items()} for j in in_idx]
            yield _whitened_block(in_mons, out_mons, sub) if any(sub) else np.zeros(0)


def operator_norm(opm: RealLinearOperatorMatrix, tol: float,
                  truncation: Optional[TruncationSpec] = None) -> NormEstimate:
    """Largest generalized singular value sup ||A x||_out / ||x||_in.

    Exact-payload route: decompose into decoupled blocks, whiten each with
    rational LDL, then a direct float SVD per block and sign.  The residual
    ||B v - s u|| of the winning singular triple is reported and must meet
    tol.  iterations is 0 for this direct solver.  Without a payload a float
    Cholesky whitening of the full realified matrix is used instead (only
    viable for well-conditioned Gram matrices).
    """
    if truncation is None:
        deg = max((m + n for (m, n) in opm.basis), default=0)
        truncation = TruncationSpec(deg)
    return _top_singular(_whitened_blocks(opm), tol, truncation)


def _disk_polys(kmax: int, beta: int, t: np.ndarray) -> np.ndarray:
    """Radial disk polynomials psi_k(t) = sqrt(2k+beta+1) P_k^(0,beta)(2t-1)
    for k = 0..kmax, stacked on a new last axis after t's shape.  They are
    orthonormal on [0, 1] under the weight t^beta, so the functions
    psi_k(|z|^2) |z|^|d| e^{i d theta} with beta = |d| are an orthonormal
    basis of sector d.  Jacobi three-term recurrence, DLMF 18.9.1 with
    alpha = 0; P_1 is written out because the n = 0 step divides by beta."""
    x = 2.0 * t - 1.0
    P = np.empty(t.shape + (kmax + 1,))
    P[..., 0] = 1.0
    if kmax >= 1:
        P[..., 1] = 1.0 + 0.5 * (beta + 2) * (x - 1.0)
    for n in range(1, kmax):
        s = 2 * n + beta
        a = (s + 1) * (s + 2) / (2 * (n + 1) * (n + beta + 1))
        b = -beta * beta * (s + 1) / (2 * (n + 1) * (n + beta + 1) * s)
        c = n * (n + beta) * (s + 2) / ((n + 1) * (n + beta + 1) * s)
        P[..., n + 1] = (a * x + b) * P[..., n] - c * P[..., n - 1]
    return P * np.sqrt(2 * np.arange(kmax + 1) + beta + 1)


def _P_blocks(trunc: TruncationSpec):
    """P's realified Galerkin blocks between orthonormal bases, in float64.

    Input sector d carries psi_k^d for k <= (D - |d|)//2.  In t = |z|^2 the
    radial forms of radial_P_gd send p = psi_k^d to
      d >= 1:  -int_t^1 p(s) ds            into sector d - 1  (linear)
      d <= 0:  int_0^1 v^|d| p(t v) dv     into sector d - 1  (linear)
               -int_0^1 s^|d| p(s) ds      into sector 1 - d  (antilinear)
    so d = 1 stands alone and d <= 0 couples with 2 - d through sector 1 - d.
    Orthogonality to psi_0^d = sqrt(|d| + 1) makes the antilinear constant
    -1/sqrt(|d| + 1) at k = 0 and zero for k > 0; the real and imaginary
    coefficient blocks carry it with signs + and -.

    Rows sample each output sector e at n Gauss-Legendre nodes t_i in [0, 1]
    with weights sqrt(w_i t_i^|e|), so ||B c|| is the exact L2 norm of the
    image when q(t)^2 t^|e| has degree <= 2n - 1 for every image profile q.
    That degree is at most D + 1 (Volterra 2(k+1) + d - 1, Hardy
    2k + |d| + 1, constant |d| + 1), and the inner integrals in s and v have
    degree at most D, so n = (D + 3)//2 integrates every term exactly.
    """
    D = trunc.max_total_degree
    size = {d: (D - abs(d)) // 2 + 1 for d in range(-D, D + 1)
            if trunc.d_set is None or d in trunc.d_set}
    if not size:
        raise ValueError("truncation admits no basis monomials")
    x, wx = _gl_nodes((D + 3) // 2)
    t, w = 0.5 * (x + 1.0), 0.5 * wx
    n = len(t)

    def hardy(beta, k):
        psi = _disk_polys(k - 1, beta, np.outer(t, t))
        return np.einsum("j,ijk->ik", w * t**beta, psi)

    def volterra(beta, k):
        psi = _disk_polys(k - 1, beta, t[:, None] + np.outer(1.0 - t, t))
        return -(1.0 - t)[:, None] * np.einsum("j,ijk->ik", w, psi)

    if 1 in size:
        B = np.sqrt(w)[:, None] * volterra(1, size[1])
        yield B
        yield B
    for d in range(0, -D - 1, -1):
        a, b = size.get(d, 0), size.get(2 - d, 0)
        if not a + b:
            continue
        rows = np.sqrt(w * t ** (1 - d))[:, None]
        B = np.zeros((2 * n, a + b))
        if a:
            B[:n, :a] = rows * hardy(-d, a)
        if b:
            B[n:, a:] = rows * volterra(2 - d, b)
        for sign in (1.0, -1.0):
            if a:
                B[n:, 0] = -sign / math.sqrt(1 - d) * rows[:, 0]
            yield B.copy()


def estimate_P_norm(trunc: TruncationSpec, tol: float) -> NormEstimate:
    """Galerkin lower bound for the L2 norm of the conjugating solution
    operator on the truncated basis; nondecreasing in max_total_degree.

    Solved in the orthonormal disk-polynomial basis in float64 (see
    _P_blocks), with no Gram matrix and no rational whitening.  The input
    space is that of assemble, so operator_norm(assemble(CauchyTransformP,
    trunc)) is an independent exact-rational route to the same value.
    """
    return _top_singular(_P_blocks(trunc), tol, trunc)


def _bisect(f, a, b, max_iter=200):
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


def solve_alpha(tol: float = 1e-12) -> float:
    """Root of 2 J0(2/x) - x J1(2/x) on [1.0, 1.2] (bisection to the last
    float, then a residual check against tol)."""

    def f(x):
        return 2 * bessel_j(0, 2 / x) - x * bessel_j(1, 2 / x)

    root = _bisect(f, 1.0, 1.2)
    if abs(f(root)) >= tol:
        raise RuntimeError(f"alpha residual {abs(f(root)):.3e} not below {tol:.1e}")
    return root


def solve_delta(tol: float = 1e-12) -> float:
    """Root of J1(x) - x J0(x) on (2/sqrt(3/2 + 2/j1^2), j0); the bracket
    endpoints are checked to straddle a sign change."""
    j0 = bessel_zero(0)
    j1 = bessel_zero(1)
    lo = 2 / math.sqrt(1.5 + 2 / j1**2)
    hi = j0

    def f(x):
        return bessel_j(1, x) - x * bessel_j(0, x)

    root = _bisect(f, lo, hi)
    if abs(f(root)) >= tol:
        raise RuntimeError(f"delta residual {abs(f(root)):.3e} not below {tol:.1e}")
    return root


def restricted_Z(lam: float) -> float:
    """The two-component reduction's fixed-point map.

    With b = 2/sqrt(lam) and c = J0(b)/J1(b):
        X = 8 (1 + c^2 - sqrt(lam) c),  Y = -4 + 8/lam + 8 c^2 / lam,
    returns Z = X / Y.  Raises ZeroDivisionError when J1(b) or Y vanishes.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    b = 2 / math.sqrt(lam)
    j1v = bessel_j(1, b)
    if abs(j1v) < 1e-14:
        raise ZeroDivisionError("J1 vanishes at 2/sqrt(lam)")
    c = bessel_j(0, b) / j1v
    X = 8 * (1 + c * c - math.sqrt(lam) * c)
    Y = -4 + 8 / lam + 8 * c * c / lam
    if abs(Y) < 1e-14:
        raise ZeroDivisionError("denominator Y vanishes")
    return X / Y


def _int01_pow_log(a: int, j: int) -> Fraction:
    """Exact int_0^1 r^a (-log r)^j dr = j! / (a+1)^{j+1} for a > -1."""
    return Fraction(math.factorial(j), (a + 1) ** (j + 1))


def hardy_ratio(d: int, u) -> Fraction:
    """Exact ratio of the weighted Hardy-type quadratic forms for a radial
    polynomial profile u(rho) = sum_k u[k] rho^k with rational coefficients.

    d <= 0:  int_0^1 (int_0^r rho^{1-d} u)^2 r^{2d-1} dr / int_0^1 rho u^2
    d >= 1:  same with the inner integral taken from r to 1.

    The d >= 1 inner integral picks up a log term when some exponent
    1 - d + k hits -1; products of powers and logs integrate exactly via
    int_0^1 r^a (-log r)^j dr = j!/(a+1)^{j+1}, so the result is rational.
    """
    coeffs = [Fraction(c) for c in u]
    if not any(coeffs):
        raise ValueError("profile must not be identically zero")
    den = Fraction(0)
    for k, ck in enumerate(coeffs):
        for l, cl in enumerate(coeffs):
            den += ck * cl * Fraction(1, k + l + 2)

    num = Fraction(0)
    if d <= 0:
        # inner integral: sum_k u_k r^{2-d+k} / (2-d+k); squared, times r^{2d-1}
        for k, ck in enumerate(coeffs):
            for l, cl in enumerate(coeffs):
                # squared powers give r^{4-2d+k+l}; the weight r^{2d-1}
                # leaves r^{3+k+l}
                ek = 2 - d + k
                el = 2 - d + l
                num += ck * cl * Fraction(1, ek * el) * Fraction(1, 4 + k + l)
    else:
        # inner integral as (powers, log coefficient):
        #   exponent e = 1 - d + k; e != -1 -> (1 - r^{e+1})/(e+1); e == -1 -> -log r
        parts = []
        for k, ck in enumerate(coeffs):
            e = 1 - d + k
            if e == -1:
                parts.append((None, ck))
            else:
                parts.append(((e + 1, ck * Fraction(1, e + 1)), None))
        w = 2 * d - 1
        for pk, lk in parts:
            for pl, ll in parts:
                if pk is not None and pl is not None:
                    (e1, c1), (e2, c2) = pk, pl
                    # (c1 - c1 r^{e1})(c2 - c2 r^{e2}) r^w
                    num += c1 * c2 * (
                        _int01_pow_log(w, 0) - _int01_pow_log(w + e1, 0)
                        - _int01_pow_log(w + e2, 0) + _int01_pow_log(w + e1 + e2, 0)
                    )
                elif pk is not None and pl is None:
                    (e1, c1) = pk
                    # (c1 - c1 r^{e1}) * ll (-log r) * r^w
                    num += c1 * ll * (_int01_pow_log(w, 1) - _int01_pow_log(w + e1, 1))
                elif pk is None and pl is not None:
                    (e2, c2) = pl
                    num += lk * c2 * (_int01_pow_log(w, 1) - _int01_pow_log(w + e2, 1))
                else:
                    num += lk * ll * _int01_pow_log(w, 2)
    return num / den


def extremal_phi0_ratio(degree: int) -> float:
    """Rayleigh quotient of the truncated extremal density.

    The extremal density is f0(r) + f2(r) e^{2 i t} with f0, f2 multiples of
    the order-0 and order-2 Bessel functions of 2r/sqrt(lam0); truncating
    their (entire) power series at the given total degree yields a
    polynomial whose Rayleigh quotient approaches the norm root from below.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2 (both angular parts present)")
    alpha = solve_alpha()
    lam0 = alpha * alpha
    pref = 2.0 / (math.sqrt(lam0) * bessel_j(1, 2 / math.sqrt(lam0)))
    coeffs: dict = {}
    # order-0 series: sum_k (-1)^k (r^2/lam0)^k / (k!)^2 -> monomial (k, k)
    k = 0
    while 2 * k <= degree:
        c = pref * (-1) ** k / (math.factorial(k) ** 2 * lam0**k)
        coeffs[(k, k)] = complex(c)
        k += 1
    # order-2 series: sum_k (-1)^k r^{2k+2} / (k! (k+2)! lam0^{k+1}) * e^{2it}
    k = 0
    while 2 * k + 2 <= degree:
        c = pref * (-1) ** k / (math.factorial(k) * math.factorial(k + 2) * lam0 ** (k + 1))
        coeffs[(k + 2, k)] = complex(c)
        k += 1
    phi = DiskPolynomial(coeffs)
    return math.sqrt(norm_sq(cauchy_P(phi)) / norm_sq(phi))
