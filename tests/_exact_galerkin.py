"""Exact-rational Galerkin reference for spectral.estimate_norm.

An independent route to the same norms, for low degree only: it starts from
the closed-form monomial rules of transforms.apply_transform instead of the
radial forms, and from the monomial basis instead of the orthonormal one.
Each monomial column is realified into exact (T1 + T2) and (T1 - T2) parts
(T1 linear, T2 conjugate-linear).  The monomial Gram matrix is block diagonal
by angular sector, so each sector is whitened with an exact LDL
factorization; rational arithmetic ends at the final diagonal scaling, and
the two float matrices, one per sign, go to the same SVD as the float route.
It works for every transform kind.
"""
import math
from fractions import Fraction

import numpy as np

from disktransform.diskalg import DiskPolynomial, ExactScalar
from disktransform.spectral import _top_singular
from disktransform.transforms import TransformKind, apply_transform


def realified_columns(kind: TransformKind, max_degree: int, d_set=None):
    """(basis, basis_out, plus, minus): the input and output monomials, and
    per input monomial a map output monomial -> exact entry of the (T1 + T2)
    and of the (T1 - T2) block."""
    basis = [(m, t - m) for t in range(max_degree + 1) for m in range(t + 1)
             if d_set is None or 2 * m - t in d_set]
    if not basis:
        raise ValueError("truncation admits no basis monomials")
    plus, minus = [], []
    for key in basis:
        u = apply_transform(kind, DiskPolynomial({key: ExactScalar(1)}))
        v = apply_transform(kind, DiskPolynomial({key: ExactScalar(0, 1)}))
        p, q = {}, {}
        for out in set(u.coeffs) | set(v.coeffs):
            a = u.coeffs.get(out, ExactScalar(0))
            b = v.coeffs.get(out, ExactScalar(0))
            # T1 = (T(e) - i T(ie)) / 2 and T2 = (T(e) + i T(ie)) / 2
            if a.im - b.re or a.im + b.re:
                raise AssertionError("transform parts are not real rational")
            if a.re:
                p[out] = a.re
            if b.im:
                q[out] = b.im
        plus.append(p)
        minus.append(q)
    basis_out = sorted({out for col in plus + minus for out in col})
    return basis, basis_out, plus, minus


def _ldl(mons):
    """L, D with L D L^T the exact Gram matrix of one sector's monomials:
    <z^m zbar^n, z^p zbar^q> = 1/(m + q + 1)."""
    k = len(mons)
    G = [[Fraction(1, m + q + 1) for (p, q) in mons] for (m, n) in mons]
    L = [[Fraction(0)] * k for _ in range(k)]
    D = [Fraction(0)] * k
    for j in range(k):
        D[j] = G[j][j] - sum(L[j][r] ** 2 * D[r] for r in range(j))
        L[j][j] = Fraction(1)
        for i in range(j + 1, k):
            L[i][j] = (G[i][j] - sum(L[i][r] * L[j][r] * D[r] for r in range(j))) / D[j]
    return L, D


def _sectors(mons):
    """Indices of mons grouped by angular degree, with each sector's LDL."""
    groups: dict = {}
    for i, (m, n) in enumerate(mons):
        groups.setdefault(m - n, []).append(i)
    return [(idx, *_ldl([mons[i] for i in idx])) for idx in groups.values()]


def whitened_blocks(kind: TransformKind, max_degree: int, d_set=None):
    """The (T1 + T2) and (T1 - T2) matrices between orthonormalized bases,
    rows on output monomials and columns on input monomials.

    With sector Gram factorizations G_in = Li Di Li^T and G_out = Lo Do Lo^T
    a block W becomes Do^{1/2} (Lo^T W Li^{-T}) Di^{-1/2}; the bracket is
    exact."""
    basis, basis_out, plus, minus = realified_columns(kind, max_degree, d_set)
    ins, outs = _sectors(basis), _sectors(basis_out)
    blocks = []
    for cols in (plus, minus):
        B = np.zeros((len(basis_out), len(basis)))
        for jdx, Li, Di in ins:
            for idx, Lo, Do in outs:
                W = [[cols[j].get(basis_out[i], Fraction(0)) for j in jdx] for i in idx]
                if not any(map(any, W)):
                    continue
                M, N = len(idx), len(jdx)
                K = [[sum(Lo[r][i] * W[r][j] for r in range(i, M)) for j in range(N)]
                     for i in range(M)]
                for i in range(M):
                    X = []
                    for j in range(N):
                        X.append(K[i][j] - sum(X[r] * Li[j][r] for r in range(j)))
                        B[idx[i], jdx[j]] = (math.sqrt(Do[i]) * float(X[j])
                                             / math.sqrt(Di[j]))
        blocks.append(B)
    return blocks


def exact_norm(kind: TransformKind, max_degree: int, d_set=None):
    return _top_singular(whitened_blocks(kind, max_degree, d_set))
