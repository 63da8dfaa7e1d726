"""Auxiliary LAPACK routines: norms, copies, row swaps, scaled sums.

``xLANGE``-family norm computations (the substrate under the paper's
``LA_LANGE`` matrix-manipulation routine), plus ``laswp``/``lacpy``/
``laset``/``lassq`` utilities used throughout the factorizations.
"""

from __future__ import annotations

import numpy as np

from ..storage import band_to_full, sym_band_to_full, unpack

__all__ = [
    "lange", "lansy", "lanhe", "langb", "langt", "lansp", "lansb", "lanhs",
    "lantr", "lanst",
    "laswp", "lacpy", "laset", "lassq", "lapy2", "lapy3", "larnv",
]


def _norm_of(a: np.ndarray, norm: str):
    """Core norm dispatch on an explicit dense matrix."""
    c = norm.upper()[0]
    absa = np.abs(a)
    if c == "M":
        return absa.max() if a.size else 0.0
    if c in ("O", "1"):
        return absa.sum(axis=0).max() if a.size else 0.0
    if c == "I":
        return absa.sum(axis=1).max() if a.size else 0.0
    if c in ("F", "E"):
        if a.size == 0:
            return 0.0
        amax = absa.max()
        if amax == 0:
            return 0.0
        scaled = absa / amax
        return float(amax) * float(np.sqrt(np.sum(scaled * scaled)))
    raise ValueError(f"illegal norm selector {norm!r}")


def lange(norm: str, a: np.ndarray):
    """Norm of a general rectangular matrix.

    ``norm``: 'M' (max |a_ij|), '1'/'O' (1-norm), 'I' (infinity norm),
    'F'/'E' (Frobenius).
    """
    return _norm_of(a, norm)


def _sym_full(a: np.ndarray, uplo: str, hermitian: bool) -> np.ndarray:
    """A fresh C-contiguous full matrix from the ``uplo`` triangle of ``a``
    (mirrored, conjugated when ``hermitian``, with a real diagonal)."""
    if uplo.upper() == "U":
        full = np.triu(a) + (np.conj(np.triu(a, 1)).T if hermitian
                             else np.triu(a, 1).T)
    else:
        full = np.tril(a) + (np.conj(np.tril(a, -1)).T if hermitian
                             else np.tril(a, -1).T)
    full = np.ascontiguousarray(full)
    if hermitian:
        np.fill_diagonal(full, full.diagonal().real)
    return full


def _put_triangle(a: np.ndarray, full: np.ndarray, uplo: str) -> None:
    """Copy the ``uplo`` triangle (diagonal included) of ``full`` into
    ``a``, leaving the opposite strict triangle of ``a`` untouched."""
    n = a.shape[0]
    lower = np.tri(n, dtype=bool)
    np.copyto(a, full, where=lower if uplo.upper() == "L" else lower.T)


def lansy(norm: str, a: np.ndarray, uplo: str = "U"):
    """Norm of a symmetric matrix stored in one triangle."""
    return _norm_of(_sym_full(a, uplo, False), norm)


def lanhe(norm: str, a: np.ndarray, uplo: str = "U"):
    """Norm of a Hermitian matrix stored in one triangle."""
    return _norm_of(_sym_full(a, uplo, True), norm)


def langb(norm: str, ab: np.ndarray, kl: int, ku: int, m: int | None = None):
    """Norm of a general band matrix in LAPACK band storage."""
    n = ab.shape[1]
    if m is None:
        m = n
    return _norm_of(band_to_full(ab, m, n, kl, ku), norm)


def langt(norm: str, dl: np.ndarray, d: np.ndarray, du: np.ndarray):
    """Norm of a general tridiagonal matrix given by its three diagonals."""
    n = d.shape[0]
    a = np.zeros((n, n), dtype=np.result_type(dl.dtype, d.dtype, du.dtype))
    a[np.arange(n), np.arange(n)] = d
    if n > 1:
        a[np.arange(1, n), np.arange(n - 1)] = dl
        a[np.arange(n - 1), np.arange(1, n)] = du
    return _norm_of(a, norm)


def lanst(norm: str, d: np.ndarray, e: np.ndarray):
    """Norm of a symmetric tridiagonal matrix (diagonal d, off-diagonal e)."""
    return langt(norm, e, d, e)


def lansp(norm: str, ap: np.ndarray, n: int, uplo: str = "U",
          hermitian: bool = False):
    """Norm of a symmetric/Hermitian matrix in packed storage."""
    full = unpack(ap, n, uplo=uplo, symmetric=not hermitian,
                  hermitian=hermitian)
    return _norm_of(full, norm)


def lansb(norm: str, ab: np.ndarray, n: int, uplo: str = "U",
          hermitian: bool = False):
    """Norm of a symmetric/Hermitian band matrix."""
    return _norm_of(sym_band_to_full(ab, n, uplo=uplo, hermitian=hermitian),
                    norm)


def lanhs(norm: str, a: np.ndarray):
    """Norm of an upper Hessenberg matrix (dense storage)."""
    return _norm_of(np.triu(a, -1), norm)


def lantr(norm: str, a: np.ndarray, uplo: str = "U", diag: str = "N"):
    """Norm of a triangular (possibly unit-diagonal, possibly trapezoidal)
    matrix."""
    m, n = a.shape
    t = np.triu(a) if uplo.upper() == "U" else np.tril(a)
    if diag.upper() == "U":
        k = min(m, n)
        t = t.copy()
        t[np.arange(k), np.arange(k)] = 1
    return _norm_of(t, norm)


def laswp(a: np.ndarray, ipiv: np.ndarray, k1: int = 0, k2: int | None = None,
          forward: bool = True) -> np.ndarray:
    """Apply a sequence of row interchanges to ``a`` (in place).

    ``ipiv[k]`` (0-based) says row ``k`` was swapped with row ``ipiv[k]``.
    ``forward=False`` applies them in reverse order (the inverse permutation).
    The interchanges are composed into one permutation of the rows up to
    the last one they touch, on Python ints, and applied as one gather.
    """
    if k2 is None:
        k2 = len(ipiv)
    if k2 <= k1:
        return a
    piv = np.asarray(ipiv[k1:k2]).tolist()
    perm = list(range(max(k2, max(piv) + 1)))
    steps = zip(range(k1, k2), piv)
    for k, p in (steps if forward else reversed(list(steps))):
        perm[k], perm[p] = perm[p], perm[k]
    a[:len(perm)] = a[perm]
    return a


def lacpy(a: np.ndarray, b: np.ndarray, uplo: str = "A") -> np.ndarray:
    """Copy all of ``a`` (uplo='A'), or just its upper/lower triangle,
    into ``b``."""
    u = uplo.upper()
    if u == "A":
        b[...] = a
    elif u == "U":
        iu = np.triu_indices(a.shape[0], 0, a.shape[1])
        b[iu] = a[iu]
    else:
        il = np.tril_indices(a.shape[0], 0, a.shape[1])
        b[il] = a[il]
    return b


def laset(a: np.ndarray, alpha=0.0, beta=0.0, uplo: str = "A") -> np.ndarray:
    """Set the off-diagonal of ``a`` (or one triangle) to ``alpha`` and the
    diagonal to ``beta`` (in place)."""
    u = uplo.upper()
    m, n = a.shape
    if u == "A":
        a[...] = alpha
    elif u == "U":
        a[np.triu_indices(m, 1, n)] = alpha
    else:
        a[np.tril_indices(m, -1, n)] = alpha
    k = min(m, n)
    a[np.arange(k), np.arange(k)] = beta
    return a


def lassq(x: np.ndarray, scale: float = 0.0, sumsq: float = 1.0):
    """Scaled sum of squares: returns ``(scale, sumsq)`` with
    ``scale²·sumsq = scale₀²·sumsq₀ + Σ|x_i|²``, overflow-safe."""
    absx = np.abs(x[x != 0]) if x.size else np.empty(0)
    if np.iscomplexobj(x):
        parts = np.concatenate([np.abs(x.real), np.abs(x.imag)])
        absx = parts[parts != 0]
    for v in absx:
        v = float(v)
        if scale < v:
            sumsq = 1.0 + sumsq * (scale / v) ** 2
            scale = v
        else:
            sumsq += (v / scale) ** 2
    return scale, sumsq


def lapy2(x: float, y: float) -> float:
    """``sqrt(x² + y²)`` without unnecessary overflow."""
    return float(np.hypot(x, y))


def lapy3(x: float, y: float, z: float) -> float:
    """``sqrt(x² + y² + z²)`` without unnecessary overflow."""
    w = max(abs(x), abs(y), abs(z))
    if w == 0:
        return 0.0
    return w * float(np.sqrt((x / w) ** 2 + (y / w) ** 2 + (z / w) ** 2))


def larnv(idist: int, n: int, dtype=np.float64, rng=None) -> np.ndarray:
    """Random vector generator, ``xLARNV`` semantics.

    ``idist``: 1 → uniform(0,1); 2 → uniform(-1,1); 3 → normal(0,1).
    Complex dtypes get independent real and imaginary parts.
    """
    if rng is None:
        rng = np.random.default_rng()
    kind = np.dtype(dtype).kind

    def draw():
        if idist == 1:
            return rng.uniform(0, 1, n)
        if idist == 2:
            return rng.uniform(-1, 1, n)
        if idist == 3:
            return rng.standard_normal(n)
        raise ValueError("idist must be 1, 2 or 3")

    if kind == "c":
        return np.asarray(draw() + 1j * draw(), dtype=dtype)
    return np.asarray(draw(), dtype=dtype)
