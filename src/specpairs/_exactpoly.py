"""Exact integer characteristic polynomials and root counting.

``charpoly`` reduces det(xI - A) modulo each of several word-size primes
and combines the residues by CRT.  The prime budget covers a rigorous
coefficient bound, so the result is exact, not heuristic.  Each
coefficient c_j of p(z) = det(zI - A) = sum_j c_j z^j takes the smaller
of two bounds, and the budget covers the largest of these minima.

* Hadamard.  c_{n-m} is (-1)^m times the sum of the m x m principal
  minors, Hadamard's inequality bounds each minor by the product of its
  rows' norms, and a row of a minor is no longer than the whole row, so
  |c_{n-m}| <= e_m(|A_1|, ..., |A_n|), the m-th elementary symmetric
  polynomial of the row norms.  Maclaurin's inequality bounds e_m by
  C(n, m) times the m-th power of the mean row norm, and the power-mean
  inequality bounds that mean by sqrt(S / n), where S is the sum of the
  squared entries.  So |c_{n-m}| <= C(n, m) (S / n)^(m/2), a closed form
  in integers that equals the uniform bound C(n, m) (max row norm)^m
  whenever the rows have equal norms.

* Parseval.  For any r > 0, Parseval's identity on the circle |z| = r
  gives sum_j |c_j|^2 r^(2j) = mean over |z| = r of |p(z)|^2.  At each
  z, |p(z)|^2 = prod_i |z - lambda_i|^2 is at most the n-th power of the
  mean of the |z - lambda_i|^2 (AM-GM), and
  sum_i |z - lambda_i|^2 = n r^2 - 2 Re(conj(z) sum_i lambda_i)
  + sum_i |lambda_i|^2 <= n r^2 + 2 r t + S, with t = |tr A| and
  Schur's inequality sum_i |lambda_i|^2 <= S.  So
  |c_j|^2 <= (n r^2 + 2 r t + S)^n / (n^n r^(2j)) for every complex
  square matrix and every r > 0.  Where t is small, as for an adjacency
  matrix, this is far below Hadamard's bound in the middle
  coefficients: at t = 0 it takes C(n, m) down to about its square root.
  The budget takes r a power of two, so the bound is a quotient of
  integers.  A float only picks the exponent, near the minimising r
  (the positive root of n (n - j) r^2 + t (n - 2j) r - j S = 0): every
  r > 0 gives a sound bound, so rounding can make it looser, never
  wrong, and a float never decides the budget.

None of this needs integer entries, and similar matrices share their
coefficients and their trace, so the bounds may read S from any real
matrix similar to A.  With ``charpoly``'s ``weights``, positive integers
w with diag(w) A symmetric (checked), A is similar to the symmetric
diag(w)^(1/2) A diag(w)^(-1/2), whose (i, j) entry squared is
a_ij a_ji; the budget then takes S' = sum_ij a_ij a_ji, which is at
most S.  ``weights`` set nothing else.  Each residue comes from one of
two routes, and a third, independent route checks them.
``_residues`` is the only code that picks a route and batches primes:
one pass runs the Krylov batches, then sends every prime still without
a residue through the Hessenberg groups.

* Krylov / Berlekamp-Massey, for symmetric sparse matrices.  The
  sequence s_i = v^T A^i v mod p, for a fixed start vector v, satisfies
  the recurrence of det(xI - A) by Cayley-Hamilton, so its minimal
  polynomial m has degree at most n and divides det(xI - A) mod p.
  Berlekamp-Massey on its first 2n terms returns m exactly.  If
  deg m = n, then m = det(xI - A) mod p, both being monic of degree n.
  If deg m = n - 1, as for a symmetric matrix whose only repeated
  eigenvalue has multiplicity 2, the quotient is monic of degree 1:
  det(xI - A) = m(x) (x - lambda) mod p.  The x^(n-1) coefficient of
  det(xI - A) is -tr(A), and that of the product is m_{n-2} - lambda,
  so lambda = tr(A) + m_{n-2} mod p and the residue is exact again.
  A shorter m leaves a quotient of degree 2 or more, which the trace
  alone does not fix, and that residue comes from the Hessenberg
  route.  The primes run through the Krylov route together, with no
  separate trial prime, and each prime's residue is proven on its own,
  so one prime's short m sends only that prime to the Hessenberg
  route.  v is given by a formula, with no random state: the input
  decides only which route proves a residue, never the residue.  One
  product A x costs a gather over the nonzero entries, so a prime costs
  O(n nnz).

* Hessenberg, for every other residue: every prime of a dense or a
  non-symmetric matrix, and each Krylov prime that falls short.  A
  non-symmetric matrix would pay one product per term of its sequence,
  2n per prime, where a symmetric one pays n; the twin quotients, the
  only non-symmetric matrices the paper needs, also keep many repeated
  eigenvalues, so their sequences would fall short (on the edge family's
  quotients at k = 6, 8 and 10, of orders 29, 46 and 58, every prime
  did, at degree 24, 38 and 46).  Reduce to Hessenberg form modulo p
  (similarity transforms only) and run the leading-minor recurrence,
  O(n^3) per prime.  The primes run in groups, each one (k, n, n) array,
  so that each of a prime's 2n steps takes its numpy calls once for all
  k primes; at the orders of the paper's twin quotients (22 to 82) those
  calls, not the arithmetic, are most of the time.  A group's primes
  must pivot on the same row; at a step where an entry vanishes modulo
  some of its primes only, every prime of the group runs again alone,
  as a Berlekamp-Massey batch does where its discrepancies disagree.
  That needs an entry divisible by a prime near 2^27 mid-reduction,
  and a residue mod p depends on neither the route nor the pivots, so
  the rerun changes no result.  A group divides by a
  (k, 1, 1) array of primes, which numpy does more slowly than by one
  scalar (libdivide), so grouping pays less as the order grows and the
  arithmetic takes over: measured on the paper's quotients, groups took
  0.4 to 0.55 of the time of one prime at a time at orders 58 to 118,
  0.7 to 0.95 at 130 to 262 and the same at 298.  Above order
  ``_HESSENBERG_GROUP_ORDER`` = 256 each prime runs alone with a scalar
  p, and a group holds at most ``_HESSENBERG_GROUP_ENTRIES`` = 2^18
  entries, which bounds its memory.

* ``berkowitz_charpoly``: a short division-free recurrence in plain
  Python integers.  Cubic per minor and far slower, but it shares no
  code or ideas with the modular routes, which makes it a useful
  cross-check at small orders.

Primes stay below 2^27, so a sum of up to 511 products of residues
stays below 2^63 (511 * p^2 < 2^63).  Every int64 dot product goes
through the one chunked product ``_dot_mod``, which sums chunks of at
most 511 terms and reduces each chunk with ``%``, and the Krylov
route's sparse row sums add residues, not products; both stay exact at
any order while numpy does the inner loops.  One reduction is written
differently: the elimination update of ``_hessenberg_group``, the
largest array the route reduces, takes ``x - (x // p) * p``, which
equals ``x % p`` (the floor quotient puts it in [0, p)).  numpy
floor-divides by a scalar p with a precomputed reciprocal (libdivide),
and by a (k, 1, 1) array of primes fastest when each prime's block is
contiguous, but speeds up ``%`` in neither case: with ``%`` in that
update, the adjacency charpolys of the edge family at k = 40 and 60
took 1.70-1.74 and 8.34-9.12 s against 1.31-1.51 and 6.20-6.39 s
(two processes each, best of 2 runs, on a shared 2-CPU host).

``count_roots_greater`` counts roots exceeding a dyadic rational by
Descartes' rule after an integer Taylor shift.  For real-rooted
polynomials (characteristic polynomials of symmetric matrices) the sign
variation count is exactly the number of roots in (a, infinity), so the
comparison is decided entirely in integer arithmetic.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_PRIME_CEILING = (1 << 27) - 1

_primes: list = []  # descending, grown on demand
_next_candidate = _PRIME_CEILING


def _is_prime(m: int) -> bool:
    # deterministic Miller-Rabin; bases 2,3,5,7 cover m < 3_215_031_751
    if m < 2:
        return False
    for p in (2, 3, 5, 7):
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The i-th prime below 2^27, counting downward from the ceiling."""
    global _next_candidate
    while len(_primes) <= i:
        while not _is_prime(_next_candidate):
            _next_candidate -= 1
        _primes.append(_next_candidate)
        _next_candidate -= 1
    return _primes[i]


def _primes_covering(target: int) -> list:
    """The fewest leading primes whose product is at least ``target``."""
    primes = []
    modulus = 1
    while modulus < target:
        primes.append(_prime(len(primes)))
        modulus *= primes[-1]
    return primes


# 511 * (2^27 - 1)^2 + 2^27 < 2^63: a reduced partial sum plus one chunk
# of this many residue products fits in an int64
_DOT_CHUNK = 511


def _dot_mod(a: np.ndarray, b: np.ndarray, p):
    """``(a @ b) % p`` for int64 residues mod p < 2^27, exact at any length.

    Takes numpy's matmul over the last axis of a and the second to last
    of b (its only axis when b is 1-D), in chunks of at most
    ``_DOT_CHUNK`` terms, reducing mod p after each chunk.  p is a scalar
    or an array that broadcasts against the product.  Row-wise dot
    products of two stacks of vectors take the layout
    ``a[..., None, :]`` and ``b[..., :, None]``.
    """
    if b.ndim == 1:
        return _dot_mod(a, b[:, None], p)[..., 0]
    total = (a[..., :_DOT_CHUNK] @ b[..., :_DOT_CHUNK, :]) % p
    for i in range(_DOT_CHUNK, a.shape[-1], _DOT_CHUNK):
        total = (total + a[..., i : i + _DOT_CHUNK] @ b[..., i : i + _DOT_CHUNK, :]) % p
    return total


def _hessenberg_group(a: np.ndarray, primes: list) -> list:
    """Char poly of the int64 matrix a modulo each of ``primes``,
    coefficients low to high.

    Reduces a mod each prime into one (k, n, n) array, then to upper
    Hessenberg form by similarity (row eliminations mirrored by column
    operations), then runs the standard recurrence on leading principal
    minors of xI - H.  A group of one prime reduces with a scalar p,
    which numpy divides by fastest.

    Every prime of the group takes the same pivot row, so a swap is one
    slice for all of them.  Where the first nonzero entry below the
    subdiagonal differs between primes (an entry that one prime divides
    and another does not), every prime of the group runs again alone.
    Step j updates rows below j+1 only in columns j+1 and on: column j
    below the subdiagonal would become zero, and nothing reads it again.
    """
    k, n = len(primes), a.shape[0]
    p = np.array(primes, dtype=np.int64)[:, None, None]
    H = np.remainder(a, p)
    if k == 1:
        p = primes[0]
    for j in range(n - 2):
        # pivot below the subdiagonal: the first nonzero entry of col, at
        # the same row f for every prime, or for none of them
        col = H[:, j + 1 :, j]
        if not col[:, 0].all():
            nz = col != 0
            first = nz.argmax(axis=1)
            f = int(first[0])
            if k > 1 and ((first != f).any() or (nz[:, f] != nz[0, f]).any()):
                return [_hessenberg_group(a, [prime])[0] for prime in primes]
            if not nz[0, f]:
                continue
            piv = j + 1 + f
            H[:, [j + 1, piv], :] = H[:, [piv, j + 1], :]
            H[:, :, [j + 1, piv]] = H[:, :, [piv, j + 1]]
        inv = [pow(x, -1, q) for x, q in zip(H[:, j + 1, j].tolist(), primes)]
        # the multipliers of rows j+1 and on; row j+1's own is 1
        mult = H[:, j + 1 :, j : j + 1] * np.array(inv)[:, None, None] % p
        # rest = (rest - mult * row j+1) mod p, reduced as
        # x - (x // p) * p in a fresh contiguous block (module docstring)
        rest = H[:, j + 2 :, j + 1 :]
        block = mult[:, 1:] * H[:, j + 1 : j + 2, j + 1 :]
        np.subtract(rest, block, out=block)
        rest[...] = block
        np.floor_divide(block, p, out=block)
        block *= p
        rest -= block
        # column j+1 += columns j+2 and on times the multipliers, as one
        # product with mult's leading 1
        H[:, :, j + 1 : j + 2] = _dot_mod(H[:, :, j + 1 :], mult, p)

    # P_m = char poly of the m-th leading minor of xI - H, low-to-high.
    # For Hessenberg H the expansion along the last column gives
    #   P_m = x P_{m-1} - sum_{i<m} H[i,m-1] (prod_{j=i+1..m-1} H[j,j-1]) P_i
    # with prod[i] kept as m grows, prod[m-1] = 1.  P[:, c, i] holds the
    # x^c coefficient of P_i, so that the sum is a product over P's
    # contiguous rows
    P = np.zeros((k, n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    prod = np.ones((k, n, 1), dtype=np.int64)
    for m in range(1, n + 1):
        if m >= 2:
            prod[:, : m - 1] = prod[:, : m - 1] * H[:, m - 1 : m, m - 2 : m - 1] % p
        w = H[:, :m, m - 1 : m] * prod[:, :m] % p
        col = P[:, : m + 1, m : m + 1]
        col[:, 1:] = P[:, :m, m - 1 : m]
        col[:, :m] = (col[:, :m] - _dot_mod(P[:, :m, :m], w, p)) % p
    return list(P[:, :, n].copy())


# A symmetric matrix tries the Krylov route when at most this share of
# its entries is nonzero.  On random symmetric 0/1 matrices of full
# degree the two routes cost the same at about 0.45 for n = 338 and
# n = 500, and Krylov takes 0.49 and 0.72 of the Hessenberg time at 0.3;
# the crossover falls as n grows.  The cutoff sits below it because a
# derogatory matrix runs the whole Krylov batch and then the Hessenberg
# route for every prime.
_KRYLOV_DENSITY = 0.3
# A matrix of at most this order runs its Hessenberg primes in groups,
# each of at most this many entries, so that a group's two (k, n, n)
# arrays stay under 4 MB; above it, one prime at a time (module docstring).
# Six primes on the edge family's twin quotients, best of 3 on a 2-CPU
# host: at orders 274 and 286 (k = 46, 48) groups of 3 took 0.31 and
# 0.36 s against 0.30 and 0.33 s alone; at order 358 (k = 60) groups of
# 2 took 0.67 s against 0.61 s alone
_HESSENBERG_GROUP_ORDER = 256
_HESSENBERG_GROUP_ENTRIES = 1 << 18
# Krylov vectors held at once
_KRYLOV_BLOCK = 16
# primes batched together gather at most this many terms per product, so
# the batch's arrays stay near 8 MB where one Hessenberg prime holds n^2
_KRYLOV_TERMS = 1 << 20


def _krylov_start(n: int) -> np.ndarray:
    """The Krylov route's fixed start vector: Fibonacci hashing of 1..n,
    v_j = top 26 bits of (j + 1) * 0x9E3779B97F4A7C15 mod 2^64.  Its
    entries are below every prime used, so no prime reduces it."""
    j = np.arange(1, n + 1, dtype=np.uint64)
    return ((j * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(38)).astype(np.int64)


def _krylov_sequences(mat: np.ndarray, primes: list, N: int) -> np.ndarray:
    """s[t, i] = v^T mat^i v mod primes[t] for i < N, v = _krylov_start(n),
    for a symmetric mat.

    All primes advance together in one (k, n) array.  The product
    mat @ x is a CSR gather over the nonzero entries and an
    ``np.add.reduceat`` over each row.  Entry products are reduced mod p
    before the row sums (0/1 matrices need no product), so a row sum adds
    at most n residues below 2^27, exact in int64 for n < 2^36; dot
    products go through ``_dot_mod``.  Since mat is symmetric, each
    product gives two terms, s_2i = x_i . x_i and s_2i+1 = x_i . x_i+1
    with x_i = mat^i v.
    """
    n = mat.shape[0]
    p = np.array(primes, dtype=np.int64)
    P = p[:, None]
    rows, cols = np.nonzero(mat)
    vals = mat[rows, cols]
    nonempty, starts = np.unique(rows, return_index=True)
    binary = bool(np.all(vals == 1))
    if not binary:
        vals = vals[None, :] % P

    def product(x):
        terms = x[:, cols]
        if not binary:
            terms = terms * vals % P
        if starts.size == n:
            y = np.add.reduceat(terms, starts, axis=1)
        else:
            y = np.zeros_like(x)
            if starts.size:
                y[:, nonempty] = np.add.reduceat(terms, starts, axis=1)
        return y % P

    # x_0 .. x_M, kept a block at a time so that their dot products take
    # one call per block
    M = (N + 1) // 2
    s = np.empty((len(p), 2 * M), dtype=np.int64)
    X = np.empty((len(p), _KRYLOV_BLOCK + 1, n), dtype=np.int64)
    X[:, 0] = _krylov_start(n)[None, :] % P
    Q = p[:, None, None, None]  # against the (k, h, 1, 1) dot products
    for b in range(0, M, _KRYLOV_BLOCK):
        h = min(_KRYLOV_BLOCK, M - b)
        for j in range(h):
            X[:, j + 1] = product(X[:, j])
        x = X[:, :h, None, :]
        s[:, 2 * b : 2 * (b + h) : 2] = _dot_mod(x, X[:, :h, :, None], Q)[..., 0, 0]
        s[:, 2 * b + 1 : 2 * (b + h) : 2] = _dot_mod(x, X[:, 1 : h + 1, :, None], Q)[..., 0, 0]
        X[:, 0] = X[:, h]
    return s[:, :N]


def _berlekamp_massey_mod(s: np.ndarray, primes: list, n: int) -> list:
    """The minimal polynomial of each sequence s[t] over GF(primes[t]),
    given that s[t] is the start of a sequence that a recurrence of order
    at most n generates.  Returns [(L, poly)]: its degree and its
    coefficients low to high, monic.

    Massey's algorithm keeps the shortest recurrence that generates the
    terms read so far, of order L.  A term it fails to generate raises
    the order to N + 1 - L, where N + 1 terms have been read.  So once
    L < n and N + 1 >= L + n, a failure would need order above n; none
    can follow, L and the recurrence are final, and the scan stops.

    The rows run as one batch while their discrepancies are all zero or
    all nonzero, which makes every branch the same for all of them.  At
    the first step where they disagree, every row runs again by itself.
    """
    # the connection polynomial c_0 + c_1 y + ... + c_L y^L is stored
    # reversed at the end of each row of C, c_i in C[:, K - i], so that
    # the discrepancy is a forward dot product with s and C[:, K - L:] is
    # the minimal polynomial, low to high; B holds the polynomial before
    # the last change of L alike, and b its discrepancy.  The update
    # C <- b C - d y^m B needs no inverse; C is made monic at the end
    k, K = s.shape
    p = np.array(primes, dtype=np.int64)
    Q = p[:, None, None]  # against the (k, 1, 1) discrepancies
    C = np.zeros((k, K + 1), dtype=np.int64)
    B = C.copy()
    C[:, K] = B[:, K] = 1
    b = np.ones((k, 1), dtype=np.int64)
    L, lb, m = 0, 1, 1  # lb: length of B
    for N in range(K):
        d = _dot_mod(C[:, None, K - L :], s[:, N - L : N + 1, None], Q)[:, 0, 0]
        nonzero = np.count_nonzero(d)
        if nonzero == 0:
            m += 1
        elif nonzero < k:
            return [
                _berlekamp_massey_mod(s[t : t + 1], [q], n)[0] for t, q in enumerate(primes)
            ]
        else:
            lo = min(K + 1 - m - lb, K - L)
            if 2 * L <= N:
                T = C[:, K - L :].copy()
            C[:, K - L :] *= b
            C[:, K + 1 - m - lb : K + 1 - m] -= d[:, None] * B[:, K + 1 - lb :]
            np.remainder(C[:, lo:], p[:, None], out=C[:, lo:])
            if 2 * L <= N:
                L, lb, m, b = N + 1 - L, L + 1, 1, d[:, None]
                B[:, K + 1 - lb :] = T
            else:
                m += 1
        if L < n and N + 1 >= L + n:
            break
    lead = [pow(int(c), -1, int(q)) for c, q in zip(C[:, K], p)]
    polys = C[:, K - L :] * np.array(lead, dtype=np.int64)[:, None] % p[:, None]
    return [(L, row) for row in polys]


def _residues(a: np.ndarray, primes: list) -> list:
    """The char poly of ``a`` modulo each prime, coefficients low to high.

    The only place that picks a route and batches primes, from the
    matrix alone.  A symmetric matrix with at most ``_KRYLOV_DENSITY`` of
    its entries nonzero first runs every prime through the Krylov route,
    in batches of at most ``_KRYLOV_TERMS`` gathered terms per product,
    and each prime's residue is then proven on its own: from the minimal
    polynomial m of its sequence at degree n, and from m (x - lambda) at
    degree n - 1.  Every prime still without a residue then takes the
    Hessenberg route: each prime whose m falls shorter, and every prime
    of a dense or a non-symmetric matrix, where a sequence would pay one
    product per term, 2n per prime, in place of n.  Up to order
    ``_HESSENBERG_GROUP_ORDER`` those primes run in groups of at most
    ``_HESSENBERG_GROUP_ENTRIES`` entries, above it one prime at a time.
    The module docstring says why each residue is exact.
    """
    n = a.shape[0]
    nnz = np.count_nonzero(a)
    trace = sum(np.diagonal(a).tolist())

    def residue(deg, m, p):
        if deg == n:
            return m
        lam = (trace + (int(m[-2]) if deg else 0)) % p
        res = np.zeros(n + 1, dtype=np.int64)
        res[1:] = m
        res[:-1] -= lam * m
        return res % p

    out = [None] * len(primes)
    if nnz <= _KRYLOV_DENSITY * n * n and np.array_equal(a, a.T):
        size = max(1, _KRYLOV_TERMS // max(nnz, 1))
        for i in range(0, len(primes), size):
            group = primes[i : i + size]
            found = _berlekamp_massey_mod(_krylov_sequences(a, group, 2 * n), group, n)
            out[i : i + size] = [
                None if d < n - 1 else residue(d, m, p) for (d, m), p in zip(found, group)
            ]
    short = [t for t, res in enumerate(out) if res is None]
    size = 1
    if n <= _HESSENBERG_GROUP_ORDER:
        size = max(1, _HESSENBERG_GROUP_ENTRIES // (n * n))
    for i in range(0, len(short), size):
        part = short[i : i + size]
        for t, res in zip(part, _hessenberg_group(a, [primes[t] for t in part])):
            out[t] = res
    return out


def _coefficient_bound(mat: np.ndarray, S: int | None = None) -> int:
    """A bound B with |c_k| <= B for all char poly coefficients.

    Each coefficient takes the smaller of two bounds on its square (module
    docstring).  Hadamard's: |c_{n-m}|^2 <= C(n, m)^2 S^m / n^m, for the
    sum S of the squared entries.  Parseval's:
    |c_j|^2 <= (n r^2 + 2 r t + S)^n / (n^n r^(2j)) for t = |tr mat| and
    any r > 0, here a power of two near the r that minimises it, which
    a float picks.  Both are quotients of Python ints, rounded up, so
    nothing overflows or rounds down; the isqrt of the largest minimum,
    plus one, exceeds every |c_k|.  The coefficients run in decreasing
    order of their Hadamard bound, and the scan stops at the first one
    whose Hadamard bound cannot raise the maximum, so Parseval's is taken
    only where it might decide it.  ``charpoly`` passes S' of its
    ``weights`` in place of S (module docstring).
    """
    n = mat.shape[0]
    if S is None:
        values, counts = np.unique(mat, return_counts=True)
        S = sum(v * v * c for v, c in zip(values.tolist(), counts.tolist()))
    t = abs(sum(np.diagonal(mat).tolist()))
    # hadamard[m] bounds |c_{n-m}|^2: C(n, m)^2 S^m / n^m, rounded up
    hadamard = []
    comb, power, scale = 1, 1, 1
    for m in range(n + 1):
        hadamard.append(-(-comb * comb * power // scale))
        comb, power, scale = comb * (n - m) // (m + 1), power * S, scale * n
    # e -> (n r^2 + 2 r t + S)^n at r = 2^e, times 4^(-e n) when e < 0
    powers = {}
    base = n**n
    best = 0
    for m in sorted(range(n + 1), key=hadamard.__getitem__, reverse=True):
        square = hadamard[m]
        if square <= best:
            break
        j = n - m
        # at j = n Hadamard's bound is 1 = c_n, and at j = 0 it is
        # Parseval's limit as r -> 0, so neither needs Parseval's
        if 0 < j < n:
            # r = 2^e, e rounded from the positive root of
            # n (n - j) r^2 + t (n - 2j) r - j S = 0
            a, b = n * m, t * (n - 2 * j)
            root = -b + math.isqrt(b * b + 4 * a * j * S)
            e = round(math.log2(max(root, 1)) - math.log2(2 * a))
            if e not in powers:
                if e >= 0:
                    powers[e] = ((n << 2 * e) + (t << e + 1) + S) ** n
                else:
                    powers[e] = (n + (t << 1 - e) + (S << -2 * e)) ** n
            shift = 2 * e * j if e >= 0 else -2 * e * m
            square = min(square, -(-powers[e] // (base << shift)))
        best = max(best, square)
    return math.isqrt(best) + 1


def charpoly(mat: np.ndarray, weights=None) -> list:
    """Exact char poly det(xI - mat) of an integer matrix, coefficients
    low to high, via CRT over word-size primes.

    ``weights``, when given, are positive integers w with diag(w) mat
    symmetric.  Then mat is similar to the real symmetric matrix
    diag(w)^(1/2) mat diag(w)^(-1/2), whose squared entries sum to
    S' = sum_ij mat_ij mat_ji, and the prime budget takes S' in place
    of the sum of mat's squared entries.  The route of each residue
    depends on mat alone (``_residues``).

    Raises ValueError when the matrix is not square, when an entry
    does not fit in int64 (both routes and the bound read the int64
    copy, so it must equal the input), or when ``weights`` are given but
    are not positive integers, one per row, that make diag(w) mat
    symmetric."""
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"charpoly needs a square matrix, got shape {m.shape}")
    try:
        a = m.astype(np.int64)
    except OverflowError:
        a = None
    if a is None or not np.array_equal(a, m):
        raise ValueError("charpoly needs integer entries that fit in int64")
    n = a.shape[0]
    S = None
    if weights is not None:
        w = list(weights)
        if len(w) != n or not all(isinstance(x, numbers.Integral) and x > 0 for x in w):
            raise ValueError("charpoly needs one positive integer weight per row")
        # in Python ints, so that no product overflows
        entries = a.astype(object)
        weighted = np.array(w, dtype=object).reshape(n, 1) * entries
        if not np.array_equal(weighted, weighted.T):
            raise ValueError("charpoly needs weights w with diag(w) mat symmetric")
        S = int((entries * entries.T).sum())
    if n == 0:
        return [1]
    primes_used = _primes_covering(2 * _coefficient_bound(a, S) + 1)
    residues = _residues(a, primes_used)

    # incremental CRT, lifted to the symmetric range at the end
    coeffs = [int(r) for r in residues[0]]
    mod = primes_used[0]
    for res, p in zip(residues[1:], primes_used[1:]):
        inv = pow(mod % p, p - 2, p)
        for k in range(n + 1):
            delta = (int(res[k]) - coeffs[k]) % p
            coeffs[k] = coeffs[k] + mod * (delta * inv % p)
        mod *= p
    half = mod // 2
    return [c - mod if c > half else c for c in coeffs]


def berkowitz_charpoly(mat) -> list:
    """Exact char poly det(xI - mat) by the Berkowitz/Samuelson
    division-free recurrence, coefficients low to high.

    Plain Python integers throughout; intended as an independent oracle
    for small matrices rather than a production path.
    """
    a = [[int(x) for x in row] for row in np.asarray(mat)]
    n = len(a)
    if n == 0:
        return [1]
    # q holds coefficients of the current leading minor, highest first
    q = [1]
    for k in range(1, n + 1):
        akk = a[k - 1][k - 1]
        row = a[k - 1][: k - 1]  # R: below-block row
        col = [a[i][k - 1] for i in range(k - 1)]  # C: right-block column
        # t = [-1, a_kk, R C, R A C, R A^2 C, ...]
        t = [-1, akk]
        if k > 1:
            vec = col
            for _ in range(k - 1):
                t.append(sum(r * v for r, v in zip(row, vec)))
                vec = [
                    sum(a[i][j] * vec[j] for j in range(k - 1))
                    for i in range(k - 1)
                ]
                if len(t) == k + 1:
                    break
        new = [0] * (k + 1)
        for i, ti in enumerate(t):
            if ti == 0:
                continue
            for j, qj in enumerate(q):
                if i + j <= k:
                    new[i + j] -= ti * qj
        q = new
    return list(reversed(q))


def taylor_shift(coeffs: list, a: int) -> list:
    """Coefficients of p(x + a) for integer a, low to high, by synthetic
    division (Horner/Ruffini), exactly."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def count_roots_greater(coeffs: list, num: int, scale_bits: int) -> int:
    """Number of real roots of p strictly greater than num / 2^scale_bits.

    Exact for real-rooted p: substitute x -> x/2^s (clearing denominators),
    Taylor-shift by num, and count Descartes sign variations; with all
    roots real the variation count equals the root count in (a, inf).
    Roots are counted with multiplicity.
    """
    n = len(coeffs) - 1
    scaled = [c << (scale_bits * (n - i)) for i, c in enumerate(coeffs)]
    shifted = taylor_shift(scaled, num)
    signs = [c for c in shifted if c != 0]
    count = 0
    for x, y in zip(signs, signs[1:]):
        if (x > 0) != (y > 0):
            count += 1
    return count
