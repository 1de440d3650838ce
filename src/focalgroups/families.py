"""Concrete confined semidirect-product data: a group H, an automorphism
alpha and a distinguished subset A with alpha(A) contained in A, the union
of the alpha^-n(A) exhausting H, and alpha^n0(A.A) back inside A.

Every family here does exact arithmetic (integers, residues, Fractions)
and exposes the same capability surface, so the word-metric and boundary
layers stay family-agnostic.  A is symmetrized and contains the identity
by construction in all families.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import metric

INF = float("inf")
# int64 stand-in for INF in the array kernels, far above any radius or length.
ARRAY_INF = 1 << 62
# The most elements a product window (or its A) may hold: a larger one is a
# configuration error, so the cap never narrows what a report covers.
PRODUCT_WINDOW_CAP = 20_000


class FamilyError(ValueError):
    """Bad element, bad window, or an unsupported family operation."""


class GroupFamily:
    """Capability contract for one confined pair (H, alpha, A).

    Elements of H are plain hashable payloads (tuples, Fractions); the
    family object owns all arithmetic on them.  Stateless and immutable,
    hence freely shareable.
    """

    name = "abstract"
    n0 = 0
    # Set once the closed-form a_length has been checked against the
    # brute-force windowed oracle (validate_a_length below); word_length
    # refuses unvalidated families unless the family is a trusted copy.
    a_length_validated = False
    trusted = False

    def unchecked(self):
        """A copy whose a_length the word-length gates trust unvalidated.
        It equals this family (same config), so their points mix; exact
        verdicts still read a_length_validated alone."""
        twin = copy.copy(self)
        twin.trusted = True
        return twin

    # -- group arithmetic ------------------------------------------------
    def identity(self):
        raise NotImplementedError

    def multiply(self, h1, h2):
        raise NotImplementedError

    def invert(self, h):
        raise NotImplementedError

    def alpha_pow(self, h, k):
        """alpha^k(h) for any integer k: the one form of alpha a family
        implements."""
        raise NotImplementedError

    def alpha(self, h):
        return self.alpha_pow(h, 1)

    def alpha_inv(self, h):
        return self.alpha_pow(h, -1)

    # -- the confined subset A -------------------------------------------
    def in_A(self, h):
        raise NotImplementedError

    def a_length(self, h):
        """Least k with h a product of k elements of A (0 for identity,
        inf when no power of A reaches h)."""
        raise NotImplementedError

    def a_factorize(self, h):
        """A witness list of a_length(h) elements of A with product h."""
        raise NotImplementedError

    def basis(self, hs, factors, shift):
        """Array encoding for the batched group law and the pair word-length
        kernel (see LamplighterBasis).

        The basis encodes every element of hs and every product of at most
        `factors` elements of hs, each twisted by alpha^k with |k| <= shift,
        exactly; its twisted_products takes the shifts m_x of the rows.
        """
        raise NotImplementedError

    # -- certificates and surrogates ---------------------------------------
    def element_order(self, h):
        """Order of h in H, or None when infinite."""
        raise NotImplementedError

    def h_unbounded(self, h):
        """True when the cyclic subgroup generated by h is certified
        unbounded in the word metric (family-specific closed-form
        argument); False means no certificate, not boundedness.  A family
        must certify every h of infinite order (element_order None) here:
        boundary.isometry_type refuses an element with no certificate."""
        return False

    def compaction_index(self):
        """Counting surrogate for the index [A : alpha(A)]."""
        raise FamilyError(f"{self.name}: no counting surrogate available")

    # -- serialization ------------------------------------------------------
    def canonical_bytes(self, h):
        raise NotImplementedError

    def h_to_json(self, h):
        raise NotImplementedError

    def h_from_json(self, obj):
        raise NotImplementedError

    def format_h(self, h):
        raise NotImplementedError

    def parse_gen(self, text):
        """Parse the payload of a g{...} word token."""
        raise NotImplementedError

    def config(self):
        raise NotImplementedError

    # -- windows ------------------------------------------------------------
    def default_window(self, radius):
        raise NotImplementedError

    def iter_window(self, window):
        """All H-elements inside a finite window."""
        raise NotImplementedError

    def iter_A_window(self, window):
        """The window's elements in A, in iter_window order: only the
        identity when the window holds no other element of A.  The shape
        is read at the call, so a window too large to list raises then."""
        size, _ = self.a_window_shape(window)
        return (self.a_window_letter(window, i) for i in range(size))

    def a_window_shape(self, window):
        """(number of elements of iter_A_window(window), index of the
        identity among them), without listing them."""
        raise NotImplementedError

    def a_window_letter(self, window, index):
        """Element number `index` of iter_A_window(window), without listing
        the ones before it."""
        raise NotImplementedError

    def in_window(self, h, window):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if other is self:
            return True
        return type(other) is type(self) and other.config() == self.config()

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.config().items(), key=repr))))

    def __repr__(self):
        items = ", ".join(f"{k}={v!r}" for k, v in self.config().items() if k != "family")
        return f"{type(self).__name__}({items})"


def _check_levels(levels):
    if levels < 0:
        raise FamilyError(f"window levels = {levels} < 0")


def json_field(obj, key, kind, default=None):
    """obj[key] of an element's JSON payload or a family config as a `kind`
    (int takes JSON integers and decimal strings), or default when the key
    is absent and a default is given; FamilyError otherwise."""
    value = obj.get(key, default) if isinstance(obj, dict) else None
    try:
        if kind is int and isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
        if kind is dict and isinstance(value, dict):
            return value
    except ValueError:
        pass
    raise FamilyError(f"{obj!r} needs {key!r} as {kind.__name__}")


# ---------------------------------------------------------------------------
# Array encodings: the batched group law and pair word lengths
# ---------------------------------------------------------------------------


class LamplighterBasis:
    """Lamp configurations as rows of digit columns over positions lo..hi.

    The batched group law of every basis: encode and decode lists of
    H-elements, take rows, concatenate encodings, hashable row keys (equal
    exactly when the elements are), a window mask, and
    twisted_products(X, ms, S), whose row r * len(S) + c encodes
    h_r . alpha^ms[r](s_c), and twisted_sums(S, ts, word, count), whose
    row w encodes the sum of alpha^ts[r](s_r) over the rows r with
    word[r] = w (the identity for a w with none), for w < count.  With
    twisted False, alpha is the identity and ms and ts are ignored.
    a_factorize(G) is the batched a_factorize: (letters, factored), with
    letter j of row r (an encoding per j, at least one) the j-th A-letter
    of row r's factorization, identity letters ending the shorter ones,
    and factored False for a row outside every power of A, whose letters
    are identities.
    Digits are uint8 while a sum of two stays below 256, so a row costs a
    byte a position.

    Every basis also runs the pair word-length kernel: pair_a_lengths(R,
    row_ms, C) gives a_length on the grid of pair quotients g_ij =
    alpha^-m_i(h_i^-1 h_j), with row i the encoded h_i (row_ms an int64
    array) and column j the encoded h_j.  It returns (settle, knee,
    lengths): settle[i, j] is the least k with a_length(alpha^k g_ij) <= 1,
    -ARRAY_INF when g_ij is the identity and ARRAY_INF when no k exists;
    knee[i, j] is the least k from which one more alpha step no longer
    lowers 2k + a_length(alpha^k g_ij), which may be negative (-ARRAY_INF
    for the identity, ARRAY_INF with settle).  Since alpha compacts, the
    cost is convex in k, so for k >= 0 the knee, or k itself when it lies
    past the knee, is the first k' >= k of least cost.  lengths(k) takes an
    int64 array k of the grid's shape, k_ij >= 0, and returns a new array
    of a_length(alpha^k_ij g_ij), with ARRAY_INF for INF.

    delta_ceiling(enc, ms, d) is a proven upper bound on the four-point
    constant of the points encoded as rows enc with exponents ms, whose
    distance matrix is d, or None.  Only a twisted lamplighter basis has
    one, from its coset-tree pair form (tree_pairs); it still checks that
    form against every entry of d, so nothing is taken on trust.
    """

    def __init__(self, q, lo, hi, twisted=True):
        self.q, self.lo, self.hi, self.twisted = q, lo, hi, twisted
        self.width = hi - lo + 1
        self.dtype = np.dtype(np.uint8 if q <= 128 else np.int64)

    def encode(self, hs):
        out = np.zeros((len(hs), self.width), dtype=self.dtype)
        for r, h in enumerate(hs):
            for pos, val in h:
                if not self.lo <= pos <= self.hi:
                    raise FamilyError(f"lamp position {pos} outside the basis [{self.lo}, {self.hi}]")
                out[r, pos - self.lo] = val
        return out

    def decode(self, enc):
        rows, cols = np.nonzero(enc)
        lamps = list(zip((cols + self.lo).tolist(), enc[rows, cols].tolist()))
        ends = np.searchsorted(rows, np.arange(len(enc) + 1)).tolist()
        return [tuple(lamps[a:b]) for a, b in zip(ends, ends[1:])]

    def take(self, enc, rows):
        return enc[rows]

    def concat(self, encs):
        return np.concatenate(encs)

    def row_keys(self, enc):
        return np.ascontiguousarray(enc).view(np.dtype((np.void, self.dtype.itemsize * self.width))).ravel().tolist()

    def in_window(self, enc, window):
        positions = np.arange(self.lo, self.hi + 1)
        outside = (positions < window.lo) | (positions > window.hi)
        return ~enc[:, outside].any(axis=1)

    def twisted_products(self, X, ms, S):
        self._check_fits(S.any(axis=0, keepdims=True), ms)  # every row meets every shift
        padded, cols = self._twist(S, ms)
        out = X[:, None, :] + padded[:, cols].transpose(1, 0, 2)
        out %= self.q
        return out.reshape(-1, self.width)

    def twisted_sums(self, S, ts, word, count):
        self._check_fits(S, ts)
        padded, cols = self._twist(S, ts)
        out = np.zeros((count, self.width), dtype=np.int64)
        # add.at is several times slower when it casts the digits itself.
        np.add.at(out, word, padded[np.arange(len(S))[:, None], cols].astype(np.int64))
        out %= self.q
        return out.astype(self.dtype)

    def _twist(self, S, shift):
        """(S with a zero column appended, cols): row r of alpha^shift[r](s)
        reads padded S at columns cols[r], for any row s of S."""
        shift = shift if self.twisted else np.zeros_like(shift)
        # Position lo + c of alpha^m(s) holds the digit of s at column c - m;
        # column `width` of the padded S is zero.
        cols = np.arange(self.width)[None, :] - shift[:, None]
        cols[(cols < 0) | (cols >= self.width)] = self.width
        return np.concatenate([S, np.zeros((len(S), 1), dtype=self.dtype)], axis=1), cols

    def _check_fits(self, S, shift):
        """Raise unless the lamps of each row r of S, moved by shift[r],
        stay inside the basis; a single row meets every shift."""
        lamps = S != 0
        low, high = lamps.argmax(axis=1), self.width - 1 - lamps[:, ::-1].argmax(axis=1)
        if self.twisted and (lamps.any(axis=1) & ((low + shift < 0) | (high + shift >= self.width))).any():
            raise FamilyError("twisted lamps leave the basis")

    def a_factorize(self, G):
        # A row in A is its own one-letter factorization.
        in_A = ~G[:, : max(0, -self.lo)].any(axis=1)
        return [G * in_A[:, None]], in_A

    def _lowest_difference(self, R, C, fill, dtype):
        """The least position at which the digits of row i of R and row j
        of C differ, or fill where the rows are equal, on the grid in
        `dtype`.  It is found one position at a time, highest first: no
        rows x cols x positions array."""
        low = np.full((len(R), len(C)), fill, dtype=dtype)
        for c in range(self.width - 1, -1, -1):
            np.putmask(low, R[:, c, None] != C[None, :, c], self.lo + c)
        return low

    def pair_a_lengths(self, R, row_ms, C):
        # The lamps of h_i^-1 h_j sit where the digits of h_i and h_j differ;
        # floor_ij is the least such position (ARRAY_INF where h_i = h_j).
        floor = self._lowest_difference(R, C, ARRAY_INF, np.int64)
        nonempty = floor != ARRAY_INF
        # a_length(alpha^k g_ij) is 0 for the identity, else 1 or INF as the
        # least lamp position floor_ij - m_i + k is >= 0 or not.  With alpha
        # = id there is no shift by m_i, and outside A it is INF for ever.
        # Every step up to settle pays (INF to 1) and none after it does, so
        # the knee is settle.
        if self.twisted:
            settle = np.where(nonempty, row_ms[:, None] - floor, -ARRAY_INF)
        else:
            settle = np.where(floor >= 0, -ARRAY_INF, ARRAY_INF)
        return settle, settle, lambda k: np.where(k >= settle, nonempty, ARRAY_INF)

    def tree_pairs(self, R, row_ms, C, col_ms, dtype=np.int64):
        """The coset-tree pair form (d_T, differs) on the grid of points
        x_i = (h_i, m_i), encoded as rows R with exponents row_ms, against
        the columns C with col_ms: d_T[i, j] = m_i + m_j - 2 min(m_i, m_j,
        u_ij), with u_ij the lowest position at which h_i and h_j differ,
        is the distance of x_i.o and x_j.o on the coset tree of
        trees.tree_act, and differs[i, j] is h_i != h_j.  The word metric
        is d_T + differs (x_i^-1 x_j has its lowest lamp at u_ij - m_i, so
        word_length's scan settles at i = max(0, m_i - m_j, m_i - u_ij)).
        `dtype` must hold -3 s and 4 s + 1 for s = max(|lo|, |hi| + 1, |m|),
        which bound every partial sum."""
        # Equal rows get u = top, above every position and exponent, which
        # leaves min(m_i, m_j) as it is.
        top = max(self.hi + 1, int(row_ms.max(initial=0)), int(col_ms.max(initial=0)))
        return _tree_form(self._lowest_difference(R, C, top, dtype), top, row_ms, col_ms)

    def delta_ceiling(self, enc, ms, d):
        # d = d_T + [h != h'] makes d the sum of a tree metric and the
        # ultrametric of an equivalence relation, both 0-hyperbolic: the
        # largest pair sum of a quadruple exceeds the second by at most
        # the second part's spread, 2, so delta <= 1 (see README, metric).
        # The form is checked against every entry of d, a block of rows at
        # a time; the lowest differing positions are found once per pair
        # of distinct lamp configurations and read through each point's
        # configuration.
        if not self.twisted:
            return None
        span = max(abs(self.lo), abs(self.hi) + 1, int(np.abs(ms).max(initial=0)))
        dtype = np.promote_types(d.dtype, np.min_scalar_type(-(4 * span + 2)))
        ids = {}
        of = np.array([ids.setdefault(key, len(ids)) for key in self.row_keys(enc)], dtype=np.intp)
        configs = np.empty((len(ids), self.width), dtype=self.dtype)
        configs[of] = enc
        top = max(self.hi + 1, int(ms.max(initial=0)))
        low = self._lowest_difference(configs, configs, top, dtype)
        for rows in metric.row_blocks(len(ms), len(ms)):
            d_T, differs = _tree_form(low.take(of[rows], axis=0).take(of, axis=1), top, ms[rows], ms)
            d_T += differs
            if not np.array_equal(d_T, d[rows]):
                return None
        return Fraction(1)


def _tree_form(u, top, row_ms, col_ms):
    """LamplighterBasis.tree_pairs from the grid u of lowest differing
    positions (top where the rows are equal, at least every exponent),
    computed in place in u's type."""
    differs = u < top
    mi, mj = row_ms.astype(u.dtype)[:, None], col_ms.astype(u.dtype)[None, :]
    d_T = np.minimum(np.minimum(u, mi, out=u), mj, out=u)
    d_T *= -2
    d_T += mi
    d_T += mj
    return d_T, differs


class NadicBasis:
    """Elements of Z[1/n] as numerators over the common denominator n^dpow,
    in int64 when the caller's Python-int bound allows it, else in Python
    ints (object dtype) with the same code.  The rows of S given to
    twisted_products must be divisible by n^max(ms), as every element
    of the hs the basis was built from is."""

    def __init__(self, n, dpow, shift, dtype):
        self.n, self.dpow, self.dtype = n, dpow, dtype
        self.scale = n**dpow
        self.powers = np.array([n**s for s in range(shift + 1)], dtype=dtype)

    def encode(self, hs):
        out = []
        for h in hs:
            if self.scale % h.denominator:
                raise FamilyError(f"denominator of {h} does not divide {self.n}^{self.dpow}")
            out.append(h.numerator * (self.scale // h.denominator))
        return np.array(out, dtype=self.dtype)

    def decode(self, enc):
        return [Fraction(v, self.scale) for v in enc.tolist()]

    def take(self, enc, rows):
        return enc[rows]

    def concat(self, encs):
        return np.concatenate(encs)

    def row_keys(self, enc):
        return enc.tolist()

    def in_window(self, enc, window):
        inside = np.abs(enc) <= window.xmax * self.scale
        if self.dpow > window.dpow:
            inside &= enc % self.n ** (self.dpow - window.dpow) == 0
        return inside

    def twisted_products(self, X, ms, S):
        # alpha^m(s) = s / n^m: multiply by n^-m, or divide exactly by n^m.
        up, down = self._twist(ms)
        if len(ms) and (S % self.powers[max(0, int(ms.max()))] != 0).any():
            raise FamilyError("generator numerators not divisible by the twist")
        out = S[None, :] * up[:, None]
        out //= down[:, None]
        out += X[:, None]
        return out.ravel()

    def twisted_sums(self, S, ts, word, count):
        up, down = self._twist(ts)
        if (S % down != 0).any():
            raise FamilyError("letter numerators not divisible by the twist")
        out = np.zeros(count, dtype=self.dtype)
        np.add.at(out, word, S * up // down)
        return out

    def _twist(self, ms):
        """(n^max(-m, 0), n^max(m, 0)) for each m: alpha^m(s) = s * up // down."""
        if len(ms) and max(-int(ms.min()), int(ms.max())) >= len(self.powers):
            raise FamilyError("twist outside the basis")
        return self.powers[np.maximum(-ms, 0)], self.powers[np.maximum(ms, 0)]

    def a_factorize(self, G):
        # k = a_length letters: k - 1 units of G's sign, then the remainder.
        k = -(-np.abs(G) // self.scale)
        unit = np.sign(G) * self.scale
        letters = [np.where(j < k - 1, unit, np.where(j == k - 1, G - j * unit, 0)) for j in range(max(1, int(k.max(initial=0))))]
        return letters, np.ones(len(G), dtype=bool)

    def pair_a_lengths(self, R, row_ms, C):
        # With a_ij = |N_j - N_i| (below 2^63 in an int64 basis),
        # a_length(alpha^k g_ij) = ceil(a_ij / n^(dpow + k - m_i)).
        n, dpow = self.n, self.dpow
        a = np.abs(C[None, :] - R[:, None])
        amax = int(a.max())
        # top: least t >= 0 with n^t >= amax.  ceil(a / n^e) is the same for
        # every e >= top when 0 <= a <= amax, so exponents are clamped there.
        top = 0
        while n**top < amax:
            top += 1
        # Python-int bound on every intermediate; object dtype runs the
        # same code exactly when int64 could overflow.
        # The exponents of lengths(k) for k >= 0 lie in [-up_max, top]; one
        # power table n^s, s <= max(top, up_max), serves both signs.
        up_max = max(0, int(row_ms.max()) - dpow)
        powers_max = max(top, up_max)
        dtype = np.int64 if max(n**powers_max, amax * n**up_max) < ARRAY_INF else object
        powers = np.array([n**s for s in range(powers_max + 1)], dtype=dtype)
        a = a.astype(dtype)
        least = np.zeros(a.shape, dtype=np.int64)  # least t with n^t >= a
        for s in range(top):
            least += a > powers[s]
        settle = np.where(a == 0, -ARRAY_INF, least + row_ms[:, None] - dpow)
        # One alpha step lowers a_length L to ceil(L / n), which pays (2k
        # grows by 2) exactly while L > cap.  With L = ceil(a / n^e), the
        # knee is the least e with L <= cap.  With j the least exponent with
        # n^j > cap, that is least - j + 1 (there L <= n^(j - 1) <= cap) or,
        # when a <= cap n^(least - j), least - j: one threshold per value of
        # least, clipped at amax, which no a passes.
        cap = {2: 5, 3: 4}.get(n, 3)
        j = next(j for j in itertools.count(1) if n**j > cap)
        thresholds = np.array([min(amax, cap * n**t // n**j) for t in range(top + 1)], dtype=dtype)
        knee = np.where(a == 0, -ARRAY_INF, settle - j + (a > thresholds[least]))

        def lengths(k):
            e = np.minimum(dpow + k - row_ms[:, None], top)
            down = powers[np.maximum(e, 0)]
            out = a * powers[np.maximum(-e, 0)]
            out += down - 1
            out //= down
            return out

        return settle, knee, lengths

    def delta_ceiling(self, enc, ms, d):
        return None


class ProductBasis:
    """The two factor encodings side by side, as a pair of arrays."""

    def __init__(self, left, right):
        self.left, self.right = left, right

    def encode(self, hs):
        return (self.left.encode([h[0] for h in hs]), self.right.encode([h[1] for h in hs]))

    def decode(self, enc):
        return list(zip(self.left.decode(enc[0]), self.right.decode(enc[1])))

    def take(self, enc, rows):
        return (self.left.take(enc[0], rows), self.right.take(enc[1], rows))

    def concat(self, encs):
        return (self.left.concat([e[0] for e in encs]), self.right.concat([e[1] for e in encs]))

    def row_keys(self, enc):
        return list(zip(self.left.row_keys(enc[0]), self.right.row_keys(enc[1])))

    def in_window(self, enc, window):
        return self.left.in_window(enc[0], window.left) & self.right.in_window(enc[1], window.right)

    def twisted_products(self, X, ms, S):
        return (self.left.twisted_products(X[0], ms, S[0]), self.right.twisted_products(X[1], ms, S[1]))

    def twisted_sums(self, S, ts, word, count):
        return (self.left.twisted_sums(S[0], ts, word, count), self.right.twisted_sums(S[1], ts, word, count))

    def a_factorize(self, G):
        (left, ok1), (right, ok2) = self.left.a_factorize(G[0]), self.right.a_factorize(G[1])
        k = max(len(left), len(right))
        left += [_identity_rows(G[0])] * (k - len(left))
        right += [_identity_rows(G[1])] * (k - len(right))
        return list(zip(left, right)), ok1 & ok2

    def pair_a_lengths(self, R, row_ms, C):
        # a_length is the max of the component lengths, so it is <= 1 from
        # the later of the two components' settling indices on.  The cost is
        # the max of the components' convex costs, so it is convex and no
        # longer falls from the later knee on; but it may not fall into that
        # knee either, so the knee steps back while the exponent before it
        # costs no more (never below 0, where no caller looks).
        s1, k1, l1 = self.left.pair_a_lengths(R[0], row_ms, C[0])
        s2, k2, l2 = self.right.pair_a_lengths(R[1], row_ms, C[1])

        def lengths(k):
            return np.maximum(l1(k), l2(k))

        knee = np.maximum(k1, k2)
        back = (knee > 0) & (knee < ARRAY_INF)
        while back.any():
            here, before = lengths(np.where(back, knee, 0)), lengths(np.where(back, knee - 1, 0))
            back &= before <= here + 2
            knee -= back
            back &= knee > 0
        return np.maximum(s1, s2), knee, lengths

    def delta_ceiling(self, enc, ms, d):
        return None


def _identity_rows(enc):
    """Identity rows shaped as enc: every basis encodes the identity as zeros."""
    return tuple(map(_identity_rows, enc)) if isinstance(enc, tuple) else np.zeros_like(enc)


@dataclass(frozen=True)
class LamplighterWindow(metric.Report):
    """Lamp supports restricted to [lo, hi]; alpha-exponents to [-levels, levels]."""

    lo: int
    hi: int
    levels: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise FamilyError(f"lamplighter window: lo = {self.lo} > hi = {self.hi}")
        _check_levels(self.levels)


class LamplighterFamily(GroupFamily):
    """H = direct sum over Z of Z_q, alpha shifts lamp positions by +1,
    A = configurations supported on [0, +oo).

    A is a subgroup (A.A = A), so n0 = 0 and a_length takes values in
    {0, 1, inf}.  Elements are sorted tuples of (position, nonzero residue).
    """

    n0 = 0
    a_length_validated = True

    def __init__(self, q):
        if q < 2:
            raise FamilyError("lamplighter needs q >= 2")
        self.q = q

    @property
    def name(self):
        return f"lamplighter(q={self.q})"

    def identity(self):
        return ()

    def multiply(self, h1, h2):
        lamps = dict(h1)
        for pos, val in h2:
            s = (lamps.get(pos, 0) + val) % self.q
            if s:
                lamps[pos] = s
            else:
                lamps.pop(pos, None)
        return tuple(sorted(lamps.items()))

    def invert(self, h):
        return tuple((pos, (self.q - val) % self.q) for pos, val in h)

    def alpha_pow(self, h, k):
        return tuple((pos + k, val) for pos, val in h)

    def in_A(self, h):
        return all(pos >= 0 for pos, _ in h)

    def a_length(self, h):
        if not h:
            return 0
        return 1 if self.in_A(h) else INF

    def a_factorize(self, h):
        if not h:
            return []
        if not self.in_A(h):
            raise FamilyError("element outside every power of A")
        return [h]

    def basis(self, hs, factors, shift):
        positions = [pos for h in hs for pos, _ in h] or [0]
        return LamplighterBasis(self.q, min(positions) - shift, max(positions) + shift)

    def element_order(self, h):
        return math.lcm(*(self.q // math.gcd(val, self.q) for _, val in h)) if h else 1

    def compaction_index(self):
        # [A : alpha(A)]: one lamp position (q residues) is forgotten by
        # the shift, independently of any window placed on the support.
        return self.q

    def canonical_bytes(self, h):
        return ("L:" + ",".join(f"{pos}:{val}" for pos, val in h)).encode()

    def h_to_json(self, h):
        return {"lamps": {str(pos): val for pos, val in h}}

    def h_from_json(self, obj):
        lamps = json_field(obj, "lamps", dict, {})
        out = {}
        for pos in lamps:
            val = json_field(lamps, pos, int) % self.q
            if val:
                out[int(pos)] = val
        return tuple(sorted(out.items()))

    def format_h(self, h):
        return "{" + ",".join(f"{pos}:{val}" for pos, val in h) + "}"

    def parse_gen(self, text):
        text = text.strip()
        # long form g{lamps:{0:1}} and short form g{0:1} both accepted
        if text.startswith("lamps:"):
            text = text[len("lamps:") :].strip().strip("{}")
        if not text:
            return ()
        out = {}
        for chunk in text.split(","):
            pos, _, val = chunk.partition(":")
            val = int(val) % self.q if val else 1
            if val:
                out[int(pos)] = val
        return tuple(sorted(out.items()))

    def config(self):
        return {"family": "lamplighter", "q": self.q}

    def default_window(self, radius):
        r = max(1, (radius + 1) // 2)
        return LamplighterWindow(lo=-min(r, 3), hi=min(r, 3), levels=radius)

    def _iter_configs(self, lo, hi):
        positions = range(lo, hi + 1)
        for values in itertools.product(range(self.q), repeat=len(positions)):
            yield tuple((p, v) for p, v in zip(positions, values) if v)

    def iter_window(self, window):
        return self._iter_configs(window.lo, window.hi)

    def a_window_shape(self, window):
        # One base-q digit per lamp position; the identity is all zeros.
        return self.q ** max(0, window.hi - max(window.lo, 0) + 1), 0

    def a_window_letter(self, window, index):
        # Base-q digits, the first position most significant (as _iter_configs).
        lamps = []
        for pos in range(window.hi, max(window.lo, 0) - 1, -1):
            index, val = divmod(index, self.q)
            if val:
                lamps.append((pos, val))
        return tuple(reversed(lamps))

    def in_window(self, h, window):
        return all(window.lo <= pos <= window.hi for pos, _ in h)

    def lamp(self, pos, val=1):
        """Single-lamp configuration."""
        val %= self.q
        return ((pos, val),) if val else ()


class SpoofIdentityFamily(LamplighterFamily):
    """Negative control: lamplighter data with alpha replaced by the
    identity map.  alpha(A) = A is not strictly contained in A, so the
    confining axioms must fail; a_length is deliberately left unvalidated.
    """

    a_length_validated = False

    @property
    def name(self):
        return f"spoof-identity(q={self.q})"

    def alpha_pow(self, h, k):
        return h

    def basis(self, hs, factors, shift):
        # alpha = id: twists move no lamp.
        positions = [pos for h in hs for pos, _ in h] or [0]
        return LamplighterBasis(self.q, min(positions), max(positions), twisted=False)

    def compaction_index(self):
        return 1  # alpha(A) = A

    def config(self):
        return {"family": "spoof-identity", "q": self.q}


@dataclass(frozen=True)
class NadicWindow(metric.Report):
    """Values |x| <= xmax with denominators dividing n^dpow; exponents
    to [-levels, levels]."""

    xmax: int
    dpow: int
    levels: int

    def __post_init__(self):
        if self.xmax < 0:
            raise FamilyError(f"n-adic window: xmax = {self.xmax} < 0")
        if self.dpow < 0:
            raise FamilyError(f"n-adic window: dpow = {self.dpow} < 0")
        _check_levels(self.levels)


class NadicFamily(GroupFamily):
    """H = Z[1/n] additive, alpha(x) = x/n, A = {|x| <= 1}.

    alpha(A.A) = [-2/n, 2/n] lies in A for n >= 2, so n0 = 1.  Elements
    are Fractions whose denominator is a power of n.
    """

    n0 = 1
    a_length_validated = True

    def __init__(self, n):
        if n < 2:
            raise FamilyError("n-adic needs n >= 2")
        self.n = n

    @property
    def name(self):
        return f"nadic(n={self.n})"

    def _check(self, x):
        d = x.denominator
        while (g := math.gcd(d, self.n)) > 1:
            d //= g
        if d != 1:
            raise FamilyError(f"denominator of {x} is not a power of {self.n}")
        return x

    def element(self, value):
        return self._check(Fraction(value))

    def identity(self):
        return Fraction(0)

    def multiply(self, h1, h2):
        return h1 + h2

    def invert(self, h):
        return -h

    def alpha_pow(self, h, k):
        return h / self.n**k if k >= 0 else h * self.n ** (-k)

    def in_A(self, h):
        return abs(h) <= 1

    def a_length(self, h):
        # ceil(|h|): sums of k unit-interval elements reach exactly |x| <= k.
        return -((-abs(h.numerator)) // h.denominator)

    def a_factorize(self, h):
        k = self.a_length(h)
        if k == 0:
            return []
        sign = 1 if h > 0 else -1
        parts = [Fraction(sign)] * (k - 1)
        parts.append(h - sign * (k - 1))
        return parts

    def basis(self, hs, factors, shift):
        # Twists alpha^k with k <= shift need n^shift more in the denominator;
        # a product of `factors` twisted elements is a sum of as many terms,
        # each at most max|h| * n^shift: over n^(base + shift), a numerator of
        # at most factors * max|N| * n^(2 shift), N the numerators over n^base.
        base = self._den_pow(math.lcm(*{h.denominator for h in hs}))
        scale = self.n**base
        top = max((abs(h.numerator) * (scale // h.denominator) for h in hs), default=0)
        dtype = np.int64 if max(factors * top * self.n ** (2 * shift), self.n**shift) < ARRAY_INF else object
        return NadicBasis(self.n, base + shift, shift, dtype)

    def element_order(self, h):
        return 1 if h == 0 else None

    def h_unbounded(self, h):
        # d(1, (k*h, 0)) = min_i 2i + ceil(|k h| / n^i) is nondecreasing
        # and unbounded in k, each term being so.
        return h != 0

    def compaction_index(self):
        # Length ratio |A| / |alpha(A)| = 2 / (2/n) = n, exact in Z[1/n]-density.
        return self.n

    def lattice_count_ratio(self, dpow):
        """Windowed lattice-point surrogate: points of A over points of
        alpha(A) on the 1/n^dpow grid; tends to the exact index."""
        coarse = 2 * self.n**dpow + 1
        fine = 2 * self.n ** (dpow - 1) + 1
        return Fraction(coarse, fine)

    def canonical_bytes(self, h):
        return f"N:{h.numerator}/{h.denominator}".encode()

    def _den_pow(self, den):
        """Least k with den dividing n^k; the least k for a set of
        denominators is that of their lcm."""
        k = 0
        while self.n**k % den:
            k += 1
        return k

    def h_to_json(self, h):
        k = self._den_pow(h.denominator)
        return {"num": str(h.numerator * self.n**k // h.denominator), "den_pow": k}

    def h_from_json(self, obj):
        num, den_pow = json_field(obj, "num", int), json_field(obj, "den_pow", int, 0)
        if den_pow < 0:
            raise FamilyError(f"den_pow = {den_pow} < 0")
        return self._check(Fraction(num, self.n**den_pow))

    def format_h(self, h):
        return f"{{{h}}}"

    def parse_gen(self, text):
        try:
            return self._check(Fraction(text.strip()))
        except ZeroDivisionError:
            raise FamilyError(f"n-adic generator {text.strip()!r} divides by zero") from None

    def config(self):
        return {"family": "nadic", "n": self.n}

    def default_window(self, radius):
        return NadicWindow(xmax=max(2, radius - 2), dpow=min(radius, 4), levels=radius)

    def iter_window(self, window):
        den = self.n**window.dpow
        for k in range(-window.xmax * den, window.xmax * den + 1):
            yield Fraction(k, den)

    def a_window_shape(self, window):
        # k / n^dpow for |k| <= min(xmax, 1) n^dpow: an xmax = 0 window's A is {0}.
        half = min(window.xmax, 1) * self.n**window.dpow
        return 2 * half + 1, half

    def a_window_letter(self, window, index):
        den = self.n**window.dpow
        return Fraction(index - min(window.xmax, 1) * den, den)

    def in_window(self, h, window):
        # In lowest terms, h * n^dpow is an integer exactly when h's
        # denominator divides n^dpow.
        return abs(h.numerator) <= window.xmax * h.denominator and self.n**window.dpow % h.denominator == 0


@dataclass(frozen=True)
class ProductWindow(metric.Report):
    left: object
    right: object
    levels: int

    def __post_init__(self):
        _check_levels(self.levels)

    def as_dict(self):
        """The factor windows nested."""
        return {**super().as_dict(), "left": self.left.as_dict(), "right": self.right.as_dict()}


class ProductFamily(GroupFamily):
    """Componentwise product of two families, one shared alpha-exponent.

    A = A1 x A2, n0 = max(n0_1, n0_2), and since both A factors contain
    the identity, a_length is the max of the component lengths.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.n0 = max(left.n0, right.n0)

    @property
    def name(self):
        return f"product({self.left.name}, {self.right.name})"

    @property
    def a_length_validated(self):
        return self.left.a_length_validated and self.right.a_length_validated

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def multiply(self, h1, h2):
        return (self.left.multiply(h1[0], h2[0]), self.right.multiply(h1[1], h2[1]))

    def invert(self, h):
        return (self.left.invert(h[0]), self.right.invert(h[1]))

    def alpha_pow(self, h, k):
        return (self.left.alpha_pow(h[0], k), self.right.alpha_pow(h[1], k))

    def in_A(self, h):
        return self.left.in_A(h[0]) and self.right.in_A(h[1])

    def a_length(self, h):
        return max(self.left.a_length(h[0]), self.right.a_length(h[1]))

    def basis(self, hs, factors, shift):
        return ProductBasis(
            self.left.basis([h[0] for h in hs], factors, shift),
            self.right.basis([h[1] for h in hs], factors, shift),
        )

    def a_factorize(self, h):
        f1 = self.left.a_factorize(h[0])
        f2 = self.right.a_factorize(h[1])
        k = max(len(f1), len(f2))
        f1 += [self.left.identity()] * (k - len(f1))
        f2 += [self.right.identity()] * (k - len(f2))
        return list(zip(f1, f2))

    def element_order(self, h):
        o1 = self.left.element_order(h[0])
        o2 = self.right.element_order(h[1])
        return None if o1 is None or o2 is None else math.lcm(o1, o2)

    def h_unbounded(self, h):
        return self.left.h_unbounded(h[0]) or self.right.h_unbounded(h[1])

    def compaction_index(self):
        return self.left.compaction_index() * self.right.compaction_index()

    def canonical_bytes(self, h):
        return b"P:(" + self.left.canonical_bytes(h[0]) + b")x(" + self.right.canonical_bytes(h[1]) + b")"

    def h_to_json(self, h):
        return {"left": self.left.h_to_json(h[0]), "right": self.right.h_to_json(h[1])}

    def h_from_json(self, obj):
        return (self.left.h_from_json(json_field(obj, "left", dict)), self.right.h_from_json(json_field(obj, "right", dict)))

    def format_h(self, h):
        return f"({self.left.format_h(h[0])}|{self.right.format_h(h[1])})"

    def parse_gen(self, text):
        lhs, sep, rhs = text.partition("|")
        if not sep:
            raise FamilyError("product generator payload needs 'left|right'")
        return (self.left.parse_gen(lhs.strip(" {}")), self.right.parse_gen(rhs.strip(" {}")))

    def config(self):
        return {"family": "product", "left": self.left.config(), "right": self.right.config()}

    def default_window(self, radius):
        return ProductWindow(
            left=self.left.default_window(radius),
            right=self.right.default_window(radius),
            levels=radius,
        )

    def iter_window(self, window):
        left, right = list(self.left.iter_window(window.left)), list(self.right.iter_window(window.right))
        _check_cap(len(left) * len(right))
        return itertools.product(left, right)

    def a_window_shape(self, window):
        # Pairs in row-major order, under the product cap.
        (nl, il), (nr, ir) = self.left.a_window_shape(window.left), self.right.a_window_shape(window.right)
        _check_cap(nl * nr)
        return nl * nr, il * nr + ir

    def a_window_letter(self, window, index):
        i, j = divmod(index, self.right.a_window_shape(window.right)[0])
        return (self.left.a_window_letter(window.left, i), self.right.a_window_letter(window.right, j))

    def in_window(self, h, window):
        return self.left.in_window(h[0], window.left) and self.right.in_window(h[1], window.right)


def _check_cap(size):
    if size > PRODUCT_WINDOW_CAP:
        raise FamilyError(f"product window has {size} elements, above its cap of {PRODUCT_WINDOW_CAP}")


def family_from_config(config):
    """Build a family from a config record such as
    {"family": "lamplighter", "q": 2} or the shorthand "lamplighter:2"."""
    if isinstance(config, str):
        config = _parse_shorthand(config)
    if not isinstance(config, dict):
        raise FamilyError(f"family config {config!r} is neither a mapping nor a shorthand string")
    kind = config.get("family")
    if kind == "lamplighter":
        return LamplighterFamily(json_field(config, "q", int))
    if kind == "nadic":
        return NadicFamily(json_field(config, "n", int))
    if kind == "product":
        return ProductFamily(family_from_config(config.get("left")), family_from_config(config.get("right")))
    if kind == "spoof-identity":
        return SpoofIdentityFamily(json_field(config, "q", int, 2))
    raise FamilyError(f"unknown family {kind!r}")


def _parse_shorthand(text):
    text = text.strip()
    if text.startswith("{"):
        import json

        return json.loads(text)
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product(") : -1]
        depth, cut = 0, None
        for idx, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                cut = idx
                break
        if cut is None:
            raise FamilyError(f"cannot split product spec {text!r}")
        return {
            "family": "product",
            "left": _parse_shorthand(inner[:cut]),
            "right": _parse_shorthand(inner[cut + 1 :]),
        }
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "lamplighter":
        return {"family": "lamplighter", "q": int(arg or 2)}
    if kind == "nadic":
        return {"family": "nadic", "n": int(arg or 2)}
    if kind == "spoof-identity":
        return {"family": "spoof-identity", "q": int(arg or 2)}
    raise FamilyError(f"unknown family shorthand {text!r}")


# ---------------------------------------------------------------------------
# Confining-axiom verification and oracles
# ---------------------------------------------------------------------------


@dataclass
class ConfiningReport(metric.Report):
    family: dict
    window: dict
    exhaust_depth: int
    alpha_into_A: bool
    strict_witness: object
    absorbed: bool
    absorption_failures: list = field(default_factory=list)
    product_absorbed: bool = True
    product_failures: list = field(default_factory=list)
    complete: bool = True

    @property
    def passed(self):
        return (
            self.alpha_into_A
            and self.strict_witness is not None
            and self.absorbed
            and self.product_absorbed
        )

    def as_dict(self):
        return {**super().as_dict(), "passed": self.passed}


def verify_confining(family, window=None, exhaust_depth=8, max_elements=100000):
    """Check the three confining axioms on a windowed sample.

    (a) alpha(A) inside A, with a strictness witness a in A \\ alpha(A);
    (b) every windowed h has alpha^m(h) in A for some 0 <= m <= exhaust_depth;
    (c) alpha^n0(a.a') in A for all windowed pairs a, a' in A.

    Each axiom runs as array steps of the pair kernel on one basis over
    the window, its A-letters and their inverses; g lies in A exactly
    when a_length(g) <= 1.  (a) is lengths(1) on the identity row over
    the A-letters, and the witness is the first letter a with lengths(0)
    > 1 at row exponent 1, where the kernel's g is alpha^-1(a).  (b) is
    settle <= exhaust_depth on the identity row over the window: settle
    is the least k with alpha^k(h) in A, and alpha(A) inside A keeps
    membership from there on (word_length's scan rests on the same).  (c) takes the inverted A-letters as rows and the A-letters as
    columns, so pair (i, j) is a_i a_j, and tests lengths(n0) in the row
    blocks of metric.row_blocks.

    At most max_elements A-letters, window elements and pairs (the first,
    in row-major order) are checked.  Failures are listed in that order,
    at most six a list; the (a) entry counts toward the six of
    absorption_failures.  A check stops at its sixth failure, and
    `complete` is False when a check reached its max_elements cut first.
    """
    if window is None:
        window = family.default_window(6)
    report = ConfiningReport(
        family=family.config(),
        window=window.as_dict(),
        exhaust_depth=exhaust_depth,
        alpha_into_A=True,
        strict_witness=None,
        absorbed=True,
    )

    a_window = list(itertools.islice(family.iter_A_window(window), max_elements + 1))
    if len(a_window) > max_elements:
        del a_window[max_elements:]
        report.complete = False
    elements = list(itertools.islice(family.iter_window(window), max_elements + 1))
    elements_cut = len(elements) > max_elements
    del elements[max_elements:]
    inverses = [family.invert(a) for a in a_window]
    # Room for the pair sums of (c) and for alpha^{+-1}.
    basis = family.basis(elements + a_window + inverses, 2, 1)
    one, zero = basis.encode([family.identity()]), np.zeros(1, dtype=np.int64)

    def outside_A(R, row_ms, C, n_cols, k):
        # Row-major indices of the pairs with alpha^k(g_ij) outside A.
        _, _, lengths = basis.pair_a_lengths(R, row_ms, C)
        return np.flatnonzero(lengths(np.full((len(row_ms), n_cols), k, dtype=np.int64)) > 1)

    n = len(a_window)
    if n:
        A = basis.encode(a_window)
        outside = outside_A(one, zero, A, n, 1)
        if outside.size:
            report.alpha_into_A = False
            report.absorption_failures.append({"axiom": "alpha(A) in A", "witness": family.format_h(a_window[outside[0]])})
        outside = outside_A(one, np.ones(1, dtype=np.int64), A, n, 0)
        if outside.size:
            report.strict_witness = family.format_h(a_window[outside[0]])

    if elements:
        settle, _, _ = basis.pair_a_lengths(one, zero, basis.encode(elements))
        unabsorbed = np.flatnonzero(settle[0] > exhaust_depth) if exhaust_depth >= 0 else range(len(elements))
        room = 6 - len(report.absorption_failures)
        for i in unabsorbed[:room]:
            report.absorbed = False
            report.absorption_failures.append({"axiom": "union of alpha^-n(A) = H", "witness": family.format_h(elements[i])})
        # The scalar walk stopped at its sixth failure before the cut.
        elements_cut = elements_cut and len(unabsorbed) < room
    if elements_cut:
        report.complete = False

    if n:
        inv = basis.encode(inverses)
        pairs = min(n * n, max_elements)
        rows = -(-pairs // n)
        for block in metric.row_blocks(rows, n):
            row_ms = np.zeros(block.stop - block.start, dtype=np.int64)
            bad = outside_A(basis.take(inv, block), row_ms, A, n, family.n0) + block.start * n
            for i, j in (divmod(int(k), n) for k in bad[bad < pairs]):
                a, b = a_window[i], a_window[j]
                prod = family.alpha_pow(family.multiply(a, b), family.n0)
                report.product_absorbed = False
                report.product_failures.append({"a": family.format_h(a), "b": family.format_h(b), "image": family.format_h(prod)})
                if len(report.product_failures) > 5:
                    return report
        if n * n > max_elements:
            report.complete = False
    return report


def brute_force_a_length(family, h, window, max_k=8):
    """Independent a_length oracle: breadth-first closure of windowed
    A-power sums, no closed form involved."""
    if h == family.identity():
        return 0
    gens = [a for a in family.iter_A_window(window) if a != family.identity()]
    seen = {family.identity()}
    frontier = [family.identity()]
    for k in range(1, max_k + 1):
        nxt = []
        for x in frontier:
            for a in gens:
                y = family.multiply(x, a)
                if y == h:
                    return k
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if not frontier:
            break
    return INF


def validate_a_length(family, window, max_k=6, limit=400):
    """Compare the family's closed-form a_length with the brute-force
    oracle on windowed elements; returns the list of mismatches."""
    mismatches = []
    for idx, h in enumerate(family.iter_window(window)):
        if idx >= limit:
            break
        claimed = family.a_length(h)
        if claimed is INF or claimed > max_k:
            continue
        actual = brute_force_a_length(family, h, window, max_k=max_k)
        if actual != claimed:
            mismatches.append((family.format_h(h), claimed, actual))
    return mismatches
