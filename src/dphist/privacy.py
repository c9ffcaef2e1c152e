"""Differential privacy primitives.

Keyed Laplace noise, the geometric per-level allocation, and a consumption
ledger that audits sequential composition along every root-to-leaf path
while treating disjoint siblings as parallel; the ledger is a release's one
budget record, each row keyed by its path's code. Every budget and
sensitivity passes one check, ``require_positive`` (above 0 and finite, so
not NaN), and ``assert_valid`` allows a path over its budget by at most a
share ``EPS_TOL`` of it and fails closed on NaN.

Noise is counter-based, after Salmon, Moraes, Dror and Shaw, "Parallel
random numbers: as easy as 1, 2, 3" (SC'11). Every release draw is a pure
function of three things: the seed, the substream key (a ``NoiseSource``'s
stream prefix, such as ``"ug"``) and a four-word site counter
``(label, w1, w2, w3)``. ``label`` comes from the fixed table below; a tree
node enters as the code of its path, ``path_code``: 1 at the root, and a
child's code is its parent's ``code << 2 | i``. The draw is the first
output word of Philox4x64-10 for that counter, under the two-word key that each
``NoiseSource`` derives once from ``SeedSequence(seed, spawn_key)``, by the
one cipher ``philox_array`` on a ``(K, 4)`` array of counters. The word's
top 53 bits become a uniform in (0, 1) (``uniform_array``), and the
inverse Laplace CDF, one log per draw, turns that into the draw
(``laplace_array``). Distinct sites therefore never share a draw, the same
seed repeats every draw bit for bit, and a whole grid, tree or tree level
is one ``philox_array`` call per draw kind; ``NoiseSource.laplace`` is its
one-row form, for the two single draws. The cipher runs ``_BLOCK``
counters at a time, every round in place in one preallocated buffer.
Inverse-CDF sampling on a float uniform is the setting Mironov analyses in
"On significance of the least significant bits for differential privacy"
(CCS 2012); this module does not snap its outputs.

``NoiseSource.generator`` is a ``numpy.random.Generator`` on the same
``(seed, spawn_key)``. It samples synthetic datasets only; no release draw
uses it.
"""

from __future__ import annotations

import hashlib
import math
from itertools import repeat

import numpy as np

__all__ = [
    "BudgetOverflowError",
    "require_positive",
    "HEIGHT",
    "COUNT",
    "PRUNE",
    "SPLIT",
    "EM",
    "CELL",
    "LEVEL1",
    "LEVEL2",
    "MAX_PATH_DEPTH",
    "path_code",
    "site_counters",
    "philox_array",
    "NoiseSource",
    "geometric_level_budget",
    "BudgetLedger",
]

EPS_TOL = 1e-9

# Site labels, the first word of every draw counter.
HEIGHT = 1  # htf's noisy dataset size
COUNT = 2  # a node's count, or flat-uniform's total
PRUNE = 3  # htf's re-perturbed count of a pruned node
SPLIT = 4  # one of htf's noisy split objective evaluations
EM = 5  # the kd-tree's exponential-mechanism split
CELL = 6  # a uniform-grid or per-cell (singular) count
LEVEL1 = 7  # an adaptive-grid level-1 cell
LEVEL2 = 8  # an adaptive-grid level-2 cell

MAX_PATH_DEPTH = 31  # path_code's leading 1 and two bits per level fill 63 bits


class BudgetOverflowError(RuntimeError):
    """Some root-to-leaf path was charged more than the total budget."""


def require_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``0 < value < inf`` (so NaN fails too)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def path_code(path) -> int:
    """One counter word for a tree path: a leading 1, then two bits per child index (0-3), root first."""
    if len(path) > MAX_PATH_DEPTH:
        raise ValueError(f"tree path of {len(path)} levels is deeper than {MAX_PATH_DEPTH}")
    code = 1
    for child in path:
        if not 0 <= child < 4:
            raise ValueError(f"child index {child} outside [0, 4)")
        code = code << 2 | child
    return code


def site_counters(label: int, w1, w2=0, w3=0) -> np.ndarray:
    """The ``(K, 4)`` uint64 counters ``(label, w1, w2, w3)`` of K sites, the words broadcast against each other.

    The array is the ``(K, 4)`` view of a ``(4, K)`` one, so each word is a contiguous column. Raises ValueError
    for a word that is not an integer in ``[0, 2**64)``: a cast would move a float or an out-of-range word onto
    another site's counter.
    """
    words = [np.asarray(w) for w in (label, w1, w2, w3)]
    for w in words:
        if w.dtype.kind not in "iu" or (w < 0).any():  # Python ints of 2**64 and above are object arrays
            raise ValueError(f"site words must be integers in [0, 2**64), got {w!r}")
    words = np.broadcast_arrays(*(w.astype(np.uint64) for w in words))
    return np.stack(words).reshape(4, -1).T


def _counter_rows(counters) -> np.ndarray:
    """``counters`` as a ``(K, 4)`` uint64 array, in its own layout if it is one; ValueError unless each row is a site."""
    counters = np.asarray(counters)
    if counters.ndim != 2 or counters.shape[1] != 4:
        raise ValueError(f"a counter is four words: counters must be a (K, 4) array, got shape {counters.shape}")
    return counters if counters.dtype == np.uint64 else site_counters(*counters.T)


# Philox4x64-10 (Random123): the round multipliers of (c0, c2), and key increments
_MASK = 0xFFFFFFFFFFFFFFFF
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_BLOCK = 1 << 13  # counters per block of philox_array; its (12, _BLOCK) uint64 buffer, 768 KB, stays in L2
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _mulhi(a: np.ndarray, m: np.ndarray, out: np.ndarray, t0: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> None:
    """The high words of the 128-bit products ``a * m`` into ``out``, from 32-bit halves; ``t0``-``t2`` are scratch."""
    m_lo, m_hi = m & _LO32, m >> _U32
    np.bitwise_and(a, _LO32, out=t0)  # a_lo
    np.right_shift(a, _U32, out=t1)  # a_hi
    np.multiply(t0, m_lo, out=t2)
    np.multiply(t1, m_lo, out=out)
    t0 *= m_hi
    t2 >>= _U32
    t2 += t0
    np.bitwise_and(out, _LO32, out=t0)
    t2 += t0  # the middle column of the product, below 2**64
    t2 >>= _U32
    out >>= _U32
    out += t2
    t1 *= m_hi
    out += t1


def philox_array(counters, key) -> np.ndarray:
    """The first output word of Philox4x64-10 under the two-word ``key`` for each row of a ``(K, 4)`` counter array.

    Reads ``_BLOCK`` rows at a time, in any layout, into one buffer that every round writes with ``out=``, each
    operation on the pair (c0, c2) at once; the last two rounds compute only what the first word needs.
    """
    counters = _counter_rows(counters)
    # round r's key words, (k1, k0): they meet the high words of (c0 * M0, c2 * M1)
    keys = [np.array([[(int(key[1]) + r * _W1) & _MASK], [(int(key[0]) + r * _W0) & _MASK]], np.uint64) for r in range(10)]
    out = np.empty((1, len(counters)), dtype=np.uint64)
    buf = np.empty((12, min(len(counters), _BLOCK)), dtype=np.uint64)
    for lo in range(0, len(counters), _BLOCK):
        block = counters[lo:lo + _BLOCK]
        pair, cross, high, *scratch = (buf[i:i + 2, :len(block)] for i in range(0, 12, 2))
        buf[:4, :len(block)] = block.T[[0, 2, 3, 1]]  # pair (c0, c2), cross (c3, c1)
        for k in keys[:8]:
            # (c0, c2) <- (hi(c2 * M1) ^ c1 ^ k0, hi(c0 * M0) ^ c3 ^ k1) and (c3, c1) <- lo((c0, c2) * (M0, M1))
            _mulhi(pair, _M, high, *scratch)
            high ^= cross
            high ^= k
            np.multiply(pair, _M, out=cross)
            pair, high = high[::-1], pair
        one = [t[:1] for t in scratch]
        c2 = high[:1]  # round 9 needs only c2 = hi(c0 * M0) ^ c3 ^ k1 and c1 = lo(c2 * M1)
        _mulhi(pair[:1], _M[:1], c2, *one)
        c2 ^= cross[:1]
        c2 ^= keys[8][:1]
        np.multiply(pair[1:], _M[1:], out=cross[1:])
        c0 = pair[:1]  # round 10: c0 = hi(c2 * M1) ^ c1 ^ k0
        _mulhi(c2, _M[1:], c0, *one)
        c0 ^= cross[1:]
        np.bitwise_xor(c0, keys[9][1:], out=out[:, lo:lo + len(block)])
    return out[0]


def _key_words(parts) -> tuple[int, ...]:
    # Stable 32-bit words per key part; type-tagged so 5 and "5" differ.
    words: list[int] = []
    for part in parts:
        if isinstance(part, (int, np.integer)):
            v = int(part) & 0xFFFFFFFFFFFFFFFF
            words.extend((0, v & 0xFFFFFFFF, (v >> 32) & 0xFFFFFFFF))
        else:
            digest = hashlib.blake2s(str(part).encode("utf-8"), digest_size=8).digest()
            words.extend((1, int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:], "little")))
    return tuple(words)


class NoiseSource:
    """Seeded, keyed randomness: one Philox key per substream, one counter per draw site.

    ``substream(*key)`` names a stream by a prefix (a method name, a sweep
    row); a draw on it is keyed by its site counter ``(label, w1, w2, w3)``
    (see the module docstring), so the same seed reproduces every draw bit
    for bit and distinct sites never share one. ``zero_noise`` turns every
    draw into its noiseless value (debug / oracle runs only; budget
    validation still applies).
    """

    def __init__(self, seed: int, *, zero_noise: bool = False, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.zero_noise = bool(zero_noise)
        self._spawn_key = _spawn_key
        self._key: tuple[int, int] | None = None
        self._generator: np.random.Generator | None = None

    def substream(self, *key) -> "NoiseSource":
        return NoiseSource(
            self.seed,
            zero_noise=self.zero_noise,
            _spawn_key=self._spawn_key + _key_words(key),
        )

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)

    @property
    def key(self) -> tuple[int, int]:
        """The two-word Philox key of this stream, derived once."""
        if self._key is None:
            k0, k1 = self._seed_sequence().generate_state(2, np.uint64)
            self._key = (int(k0), int(k1))
        return self._key

    @property
    def generator(self) -> np.random.Generator:
        """A generator on this stream, for sampling datasets; no release draws from it."""
        if self._generator is None:
            self._generator = np.random.default_rng(self._seed_sequence())
        return self._generator

    def uniform_array(self, counters) -> np.ndarray:
        """The uniform in (0, 1) at each row of a ``(K, 4)`` counter array, its word's top 53 bits mid-bin; never zeroed."""
        u = ((philox_array(counters, self.key) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return np.minimum(u, np.nextafter(1.0, 0.0), out=u)  # the top bin's midpoint rounds to 1.0: take 1 - 2**-53

    def laplace(self, scale: float, *site: int) -> float:
        """``laplace_array`` at the one four-word ``site``, its words checked as ``site_counters`` checks them."""
        if len(site) != 4:
            raise ValueError(f"a site is four words, got {site!r}")
        return float(self.laplace_array(scale, site_counters(*site))[0])

    def laplace_array(self, scale, counters) -> np.ndarray:
        """Laplace(0, ``scale``) at each row of a ``(K, 4)`` counter array; ``scale`` broadcasts.

        In zero-noise mode every draw is 0, once the counters and ``scale`` pass the same checks.
        """
        counters = _counter_rows(counters)
        scale = np.asarray(scale, dtype=np.float64)
        ok = (scale > 0.0) & (scale < math.inf)
        if not ok.all():
            require_positive("scale", float(scale.flat[ok.argmin()]))
        if self.zero_noise:
            return np.zeros(len(counters))
        # one log per draw, in place: log(2u) below 1/2, and its negation -log(2 - 2u) from 1/2 up
        u = self.uniform_array(counters)
        u *= 2.0
        sign = 2.0 - u
        np.minimum(u, sign, out=u)  # the log's argument, which equals 2 - 2u exactly from 1/2 up
        np.subtract(u, sign, out=sign)  # so this is +0 from 1/2 up and negative below
        np.negative(np.copysign(scale, sign, out=sign), out=sign)
        np.log(u, out=u)
        u *= sign
        return u


def geometric_level_budget(level: int, height: int, eps: float, fanout: int = 2) -> float:
    """Per-level budget under the variance-optimal geometric allocation.

    ``level`` is the node height (leaves at 0, root at ``height``); the
    share decays by fanout^(1/3) per level upward so leaves receive the
    largest slice. The shares over levels 0..height sum to ``eps``.
    """
    require_positive("eps", eps)
    if height < 0 or not (0 <= level <= height):
        raise ValueError(f"level {level} outside [0, {height}]")
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    b = float(fanout)
    ratio = b ** (1.0 / 3.0)
    return (b ** ((height - level) / 3.0)) * eps * (ratio - 1.0) / (b ** ((height + 1) / 3.0) - 1.0)


def _by_code(codes, root, child) -> dict:
    """Each code c of ``codes`` and of their prefixes mapped to ``child(value of c >> 2, c)``, made once.

    Code 1, the root, maps to ``root`` and None to None. Raises ValueError for a number that is no path code.
    """
    out = {None: None, 1: root}
    for code in codes:
        todo = []
        while code not in out:
            if code < 4:
                raise ValueError(f"{todo[0] if todo else code} is not a path code")
            todo.append(code)
            code >>= 2
        value = out[code]
        for prefix in reversed(todo):
            value = out[prefix] = child(value, prefix)
    return out


def _path_texts(codes) -> dict:
    """The ``0/1/1`` text of each path code of ``codes``: its child indices from the root, ``""`` at the root."""
    return _by_code(codes, "", lambda text, code: f"{text}/{code & 3}" if text else str(code & 3))


class BudgetLedger:
    """Ordered log of every budget charge, keyed by the code of its tree path (``path_code``).

    A charge at path ``p`` is sequential with charges at any prefix or
    extension of ``p`` and parallel with charges on disjoint paths. Grouped
    charges (``charge_parallel``) record one budget amount spent on each of
    ``count`` disjoint sites, e.g. flat grid cells. ``rows`` holds each as
    ``(label, level, code, eps, sites)``, the code None for a group;
    ``entries``, and the ``entries=`` the ledger is built from, hold a path's tuple.
    """

    def __init__(self, entries=()):
        self.rows = [(label, level, None if path is None else path_code(path), eps, sites) for label, level, path, eps, sites in entries]

    @property
    def entries(self) -> list[tuple[str, int, tuple[int, ...] | None, float, int]]:
        """Every row in charge order, its path a tuple of child indices (None for a group)."""
        paths = _by_code((row[2] for row in self.rows), (), lambda path, code: (*path, code & 3))
        return [(label, level, paths[code], eps, sites) for label, level, code, eps, sites in self.rows]

    def charge(self, label: str, eps: float, *, code: int = 1, level: int = 0) -> None:
        """Charge ``eps`` as ``label`` at the path of code ``code`` (the root's by default), at tree ``level``."""
        self.charge_many(label, [eps], codes=[code], levels=[level])

    def charge_many(self, label: str, eps, *, codes, levels) -> None:
        """``charge`` ``eps[i]`` at ``codes[i]`` and ``levels[i]`` for every i in turn, checking the ``eps`` array once."""
        eps = np.asarray(eps, dtype=np.float64).reshape(-1)
        levels = np.asarray(levels).reshape(-1)
        codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
        if not len(eps) == len(levels) == len(codes):
            raise ValueError(f"{len(eps)} charges with {len(codes)} codes and {len(levels)} levels")
        ok = (eps > 0.0) & (eps < math.inf)
        if not ok.all():
            require_positive("charge", float(eps[ok.argmin()]))
        self.rows.extend(zip(repeat(label), levels.tolist(), codes.tolist(), eps.tolist(), repeat(1)))

    def charge_parallel(self, label: str, eps: float, *, count: int, level: int = 0) -> None:
        require_positive("charge", eps)
        if count < 1:
            raise ValueError("site count must be positive")
        self.rows.append((label, level, None, float(eps), int(count)))

    def __len__(self) -> int:
        return len(self.rows)

    def total_by_label(self, label: str) -> float:
        return sum(row[3] for row in self.rows if row[0] == label)

    def chain_totals(self) -> dict[int, float]:
        """Budget consumed along each maximal charged path, by path code, in the order the paths were first charged.

        The total for a path includes every charge at its prefixes plus
        every parallel group (a record's cell lies in exactly one site
        of each group), added from the root down with the groups first.
        A ledger of groups alone has the root's path.
        """
        per_code: dict[int, float] = {}
        parallel = 0.0
        for _, _, code, eps, _ in self.rows:
            if code is None:
                parallel += eps
            else:
                per_code[code] = per_code.get(code, 0.0) + eps
        # the total at every prefix of a charged path, each made from its parent's once
        totals = _by_code(per_code, parallel + per_code.get(1, 0.0), lambda total, code: total + per_code.get(code, 0.0))
        inner = {code >> 2 for code in totals if code}
        return {code: totals[code] for code in per_code or [1] if code not in inner}

    def assert_valid(self, eps_total: float) -> None:
        """Raise BudgetOverflowError if a path exceeds ``eps_total`` by more than its ``EPS_TOL`` share; NaN is over."""
        bound = float(eps_total) * (1.0 + EPS_TOL)
        for code, total in self.chain_totals().items():
            if not total <= bound:
                raise BudgetOverflowError(
                    f"path {_path_texts([code])[code] or '<root>'} charged {total!r} > eps_total {float(eps_total)!r}"
                )

    def save(self, path) -> None:
        """Delimiter-separated audit log: label,level,path,eps,sites, a path as ``0/1/1`` (a group's ``*``), eps its ``repr``."""
        texts = {**_path_texts(row[2] for row in self.rows), None: "*"}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label,level,path,eps,sites\n")
            for label, level, code, eps, sites in self.rows:
                fh.write(f"{label},{level},{texts[code]},{float(eps)!r},{sites}\n")
