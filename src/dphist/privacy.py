"""Differential privacy primitives.

Laplace sampling from seeded, structurally keyed noise streams, the
geometric per-level allocation, and a consumption ledger that audits
sequential composition along every root-to-leaf path while treating
disjoint siblings as parallel; the ledger is a release's one budget
record. Every budget and sensitivity passes one check, ``require_positive``
(above 0 and finite, so not NaN), and ``assert_valid`` fails closed on NaN.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BudgetOverflowError",
    "require_positive",
    "NoiseSource",
    "laplace_sample",
    "geometric_level_budget",
    "BudgetLedger",
]

EPS_TOL = 1e-9


class BudgetOverflowError(RuntimeError):
    """Some root-to-leaf path was charged more than the total budget."""


def require_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``0 < value < inf`` (so NaN fails too)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


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
    """Seeded randomness with independent substreams per structural site.

    Substreams are derived from ``(seed, key...)`` so the same release
    run with the same seed reproduces every draw bit-for-bit, and draws
    at distinct sites never share a stream. ``zero_noise`` turns every
    draw into its noiseless value (debug / oracle runs only; budget
    validation still applies).
    """

    def __init__(self, seed: int, *, zero_noise: bool = False, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.zero_noise = bool(zero_noise)
        self._spawn_key = _spawn_key
        self._generator: np.random.Generator | None = None

    def substream(self, *key) -> "NoiseSource":
        return NoiseSource(
            self.seed,
            zero_noise=self.zero_noise,
            _spawn_key=self._spawn_key + _key_words(key),
        )

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)
            self._generator = np.random.default_rng(seq)
        return self._generator

    def laplace(self, scale: float) -> float:
        if self.zero_noise:
            return 0.0
        return float(self.generator.laplace(0.0, scale))

    def choice_index(self, probs: np.ndarray) -> int:
        """Categorical draw; zero-noise mode returns the argmax (smallest on ties)."""
        if self.zero_noise:
            return int(np.argmax(probs))
        return int(self.generator.choice(len(probs), p=probs))


def laplace_sample(sensitivity: float, eps: float, src: NoiseSource) -> float:
    """One draw from Laplace(0, sensitivity / eps).

    Raises on a bad budget or sensitivity rather than silently skipping noise.
    """
    require_positive("sensitivity", sensitivity)
    require_positive("eps", eps)
    return src.laplace(sensitivity / eps)


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


@dataclass
class BudgetLedger:
    """Ordered log of every budget charge, keyed by tree path.

    A charge at path ``p`` is sequential with charges at any prefix or
    extension of ``p`` and parallel with charges on disjoint paths.
    Grouped charges (``charge_parallel``) record one budget amount spent
    independently on ``count`` disjoint sites, e.g. flat grid cells.
    """

    entries: list[tuple[str, int, tuple[int, ...] | None, float, int]] = field(default_factory=list)

    def charge(self, label: str, eps: float, *, path: tuple[int, ...] = (), level: int = 0) -> None:
        require_positive("charge", eps)
        self.entries.append((label, level, tuple(path), float(eps), 1))

    def charge_parallel(self, label: str, eps: float, *, count: int, level: int = 0) -> None:
        require_positive("charge", eps)
        if count < 1:
            raise ValueError("site count must be positive")
        self.entries.append((label, level, None, float(eps), int(count)))

    def note(self, label: str, *, path: tuple[int, ...] = (), level: int = 0) -> None:
        """Zero-cost marker entry (warnings, audit breadcrumbs)."""
        self.entries.append((label, level, tuple(path), 0.0, 1))

    def __len__(self) -> int:
        return len(self.entries)

    def total_by_label(self, label: str) -> float:
        return sum(e[3] for e in self.entries if e[0] == label)

    def chain_totals(self) -> dict[tuple[int, ...], float]:
        """Budget consumed along each maximal charged path.

        The total for a path includes every charge at its prefixes plus
        every parallel group (a record's cell lies in exactly one site
        of each group).
        """
        per_path: dict[tuple[int, ...], float] = {}
        parallel = 0.0
        for _, _, path, eps, _ in self.entries:
            if path is None:
                parallel += eps
            else:
                per_path[path] = per_path.get(path, 0.0) + eps
        if not per_path:
            return {(): parallel}
        prefixes = set()
        for path in per_path:
            for i in range(len(path)):
                prefixes.add(path[:i])
        out = {}
        for path in per_path:
            if path in prefixes:
                continue
            total = parallel
            for i in range(len(path) + 1):
                total += per_path.get(path[:i], 0.0)
            out[path] = total
        return out

    def assert_valid(self, eps_total: float, tol: float = EPS_TOL) -> None:
        """Raise BudgetOverflowError if any path exceeds ``eps_total``; a NaN total or ``eps_total`` counts as over."""
        eps_total = float(eps_total)
        for path, total in self.chain_totals().items():
            if not total <= eps_total + tol:
                raise BudgetOverflowError(
                    f"path {'/'.join(map(str, path)) or '<root>'} charged {total!r} > eps_total {eps_total!r}"
                )

    def save(self, path) -> None:
        """Delimiter-separated audit log: label,level,path,eps,sites."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label,level,path,eps,sites\n")
            for label, level, node_path, eps, sites in self.entries:
                loc = "*" if node_path is None else "/".join(map(str, node_path))
                fh.write(f"{label},{level},{loc},{eps:.12g},{sites}\n")
