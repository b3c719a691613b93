"""DNA sequence alignments.

The sampler consumes a multiple sequence alignment ``D`` of present-day
samples (the tips of the genealogy).  The paper stores sequence data in the
device's constant memory packed two bits per base (Section 5.1.3); this
module provides the host-side representation: integer-encoded nucleotides,
name bookkeeping, empirical base frequencies (the prior π of Eq. 21), and
pairwise difference counts (the distance measure used by UPGMA).

Nucleotide encoding (stable across the package):

====  =====  ========
base  code   meaning
====  =====  ========
A     0      adenine
C     1      cytosine
G     2      guanine
T     3      thymine
====  =====  ========

Ambiguity codes and gaps are mapped to :data:`MISSING` (``4``) and treated as
fully-ambiguous observations by the likelihood engine (likelihood 1 for all
four bases), which is the standard Felsenstein treatment of missing data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "NUCLEOTIDES",
    "BASE_TO_CODE",
    "CODE_TO_BASE",
    "MISSING",
    "Alignment",
]

#: Canonical base ordering used throughout the package.
NUCLEOTIDES: tuple[str, str, str, str] = ("A", "C", "G", "T")

#: Mapping from (upper-case) base character to integer code.
BASE_TO_CODE: Mapping[str, int] = {b: i for i, b in enumerate(NUCLEOTIDES)}

#: Reverse mapping, including the missing-data code.
CODE_TO_BASE: Mapping[int, str] = {i: b for b, i in BASE_TO_CODE.items()} | {4: "N"}

#: Code used for gaps/ambiguity characters.
MISSING: int = 4

_AMBIGUOUS = "NRYKMSWBDHV?-.XU"

#: Code of each of the first 256 code points: bases and ambiguity codes in
#: either case; -1 marks an unrecognized character, every non-ASCII one included.
_CHAR_CODES = np.full(256, -1, dtype=np.int8)
for _chars, _code in [*BASE_TO_CODE.items(), (_AMBIGUOUS, MISSING)]:
    for _ch in _chars:
        _CHAR_CODES[ord(_ch)] = _CHAR_CODES[ord(_ch.lower())] = _code


def _encode_sequence(seq: str) -> np.ndarray:
    """Encode a nucleotide string into an int8 code array.

    One table lookup per character; a non-ASCII character is unrecognized.
    """
    points = np.frombuffer(seq.encode("utf-32-le"), dtype="<u4")
    out = _CHAR_CODES[np.minimum(points, 255)]
    bad = np.flatnonzero(out < 0)
    if bad.size:
        i = int(bad[0])
        ch = seq[i].upper() if seq[i].isascii() else seq[i]
        raise ValueError(f"unrecognized nucleotide character {ch!r} at position {i}")
    return out


@dataclass(frozen=True)
class Alignment:
    """An immutable multiple sequence alignment.

    Parameters
    ----------
    names:
        Sample names, one per sequence (unique).
    codes:
        ``(n_sequences, n_sites)`` int8 array of nucleotide codes.
    """

    names: tuple[str, ...]
    codes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int8)
        if codes.ndim != 2:
            raise ValueError("codes must be a 2-D (n_sequences, n_sites) array")
        if len(self.names) != codes.shape[0]:
            raise ValueError(
                f"{len(self.names)} names but {codes.shape[0]} sequences"
            )
        if len(set(self.names)) != len(self.names):
            raise ValueError("sequence names must be unique")
        if codes.shape[0] < 2:
            raise ValueError("an alignment needs at least two sequences")
        if codes.shape[1] < 1:
            raise ValueError("an alignment needs at least one site")
        if codes.min() < 0 or codes.max() > MISSING:
            raise ValueError("nucleotide codes must be in [0, 4]")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "names", tuple(self.names))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sequences(
        cls, sequences: Mapping[str, str] | Sequence[tuple[str, str]]
    ) -> "Alignment":
        """Build an alignment from ``{name: sequence}`` (or name/sequence pairs)."""
        items = list(sequences.items()) if isinstance(sequences, Mapping) else list(sequences)
        if not items:
            raise ValueError("no sequences provided")
        names = tuple(name for name, _ in items)
        lengths = {len(seq) for _, seq in items}
        if len(lengths) != 1:
            raise ValueError(f"sequences have differing lengths: {sorted(lengths)}")
        codes = np.vstack([_encode_sequence(seq) for _, seq in items])
        return cls(names=names, codes=codes)

    @classmethod
    def from_codes(cls, names: Iterable[str], codes: np.ndarray) -> "Alignment":
        """Build an alignment directly from an integer code matrix."""
        return cls(names=tuple(names), codes=np.array(codes, dtype=np.int8))

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_sequences(self) -> int:
        """Number of sequences (tips of the genealogy)."""
        return self.codes.shape[0]

    @property
    def n_sites(self) -> int:
        """Number of aligned base-pair positions."""
        return self.codes.shape[1]

    def sequence(self, name_or_index: str | int) -> str:
        """Return one sequence as a string of A/C/G/T/N characters."""
        idx = self.index(name_or_index)
        return "".join(CODE_TO_BASE[int(c)] for c in self.codes[idx])

    def index(self, name_or_index: str | int) -> int:
        """Resolve a sequence name (or pass through an index) to a row index."""
        if isinstance(name_or_index, int):
            if not 0 <= name_or_index < self.n_sequences:
                raise IndexError(f"sequence index {name_or_index} out of range")
            return name_or_index
        try:
            return self.names.index(name_or_index)
        except ValueError:
            raise KeyError(f"no sequence named {name_or_index!r}") from None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        for i, name in enumerate(self.names):
            yield name, self.sequence(i)

    def __len__(self) -> int:
        return self.n_sequences

    # ------------------------------------------------------------------ #
    # Statistics used by the sampler
    # ------------------------------------------------------------------ #
    def base_frequencies(self, pseudocount: float = 0.0) -> np.ndarray:
        """Empirical frequencies of A, C, G, T across the whole alignment.

        These provide the prior nucleotide distribution π used by the
        mutation model (Eq. 20–21).  Missing data are ignored.  An optional
        pseudocount guards against zero frequencies in small alignments.
        """
        counts = np.array(
            [np.count_nonzero(self.codes == b) for b in range(4)], dtype=float
        )
        counts += pseudocount
        total = counts.sum()
        if total == 0:
            raise ValueError("alignment contains no unambiguous bases")
        return counts / total

    def pairwise_differences(self) -> np.ndarray:
        """Matrix of pairwise nucleotide differences between sequences.

        ``out[i, j]`` is the number of sites at which sequences ``i`` and
        ``j`` hold different, unambiguous bases.  This is the distance that
        seeds the UPGMA starting tree (Section 5.1.3).
        """
        n = self.n_sequences
        out = np.zeros((n, n), dtype=float)
        codes = self.codes
        valid = codes != MISSING
        for i in range(n):
            diff = (codes[i] != codes) & valid[i] & valid
            out[i] = diff.sum(axis=1)
        np.fill_diagonal(out, 0.0)
        return out

    def segregating_sites(self) -> int:
        """Number of polymorphic (segregating) sites in the alignment.

        A site segregates when its unambiguous bases are not all the same,
        i.e. their column maximum exceeds their minimum.  MISSING is the
        largest code, so it never lowers a minimum, and it is masked to −1
        for the maximum; an all-missing column thus has max −1 < min 4.
        """
        low = self.codes.min(axis=0)
        high = np.where(self.codes == MISSING, -1, self.codes).max(axis=0)
        return int(np.count_nonzero(high > low))

    def watterson_theta(self) -> float:
        """Watterson's moment estimator of θ per site.

        A cheap, closed-form estimate ``θ_W = S / (a_n · L)`` where ``S`` is
        the number of segregating sites and ``a_n = Σ_{i=1}^{n-1} 1/i``.
        The CLI uses it as a sanity anchor for the user-supplied driving θ₀.
        """
        n = self.n_sequences
        a_n = float(np.sum(1.0 / np.arange(1, n)))
        return self.segregating_sites() / (a_n * self.n_sites)

    def site_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """Collapse identical alignment columns into unique patterns.

        Returns
        -------
        patterns:
            ``(n_sequences, n_patterns)`` array of unique columns.
        weights:
            ``(n_patterns,)`` array of how many original sites carry each
            pattern.  Likelihoods over sites can be computed per pattern and
            weighted, which is the standard Felsenstein-pruning optimization.
        """
        cols = self.codes.T  # (n_sites, n_sequences)
        patterns, inverse, counts = np.unique(
            cols, axis=0, return_inverse=True, return_counts=True
        )
        del inverse
        return patterns.T.astype(np.int8), counts.astype(float)

    def subset(self, names_or_indices: Sequence[str | int]) -> "Alignment":
        """Return a new alignment containing only the requested sequences."""
        idx = [self.index(x) for x in names_or_indices]
        if len(idx) < 2:
            raise ValueError("a subset alignment needs at least two sequences")
        return Alignment(
            names=tuple(self.names[i] for i in idx),
            codes=self.codes[idx].copy(),
        )

    def truncate(self, n_sites: int) -> "Alignment":
        """Return a new alignment keeping only the first ``n_sites`` columns."""
        if not 1 <= n_sites <= self.n_sites:
            raise ValueError(f"n_sites must be in [1, {self.n_sites}]")
        return Alignment(names=self.names, codes=self.codes[:, :n_sites].copy())
