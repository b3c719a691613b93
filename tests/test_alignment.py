"""Tests for the Alignment container and its statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequences.alignment import (
    BASE_TO_CODE,
    MISSING,
    Alignment,
    _encode_sequence,
)

sequences_strategy = st.lists(
    st.text(alphabet="ACGT", min_size=12, max_size=12), min_size=2, max_size=8
)

#: Alignments with missing data: 2-8 rows of equal length over A/C/G/T/N.
gappy_strategy = st.integers(min_value=1, max_value=10).flatmap(
    lambda n_sites: st.lists(
        st.text(alphabet="ACGTN", min_size=n_sites, max_size=n_sites), min_size=2, max_size=8
    )
)


def reference_segregating_sites(aln: Alignment) -> int:
    """Per-column count: a site segregates if its non-missing bases differ."""
    seg = 0
    for s in range(aln.n_sites):
        col = aln.codes[:, s]
        col = col[col != MISSING]
        if col.size and np.unique(col).size > 1:
            seg += 1
    return seg


def reference_encode(seq: str) -> np.ndarray:
    """Per-character loop over the upper-cased string (the table's oracle)."""
    out = np.empty(len(seq), dtype=np.int8)
    for i, ch in enumerate(seq.upper()):
        if ch in BASE_TO_CODE:
            out[i] = BASE_TO_CODE[ch]
        elif ch in "NRYKMSWBDHV?-.XU":
            out[i] = MISSING
        else:
            raise ValueError(f"unrecognized nucleotide character {ch!r} at position {i}")
    return out


class TestEncodeSequence:
    def test_matches_the_per_character_loop(self, rng):
        alphabet = np.array(list("ACGTacgtNRYKMSWBDHV?-.XUnrykmswbdhvxu"))
        for _ in range(200):
            seq = "".join(rng.choice(alphabet, size=int(rng.integers(0, 300))))
            got = _encode_sequence(seq)
            assert got.dtype == np.int8
            assert np.array_equal(got, reference_encode(seq))

    @pytest.mark.parametrize("seq", ["ACGZ", "acgz", "AC1T", "A CG", "ACGT\n", "AC\x00G", "N*"])
    def test_unrecognized_ascii_matches_the_loop(self, seq):
        with pytest.raises(ValueError) as expected:
            reference_encode(seq)
        with pytest.raises(ValueError) as got:
            _encode_sequence(seq)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "seq, position",
        [("ACGß", 3), ("ßACG", 0), ("AéGT", 1), ("ACGT\u0100", 4), ("AC\U0001F600", 2)],
    )
    def test_non_ascii_is_unrecognized_at_its_position(self, seq, position):
        # "ß".upper() is "SS", so upper-casing the whole string first would
        # shift every later position.
        with pytest.raises(ValueError) as got:
            _encode_sequence(seq)
        assert str(got.value) == (
            f"unrecognized nucleotide character {seq[position]!r} at position {position}"
        )


class TestConstruction:
    def test_from_sequences_basic(self, tiny_alignment):
        assert tiny_alignment.n_sequences == 4
        assert tiny_alignment.n_sites == 8
        assert tiny_alignment.names == ("alpha", "beta", "gamma", "delta")

    def test_sequence_roundtrip(self, tiny_alignment):
        assert tiny_alignment.sequence("alpha") == "ACGTACGT"
        assert tiny_alignment.sequence(3) == "CCGTTCGA"

    def test_lowercase_and_ambiguity_codes(self):
        aln = Alignment.from_sequences({"a": "acgtn", "b": "ACG-T"})
        assert aln.sequence("a") == "ACGTN"
        assert aln.codes[1, 3] == MISSING

    def test_unknown_character_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            Alignment.from_sequences({"a": "ACGZ", "b": "ACGT"})

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="differing lengths"):
            Alignment.from_sequences({"a": "ACGT", "b": "ACG"})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Alignment(names=("x", "x"), codes=np.zeros((2, 4), dtype=np.int8))

    def test_single_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            Alignment.from_sequences({"only": "ACGT"})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Alignment.from_sequences({})

    def test_codes_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Alignment(names=("a", "b"), codes=np.full((2, 3), 9, dtype=np.int8))

    def test_codes_are_read_only(self, tiny_alignment):
        with pytest.raises(ValueError):
            tiny_alignment.codes[0, 0] = 2

    def test_index_by_missing_name(self, tiny_alignment):
        with pytest.raises(KeyError):
            tiny_alignment.index("nope")

    def test_iteration_yields_all(self, tiny_alignment):
        pairs = list(tiny_alignment)
        assert len(pairs) == 4
        assert pairs[0] == ("alpha", "ACGTACGT")

    @given(sequences_strategy)
    @settings(max_examples=50)
    def test_roundtrip_property(self, seqs):
        names = [f"s{i}" for i in range(len(seqs))]
        aln = Alignment.from_sequences(list(zip(names, seqs)))
        for name, seq in zip(names, seqs):
            assert aln.sequence(name) == seq


class TestStatistics:
    def test_base_frequencies_sum_to_one(self, tiny_alignment):
        freqs = tiny_alignment.base_frequencies()
        assert freqs.shape == (4,)
        assert freqs.sum() == pytest.approx(1.0)

    def test_base_frequencies_known_values(self):
        aln = Alignment.from_sequences({"a": "AACC", "b": "GGTT"})
        freqs = aln.base_frequencies()
        assert np.allclose(freqs, [0.25, 0.25, 0.25, 0.25])

    def test_base_frequencies_ignore_missing(self):
        aln = Alignment.from_sequences({"a": "AANN", "b": "AANN"})
        freqs = aln.base_frequencies()
        assert freqs[0] == pytest.approx(1.0)

    def test_base_frequencies_pseudocount(self):
        aln = Alignment.from_sequences({"a": "AAAA", "b": "AAAA"})
        freqs = aln.base_frequencies(pseudocount=1.0)
        assert np.all(freqs > 0)
        assert freqs.sum() == pytest.approx(1.0)

    def test_all_missing_raises(self):
        aln = Alignment.from_sequences({"a": "NN", "b": "NN"})
        with pytest.raises(ValueError):
            aln.base_frequencies()

    def test_pairwise_differences_symmetric_zero_diagonal(self, tiny_alignment):
        d = tiny_alignment.pairwise_differences()
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_pairwise_differences_known(self):
        aln = Alignment.from_sequences({"a": "AAAA", "b": "AAAT", "c": "TTTT"})
        d = aln.pairwise_differences()
        assert d[0, 1] == 1
        assert d[0, 2] == 4
        assert d[1, 2] == 3

    def test_pairwise_differences_missing_not_counted(self):
        aln = Alignment.from_sequences({"a": "AANA", "b": "AATT"})
        d = aln.pairwise_differences()
        assert d[0, 1] == 1  # the N column does not count

    def test_segregating_sites(self, tiny_alignment):
        # Columns differing across the four sequences: position 0 (A/A/A/C),
        # position 4 (A/A/T/T), position 7 (T/A/A/A) -> 3 segregating sites.
        assert tiny_alignment.segregating_sites() == 3

    def test_segregating_sites_ignore_missing(self):
        # Column 0: A/N (monomorphic), 1: N/N (empty), 2: A/C, 3: N/G.
        aln = Alignment.from_sequences({"a": "ANAN", "b": "NNCG"})
        assert aln.segregating_sites() == 1

    @given(gappy_strategy)
    @settings(max_examples=200)
    def test_segregating_sites_matches_per_column_reference(self, seqs):
        aln = Alignment.from_sequences([(f"s{i}", seq) for i, seq in enumerate(seqs)])
        assert aln.segregating_sites() == reference_segregating_sites(aln)

    def test_watterson_theta_positive(self, tiny_alignment):
        assert tiny_alignment.watterson_theta() > 0

    def test_watterson_theta_zero_for_identical(self):
        aln = Alignment.from_sequences({"a": "ACGT", "b": "ACGT", "c": "ACGT"})
        assert aln.watterson_theta() == 0.0

    def test_site_patterns_weights_sum_to_sites(self, tiny_alignment):
        patterns, weights = tiny_alignment.site_patterns()
        assert patterns.shape[0] == tiny_alignment.n_sequences
        assert weights.sum() == tiny_alignment.n_sites

    def test_site_patterns_collapse_duplicates(self):
        aln = Alignment.from_sequences({"a": "AAAA", "b": "TTTT"})
        patterns, weights = aln.site_patterns()
        assert patterns.shape[1] == 1
        assert weights[0] == 4


class TestSubsetting:
    def test_subset_by_name(self, tiny_alignment):
        sub = tiny_alignment.subset(["alpha", "gamma"])
        assert sub.names == ("alpha", "gamma")
        assert sub.sequence("gamma") == tiny_alignment.sequence("gamma")

    def test_subset_too_small_rejected(self, tiny_alignment):
        with pytest.raises(ValueError):
            tiny_alignment.subset(["alpha"])

    def test_truncate(self, tiny_alignment):
        short = tiny_alignment.truncate(3)
        assert short.n_sites == 3
        assert short.sequence("alpha") == "ACG"

    def test_truncate_bounds(self, tiny_alignment):
        with pytest.raises(ValueError):
            tiny_alignment.truncate(0)
        with pytest.raises(ValueError):
            tiny_alignment.truncate(99)
