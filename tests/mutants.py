"""Mutants that the named tests must kill.

Run from the root of a checkout:

    python tests/mutants.py [module ...]

Named modules, such as gf2 or pipeline, limit the run to the mutants of
those files under src/qkdsim; an unknown name exits 2 and lists the known
ones. With no name every mutant runs, which any change to a listed module
should do before it is merged.

Each entry names a module under src/qkdsim, an exact snippet that occurs
once in it, its replacement, and the pytest node ids that must fail once
the replacement is made. The script copies src, tests and pyproject.toml to
a temporary directory, checks that the named tests pass on the unmutated
copy, then applies one mutant at a time to that copy and runs its tests
there in one pytest process, reading each test's outcome from the run's
JUnit XML report. A mutant's run that takes five times as long as the
unmutated copy's, and at least a minute, is killed with every process it
started, and none of its tests passed. It exits 1 if the copy fails or if
any named test passes against its mutant. pytest does not collect this file; tests/test_mutants.py
checks that every snippet still occurs exactly once, so the list cannot
rot silently.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/qkdsim
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_ORACLE = "tests/test_adversary.py::test_collision_search_matches_oracle"
_TINY_W = "tests/test_adversary.py::test_collision_search_matches_oracle_below_one_byte"
_PLANTED = "tests/test_adversary.py::test_collision_search_finds_a_planted_hit_at_its_candidate"
_PROPERTY = "tests/test_adversary.py::test_collision_search_equals_oracle_property"
_REFUSES = "tests/test_adversary.py::test_collision_search_refuses_a_digest_it_could_never_match"
_BLOCKS = "tests/test_gf2_words.py::test_matvec_across_row_blocks_matches_int_reference_and_oracle"
_RNG = "tests/test_gf2_words.py::test_rng_bytes_equals_generator_bytes"
_RNG_LARGE = "tests/test_gf2_words.py::test_rng_bytes_equals_generator_bytes_on_a_large_key_matrix"
_LAZY = "tests/test_gf2.py::test_lazy_and_packed_vectors_agree"
_SPLICE = "tests/test_gf2_words.py::test_edited_matrix_bytes_equal_a_full_reversal"
_LARGE_KEYS = "tests/test_golden.py::test_large_baseline_matrix_and_keys_match_golden_digest"
_BASELINE_DUMP = "tests/test_golden.py::test_trials_jsonl_matches_golden_digest[baseline-dump]"
_PIPE = "tests/test_pipeline.py::"
_STRUCT = _PIPE + "test_pos_field_matches_struct_pack"
_LAYOUT = _PIPE + "test_log_serialization_frozen_layout"
_INTS = _PIPE + "test_positions_iterate_and_index_as_python_ints"
_EQUAL = _PIPE + "test_positions_equal_their_sequences_both_ways"
_VERIFY = _PIPE + "test_verify_accepts_valid_and_rejects_modified"
_VERIFY_PROPERTY = "tests/test_gf2_words.py::test_verify_agrees_with_digest_check"
_HONEST = _PIPE + "test_honest_sessions_complete_and_agree"
_FROZEN = _PIPE + "test_session_vectors_hold_frozen_bits_of_zeros_and_ones"
_IN_LOG = "tests/test_hardening.py::test_matrix_in_log_changes_serialization"
_DETECTS = "tests/test_adversary.py::test_matrix_in_log_detects_every_frame_attack"
_OWN_MATRIX = "tests/test_adversary.py::test_each_party_amplifies_with_its_own_matrix"
_SCEN = "tests/test_scenarios.py::"
_ACCEPT = "tests/test_acceptance.py::"
_BUILTIN_CHECKS = _SCEN + "test_all_builtin_checks_pass_at_reduced_trials"
_LARGE_FRONT_END = _PIPE + "test_front_end_matches_mask_oracle_at_large_n_raw"
_ADV = "tests/test_adversary.py::"
_ROWS = _SCEN + "test_config_validation_errors[overrides"
_DISTINCT_OTP = _ROWS + "57-bit_positions must be distinct, 3 repeats]"
_FROM_REPORTS = _SCEN + "test_from_reports_counts_each_rate_exactly"
_OWN_RUN = "tests/test_cli.py::test_report_judges_only_its_own_run"
_EDGES = _SCEN + "test_every_integer_edge_is_refused_or_runs_alike_at_one_and_two_lanes"

MUTANTS = (
    Mutant(
        "search: carry byte dropped",
        "adversary.py",
        "(lo >> down) | (hi << up)",
        "(lo >> down)",
        (_ORACLE, _PLANTED, _PROPERTY),
    ),
    Mutant(
        "search: first-byte mask dropped",
        "adversary.py",
        "if d[0] & first_mask == target_first and",
        "if d[0] == target_first and",
        (_TINY_W, _ORACLE),
    ),
    Mutant(
        "search: candidate count one short",
        "adversary.py",
        "first_hit * _SEARCH_CHUNK + offset + 1)",
        "first_hit * _SEARCH_CHUNK + offset)",
        (_PLANTED, _ORACLE),
    ),
    Mutant(
        "search: var_bits mask dropped",
        "adversary.py",
        ".reshape(-1, 2).T.copy() & var_words\n",
        ".reshape(-1, 2).T.copy()\n",
        (_ORACLE, _PLANTED),
    ),
    Mutant(
        "search: last occurrence of the hit's suffix returned",
        "adversary.py",
        "                return suffixes.index(suffix)\n",
        "                return len(suffixes) - 1 - suffixes[::-1].index(suffix)\n",
        (_TINY_W,),
    ),
    Mutant(
        "search: ktop not bit-reversed",
        "adversary.py",
        'k_lo, k_hi = words(ktop.to_bytes(16, "big"))',
        'k_lo, k_hi = np.frombuffer(ktop.to_bytes(16, "little"), "<u8")',
        (_ORACLE, _PROPERTY),
    ),
    Mutant(
        "search lanes: first record to arrive taken, not the lowest chunk",
        "adversary.py",
        "        if offset >= 0 and chunk < first_hit:\n",
        "        if offset >= 0 and first_hit == chunks:\n",
        (_ADV + "test_collision_search_waits_for_a_slow_lane_below_its_hit",),
    ),
    Mutant(
        "search lanes: unreported chunks left unscanned",
        "adversary.py",
        "own = unreported()  # the chunks it claimed are reported by no one\n",
        "pass\n",
        (_ADV + "test_collision_search_outlives_a_lane_that_dies_holding",),
    ),
    Mutant(
        "search lanes: static c % L assignment restored",
        "adversary.py",
        "_scan_chunks(scan, rng_state, budget, _shared_claim(search))",
        "_scan_chunks(scan, rng_state, budget, "
        "functools.partial(next, iter(range(0, chunks, lanes)), None))",
        (_ADV + "test_collision_search_caller_claims_every_chunk_a_held_back_lane_leaves",),
    ),
    Mutant(
        "claim counter: limit not lowered after a hit",
        "adversary.py",
        "        if number == search and chunk < limit:\n",
        "        if False:\n",
        (_ADV + "test_collision_search_caller_claims_every_chunk_a_held_back_lane_leaves",),
    ),
    Mutant(
        "claim counter: a stale search number's claim accepted",
        "adversary.py",
        "            if number != search or chunk >= limit:\n",
        "            if chunk >= limit:\n",
        (_ADV + "test_collision_search_lane_claims_no_chunk_of_a_later_search",),
    ),
    Mutant(
        "claim counter: claimed without its lock",
        "adversary.py",
        "    fcntl.lockf(fd, fcntl.LOCK_EX)\n",
        "    pass\n",
        (_ADV + "test_claims_hand_out_each_chunk_once_under_contention",),
    ),
    Mutant(
        "lane pool: a reset connection read as a live lane",
        "adversary.py",
        "except (EOFError, OSError):  # a reset if it died with its job unread",
        "except EOFError:  # a reset if it died with its job unread",
        (_ADV + "test_collision_search_scans_unreported_chunks_itself",),
    ),
    Mutant(
        "lane pool: a report of another search accepted",
        "adversary.py",
        "                if number == search:  # else left unread by an earlier search\n",
        "                if True:\n",
        (_ADV + "test_collision_search_drops_the_reports_of_a_failed_search",),
    ),
    Mutant(
        "lane pool: used by a process that does not own it",
        "adversary.py",
        "    if _pool_owner != os.getpid():\n",
        "    if False:\n",
        (_ADV + "test_collision_search_in_a_forked_child_leaves_the_parents_lanes",),
    ),
    Mutant(
        "search left open in the counter when the caller raises",
        "adversary.py",
        "            _lower_limit(search, 0)  # every lane's next claim of this search gets none\n",
        "            pass\n",
        (_ADV + "test_collision_search_leaves_no_process_behind",),
    ),
    Mutant(
        "search lanes: forked while other threads live",
        "adversary.py",
        "    if threading.active_count() > 1:\n        return 1\n",
        "",
        (_ADV + "test_collision_search_forks_no_lane_while_another_thread_lives",),
    ),
    Mutant(
        "search: a generator holding a buffered half-word accepted",
        "adversary.py",
        '    if rng_state["has_uint32"]:\n',
        "    if False:\n",
        (_ADV + "test_collision_search_refuses_a_buffered_half_word_at_every_lane_count",),
    ),
    Mutant(
        "search: pad bits past the width accepted",
        "adversary.py",
        "    if truncate_digest(captured_digest, w) != captured_digest:\n",
        "    if False:\n",
        (_REFUSES,),
    ),
    Mutant(
        "rng_bytes: buffered half-word dropped",
        "gf2.py",
        '    buffered = state["has_uint32"]\n',
        "    buffered = 0\n",
        (_RNG, _RNG_LARGE),
    ),
    Mutant(
        "rng_bytes: trailing high half never buffered",
        "gf2.py",
        '    state["has_uint32"] = rest % 2\n',
        '    state["has_uint32"] = 0\n',
        (_RNG,),
    ),
    Mutant(
        "rng_bytes: low and high halves swapped",
        "gf2.py",
        'out = raw.astype("<u8", copy=False).view(np.uint8)',
        'out = ((raw << 32) | (raw >> 32)).astype("<u8", copy=False).view(np.uint8)',
        (_RNG, _RNG_LARGE),
    ),
    Mutant(
        "BitVector.value: lazy int packed big-endian",
        "gf2.py",
        'np.packbits(self._bits, bitorder="little"), "little")',
        'np.packbits(self._bits, bitorder="big"), "little")',
        (_LAZY, "tests/test_gf2.py::test_bitvector_basics"),
    ),
    Mutant(
        "to_bytes_msb: lazy vector packed little-endian",
        "gf2.py",
        'return np.packbits(self._bits, bitorder="big").tobytes()',
        'return np.packbits(self._bits, bitorder="little").tobytes()',
        (_LAZY, "tests/test_gf2.py::test_hex_format_msb_first", _BASELINE_DUMP),
    ),
    Mutant(
        "matvec: lazy operand packed big-endian",
        "gf2.py",
        'x = np.packbits(v._bits, bitorder="little")',
        'x = np.packbits(v._bits, bitorder="big")',
        (_LAZY, _LARGE_KEYS),
    ),
    Mutant(
        "matvec: short last block dropped",
        "gf2.py",
        "    for start in range(0, m.rows, step):\n",
        "    for start in range(0, m.rows - m.rows % step if m.rows > step else m.rows, step):\n",
        (_BLOCKS,),
    ),
    Mutant(
        "matvec: folded slice off by one",
        "gf2.py",
        "out=folded[start : start + len(block)])",
        "out=folded[start + 1 : start + 1 + len(block)])",
        (_BLOCKS,),
    ),
    Mutant(
        "matvec: blocks one row short",
        "gf2.py",
        "block = m.packed[start : start + step]",
        "block = m.packed[start : start + max(1, step - 1)]",
        (_BLOCKS,),
    ),
    Mutant(
        "BitVector._adopt: adopted array left writable",
        "gf2.py",
        "        bits.flags.writeable = False\n        v = cls.__new__(cls)\n",
        "        v = cls.__new__(cls)\n",
        (_FROZEN, "tests/test_gf2.py::test_bits_cache_is_read_only_and_invisible"),
    ),
    Mutant(
        "to_bytes_msb: edited rows spliced one row late",
        "gf2.py",
        "(kept[: start * nbytes], edited, kept[stop * nbytes :])",
        "(kept[: (start + 1) * nbytes], edited, kept[(stop + 1) * nbytes :])",
        (_SPLICE,),
    ),
    Mutant(
        "replace_rows: lineage recorded against the block, not the source",
        "gf2.py",
        "(packed, m.cols, (m, start, stop))",
        "(packed, m.cols, (rows, start, stop))",
        (_SPLICE,),
    ),
    Mutant(
        "flip_entry: lineage covers no row",
        "gf2.py",
        "(packed, m.cols, (m, i, i + 1))",
        "(packed, m.cols, (m, i, i))",
        (_SPLICE,),
    ),
    Mutant(
        "Positions._from_indices: little-endian u32",
        "pipeline.py",
        '        p._packed = indices.astype(">u4").tobytes()\n'
        '        p._a = np.frombuffer(p._packed, ">u4")\n',
        '        p._packed = indices.astype("<u4").tobytes()\n'
        '        p._a = np.frombuffer(p._packed, "<u4")\n',
        (_FROZEN, _BASELINE_DUMP),
    ),
    Mutant(
        "Positions: little-endian u32",
        "pipeline.py",
        '        self._packed = positions.astype(">u4").tobytes()\n'
        '        self._a = np.frombuffer(self._packed, dtype=">u4")\n',
        '        self._packed = positions.astype("<u4").tobytes()\n'
        '        self._a = np.frombuffer(self._packed, dtype="<u4")\n',
        (_STRUCT, _LAYOUT),
    ),
    Mutant(
        "Positions: range check dropped",
        "pipeline.py",
        "        if positions.size and (positions.min() < 0 or positions.max() >= 2**32):\n"
        '            raise struct.error("positions must lie in [0, 2**32)")\n',
        "",
        (
            _PIPE + "test_pos_field_refuses_positions_outside_u32",
            _PIPE + "test_pos_field_packs_count_then_positions",
        ),
    ),
    Mutant(
        "Positions: iteration yields numpy ints",
        "pipeline.py",
        "return iter(self._a.tolist())",
        "return iter(self._a)",
        (_INTS,),
    ),
    Mutant(
        "Positions: indexing yields numpy ints",
        "pipeline.py",
        "return self._a.item(i)",
        "return self._a[i]",
        (_INTS,),
    ),
    Mutant(
        "Positions: count prefix dropped",
        "pipeline.py",
        "return _u32(len(self._a)) + self._packed",
        "return self._packed",
        (_STRUCT, _LAYOUT),
    ),
    Mutant(
        "Positions: hash of the packed bytes",
        "pipeline.py",
        "return hash(tuple(self._a.tolist()))",
        "return hash(self._packed)",
        (_EQUAL, _PIPE + "test_positions_render_as_their_list"),
    ),
    Mutant(
        "Positions: equality with plain sequences dropped",
        "pipeline.py",
        "        if isinstance(other, (list, tuple)):\n"
        "            return self.tolist() == list(other)\n",
        "",
        (_EQUAL,),
    ),
    Mutant(
        "Positions: strings, byte strings and ranges compared as positions",
        "pipeline.py",
        "        if isinstance(other, (list, tuple)):\n",
        "        if isinstance(other, Sequence):\n",
        (_EQUAL,),
    ),
    Mutant(
        "Positions: a view of the caller's array kept",
        "pipeline.py",
        '        self._a = np.frombuffer(self._packed, dtype=">u4")\n',
        "        self._a = positions\n",
        (_PIPE + "test_positions_cannot_be_written_in_place",),
    ),
    Mutant(
        "Positions._from_indices: a view of the stage's array kept",
        "pipeline.py",
        '        p._a = np.frombuffer(p._packed, ">u4")\n',
        "        p._a = indices\n",
        (_PIPE + "test_strategy_cannot_change_recorded_positions_through_frames",),
    ),
    Mutant(
        "verify: MAC check skipped",
        "pipeline.py",
        "    if not hmac_mod.compare_digest(mac_digest(auth_key, tag.digest), tag.mac):\n"
        "        return False\n",
        "",
        (_VERIFY, _VERIFY_PROPERTY),
    ),
    Mutant(
        "verify: digest mismatch ignored",
        "pipeline.py",
        "    return hmac_mod.compare_digest(digest, tag.digest)\n",
        "    return True\n",
        (_VERIFY, _VERIFY_PROPERTY, _DETECTS),
    ),
    Mutant(
        "truncate_digest: one bit past the width kept",
        "pipeline.py",
        "out[-1] &= 0xFF << (8 - width % 8) & 0xFF",
        "out[-1] &= 0xFF << (7 - width % 8) & 0xFF",
        (
            _PIPE + "test_truncate_digest_keeps_exactly_the_first_width_bits",
            _SCEN + "test_matrix_in_log_accepts_a_tampered_matrix_at_the_digest_width_rate",
        ),
    ),
    Mutant(
        "authenticate: MAC over the wrong bytes",
        "pipeline.py",
        "mac=mac_digest(auth_key, digest))",
        'mac=mac_digest(auth_key, digest + b"\\x00"))',
        (_VERIFY, _VERIFY_PROPERTY, _HONEST),
    ),
    Mutant(
        "build_log_extract: matrix never embedded",
        "pipeline.py",
        "        log = embed_matrix_in_log(log, state.pa_matrix)\n",
        "        pass\n",
        (_IN_LOG, _DETECTS),
    ),
    Mutant(
        "exchange: one sift shared without the BASES identity check",
        "pipeline.py",
        "    if bases_ab is alice.bases and bases_ba is bob.bases:\n",
        "    if True:\n",
        (_PIPE + "test_tampered_bases_frames_sift_each_party_on_its_own_mask",),
    ),
    Mutant(
        "run_session: Alice's product shared without the matrix identity check",
        "pipeline.py",
        "    if matrix_b is matrix_a:\n",
        "    if True:\n",
        (
            _OWN_MATRIX + "[None]",
            _OWN_MATRIX + "[derived_matrix]",
            "tests/test_adversary.py::test_zero_rows_all_zero_key_undetected",
        ),
    ),
    Mutant(
        "run_session: Alice's digest shared without the log equality check",
        "pipeline.py",
        "digest_b = digest_a if log_b == log_a else log_digest(log_b, params.hash_width)",
        "digest_b = digest_a",
        (_DETECTS, _PIPE + "test_release_gate_on_reject"),
    ),
    Mutant(
        "finish_session: Bob checks Alice's digest, not his own",
        "pipeline.py",
        "verify(digest_b, tag_a",
        "verify(digest_a, tag_a",
        (_DETECTS,),
    ),
    Mutant(
        "impersonation: Bob is sent an all-zero matrix, not the found one",
        "adversary.py",
        "Frame(FrameType.PA_MATRIX, search.matrix)",
        "Frame(FrameType.PA_MATRIX, BitMatrix.zeros(search.matrix.rows, search.matrix.cols))",
        (_ADV + "test_collision_impersonation_width8",),
    ),
    Mutant(
        "exchange: abort on sifted keys of different lengths dropped",
        "pipeline.py",
        "    if len(bob.sifted) != len(alice.sifted):\n"
        "        return alice, bob, True  # the parties disagree on which positions match\n",
        "",
        (_PIPE + "test_one_tampered_bases_frame_aborts_before_estimation",),
    ),
    Mutant(
        "estimate_error: aborts at a rate equal to the threshold",
        "pipeline.py",
        "abort=rate > params.abort_threshold,",
        "abort=rate >= params.abort_threshold,",
        (_PIPE + "test_estimate_rate_equal_to_the_threshold_does_not_abort",),
    ),
    Mutant(
        "source_correlated: select swapped",
        "pipeline.py",
        "bob_arr = fresh ^ (matched & (alice_bits.bits() ^ noise ^ fresh))",
        "bob_arr = alice_bits.bits() ^ noise ^ (matched & (alice_bits.bits() ^ noise ^ fresh))",
        (
            _PIPE + "test_source_qber_zero_matched_positions_agree",
            _PIPE + "test_source_mismatch_rate_tracks_qber",
            _LARGE_FRONT_END,
            _HONEST,
        ),
    ),
    Mutant(
        "source_correlated: fused draw hands out Alice's bits and bases rows swapped",
        "pipeline.py",
        "alice_bits, alice_bases, bob_bases = map(BitVector._adopt, rows)",
        "alice_bases, alice_bits, bob_bases = map(BitVector._adopt, rows)",
        (_PIPE + "test_front_end_matches_mask_oracle", _LARGE_FRONT_END, _LARGE_KEYS),
    ),
    Mutant(
        "sift: mismatched bases kept",
        "pipeline.py",
        "    keep = np.flatnonzero(own == peer_bases.bits())\n",
        "    keep = np.arange(len(own))\n",
        (
            _PIPE + "test_sift_complementary_bases_keeps_nothing",
            _PIPE + "test_sift_random_bases_keeps_about_half",
            _LARGE_FRONT_END,
            _HONEST,
        ),
    ),
    Mutant(
        "reconcile: Bob's key left uncorrected",
        "pipeline.py",
        "    alice.reconciled = bob.reconciled = alice.sifted\n",
        "    alice.reconciled, bob.reconciled = alice.sifted, bob.sifted\n",
        (
            _PIPE + "test_reconcile_makes_keys_equal_exactly",
            _HONEST,
            "tests/test_adversary.py::test_honest_session_computes_party_symmetric_values_once[None]",
        ),
    ),
    Mutant(
        "reconcile: no corrected position recorded",
        "pipeline.py",
        "positions = Positions._from_indices("
        "np.flatnonzero(alice.sifted.bits() != bob.sifted.bits()))",
        "positions = Positions([])",
        (
            _PIPE + "test_reconcile_makes_keys_equal_exactly",
            _PIPE + "test_reconcile_correction_fraction_tracks_qber",
            _LARGE_FRONT_END,
            _BASELINE_DUMP,
        ),
    ),
    Mutant(
        "exchange: short-key abort dropped",
        "pipeline.py",
        "return alice, bob, len(alice.reconciled) < params.key_len",
        "return alice, bob, False",
        ("tests/test_scenarios.py::test_abort_rate_matches_exact_probability[64-24-0.01]",),
    ),
    Mutant(
        "ZeroRowsStrategy: one tail row zeroed",
        "adversary.py",
        "BitMatrix.zeros(m.rows - self.tail_len, m.cols)",
        "BitMatrix.zeros(m.rows - self.tail_len + 1, m.cols)",
        (_ADV + "test_zero_rows_tamper", _ADV + "test_zero_rows_all_zero_key_undetected"),
    ),
    Mutant(
        "RandomizeRowsStrategy: r past rows - tail_len accepted",
        "adversary.py",
        "if not 0 <= self.r <= m.rows - self.tail_len:",
        "if not 0 <= self.r <= m.rows - self.tail_len + 1:",
        (_ADV + "test_randomize_rows_tamper",),
    ),
    Mutant(
        "FlipEntryStrategy: flip row in the tail accepted",
        "adversary.py",
        "if not 0 <= self.i < m.rows - self.tail_len:",
        "if not 0 <= self.i <= m.rows - self.tail_len:",
        (_ADV + "test_flip_entry_tamper",),
    ),
    Mutant(
        "ZeroRowsStrategy: tail longer than the matrix accepted",
        "adversary.py",
        "if not 0 <= self.tail_len <= m.rows:",
        "if not 0 <= self.tail_len <= m.rows + 1:",
        (_ADV + "test_zero_rows_tamper",),
    ),
    Mutant(
        "ExtractBitsStrategy: target row in the tail accepted",
        "adversary.py",
        "if not 0 <= self.target_row < m.rows - self.tail_len:",
        "if not 0 <= self.target_row <= m.rows - self.tail_len:",
        (_ADV + "test_extract_bits_tamper",),
    ),
    Mutant(
        "ExtractBitsStrategy: position at the key length mounted",
        "adversary.py",
        "0 <= p < n for p in positions",
        "0 <= p <= n for p in positions",
        (_ADV + "test_extract_bits_position_at_the_key_length_leaves_the_frame_untouched",),
    ),
    Mutant(
        "FlipEntryStrategy: column at the key length mounted",
        "adversary.py",
        "and self.j < frame.payload.cols",
        "and self.j <= frame.payload.cols",
        (_ADV + "test_flip_entry_column_at_the_key_length_leaves_the_frame_untouched",),
    ),
    Mutant(
        "_adopt: pad bits past cols kept",
        "gf2.py",
        "            packed[:, -1] &= (1 << (cols % 8)) - 1\n",
        "            pass\n",
        (
            "tests/test_gf2_words.py::test_row_values_round_trip_through_words",
            "tests/test_gf2.py::test_random_vectors_match_separate_draws[2-9]",
        ),
    ),
    Mutant(
        "random_rows: rows not padded to whole words",
        "gf2.py",
        "    stride = 4 * ((nbytes + 3) // 4)\n",
        "    stride = nbytes\n",
        ("tests/test_gf2.py::test_random_vectors_match_separate_draws[2-9]",),
    ),
    Mutant(
        "derive_matrix: secret length left out of the header",
        "hardening.py",
        'struct.pack(">III", len(shared_secret), rows, cols)',
        'struct.pack(">II", rows, cols)',
        (
            "tests/test_hardening.py::test_derive_matrix_expands_the_documented_shake_stream",
            "tests/test_golden.py::test_trials_jsonl_matches_golden_digest[harden-derived-matrix-dump]",
        ),
    ),
    Mutant(
        "otp-malleability check: repeated bit_positions accepted",
        "scenarios.py",
        "            repeated = [q for q, c in Counter(value).items() if c > 1]\n",
        "            repeated = []\n",
        (_ROWS + "34-known_positions must be distinct, 3 repeats]", _DISTINCT_OTP),
    ),
    Mutant(
        "option check: lower bound one too low",
        "scenarios.py",
        "        elif value < option.lo:\n",
        "        elif value < option.lo - 1:\n",
        (
            _ROWS + "11-col must be nonnegative]",
            _ROWS + "17-num_flips]",
            "tests/test_cli.py::test_sweep_bad_value_fails_before_any_run"
            "[extract-bits-known-1,0-num_known must be at least 1]",
        ),
    ),
    Mutant(
        "option check: open upper bound taken as closed",
        "scenarios.py",
        "value >= hi + option.closed",
        "value >= hi + 1",
        (_ROWS + "10-flip-entry row]", _ROWS + "30-col must lie below n_raw]"),
    ),
    Mutant(
        "option check: closed upper bound one too high",
        "scenarios.py",
        "value >= hi + option.closed",
        "value >= hi + 2 * option.closed",
        (
            _ROWS + "58-randomize-rows r must be at most key_len - tail_len = 128, got 129]",
            _ROWS + "59-extract-bits num_known must be at most n_raw = 8192, got 8193]",
            _ROWS + "60-otp-malleability num_flips must be at most key_len - tail_len = 128, got 129]",
        ),
    ),
    Mutant(
        "option check: list entry at the upper bound accepted",
        "scenarios.py",
        "if not option.lo <= q < hi]",
        "if not option.lo <= q <= hi]",
        (_ROWS + r"61-bit_positions must lie in \\[0, key_len - tail_len = 128\\), got 128]",),
    ),
    Mutant(
        "option check: empty list accepted",
        "scenarios.py",
        "            if not value:\n"
        '                raise ConfigError(f"{what} must be nonempty")\n',
        "",
        (_ROWS + "14-nonempty]",),
    ),
    Mutant(
        "option check: both options of a pair accepted",
        "scenarios.py",
        "    if len(used) > 1:\n",
        "    if len(used) > 2:\n",
        (_ROWS + "13-only one of]", _ROWS + "56-only one of bit_positions and num_flips]"),
    ),
    Mutant(
        "option check: explicit null accepted for an option with a default",
        "scenarios.py",
        "if value is not None or option.default is not None:",
        "if value is not None:",
        (
            _ROWS + "24-randomize-rows r must be an integer, got None]",
            _ROWS + "63-num_known must be an integer, got None]",
        ),
    ),
    Mutant(
        "option check: explicit null bit_positions refused",
        "scenarios.py",
        "if value is not None or option.default is not None:",
        "if True:",
        (_SCEN + "test_option_given_in_place_of_its_pair_leaves_the_others_default_unchecked",),
    ),
    Mutant(
        "option check: default of a replaced option still checked",
        "scenarios.py",
        "        if key not in given and key in attack.one_of and used:\n",
        "        if False:\n",
        (_SCEN + "test_option_given_in_place_of_its_pair_leaves_the_others_default_unchecked",),
    ),
    Mutant(
        "validate_config: key_len equal to n_raw accepted",
        "scenarios.py",
        "    if params.key_len >= params.n_raw:\n",
        "    if params.key_len > params.n_raw:\n",
        (_ROWS + "62-key_len must be below n_raw = 256, got 256]",),
    ),
    Mutant(
        "SessionParams: n_raw of 2**32 accepted",
        "pipeline.py",
        "        if not 1 <= self.n_raw < 2**32:\n",
        "        if not 1 <= self.n_raw <= 2**32:\n",
        (_ROWS + r"55-n_raw must lie in \\[1, 2\\*\\*32\\)]",),
    ),
    Mutant(
        "search_budget: declared bound dropped",
        "scenarios.py",
        '_Option(int, 1 << 20, 1, "MAX_SEARCH_BUDGET", closed=True)',
        "_Option(int, 1 << 20, 1)",
        (_EDGES,),
    ),
    Mutant(
        "search: budget past the claim counter accepted",
        "adversary.py",
        "    if budget > MAX_SEARCH_BUDGET:\n",
        "    if False:\n",
        (_ADV + "test_collision_search_refuses_a_budget_past_the_claim_counter_at_every_lane_count",),
    ),
    Mutant(
        "run_session: negative seed accepted",
        "pipeline.py",
        "    if seed < 0:\n",
        "    if False:\n",
        (_SCEN + "test_a_session_refuses_a_negative_seed",),
    ),
    Mutant(
        "collision trial: capture session run at the trial seed",
        "adversary.py",
        "run_session(params, capture_seed, Channel()",
        "run_session(params, seed, Channel()",
        ("tests/test_golden.py::test_trials_jsonl_matches_golden_digest",),
    ),
    Mutant(
        "session dump: Bob's state under alice",
        "scenarios.py",
        '"alice": render_payload(result.alice.state),',
        '"alice": render_payload(result.bob.state),',
        (_SCEN + "test_flip_entry_dump_holds_bob_of_the_untampered_session",),
    ),
    Mutant(
        "frame trial: success without Bob's ACCEPT",
        "scenarios.py",
        "        success = effect and result.bob.verdict is Verdict.ACCEPT\n",
        "        success = effect\n",
        (_BUILTIN_CHECKS, _ACCEPT + "test_criterion_07_matrix_in_log_detects_each_attack"),
    ),
    Mutant(
        "randomize-rows outcome: Alice's ACCEPT dropped",
        "adversary.py",
        "diverged = alice.verdict is Verdict.ACCEPT and alice.state.final_key != bob_key\n",
        "diverged = alice.state.final_key != bob_key\n",
        (_ADV + "test_randomize_rows_outcome_needs_alice_to_accept",),
    ),
    Mutant(
        "zero-rows outcome: one set bit accepted",
        "adversary.py",
        "        all_zero = key is not None and key.popcount() == 0\n",
        "        all_zero = key is not None and key.popcount() <= 1\n",
        (_ADV + "test_zero_rows_outcome_needs_every_key_bit_zero",),
    ),
    Mutant(
        "flip-entry outcome: wrong row compared",
        "adversary.py",
        "and bob.full_key[row] != result.alice.state.full_key[row]",
        "and bob.full_key[row + 1] != result.alice.state.full_key[row + 1]",
        (
            _ADV + "test_flip_entry_outcome_reads_the_attacked_row",
            _SCEN + "test_success_recomputable_from_dumped_states",
            _ACCEPT + "test_criterion_02_flip_entry_half_probability",
        ),
    ),
    Mutant(
        "extract-bits outcome: parity as an OR",
        "adversary.py",
        "prediction = sum(bits) % 2 if bits else None",
        "prediction = max(bits) if bits else None",
        (
            _ADV + "test_extract_bits_outcome_needs_a_correct_prediction",
            _SCEN + "test_extract_bits_dump_knowledge_is_genuine",
        ),
    ),
    Mutant(
        "extract-bits outcome: prediction ignored",
        "adversary.py",
        "return prediction is not None and prediction == actual, {",
        "return prediction is not None, {",
        (_ADV + "test_extract_bits_outcome_needs_a_correct_prediction",),
    ),
    Mutant(
        "check band: non-finite bound accepted",
        "scenarios.py",
        "if not abs(item[bound]) <= sys.float_info.max:",
        "if False:",
        (
            _ROWS + "64-check lo must be a finite number, got nan]",
            _ROWS + "65-check hi must be a finite number, got inf]",
            _ROWS + "66-check lo must be a finite number, got -1000]",
        ),
    ),
    Mutant(
        "summary: Alice's and Bob's accept tests swapped",
        "scenarios.py",
        '    "accept_rate_alice": lambda r: r.alice_verdict == Verdict.ACCEPT.value,\n'
        '    "accept_rate_bob": lambda r: r.bob_verdict == Verdict.ACCEPT.value,\n',
        '    "accept_rate_alice": lambda r: r.bob_verdict == Verdict.ACCEPT.value,\n'
        '    "accept_rate_bob": lambda r: r.alice_verdict == Verdict.ACCEPT.value,\n',
        (_FROM_REPORTS,),
    ),
    Mutant(
        "summary: an aborted trial counted as a key mismatch",
        "scenarios.py",
        "lambda r: r.keys_equal is False,",
        "lambda r: not r.keys_equal,",
        (_FROM_REPORTS,),
    ),
    Mutant(
        "trial record: keys_equal of any kind read",
        "scenarios.py",
        "lambda v: v is None or isinstance(v, bool)),",
        "lambda v: True),",
        (
            "tests/test_cli.py::test_report_bad_trial_line"
            "[True-bad_line7-keys_equal must be true, false or null, got 'no']",
        ),
    ),
    Mutant(
        "unknown name: the list of valid names dropped",
        "scenarios.py",
        ", expected one of: {', '.join(known)}",
        "",
        (_SCEN + "test_unknown_name_refusal_lists_every_valid_name",),
    ),
    Mutant(
        "unknown config field: valid fields listed unsorted",
        "scenarios.py",
        "sorted(_CONFIG_TYPES)",
        "_CONFIG_TYPES",
        (_SCEN + "test_unknown_name_refusal_lists_every_valid_name[config-field]",),
    ),
    Mutant(
        "report: a manifest without entries accepted",
        "scenarios.py",
        "if not entries:",
        "if False:",
        (
            "tests/test_cli.py::test_report_bad_manifest"
            '[{"entries": []}-no entries; the run checked nothing]',
        ),
    ),
    Mutant(
        "report: a trials_file outside the report directory accepted",
        "scenarios.py",
        'if name in ("", ".", "..") or os.path.basename(name) != name or "\\0" in name:',
        "if False:",
        ("tests/test_cli.py::test_report_bad_manifest",),
    ),
    Mutant(
        "report: an entry without a trials file accepted",
        "scenarios.py",
        '{"scenario", "config", "summary", "trials_file"} <= e.keys()',
        '{"scenario", "config", "summary"} <= e.keys()',
        ("tests/test_cli.py::test_report_bad_manifest[no-trials-file]",),
    ),
    Mutant(
        "config file: JSON nesting error not refused",
        "scenarios.py",
        "except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or too deep",
        "except ValueError as exc:",
        (
            "tests/test_cli.py::test_run_invalid_config_file",
            "tests/test_cli.py::test_report_bad_manifest[too-deep]",
        ),
    ),
    Mutant(
        "report: trials out of order accepted",
        "scenarios.py",
        "if report.trial_index != i:",
        "if False:",
        (_OWN_RUN + "[reordered]", _OWN_RUN + "[duplicated]"),
    ),
    Mutant(
        "report: a trial's seed not compared",
        "scenarios.py",
        "if report.seed != seed:",
        "if False:",
        (_OWN_RUN + "[wrong-seed]",),
    ),
    Mutant(
        "report: a truncated trials file accepted",
        "scenarios.py",
        "if len(records) != config.trials:",
        "if False:",
        (_OWN_RUN + "[truncated]",),
    ),
    Mutant(
        "report: a stored summary its records contradict accepted",
        "scenarios.py",
        'if field != "wall_time_s" and stored[field] != getattr(summary, field):',
        "if False:",
        ("tests/test_cli.py::test_report_refuses_a_summary_its_records_contradict",),
    ),
    Mutant(
        "pool: one worker process per --workers, not per trial",
        "scenarios.py",
        "    workers = min(workers, config.trials)\n",
        "",
        (_SCEN + "test_pool_starts_at_most_one_worker_per_trial",),
    ),
    Mutant(
        "evaluate_checks: < for <=",
        "scenarios.py",
        "check.lo <= value <= check.hi",
        "check.lo < value <= check.hi",
        (_BUILTIN_CHECKS, "tests/test_cli.py::test_report_recomputes_and_checks"),
    ),
)


def _passing(copy: Path, tests: tuple[str, ...], timeout: float | None) -> list[str]:
    """Run the tests in one pytest process in the copy; the ones that passed.

    Each test's outcome is read from the run's JUnit XML report, so every
    named test is judged on its own although they share the process. A test
    named without parameters passes when all its parametrized cases pass. A
    test the report does not list, such as one whose module no longer
    imports, did not pass. -B keeps the copy free of bytecode caches, which
    could otherwise outlive a same-size edit made within the same second.
    A run still going after timeout seconds is killed, along with every
    process it started, such as a search lane, and no test of it passed.
    """
    report = copy / "report.xml"
    cmd = [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    cmd += [f"--junitxml={report}", *tests]
    run = subprocess.Popen(
        cmd, cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        run.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        report.unlink(missing_ok=True)
        return []
    outcomes: dict[str, list[bool]] = {}
    if report.exists():
        for case in ElementTree.parse(report).iter("testcase"):
            node = f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}"
            ok = not any(child.tag in ("failure", "error") for child in case)
            for name in {node, node.partition("[")[0]}:
                outcomes.setdefault(name, []).append(ok)
        report.unlink()
    return [t for t in tests if all(outcomes.get(t, [False]))]


def known_modules() -> list[str]:
    """The modules that have mutants, by name without .py."""
    return sorted({m.module.removesuffix(".py") for m in MUTANTS})


def select(modules: list[str]) -> tuple[Mutant, ...]:
    """The mutants of the named modules in list order; all of them when none is named."""
    files = {f"{name}.py" for name in modules}
    return tuple(m for m in MUTANTS if not files or m.module in files)


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in known_modules()]
    if unknown:
        print(f"unknown module: {', '.join(unknown)}", file=sys.stderr)
        print(f"known modules: {', '.join(known_modules())}", file=sys.stderr)
        return 2
    mutants = select(argv)
    with tempfile.TemporaryDirectory(prefix="qkdsim-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        every_test = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        start = time.monotonic()
        failing = set(every_test) - set(_passing(copy, every_test, None))
        limit = max(60.0, 5 * (time.monotonic() - start))
        if failing:
            print("the named tests fail on the unmutated copy:", file=sys.stderr)
            for test in sorted(failing):
                print(f"    {test}", file=sys.stderr)
            return 1
        survivors = []
        for m in mutants:
            path = copy / "src" / "qkdsim" / m.module
            original = path.read_text()
            if original.count(m.snippet) != 1:
                print(f"{m.name}: snippet does not occur exactly once", file=sys.stderr)
                return 1
            path.write_text(original.replace(m.snippet, m.replacement))
            start = time.monotonic()
            try:
                passing = _passing(copy, m.tests, limit)
            finally:
                path.write_text(original)
            timed_out = time.monotonic() - start >= limit
            verdict = "SURVIVED" if passing else "killed (timed out)" if timed_out else "killed  "
            print(f"{verdict}  {m.name}")
            for test in passing:
                print(f"    passes: {test}")
            if passing:
                survivors.append(m.name)
        print(f"{len(mutants) - len(survivors)}/{len(mutants)} mutants killed by every named test")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
