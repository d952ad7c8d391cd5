"""Attacks against the post-processing authentication layer.

The frame attacks all exploit the same blind spot: the baseline
protocol-log extract sees the amplification matrix only through the key
tail, i.e. through its last tail_len rows. Tampering with any earlier row
changes the distributed keys without changing either party's log, so
authentication cannot notice it. Each attack op is a BitMatrix transform;
its strategy applies it to the matrix Alice sends Bob (the A->B PA_MATRIX
frame) and forwards every other frame as the same object.

The collision attack targets the matrix_in_log hardened variant instead:
a captured (digest, mac) pair is replayed after searching for a matrix
whose induced log extract hashes to the captured digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace as dc_replace
from itertools import count
from typing import Sequence

import numpy as np

from .channel import A_TO_B, AttackStrategy, Channel, Frame, FrameType
# matvec is not called here: the benchmark's tracer self-test checks that this
# module's matvec binding is wrapped and restored, so the binding stays.
from .gf2 import BitMatrix, BitVector, matvec, random_rows, replace_rows, rng_bytes  # noqa: F401
from .gf2 import _REV8
from .gf2 import flip_entry as gf2_flip_entry
from .hardening import HardeningKind
from .pipeline import (
    AuthTag,
    PartyState,
    SessionParams,
    Verdict,
    build_log_extract,
    exchange_reconciled_key,
    log_digest,
    privacy_amplify,
    run_session,
    serialize_log,
    session_auth_key,
    truncate_digest,
    verify,
)
from .seeding import derive_bytes, make_rng


# ------------------------------------------------------------- frame attacks


def attack_randomize_rows(
    m: BitMatrix, r: int, tail_len: int, rng: np.random.Generator
) -> BitMatrix:
    """Replace the first r non-tail rows with fresh random rows."""
    if not 0 <= r <= m.rows - tail_len:
        raise ValueError(
            f"can randomize at most {m.rows - tail_len} rows without touching the tail, got {r}"
        )
    return replace_rows(m, 0, random_rows(r, m.cols, rng))


def attack_flip_entry(m: BitMatrix, i: int, j: int, tail_len: int) -> BitMatrix:
    """Flip matrix entry (i, j); the row must lie outside the logged tail."""
    if not 0 <= i < m.rows - tail_len:
        raise ValueError(
            f"flip row must lie in [0, {m.rows - tail_len}), row {i} would perturb the "
            "authenticated tail and be detected"
        )
    return gf2_flip_entry(m, i, j)


def attack_zero_rows(m: BitMatrix, tail_len: int) -> BitMatrix:
    """Zero every non-tail row, forcing the receiver's final key to all-zero."""
    if not 0 <= tail_len <= m.rows:
        raise ValueError(f"a tail of {tail_len} rows does not fit a matrix of {m.rows} rows")
    return replace_rows(m, 0, BitMatrix.zeros(m.rows - tail_len, m.cols))


def attack_extract_bits(
    m: BitMatrix, positions: Sequence[int], target_row: int, tail_len: int
) -> BitMatrix:
    """Overwrite one non-tail row with the indicator of known key positions.

    The receiver's key bit target_row becomes the parity of the reconciled
    key's bits at those positions, which the attacker knows.
    """
    if not 0 <= target_row < m.rows - tail_len:
        raise ValueError(
            f"target row must lie in [0, {m.rows - tail_len}), row {target_row} is in the tail"
        )
    if not positions:
        raise ValueError("need at least one known position")
    indicator = BitVector.from_positions(m.cols, positions)
    return replace_rows(m, target_row, BitMatrix([indicator.value], m.cols))


class RandomizeRowsStrategy(AttackStrategy):
    """Randomize the first r rows; r = 0 forwards the matrix untouched."""

    def __init__(self, r: int, tail_len: int, rng: np.random.Generator):
        self.r = r
        self.tail_len = tail_len
        self.rng = rng

    def tamper(self, direction: str, frame: Frame) -> Frame:
        if direction == A_TO_B and frame.kind is FrameType.PA_MATRIX and self.r:
            m = attack_randomize_rows(frame.payload, self.r, self.tail_len, self.rng)
            return Frame(frame.kind, m)
        return frame


class FlipEntryStrategy(AttackStrategy):
    """Flip entry (i, j) of the matrix; a column j past the reconciled key
    leaves the frame untouched, since no such entry exists in this session."""

    def __init__(self, i: int, j: int, tail_len: int):
        self.i = i
        self.j = j
        self.tail_len = tail_len

    def tamper(self, direction: str, frame: Frame) -> Frame:
        if (
            direction == A_TO_B
            and frame.kind is FrameType.PA_MATRIX
            and self.j < frame.payload.cols
        ):
            m = attack_flip_entry(frame.payload, self.i, self.j, self.tail_len)
            return Frame(frame.kind, m)
        return frame


class ZeroRowsStrategy(AttackStrategy):
    def __init__(self, tail_len: int):
        self.tail_len = tail_len

    def tamper(self, direction: str, frame: Frame) -> Frame:
        if direction == A_TO_B and frame.kind is FrameType.PA_MATRIX:
            return Frame(frame.kind, attack_zero_rows(frame.payload, self.tail_len))
        return frame


class ExtractBitsStrategy(AttackStrategy):
    """Learn one bit of the receiver's key from known reconciled-key bits.

    known_positions may be given explicitly; otherwise num_known positions
    are drawn when the matrix frame shows the reconciled key's length (its
    column count). The attacker is taken to know the key's bits there,
    through whatever side channel gave it that partial knowledge. When the
    positions do not fit the session's reconciled key the attack is not
    mounted: positions stays empty and the matrix frame passes untouched.
    """

    def __init__(
        self,
        target_row: int,
        tail_len: int,
        rng: np.random.Generator,
        known_positions: Sequence[int] | None = None,
        num_known: int | None = None,
    ):
        if (known_positions is None) == (num_known is None):
            raise ValueError("give exactly one of known_positions or num_known")
        if num_known is not None and num_known < 1:
            raise ValueError("num_known must be at least 1")
        if known_positions is not None and len(set(known_positions)) < len(known_positions):
            raise ValueError("known_positions must be distinct")
        self.target_row = target_row
        self.tail_len = tail_len
        self.rng = rng
        self.known_positions = None if known_positions is None else sorted(known_positions)
        self.num_known = num_known
        self.positions: list[int] = []

    def tamper(self, direction: str, frame: Frame) -> Frame:
        if direction == A_TO_B and frame.kind is FrameType.PA_MATRIX:
            n = frame.payload.cols  # the reconciled key's length
            positions = self.known_positions
            if positions is None and self.num_known <= n:
                drawn = self.rng.choice(n, self.num_known, replace=False)
                positions = sorted(int(p) for p in drawn)
            if not positions or not all(0 <= p < n for p in positions):
                return frame
            self.positions = positions
            m = attack_extract_bits(frame.payload, positions, self.target_row, self.tail_len)
            return Frame(frame.kind, m)
        return frame


# ------------------------------------------------------ collision/replay


@dataclass(frozen=True)
class CollisionSearchResult:
    matrix: BitMatrix | None
    candidates_examined: int


_SEARCH_CHUNK = 4096  # candidates drawn per rng_bytes call


def attack_collision_impersonate(
    captured_digest: bytes,
    state: PartyState,
    params: SessionParams,
    budget: int,
    rng: np.random.Generator,
) -> CollisionSearchResult:
    """Search for a matrix whose induced log extract hashes to captured_digest.

    state is the attacker's side of the exchange with Bob, run up to the
    matrix message: every log-extract field except the key tail and the
    embedded matrix is already fixed, and its reconciled key equals Bob's.
    Only the tail rows and the embedded matrix bytes influence the digest,
    so candidates keep every row except the last at zero and vary 128
    pseudo-random bits of the last row. The hash state over all fixed bytes
    is computed once per possible tail value. Candidates are drawn in chunks
    of _SEARCH_CHUNK, and numpy computes each chunk's tail parities and
    suffix bytes at once, from whole bytes of the draw, so per candidate
    only a copy of one of the two states, an update with its suffix, the
    digest and a masked compare of its first byte remain; the few that
    pass that get the exact truncated compare. That keeps million-candidate
    budgets cheap.

    captured_digest must be a truncate_digest output: ceil(w / 8) bytes
    with its pad bits past w clear. Any other value could never match.
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    l, t, w = params.key_len, params.tail_len, params.hash_width
    if t < 1:
        raise ValueError("collision search requires at least one tail row in the log")
    cols = len(state.reconciled)
    if cols < 1:
        raise ValueError("empty reconciled key")
    nb = (w + 7) // 8
    if len(captured_digest) != nb:
        raise ValueError(
            f"captured digest must be {nb} bytes for a {w}-bit width, got {len(captured_digest)}"
        )
    if truncate_digest(captured_digest, w) != captured_digest:
        raise ValueError(f"captured digest has bits set past its {w}-bit width")

    # Fewer than 128 columns leave no shift; 128 or more vary all 128 bits.
    var_bits = min(128, cols)
    shift = cols - var_bits
    p0 = (shift // 8) * 8  # candidate-dependent suffix of the row starts here
    suffix_bits = cols - p0
    sub_shift = shift - p0

    # With rows 0..l-2 all zero the only live tail bit is the last one,
    # whose value is the candidate row's parity against the reconciled key.
    # The serialized log ends with the last row, whose final
    # ceil(suffix_bits / 8) bytes are the candidate-dependent suffix.
    zeros = BitMatrix.zeros(l, cols)
    suffix_len = (suffix_bits + 7) // 8
    copies = []
    for bit in (0, 1):
        probe = dc_replace(state, pa_matrix=zeros, key_tail=BitVector(t, bit << (t - 1)))
        data = serialize_log(build_log_extract(probe, HardeningKind.MATRIX_IN_LOG))
        copies.append(hashlib.sha256(data[:-suffix_len]).copy)

    # Candidate r is the low var_bits bits of a 16-byte big-endian draw, so
    # a reversed draw ANDed with var_mask is r's little-endian bytes.
    ktop = state.reconciled.value >> shift
    ktop_words = np.array([ktop >> 64, ktop & ((1 << 64) - 1)], ">u8")
    var_mask = np.frombuffer(((1 << var_bits) - 1).to_bytes(16, "little"), np.uint8)
    first_mask = (0xFF << (8 - min(w, 8))) & 0xFF
    target_first = captured_digest[0]
    examined = 0
    while examined < budget:
        todo = min(_SEARCH_CHUNK, budget - examined)
        draws = rng_bytes(rng, 16 * todo).reshape(todo, 16)
        # Parity of r against ktop, from the two 64-bit halves of each draw
        # (ktop has no bits above var_bits, so r need not be masked first).
        both = np.bitwise_count(draws.view(">u8") & ktop_words)
        parities = ((both[:, 0] ^ both[:, 1]) & 1).tolist()
        # Suffix bytes pack_bits_msb(r << sub_shift, suffix_bits): shift r's
        # little-endian bytes up by sub_shift, carrying each byte's top bits
        # into the next (numpy shifts a uint8 by 8 to 0), then reverse the
        # bits of every byte.
        le = draws[:, ::-1] & var_mask
        shifted = np.zeros((todo, 17), np.uint8)  # 16 draw bytes, then the carry
        np.left_shift(le, sub_shift, out=shifted[:, :16])
        shifted[:, 1:] |= le >> (8 - sub_shift)
        raw = shifted[:, :suffix_len].tobytes().translate(_REV8)
        suffixes = np.frombuffer(raw, f"V{suffix_len}").tolist()
        for k, suffix, parity in zip(count(), suffixes, parities):
            h = copies[parity]()
            h.update(suffix)
            d = h.digest()
            if d[0] & first_mask == target_first and truncate_digest(d, w) == captured_digest:
                r = int.from_bytes(draws[k].tobytes(), "big") & ((1 << var_bits) - 1)
                matrix = BitMatrix((0,) * (l - 1) + (r << shift,), cols)
                return CollisionSearchResult(matrix, examined + k + 1)
        examined += todo
    return CollisionSearchResult(None, examined)


@dataclass(frozen=True)
class CollisionTrialOutcome:
    """One full impersonation attempt: capture, search, replay."""

    found: bool
    candidates_examined: int
    bob_verdict: Verdict
    bob_key: BitVector | None  # the attacker holds it too: the exchange shares Bob's key


def run_collision_impersonation(params: SessionParams, budget: int) -> CollisionTrialOutcome:
    """Play the full replay attack against the matrix_in_log variant.

    First the attacker completes an exchange with Alice in Bob's role and
    captures her authentication tag (that session is then dropped, so Alice
    never accepts). Then the attacker starts a fresh exchange with Bob in
    Alice's role, runs it honestly up to the matrix message, searches for a
    matrix that reproduces the captured digest over Bob's log extract, and
    replays the captured tag with it. That exchange runs pipeline's own
    exchange_reconciled_key over a passive channel, so it aborts exactly
    where an honest session would.
    """
    # Pre-shared Alice/Bob authentication key, common to both exchanges.
    auth_key = session_auth_key(params)

    capture_seed = int.from_bytes(derive_bytes(params.master_seed, "capture-session", n=8), "big")
    capture = run_session(
        dc_replace(params, master_seed=capture_seed),
        hardening=HardeningKind.MATRIX_IN_LOG,
        auth_key=auth_key,
    )
    if capture.alice.verdict is Verdict.ABORT:
        return CollisionTrialOutcome(False, 0, Verdict.ABORT, None)
    captured_tag: AuthTag = capture.channel.frames(FrameType.AUTH_TAG_A)[0].frame.payload

    # Fresh exchange with the real Bob, attacker in Alice's role.
    session_seed = int.from_bytes(
        derive_bytes(params.master_seed, "impersonation-session", n=8), "big"
    )
    rng = make_rng(session_seed, "session")
    attacker, bob, aborted = exchange_reconciled_key(params, Channel(), rng)
    if aborted:
        return CollisionTrialOutcome(False, 0, Verdict.ABORT, None)

    search_rng = make_rng(params.master_seed, "collision-search")
    search = attack_collision_impersonate(captured_tag.digest, attacker, params, budget, search_rng)
    if search.matrix is None:
        # Nothing to send that Bob would accept; the attacker gives up.
        return CollisionTrialOutcome(False, search.candidates_examined, Verdict.REJECT, None)

    privacy_amplify(bob, search.matrix, params)
    log_b = build_log_extract(bob, HardeningKind.MATRIX_IN_LOG)
    accepted = verify(log_digest(log_b, params.hash_width), captured_tag, auth_key)
    return CollisionTrialOutcome(
        found=True,
        candidates_examined=search.candidates_examined,
        bob_verdict=Verdict.ACCEPT if accepted else Verdict.REJECT,
        bob_key=bob.final_key,
    )


# ------------------------------------------------------------ one-time pad


def otp_encrypt(plaintext: BitVector, pad: BitVector) -> BitVector:
    """One-time-pad encryption; the pad is key material of equal length."""
    if len(pad) != len(plaintext):
        raise ValueError(f"length mismatch: plaintext {len(plaintext)} vs pad {len(pad)}")
    return plaintext ^ pad


otp_decrypt = otp_encrypt  # XOR is its own inverse


def demo_otp_malleability(ciphertext: BitVector, bit_positions: Sequence[int]) -> BitVector:
    """Flip the given ciphertext bits; decryption flips exactly those
    plaintext bits, without the attacker touching the key."""
    indicator = BitVector.from_positions(len(ciphertext), bit_positions)
    return ciphertext ^ indicator
