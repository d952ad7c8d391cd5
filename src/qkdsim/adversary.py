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
whose induced log extract hashes to the captured digest. The search runs
on up to one forked lane per usable CPU (max_search_lanes), each hashing
every L-th chunk of the one candidate stream; the calling process alone
decides, so the result, and every trial record, is the same for any lane
count, and the caller's generator is never advanced.
"""

from __future__ import annotations

import copy
import hashlib
import multiprocessing
import os
import select
import signal
import struct
import threading
from dataclasses import dataclass, replace as dc_replace
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
    finish_session,
    run_session,
    serialize_log,
    session_auth_key,
    truncate_digest,
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
_MAX_LANES = 4  # each lane past the first costs a fork, about 2 ms at a 40 MB resident set
# A lane's report on one chunk: the chunk, the offset of its first hit or
# -1, and that hit's 16-byte draw (zeros when there is none).
_REPORT = struct.Struct("<qq16s")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def max_search_lanes() -> int:
    """The most lanes a collision search runs in here: one per usable CPU,
    at most _MAX_LANES; one inside a multiprocessing worker, whose sibling
    workers already use the CPUs; and one while other threads are alive,
    since os.fork copies only the calling thread and a lane could block on
    a lock that another thread held."""
    if multiprocessing.parent_process() is not None or not hasattr(os, "fork"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(usable_cpus(), _MAX_LANES)


def _search_lanes(chunks: int) -> int:
    return min(max_search_lanes(), chunks)


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
    suffix bytes at once, from two 64-bit words per candidate that hold
    its MSB-first serialization, so per candidate only a copy of one of
    the two states, an update with its suffix, the digest and a masked
    compare of its first byte remain; the few that pass that get the exact
    truncated compare. That keeps million-candidate budgets cheap.

    The chunks are scanned in L lanes, L being max_search_lanes() capped at
    the chunk count: chunk c by lane c % L. Lane 0 is the calling process; lanes 1 to L-1 are children
    forked once the two prefix states exist, so they inherit them. Every
    lane draws the whole candidate stream, in order, from its own copy of
    rng and hashes only its own chunks. A child writes one fixed-size
    record per chunk to a pipe and stops after its first hit. Only the
    caller decides: the answer is the lowest chunk with a hit once every
    lower chunk is reported clean. A chunk no child reported, because the
    pipe reached EOF first or os.fork failed, the caller scans itself. On
    the way out every child is killed and reaped. The result is therefore
    the first hit in stream order whatever L is, the one a single lane
    would find, and rng itself is read but never advanced, for every L (no
    caller reads it afterwards: run_collision_impersonation makes a fresh
    one per search).

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

    # Candidate r is the low var_bits bits of a 16-byte big-endian draw.
    # Reversing the bits of every byte and reading the 16 bytes as two
    # little-endian words (lo, hi) puts r's bit i at bit 127 - i of hi:lo,
    # i.e. hi:lo is r's MSB-first serialization; ktop and the var_bits mask
    # go through the same transform.
    def words(data: bytes) -> np.ndarray:
        return np.frombuffer(data.translate(_REV8), "<u8")

    ktop = state.reconciled.value >> shift
    k_lo, k_hi = words(ktop.to_bytes(16, "big"))
    var_words = words(((1 << var_bits) - 1).to_bytes(16, "big"))[:, None]
    # numpy shifts a uint64 by 64 to 0, so at sub_shift 0 the carry word and
    # the third suffix word are zero.
    down, up = np.uint64(sub_shift), np.uint64(64 - sub_shift)
    first_mask = (0xFF << (8 - min(w, 8))) & 0xFF
    target_first = captured_digest[0]

    def scan(draws: np.ndarray) -> int:
        """The offset of the first hit among one chunk's draws, or -1."""
        lo, hi = words(draws.tobytes()).reshape(-1, 2).T.copy() & var_words
        parities = ((np.bitwise_count(hi & k_hi) ^ np.bitwise_count(lo & k_lo)) & 1).tobytes()
        # Suffix bytes pack_bits_msb(r << sub_shift, suffix_bits): the
        # 136-bit big-endian hi:lo:00 shifted right by sub_shift, written as
        # three big-endian words, of which the first suffix_len bytes count.
        shifted = np.stack([hi >> down, (lo >> down) | (hi << up), lo << up], 1).astype(">u8")
        suffixes = shifted.view(np.uint8)[:, :suffix_len].view(f"V{suffix_len}")[:, 0].tolist()
        for suffix, parity in zip(suffixes, parities):
            h = copies[parity]()
            h.update(suffix)
            d = h.digest()
            if d[0] & first_mask == target_first and truncate_digest(d, w) == captured_digest:
                # A suffix fixes r, so its first occurrence is the first hit.
                return suffixes.index(suffix)
        return -1

    chunks = -(-budget // _SEARCH_CHUNK)
    reports: dict[int, tuple[int, bytes]] = {}  # chunk -> (offset of its first hit or -1, draw)
    first_hit = chunks  # the lowest chunk reported with a hit
    clean = 0  # chunks 0 .. clean-1 are reported clean

    def report(chunk: int, offset: int, draw: bytes) -> None:
        nonlocal first_hit, clean
        reports[chunk] = (offset, draw)
        if offset >= 0:
            first_hit = min(first_hit, chunk)
        while clean < first_hit and clean in reports:
            clean += 1

    def lane(wanted):
        """Draw the stream from a copy of rng up to the lowest known hit;
        yield a report for each chunk that wanted picks."""
        gen = copy.deepcopy(rng)
        c = 0
        while c < first_hit:
            todo = min(_SEARCH_CHUNK, budget - c * _SEARCH_CHUNK)
            draws = rng_bytes(gen, 16 * todo).reshape(todo, 16)
            if wanted(c):
                k = scan(draws)
                yield c, k, draws[k].tobytes() if k >= 0 else bytes(16)
            c += 1

    lanes = _search_lanes(chunks)
    children: list[int] = []
    read_fd = None
    try:
        if lanes > 1:
            read_fd, write_fd = os.pipe()
            try:
                for j in range(1, lanes):
                    pid = os.fork()
                    if pid == 0:
                        status = 1
                        try:
                            os.close(read_fd)
                            for rec in lane(lambda c: c % lanes == j):
                                # A pipe write of at most PIPE_BUF bytes is atomic.
                                os.write(write_fd, _REPORT.pack(*rec))
                                report(*rec)  # past its own first hit, lane() stops
                            status = 0
                        finally:
                            os._exit(status)
                    children.append(pid)
            except OSError:
                pass  # the lanes that did not start are scanned below, once the pipe is at EOF
            finally:
                os.close(write_fd)
        own = lane(lambda c: c % lanes == 0)
        eof = read_fd is None
        while clean < first_hit:
            rec = next(own, None)
            if rec is not None:
                report(*rec)
            if not eof and (rec is None or select.select([read_fd], [], [], 0)[0]):
                # Blocks when lane 0 has nothing left to scan. Records are
                # written whole and read in multiples of their size, so
                # every read ends on a record boundary.
                data = os.read(read_fd, 256 * _REPORT.size)
                eof = not data
                for child_rec in _REPORT.iter_unpack(data):
                    report(*child_rec)
            elif rec is None:
                # Every child has exited: scan what they left unreported.
                own = lane(lambda c: c not in reports)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if read_fd is not None:
            os.close(read_fd)

    if first_hit == chunks:
        return CollisionSearchResult(None, budget)
    offset, draw = reports[first_hit]
    r = int.from_bytes(draw, "big") & ((1 << var_bits) - 1)
    matrix = BitMatrix((0,) * (l - 1) + (r << shift,), cols)
    return CollisionSearchResult(matrix, first_hit * _SEARCH_CHUNK + offset + 1)


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
    never accepts). Then the attacker starts a fresh session with Bob in
    Alice's role, runs it honestly up to the matrix message, and searches
    for a matrix that reproduces the captured digest over Bob's log extract.
    That exchange runs pipeline's own exchange_reconciled_key over a passive
    channel, so it aborts exactly where an honest session would. The
    attacker sends a found matrix as its own PA_MATRIX frame, and Bob's
    verdict comes from finish_session: sharing every object with Bob's
    state, the attacker's sends the captured tag as AUTH_TAG_A.
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

    # Fresh session with the real Bob, attacker in Alice's role.
    session_seed = int.from_bytes(
        derive_bytes(params.master_seed, "impersonation-session", n=8), "big"
    )
    rng = make_rng(session_seed, "session")
    channel = Channel()
    attacker, bob, aborted = exchange_reconciled_key(params, channel, rng)
    if aborted:
        return CollisionTrialOutcome(False, 0, Verdict.ABORT, None)

    search_rng = make_rng(params.master_seed, "collision-search")
    search = attack_collision_impersonate(captured_tag.digest, attacker, params, budget, search_rng)
    if search.matrix is None:
        # Nothing to send that Bob would accept; the attacker gives up.
        return CollisionTrialOutcome(False, search.candidates_examined, Verdict.REJECT, None)

    sent = channel.deliver(A_TO_B, Frame(FrameType.PA_MATRIX, search.matrix)).payload
    result = finish_session(
        params, channel, attacker, bob, search.matrix, sent, HardeningKind.MATRIX_IN_LOG, auth_key
    )
    return CollisionTrialOutcome(
        found=True,
        candidates_examined=search.candidates_examined,
        bob_verdict=result.bob.verdict,
        bob_key=result.bob.state.final_key,
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
