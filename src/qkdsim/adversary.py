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
in lanes, the caller and a pool of forked children, which claim its chunks
from one shared counter and draw only the chunks they claim, by the
protocol the comment at _pool states.
"""

from __future__ import annotations

import atexit
import fcntl
import functools
import hashlib
import itertools
import multiprocessing
import os
import signal
import struct
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace as dc_replace
from multiprocessing.connection import Connection, wait
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
# Each lane draws only the chunks it claims, so the draws do not grow with
# the lane count; the cap bounds the processes one search keeps forked.
_MAX_LANES = 4

# A search scans its chunks in L lanes, L = min(max_search_lanes(), chunks).
# Lane 0 is the caller; lanes 1 to L-1 are the first entries of this pool,
# (pid, connection) each, forked on first use by the process _pool_owner and
# idle between searches. Before it forks, the owner opens _counter, an
# unlinked file of three int64s that it and its lanes share: the number of
# the search, its next chunk and its limit, read and written only under the
# file's lockf lock, which the kernel releases if its holder dies. A search
# sets the counter to (search, 0, chunks), and every lane, the caller too,
# claims chunks from it in increasing order, drawing each chunk it claims
# from its own copy of the caller's generator, jumped over the chunks it
# skips; the caller's generator is read but never advanced. A lane that
# finds a hit lowers the limit to its chunk, so no chunk above it is claimed
# any more, and a claim of another search's number gets none. On its duplex
# connection a lane is sent each job as one message, from which it builds
# its own hash states, and None stops its current search. It reports each
# chunk it claimed as (search, chunk, offset of its first hit or -1, that
# hit's 16-byte draw or None), stops after its first hit, and closes its
# reports on a search with (search, -1, -1, None). Only the caller decides:
# the lowest chunk with a hit once every lower chunk is reported clean,
# dropping reports of any other search. Once it has no chunk left to claim
# and no lane is working, it scans itself any lower chunk no lane reported,
# because os.fork failed or a lane died (EOF or a reset on its connection,
# or a failed send); a dead lane has the pool shut down, to be forked again
# by the next search. On the way out, decided or raising, the caller stops
# every lane still working. So the result is the first hit in stream order,
# the same for every L.
_pool: list[tuple[int, Connection]] = []
_pool_owner = 0
_counter = None  # the owner's claim counter, an unbuffered temporary file
_COUNTER = struct.Struct("3q")  # search number, next chunk, limit
_searches = itertools.count()  # numbers the searches that hand out jobs


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


def _lane_pool(size: int) -> list[tuple[int, Connection]]:
    """This process's lane pool, grown to size lanes, or fewer if os.fork
    fails, with the claim counter they share. A process that did not fork
    the pool, such as a forked child, first empties it, closing only the
    connections and the counter it inherited, so that the owner's lanes
    still exit with their owner and keep their own counter."""
    global _pool_owner, _counter
    if _pool_owner != os.getpid():
        for _, conn in _pool:
            conn.close()
        _pool.clear()
        if _counter is not None:
            _counter.close()
            _counter = None
        _pool_owner = os.getpid()
    if size and _counter is None:
        _counter = tempfile.TemporaryFile(buffering=0)
        _counter.write(_COUNTER.pack(-1, 0, 0))
    while len(_pool) < size:
        conn, lane_conn = multiprocessing.Pipe()
        try:
            pid = os.fork()
        except OSError:
            conn.close()
            lane_conn.close()
            break
        if pid == 0:
            status = 1
            try:
                for owner_conn in (conn, *(c for _, c in _pool)):
                    owner_conn.close()
                _serve(lane_conn)
                status = 0
            finally:
                os._exit(status)
        lane_conn.close()
        _pool.append((pid, conn))
    return _pool


def shutdown_search_lanes() -> None:
    """Close the pooled lanes' connections, then kill and reap every lane,
    and drop the claim counter. In a process that did not fork the pool
    this kills nothing. Runs at exit."""
    global _counter
    pool = _lane_pool(0)
    while pool:
        pid, conn = pool.pop()
        conn.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if _counter is not None:
        _counter.close()
        _counter = None


atexit.register(shutdown_search_lanes)


@contextmanager
def _locked_counter():
    """Hold the claim counter's lock; yield the counter's three values."""
    fd = _counter.fileno()
    fcntl.lockf(fd, fcntl.LOCK_EX)
    try:
        yield _COUNTER.unpack(os.pread(fd, _COUNTER.size, 0))
    finally:
        fcntl.lockf(fd, fcntl.LOCK_UN)


def _set_counter(search: int, chunk: int, limit: int) -> None:
    """Write the claim counter; the caller holds its lock."""
    os.pwrite(_counter.fileno(), _COUNTER.pack(search, chunk, limit), 0)


def _shared_claim(search: int):
    """claim(): the counter's next chunk of this search, or None once the
    counter holds another search or has reached its limit."""

    def claim() -> int | None:
        with _locked_counter() as (number, chunk, limit):
            if number != search or chunk >= limit:
                return None
            _set_counter(search, chunk + 1, limit)
            return chunk

    return claim


def _lower_limit(search: int, chunk: int) -> None:
    """Claim no chunk of this search above a hit in chunk."""
    with _locked_counter() as (number, next_chunk, limit):
        if number == search and chunk < limit:
            _set_counter(search, next_chunk, chunk)


def _serve(conn: Connection) -> None:
    """A pooled lane: run each job it is sent, until its connection closes.
    It reports every chunk it claims up to its first hit, and leaves a
    search early once another command is waiting."""
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            continue  # the stop of a search this lane has already left
        search, prefix, lo, middle, scan_args, budget, state = job
        other = prefix[:lo] + middle + prefix[lo + len(middle) :]
        scan = _scanner((prefix, other), *scan_args)
        for rec in _scan_chunks(scan, state, budget, _shared_claim(search)):
            if rec[1] >= 0:
                _lower_limit(search, rec[0])
            conn.send((search, *rec))
            if rec[1] >= 0 or conn.poll():
                break
        conn.send((search, -1, -1, None))


def _scanner(prefixes, suffix_len, ktop, var_bits, sub_shift, w, captured_digest):
    """scan(draws): the offset of the first hit among one chunk's draws, or
    -1. prefixes are the serialized log up to the candidate-dependent
    suffix, for a last tail bit of 0 and of 1."""
    copies = [hashlib.sha256(prefix).copy for prefix in prefixes]

    # Candidate r is the low var_bits bits of a 16-byte big-endian draw.
    # Reversing the bits of every byte and reading the 16 bytes as two
    # little-endian words (lo, hi) puts r's bit i at bit 127 - i of hi:lo,
    # i.e. hi:lo is r's MSB-first serialization; ktop and the var_bits mask
    # go through the same transform.
    def words(data: bytes) -> np.ndarray:
        return np.frombuffer(data.translate(_REV8), "<u8")

    k_lo, k_hi = words(ktop.to_bytes(16, "big"))
    var_words = words(((1 << var_bits) - 1).to_bytes(16, "big"))[:, None]
    # numpy shifts a uint64 by 64 to 0, so at sub_shift 0 the carry word and
    # the third suffix word are zero.
    down, up = np.uint64(sub_shift), np.uint64(64 - sub_shift)
    first_mask = (0xFF << (8 - min(w, 8))) & 0xFF
    target_first = captured_digest[0]

    def scan(draws: np.ndarray) -> int:
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

    return scan


def _skip_outputs(bitgen: np.random.PCG64, n: int) -> None:
    """Move bitgen past n >= 1 64-bit outputs as drawing them through
    rng_bytes would: a buffered half-word, if one is held, then becomes the
    high half of the last output passed."""
    if not bitgen.state["has_uint32"]:
        bitgen.advance(n)
        return
    bitgen.advance(n - 1)  # advance drops the buffered half-word
    last = int(bitgen.random_raw())
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = 1, last >> 32
    bitgen.state = state


def _scan_chunks(scan, state: dict, budget: int, claim):
    """Yield (chunk, offset of its first hit or -1, that hit's draw or None)
    for each chunk claim() hands out, in increasing order, until it hands
    out None. Each chunk is drawn from a generator in state, jumped over the
    chunks claimed elsewhere, so its draws are those of the whole stream."""
    gen = np.random.Generator(getattr(np.random, state["bit_generator"])())
    gen.bit_generator.state = state
    drawn = 0  # the chunks gen has passed
    while (c := claim()) is not None:
        if c > drawn:
            _skip_outputs(gen.bit_generator, 2 * _SEARCH_CHUNK * (c - drawn))
        todo = min(_SEARCH_CHUNK, budget - c * _SEARCH_CHUNK)
        draws = rng_bytes(gen, 16 * todo).reshape(todo, 16)
        drawn = c + 1
        k = scan(draws)
        yield c, k, draws[k].tobytes() if k >= 0 else None


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

    The chunks are claimed and scanned in lanes by the protocol stated at
    _pool, so the result is the one a single lane would find, and rng is
    read but never advanced.

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
    prefixes = []
    for bit in (0, 1):
        probe = dc_replace(state, pa_matrix=zeros, key_tail=BitVector(t, bit << (t - 1)))
        data = serialize_log(build_log_extract(probe, HardeningKind.MATRIX_IN_LOG))
        prefixes.append(data[:-suffix_len])
    ktop = state.reconciled.value >> shift
    scan_args = (suffix_len, ktop, var_bits, sub_shift, w, captured_digest)
    scan = _scanner(prefixes, *scan_args)
    rng_state = rng.bit_generator.state

    chunks = -(-budget // _SEARCH_CHUNK)
    reports: dict[int, tuple[int, bytes | None]] = {}  # chunk -> (offset of first hit or -1, draw)
    first_hit = chunks  # the lowest chunk reported with a hit
    clean = 0  # chunks 0 .. clean-1 are reported clean
    lanes = min(max_search_lanes(), chunks)

    def report(chunk: int, offset: int, draw: bytes | None) -> None:
        nonlocal first_hit, clean
        reports[chunk] = (offset, draw)
        if offset >= 0 and chunk < first_hit:
            first_hit = chunk
            if lanes > 1:
                _lower_limit(search, chunk)
        while clean < first_hit and clean in reports:
            clean += 1

    def unreported():
        """Scan, by a local claim, each chunk below the first hit that no lane reported."""
        todo = (c for c in range(chunks) if c < first_hit and c not in reports)
        return _scan_chunks(scan, rng_state, budget, functools.partial(next, todo, None))

    live: set[Connection] = set()  # the connection of each lane on this search
    dead = False
    try:
        if lanes > 1:
            search = next(_searches)
            # The prefixes differ only at the tail bit, so a job carries the
            # first and the differing bytes lo:hi of the second: at half the
            # size, a send fits the connection's buffer instead of waiting
            # for a lane still busy with the last search.
            differ = np.flatnonzero(np.not_equal(*(np.frombuffer(p, np.uint8) for p in prefixes)))
            lo, hi = int(differ[0]), int(differ[-1]) + 1
            job = (search, prefixes[0], lo, prefixes[1][lo:hi], scan_args, budget, rng_state)
            pool = _lane_pool(lanes - 1)[: lanes - 1]
            with _locked_counter():
                _set_counter(search, 0, chunks)
            for _, conn in pool:
                try:
                    # Drop what earlier searches left unread, so the connection never fills.
                    while conn.poll():
                        conn.recv()
                    conn.send(job)
                except (EOFError, OSError):
                    dead = True
                else:
                    live.add(conn)
            own = _scan_chunks(scan, rng_state, budget, _shared_claim(search))
        else:
            own = unreported()
        while clean < first_hit:
            rec = next(own, None)
            if rec is not None:
                report(*rec)
            elif not live:
                # Every lane is done or dead: scan what they left unreported.
                own = unreported()
            # Blocks when lane 0 has nothing left to claim.
            for conn in wait(list(live), 0 if rec else None) if live else []:
                try:
                    number, *lane_rec = conn.recv()
                except (EOFError, OSError):  # a reset if it died with its job unread
                    dead = True
                    live.remove(conn)
                    continue
                if number != search:
                    continue  # left unread by an earlier search
                if lane_rec[0] < 0:
                    live.remove(conn)
                else:
                    report(*lane_rec)
    finally:
        for conn in live:
            try:
                conn.send(None)
            except OSError:
                dead = True
        if dead:
            shutdown_search_lanes()

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
