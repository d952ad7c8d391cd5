"""Classical post-processing pipeline for an entanglement-based QKD session.

The stages run in a fixed order: correlated raw bits, sifting on matching
bases, error-rate estimation on a disclosed sample (with an abort
threshold), idealized reconciliation that corrects Bob's key exactly, and
privacy amplification by a random GF(2) matrix. Afterwards each party
authenticates a short extract of its protocol log (hash, then MAC) and
releases its final key only if the peer's extract digest matches its own.

Channel message order in run_session: BASES (A->B), BASES (B->A),
EST_POSITIONS (A->B), EST_VALUES (A->B), EST_RATE (B->A),
CORRECTIONS (A->B), PA_MATRIX (A->B, omitted in derived_matrix mode),
AUTH_TAG_A (A->B), AUTH_TAG_B (B->A).

Everything up to the matrix message is exchange_reconciled_key, which makes
every abort decision of a session. Both parties ABORT
- on an empty sift, or on sifted keys of different lengths (a tampered
  BASES frame), after the two BASES frames;
- when the estimated error rate exceeds abort_threshold, after the three
  EST_* frames;
- on a short key, when fewer than key_len reconciled bits remain (the matrix
  would only stretch them), after the CORRECTIONS frame.
Everything from the amplification on is finish_session, which gives every
verdict of a session that did not abort. run_session runs the one, chooses
and sends the matrix, then runs the other; the collision attack's session
with Bob runs both too, sending its found matrix as the PA_MATRIX frame.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import math
import operator
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .channel import A_TO_B, B_TO_A, Channel, Frame, FrameType
from .gf2 import BitMatrix, BitVector, matvec, random_matrix, random_rows, rng_bytes
from .hardening import HardeningKind, derive_matrix, embed_matrix_in_log
from .seeding import derive_bytes, make_rng


class ProtocolError(RuntimeError):
    """A pipeline stage was invoked out of order or on unusable state."""


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ABORT = "abort"


@dataclass(frozen=True)
class SessionParams:
    """The protocol's constants. A session's randomness derives from its seed."""

    n_raw: int = 8192
    qber: float = 0.03
    sample_fraction: float = 0.125
    abort_threshold: float = 0.11
    key_len: int = 256  # rows of the amplification matrix
    tail_len: int = 128  # disclosed tail bits of the amplified key
    hash_width: int = 128  # truncated digest width in bits

    def __post_init__(self):
        if not 1 <= self.n_raw < 2**32:
            # The log writes lengths and positions as u32 (vec_field, pos_field).
            raise ValueError("n_raw must lie in [1, 2**32)")
        if not 0.0 <= self.qber <= 1.0:
            raise ValueError("qber must lie in [0, 1]")
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError("sample_fraction must lie strictly between 0 and 1")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ValueError("abort_threshold must lie in [0, 1]")
        if not 0 <= self.tail_len < self.key_len:
            raise ValueError("tail_len must satisfy 0 <= tail_len < key_len")
        if not 1 <= self.hash_width <= 256:
            raise ValueError("hash_width must lie in [1, 256]")


class Positions(Sequence):
    """An immutable sequence of key positions, held as a read-only u32 array.

    The stages wrap their numpy index arrays in it instead of building int
    lists: the positions are packed once into the big-endian u32 form the
    protocol log writes (log_field), and read back through a view of those
    bytes, which numpy refuses to make writable again. Iteration and
    indexing give Python ints, and a Positions equals, and hashes like, the
    tuple of its positions. It also equals the list of them, and no other
    sequence. A position outside [0, 2**32) is a struct.error, as in
    struct.pack.
    """

    __slots__ = ("_packed", "_a")

    def __init__(self, positions: Iterable[int] | np.ndarray):
        if isinstance(positions, Positions):
            self._packed, self._a = positions._packed, positions._a  # immutable: share
            return
        if not isinstance(positions, np.ndarray):
            try:
                positions = np.array([operator.index(p) for p in positions], dtype=np.int64)
            except OverflowError:  # beyond int64, so beyond u32 too
                raise struct.error("positions must lie in [0, 2**32)") from None
        if positions.ndim != 1 or positions.dtype.kind not in "iu":
            raise TypeError("positions must be a 1-D array of integers")
        if positions.size and (positions.min() < 0 or positions.max() >= 2**32):
            raise struct.error("positions must lie in [0, 2**32)")
        self._packed = positions.astype(">u4").tobytes()
        self._a = np.frombuffer(self._packed, dtype=">u4")

    @classmethod
    def _from_indices(cls, indices: np.ndarray) -> "Positions":
        """Positions of a 1-D integer array that indexes a key, with no checks.

        The stages' sorted index arrays (choice, flatnonzero) already lie in
        [0, n_raw), inside the u32 range that Positions(...) checks for.
        """
        p = cls.__new__(cls)
        p._packed = indices.astype(">u4").tobytes()
        p._a = np.frombuffer(p._packed, ">u4")
        return p

    def __len__(self) -> int:
        return len(self._a)

    def __getitem__(self, i: int) -> int:
        return self._a.item(i)

    def __iter__(self) -> Iterator[int]:
        return iter(self._a.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Positions):
            return self._packed == other._packed
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._a.tolist()))

    def __repr__(self) -> str:
        return f"Positions({self._a.tolist()})"

    def tolist(self) -> list[int]:
        return self._a.tolist()

    def log_field(self) -> bytes:
        """The count, then each position, as big-endian u32s."""
        return _u32(len(self._a)) + self._packed


@dataclass
class PartyState:
    """Everything one party accumulates over a session.

    sifted starts as the key after basis reconciliation and, once error
    estimation has run, has the disclosed sample positions removed.
    sifted_bases keeps the basis of every sifted bit (pre-removal), which
    is what the protocol-log extract discloses; est_positions index into
    that pre-removal sequence, corrected_positions into the post-removal
    one. Both are Positions, shared by the two parties, the estimation
    result and the EST_POSITIONS/CORRECTIONS frames.

    A session computes a value once and gives both parties the same
    immutable object wherever it is provably the same for both:
    - reconciled, always: reconciliation leaves Bob with Alice's sifted key;
    - sifted_bases, when both BASES frames arrive as the objects sent;
    - pa_matrix, full_key, final_key and key_tail, when the PA_MATRIX
      frame arrives as the object sent. In derived_matrix mode each party
      derives its own matrix, so each computes its own product.
    """

    role: str
    raw_bits: BitVector
    bases: BitVector
    sifted: BitVector | None = None
    sifted_bases: BitVector | None = None
    est_positions: Positions | None = None
    est_rate: Fraction | None = None
    corrected_positions: Positions | None = None
    reconciled: BitVector | None = None
    pa_matrix: BitMatrix | None = None
    full_key: BitVector | None = None
    final_key: BitVector | None = None
    key_tail: BitVector | None = None


@dataclass(frozen=True)
class ProtocolLogExtract:
    """The authenticated extract of a party's protocol log.

    Contains the basis of each sifted bit, the positions disclosed during
    error estimation, the estimated error rate, the positions corrected by
    reconciliation and the tail of the amplified key (which both parties
    subsequently discard). The amplification matrix itself is embedded only
    in matrix_in_log mode. The sessions pass the parties' Positions through
    as they are; any sequence of ints serializes the same (pos_field).
    """

    sifted_bases: BitVector
    est_positions: Sequence[int]
    est_rate: Fraction
    corrected_positions: Sequence[int]
    key_tail: BitVector
    matrix_included: BitMatrix | None = None


@dataclass(frozen=True)
class AuthTag:
    digest: bytes  # truncated hash of the serialized log extract
    mac: bytes  # binds digest under the pre-shared authentication key


@dataclass(frozen=True)
class EstimationResult:
    rate: Fraction
    positions: Positions
    disclosed_values: BitVector  # Alice's bits at the disclosed positions
    abort: bool


@dataclass(frozen=True)
class PartyOutcome:
    verdict: Verdict
    released_key: BitVector | None  # populated only on ACCEPT
    state: PartyState  # ground truth, for analysis only


@dataclass(frozen=True)
class SessionResult:
    alice: PartyOutcome
    bob: PartyOutcome
    channel: Channel


# ------------------------------------------------------------------ stages


def source_correlated(params: SessionParams, rng: np.random.Generator) -> tuple[PartyState, PartyState]:
    """Model the quantum phase: correlated raw bits plus random bases.

    Where the bases match, Bob's bit equals Alice's flipped with
    probability qber; elsewhere his outcome is an independent fair bit.
    Alice's bits, her bases and Bob's bases are the three rows of one
    random_rows draw, which takes the bytes of three BitVector.random calls
    in turn. Every vector here wraps a bits array built here, uncopied, and
    packs its int only if something reads it, so a vector may hold its int,
    its bits or both.
    """
    n = params.n_raw
    rows = np.unpackbits(random_rows(3, n, rng).packed, axis=1, bitorder="little")[:, :n]
    alice_bits, alice_bases, bob_bases = map(BitVector._adopt, rows)
    matched = np.equal(alice_bases.bits(), bob_bases.bits())
    noise = (rng.random(n) < params.qber).view(np.uint8)
    # Exactly rng.integers(0, 2, n, dtype=np.uint8), end state included: for
    # a range of 2 numpy keeps the top bit of each byte of the same stream.
    fresh = rng_bytes(rng, n) >> 7
    # 0/1 select: alice ^ noise where matched, fresh elsewhere
    bob_arr = fresh ^ (matched & (alice_bits.bits() ^ noise ^ fresh))
    alice = PartyState(role="A", raw_bits=alice_bits, bases=alice_bases)
    bob = PartyState(role="B", raw_bits=BitVector._adopt(bob_arr), bases=bob_bases)
    return alice, bob


def sift(state: PartyState, peer_bases: BitVector, peer: PartyState | None = None) -> None:
    """Keep exactly the positions where both parties measured in the same basis.

    Given the peer whose own bases peer_bases are, sift it on the same
    positions too: it keeps its own raw bits there and shares state's
    sifted_bases, since both parties' bases agree wherever they are kept.
    The stages select by index array (flatnonzero, take): a random mask is branch-bound.
    Each take is a fresh array, which its vector wraps uncopied.
    """
    if len(peer_bases) != len(state.bases):
        raise ValueError(
            f"length mismatch: peer bases {len(peer_bases)} vs own {len(state.bases)}"
        )
    own = state.bases.bits()
    keep = np.flatnonzero(own == peer_bases.bits())
    state.sifted = BitVector._adopt(state.raw_bits.bits().take(keep))
    state.sifted_bases = BitVector._adopt(own.take(keep))
    if peer is not None:
        peer.sifted = BitVector._adopt(peer.raw_bits.bits().take(keep))
        peer.sifted_bases = state.sifted_bases


def estimate_error(
    alice: PartyState, bob: PartyState, params: SessionParams, rng: np.random.Generator
) -> EstimationResult:
    """Disclose a random sample of the sifted key and estimate the error rate.

    ceil(sample_fraction * len) positions are drawn without replacement,
    compared, removed from both parties' working keys, and recorded. The
    session aborts iff the observed rate exceeds abort_threshold.
    """
    if alice.sifted is None or bob.sifted is None:
        raise ProtocolError("missing pipeline stage: sift before error estimation")
    n = len(alice.sifted)
    if n == 0:
        raise ValueError("empty sifted key: no matching-basis positions to sample")
    k = math.ceil(params.sample_fraction * n)
    positions = np.sort(rng.choice(n, size=k, replace=False))
    a = alice.sifted.bits()
    b = bob.sifted.bits()
    sample = a.take(positions)
    mismatches = int(np.count_nonzero(sample != b.take(positions)))
    rate = Fraction(mismatches, k)
    disclosed = BitVector._adopt(sample)
    keep = np.ones(n, dtype=bool)
    keep[positions] = False
    rest = np.flatnonzero(keep)
    disclosed_at = Positions._from_indices(positions)
    for state, arr in ((alice, a), (bob, b)):
        state.est_positions = disclosed_at
        state.est_rate = rate
        state.sifted = BitVector._adopt(arr.take(rest))
    return EstimationResult(
        rate=rate,
        positions=disclosed_at,
        disclosed_values=disclosed,
        abort=rate > params.abort_threshold,
    )


def reconcile(alice: PartyState, bob: PartyState) -> Positions:
    """Idealized error correction: flip exactly Bob's differing bits.

    Stands in for a real reconciliation protocol; the corrected positions
    are exact and end up in both protocol logs. Flipping exactly the
    differing bits leaves Bob with Alice's sifted key, so both parties take
    that one object as their reconciled key.
    """
    if alice.est_rate is None or bob.est_rate is None:
        raise ProtocolError("missing pipeline stage: error estimation before reconciliation")
    positions = Positions._from_indices(np.flatnonzero(alice.sifted.bits() != bob.sifted.bits()))
    alice.reconciled = bob.reconciled = alice.sifted
    alice.corrected_positions = bob.corrected_positions = positions
    return positions


def privacy_amplify(state: PartyState, matrix: BitMatrix, params: SessionParams) -> None:
    """Amplify: full_key = matrix * reconciled, then split off the tail.

    The first key_len - tail_len bits form the final key; the last
    tail_len bits are the disclosed tail that goes into the protocol log.
    """
    if state.reconciled is None:
        raise ProtocolError("missing pipeline stage: reconciliation before amplification")
    if matrix.rows != params.key_len:
        raise ValueError(
            f"dimension mismatch: matrix has {matrix.rows} rows, key_len is {params.key_len}"
        )
    full = matvec(matrix, state.reconciled)
    state.pa_matrix = matrix
    state.full_key = full
    state.final_key = full.first(params.key_len - params.tail_len)
    state.key_tail = full.last(params.tail_len)


def build_log_extract(
    state: PartyState, hardening: HardeningKind = HardeningKind.BASELINE
) -> ProtocolLogExtract:
    """Assemble the party's protocol-log extract from its state."""
    missing = [
        name
        for name, value in (
            ("sift", state.sifted_bases),
            ("error estimation", state.est_rate),
            ("reconciliation", state.corrected_positions),
            ("privacy amplification", state.key_tail),
        )
        if value is None
    ]
    if missing:
        raise ProtocolError(f"missing pipeline stage: {missing[0]} before log extraction")
    log = ProtocolLogExtract(
        sifted_bases=state.sifted_bases,
        est_positions=state.est_positions,
        est_rate=state.est_rate,
        corrected_positions=state.corrected_positions,
        key_tail=state.key_tail,
    )
    if hardening is HardeningKind.MATRIX_IN_LOG:
        log = embed_matrix_in_log(log, state.pa_matrix)
    return log


# ------------------------------------------------- serialization and auth


def _u32(x: int) -> bytes:
    return struct.pack(">I", x)


def vec_field(v: BitVector) -> bytes:
    return _u32(v.n) + v.to_bytes_msb()


def pos_field(positions: Sequence[int]) -> bytes:
    return Positions(positions).log_field()


def rate_field(rate: Fraction) -> bytes:
    return _u32(rate.numerator) + _u32(rate.denominator)


def matrix_field(matrix: BitMatrix | None) -> bytes:
    if matrix is None:
        return b"\x00"
    return b"\x01" + _u32(matrix.rows) + _u32(matrix.cols) + matrix.to_bytes_msb()


def serialize_log(log: ProtocolLogExtract) -> bytes:
    """Canonical byte serialization: fixed field order, big-endian counts."""
    return b"".join(
        (
            vec_field(log.sifted_bases),
            pos_field(log.est_positions),
            rate_field(log.est_rate),
            pos_field(log.corrected_positions),
            vec_field(log.key_tail),
            matrix_field(log.matrix_included),
        )
    )


def truncate_digest(digest: bytes, width: int) -> bytes:
    """First `width` bits of a digest, zero-padded to whole bytes."""
    nbytes = (width + 7) // 8
    out = bytearray(digest[:nbytes])
    if width % 8:
        out[-1] &= 0xFF << (8 - width % 8) & 0xFF
    return bytes(out)


def log_digest(log: ProtocolLogExtract, hash_width: int) -> bytes:
    return truncate_digest(hashlib.sha256(serialize_log(log)).digest(), hash_width)


def mac_digest(auth_key: bytes, digest: bytes) -> bytes:
    """HMAC-SHA-256 of the digest under auth_key, in one call."""
    return hmac_mod.digest(auth_key, digest, "sha256")


def authenticate(digest: bytes, auth_key: bytes) -> AuthTag:
    """Tag a party's log digest: the digest together with its MAC.

    The MAC is unforgeable for fresh digests, but a captured (digest, mac)
    pair verifies against any log whose extract hashes to the same digest.
    """
    return AuthTag(digest=digest, mac=mac_digest(auth_key, digest))


def verify(digest: bytes, tag: AuthTag, auth_key: bytes) -> bool:
    """Accept iff the MAC binds the tag's digest and that digest equals ours.

    The MAC is checked first, and both comparisons are constant-time.
    """
    if not hmac_mod.compare_digest(mac_digest(auth_key, tag.digest), tag.mac):
        return False
    return hmac_mod.compare_digest(digest, tag.digest)


# ----------------------------------------------------------------- session


def session_auth_key(seed: int) -> bytes:
    """Pre-shared authentication key, provisioned before the session."""
    return derive_bytes(seed, "auth-key", n=32)


def exchange_reconciled_key(
    params: SessionParams, channel: Channel, rng: np.random.Generator
) -> tuple[PartyState, PartyState, bool]:
    """Run a session up to the matrix message: sift, estimate, reconcile.

    Returns both party states and whether the session aborts. The aborts
    and the frames sent before each are listed in the module docstring.
    """
    alice, bob = source_correlated(params, rng)

    bases_ab = channel.deliver(A_TO_B, Frame(FrameType.BASES, alice.bases)).payload
    bases_ba = channel.deliver(B_TO_A, Frame(FrameType.BASES, bob.bases)).payload
    if bases_ab is alice.bases and bases_ba is bob.bases:
        sift(alice, bob.bases, peer=bob)  # both frames as sent: one sift for both
    else:
        sift(alice, bases_ba)
        sift(bob, bases_ab)
    if len(alice.sifted) == 0:
        return alice, bob, True  # no matching bases: nothing to estimate or distil
    if len(bob.sifted) != len(alice.sifted):
        return alice, bob, True  # the parties disagree on which positions match

    est = estimate_error(alice, bob, params, rng)
    channel.deliver(A_TO_B, Frame(FrameType.EST_POSITIONS, est.positions))
    channel.deliver(A_TO_B, Frame(FrameType.EST_VALUES, est.disclosed_values))
    channel.deliver(B_TO_A, Frame(FrameType.EST_RATE, est.rate))
    if est.abort:
        return alice, bob, True

    corrected = reconcile(alice, bob)
    channel.deliver(A_TO_B, Frame(FrameType.CORRECTIONS, corrected))
    return alice, bob, len(alice.reconciled) < params.key_len


def run_session(
    params: SessionParams,
    seed: int,
    channel: Channel | None = None,
    hardening: HardeningKind = HardeningKind.BASELINE,
    auth_key: bytes | None = None,
) -> SessionResult:
    """Run one full session between honest parties over the given channel.

    Every classical message passes through the channel in the fixed order
    documented in the module docstring; the installed strategy may tamper
    with frames in flight. Both parties ABORT when exchange_reconciled_key
    says so; otherwise the matrix is chosen, sent as the PA_MATRIX frame
    unless each party derives it, and finish_session ends the session.
    auth_key overrides the pre-shared authentication key (by default it is
    provisioned deterministically from seed, which must be nonnegative).
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if channel is None:
        channel = Channel()
    rng = make_rng(seed, "session")
    alice, bob, aborted = exchange_reconciled_key(params, channel, rng)
    if aborted:
        return SessionResult(
            alice=PartyOutcome(Verdict.ABORT, None, alice),
            bob=PartyOutcome(Verdict.ABORT, None, bob),
            channel=channel,
        )

    key_len_in = len(alice.reconciled)
    if hardening is HardeningKind.DERIVED_MATRIX:
        # Pre-provisioned shared secret, from which both parties derive the matrix.
        secret = derive_bytes(seed, "pa-derivation-secret", n=32)
        matrix_a = derive_matrix(secret, params.key_len, key_len_in)
        matrix_b = derive_matrix(secret, params.key_len, key_len_in)
    else:
        matrix_a = random_matrix(params.key_len, key_len_in, rng)
        matrix_b = channel.deliver(A_TO_B, Frame(FrameType.PA_MATRIX, matrix_a)).payload
    if auth_key is None:
        auth_key = session_auth_key(seed)
    return finish_session(params, channel, alice, bob, matrix_a, matrix_b, hardening, auth_key)


def finish_session(
    params: SessionParams,
    channel: Channel,
    alice: PartyState,
    bob: PartyState,
    matrix_a: BitMatrix,
    matrix_b: BitMatrix,
    hardening: HardeningKind,
    auth_key: bytes,
) -> SessionResult:
    """End a session whose exchange did not abort, each party holding its matrix.

    Amplifies both keys, builds and hashes both log extracts, sends
    AUTH_TAG_A and AUTH_TAG_B over the channel and gives each party its
    verdict: a party releases its final key only if the peer's tag verifies
    against its own digest.
    """
    privacy_amplify(alice, matrix_a, params)
    if matrix_b is matrix_a:
        # Alice's own matrix times her own key: Bob's product is hers.
        bob.pa_matrix, bob.full_key, bob.final_key, bob.key_tail = (
            alice.pa_matrix, alice.full_key, alice.final_key, alice.key_tail
        )
    else:
        privacy_amplify(bob, matrix_b, params)

    # Each party hashes its own log once and uses that digest both to tag
    # its log and to check the peer's tag. Equal extracts serialize to equal
    # bytes, so Bob reuses Alice's digest when his extract equals hers.
    log_a = build_log_extract(alice, hardening)
    log_b = build_log_extract(bob, hardening)
    digest_a = log_digest(log_a, params.hash_width)
    digest_b = digest_a if log_b == log_a else log_digest(log_b, params.hash_width)
    tag_a = channel.deliver(
        A_TO_B, Frame(FrameType.AUTH_TAG_A, authenticate(digest_a, auth_key))
    ).payload
    tag_b = channel.deliver(
        B_TO_A, Frame(FrameType.AUTH_TAG_B, authenticate(digest_b, auth_key))
    ).payload
    bob_ok = verify(digest_b, tag_a, auth_key)
    alice_ok = verify(digest_a, tag_b, auth_key)

    def outcome(ok: bool, state: PartyState) -> PartyOutcome:
        return PartyOutcome(
            verdict=Verdict.ACCEPT if ok else Verdict.REJECT,
            released_key=state.final_key if ok else None,
            state=state,
        )

    return SessionResult(alice=outcome(alice_ok, alice), bob=outcome(bob_ok, bob), channel=channel)
