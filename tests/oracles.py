"""Independent reference implementations used to check the fast paths.

These deliberately avoid the packed-int code paths in qkdsim.gf2: the bit
loop works entry by entry, and the numpy oracle goes through the byte
serialization and an integer matmul. Three readers get at a matrix or a
dump without gf2's own code: row_ints and bit_at read a matrix's packed
bytes, and read_hex reads a dumped vector back through unpack_msb. The
collision-search oracle prepares every candidate on its own in Python,
where the search itself prepares a whole chunk of candidates with numpy.
The session front-end oracles select with random boolean masks
(arr[keep], np.where), where the pipeline selects with index arrays.
oracle_validate_config states the attack option rules as hand-written
checks, one per attack, where scenarios declares each option's range and
checks every option with one checker. wilson_interval is the confidence
band the statistical tests hold a measured rate to. ANALYTIC_RATES gives
the exact value of each rate a builtin checks, from the builtin's params.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from fractions import Fraction

import numpy as np

from qkdsim.adversary import CollisionSearchResult
from qkdsim.gf2 import BitMatrix, BitVector, pack_bits_msb
from qkdsim.hardening import HardeningKind
from qkdsim.pipeline import (
    EstimationResult,
    PartyState,
    ProtocolError,
    SessionParams,
    build_log_extract,
    serialize_log,
)
from qkdsim.scenarios import ConfigError, ScenarioConfig, _check_value


def row_ints(m: BitMatrix) -> tuple[int, ...]:
    """The rows of m as canonical LSB-first ints, read from m.packed."""
    return tuple(int.from_bytes(r.tobytes(), "little") for r in m.packed)


def bit_at(m: BitMatrix, i: int, j: int) -> int:
    """Entry (i, j) of m: bit j % 8 of byte j // 8 of m.packed[i]."""
    if not 0 <= j < m.cols:
        raise IndexError(f"column {j} out of range for cols {m.cols}")
    return int(m.packed[i, j >> 3] >> (j & 7)) & 1


def unpack_msb(data: bytes, nbits: int) -> np.ndarray:
    """MSB-first packed bits as a 0/1 array; the bytes must fit nbits with zero pad bits."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="big")
    assert len(data) == (nbits + 7) // 8, f"{len(data)} bytes for {nbits} bits"
    assert not bits[nbits:].any(), "nonzero pad bits"
    return bits[:nbits]


def read_hex(text: str) -> BitVector:
    """A vector dumped as length-prefixed MSB-first hex ('12:b2e0'), read back."""
    head, _, body = text.partition(":")
    return BitVector.from_array(unpack_msb(bytes.fromhex(body), int(head)))


def wilson_interval(hits: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (Wilson, JASA 22:209, 1927)."""
    p = hits / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return centre - half, centre + half


def oracle_matvec_bitloop(m: BitMatrix, v: BitVector) -> list[int]:
    """Entry-by-entry parity accumulation, no packed arithmetic."""
    out = []
    for i in range(m.rows):
        acc = 0
        for j in range(m.cols):
            acc ^= bit_at(m, i, j) & v[j]
        out.append(acc)
    return out


def oracle_matvec_numpy(m: BitMatrix, v: BitVector) -> list[int]:
    """Unpacked 0/1 matmul mod 2, fed from the byte serialization."""
    data, nbytes = m.to_bytes_msb(), (m.cols + 7) // 8
    rows = np.stack(
        [unpack_msb(data[i * nbytes : (i + 1) * nbytes], m.cols) for i in range(m.rows)]
    )
    vec = unpack_msb(v.to_bytes_msb(), v.n)
    return list((rows.astype(np.int64) @ vec.astype(np.int64)) % 2)


_SEARCH_CHUNK = 4096  # candidates drawn per rng.bytes call


def oracle_candidates(
    state: PartyState, params: SessionParams, budget: int, rng: np.random.Generator
) -> Iterator[tuple[int, bytes]]:
    """Each candidate's last matrix row and full SHA-256 log digest, in search order.

    Each candidate is sliced from the chunk, masked, checked for parity and
    packed by pack_bits_msb on its own.
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    l, t = params.key_len, params.tail_len
    if t < 1:
        raise ValueError("collision search requires at least one tail row in the log")
    cols = len(state.reconciled)
    if cols < 1:
        raise ValueError("empty reconciled key")

    var_bits = min(128, cols)
    shift = cols - var_bits
    p0 = (shift // 8) * 8  # candidate-dependent suffix of the row starts here
    suffix_bits = cols - p0
    sub_shift = shift - p0
    var_mask = (1 << var_bits) - 1

    # With rows 0..l-2 all zero the only live tail bit is the last one,
    # whose value is the candidate row's parity against the reconciled key.
    # The serialized log ends with the last row, whose final
    # ceil(suffix_bits / 8) bytes are the candidate-dependent suffix.
    zeros = BitMatrix.zeros(l, cols)
    suffix_len = (suffix_bits + 7) // 8
    states = []
    for bit in (0, 1):
        probe = dc_replace(state, pa_matrix=zeros, key_tail=BitVector(t, bit << (t - 1)))
        data = serialize_log(build_log_extract(probe, HardeningKind.MATRIX_IN_LOG))
        states.append(hashlib.sha256(data[:-suffix_len]))

    ktop = state.reconciled.value >> shift
    examined = 0
    while examined < budget:
        todo = min(_SEARCH_CHUNK, budget - examined)
        buf = rng.bytes(16 * todo)
        for o in range(0, 16 * todo, 16):
            r = int.from_bytes(buf[o : o + 16], "big") & var_mask
            parity = (r & ktop).bit_count() & 1
            h = states[parity].copy()
            h.update(pack_bits_msb(r << sub_shift, suffix_bits))
            yield r << shift, h.digest()
        examined += todo


def oracle_collision_search(
    captured_digest: bytes,
    state: PartyState,
    params: SessionParams,
    budget: int,
    rng: np.random.Generator,
) -> CollisionSearchResult:
    """The collision search as one Python loop over oracle_candidates.

    The result must equal attack_collision_impersonate's for the same
    inputs and rng.
    """
    l, w = params.key_len, params.hash_width
    cols = len(state.reconciled)
    nb = (w + 7) // 8
    rem = w % 8
    if rem:
        last_mask = (0xFF << (8 - rem)) & 0xFF
        target_head, target_last = captured_digest[: nb - 1], captured_digest[nb - 1]
    examined = 0
    for row, d in oracle_candidates(state, params, budget, rng):
        examined += 1
        if rem:
            hit = d[: nb - 1] == target_head and (d[nb - 1] & last_mask) == target_last
        else:
            hit = d[:nb] == captured_digest[:nb]
        if hit:
            return CollisionSearchResult(BitMatrix((0,) * (l - 1) + (row,), cols), examined)
    return CollisionSearchResult(None, examined)


def oracle_source_correlated(
    params: SessionParams, rng: np.random.Generator
) -> tuple[PartyState, PartyState]:
    """source_correlated with Bob's bits picked by np.where on the basis match."""
    n = params.n_raw
    alice_bits = BitVector.random(n, rng)
    alice_bases = BitVector.random(n, rng)
    bob_bases = BitVector.random(n, rng)
    matched = alice_bases.bits() == bob_bases.bits()
    noise = (rng.random(n) < params.qber).astype(np.uint8)
    fresh = rng.integers(0, 2, n, dtype=np.uint8)
    bob_arr = np.where(matched, alice_bits.bits() ^ noise, fresh)
    alice = PartyState(role="A", raw_bits=alice_bits, bases=alice_bases)
    bob = PartyState(role="B", raw_bits=BitVector.from_array(bob_arr), bases=bob_bases)
    return alice, bob


def oracle_sift(state: PartyState, peer_bases: BitVector) -> None:
    """sift with a boolean mask of the matching bases."""
    if len(peer_bases) != len(state.bases):
        raise ValueError(
            f"length mismatch: peer bases {len(peer_bases)} vs own {len(state.bases)}"
        )
    own = state.bases.bits()
    keep = own == peer_bases.bits()
    state.sifted = BitVector.from_array(state.raw_bits.bits()[keep])
    state.sifted_bases = BitVector.from_array(own[keep])


def oracle_estimate_error(
    alice: PartyState, bob: PartyState, params: SessionParams, rng: np.random.Generator
) -> EstimationResult:
    """estimate_error with fancy indexing and a boolean mask of the kept bits."""
    if alice.sifted is None or bob.sifted is None:
        raise ProtocolError("missing pipeline stage: sift before error estimation")
    n = len(alice.sifted)
    if n == 0:
        raise ValueError("empty sifted key: no matching-basis positions to sample")
    k = math.ceil(params.sample_fraction * n)
    positions = np.sort(rng.choice(n, size=k, replace=False))
    a = alice.sifted.bits()
    b = bob.sifted.bits()
    mismatches = int((a[positions] != b[positions]).sum())
    rate = Fraction(mismatches, k)
    disclosed = BitVector.from_array(a[positions])
    keep = np.ones(n, dtype=bool)
    keep[positions] = False
    pos_list = [int(p) for p in positions]
    for state, arr in ((alice, a), (bob, b)):
        state.est_positions = pos_list
        state.est_rate = rate
        state.sifted = BitVector.from_array(arr[keep])
    return EstimationResult(
        rate=rate,
        positions=tuple(pos_list),
        disclosed_values=disclosed,
        abort=rate > params.abort_threshold,
    )


def oracle_reconcile(alice: PartyState, bob: PartyState) -> list[int]:
    """reconcile with np.nonzero and a per-position int conversion."""
    if alice.est_rate is None or bob.est_rate is None:
        raise ProtocolError("missing pipeline stage: error estimation before reconciliation")
    a = alice.sifted.bits()
    b = bob.sifted.bits().copy()
    diff = np.nonzero(a != b)[0]
    positions = [int(p) for p in diff]
    b[diff] ^= 1
    alice.reconciled = alice.sifted
    bob.reconciled = BitVector.from_array(b)
    alice.corrected_positions = positions
    bob.corrected_positions = positions
    return positions


# ------------------------------------------------------ attack option rules
# One hand-written check per attack, the option-kind loop and the option
# table they read, as scenarios had them before each option declared its
# range in scenarios._ATTACKS. The declared checker must reject exactly the
# configs these reject.


def _check_randomize_rows(config: ScenarioConfig, opts: dict, non_tail: int) -> None:
    if not 0 <= opts["r"] <= non_tail:
        raise ConfigError(
            f"randomize-rows needs 0 <= r <= key_len - tail_len = {non_tail}, got {opts['r']}"
        )


def _check_flip_entry(config: ScenarioConfig, opts: dict, non_tail: int) -> None:
    if not 0 <= opts["row"] < non_tail:
        raise ConfigError(
            f"flip-entry row must lie in [0, {non_tail}), got {opts['row']}: tail rows are "
            "covered by the authenticated log"
        )
    if opts["col"] < 0:
        raise ConfigError("flip-entry col must be nonnegative")
    if opts["col"] >= config.params.n_raw:
        raise ConfigError(
            f"flip-entry col must lie below n_raw = {config.params.n_raw}, got {opts['col']}: "
            "the reconciled key is shorter than the raw key"
        )


def _check_extract_bits(config: ScenarioConfig, opts: dict, non_tail: int) -> None:
    given = config.attack.options
    if not 0 <= opts["target_row"] < non_tail:
        raise ConfigError(
            f"extract-bits target_row must lie in [0, {non_tail}), got {opts['target_row']}"
        )
    if "num_known" in given and "known_positions" in given:
        raise ConfigError("give only one of num_known and known_positions")
    if opts["num_known"] < 1:
        raise ConfigError("extract-bits num_known must be at least 1")
    n_raw = config.params.n_raw
    positions = opts["known_positions"]
    if positions is None and opts["num_known"] > n_raw:
        raise ConfigError(
            f"extract-bits num_known must be at most n_raw = {n_raw}, got {opts['num_known']}"
        )
    if "known_positions" in given and not given["known_positions"]:
        raise ConfigError("extract-bits known_positions must be nonempty")
    bad = [q for q in positions or () if not 0 <= q < n_raw]
    if bad:
        raise ConfigError(
            f"extract-bits known_positions must lie in [0, n_raw = {n_raw}), got {bad[0]}"
        )
    repeated = [q for q, c in Counter(positions or ()).items() if c > 1]
    if repeated:
        # A repeated bit would enter the prediction twice but the row once.
        raise ConfigError(f"extract-bits known_positions must be distinct, {repeated[0]} repeats")


def _check_collision(config: ScenarioConfig, opts: dict, non_tail: int) -> None:
    if config.hardening is not HardeningKind.MATRIX_IN_LOG:
        raise ConfigError(
            "collision-impersonation targets the matrix_in_log variant; set "
            'hardening to "matrix_in_log"'
        )
    if opts["search_budget"] < 1:
        raise ConfigError("collision-impersonation search_budget must be at least 1")
    if config.params.tail_len < 1:
        # The search steers the digest through the logged key tail.
        raise ConfigError("collision-impersonation needs tail_len >= 1")


def _check_otp(config: ScenarioConfig, opts: dict, non_tail: int) -> None:
    positions = opts["bit_positions"]
    if positions is not None:
        if opts["num_flips"] is not None:
            raise ConfigError("give only one of bit_positions and num_flips")
        if not positions:
            raise ConfigError("otp-malleability bit_positions must be nonempty")
        bad = [q for q in positions if not 0 <= q < non_tail]
        if bad:
            raise ConfigError(
                f"otp-malleability bit_positions must lie in [0, {non_tail}), got {bad[0]}"
            )
        repeated = [q for q, c in Counter(positions).items() if c > 1]
        if repeated:
            # The flip indicator ORs the positions, so a repeated bit flips once.
            raise ConfigError(f"otp-malleability bit_positions must be distinct, {repeated[0]} repeats")
    if opts["num_flips"] is not None and not 1 <= opts["num_flips"] <= non_tail:
        raise ConfigError(f"otp-malleability num_flips must lie in [1, {non_tail}]")


def _non_tail(params: SessionParams) -> int:
    return params.key_len - params.tail_len


@dataclass(frozen=True)
class _OracleAttack:
    options: dict
    validate: object

    def resolve(self, params: SessionParams, given: dict) -> dict:
        return {k: d(params) if callable(d) else d for k, (_, d) in self.options.items()} | given


ORACLE_ATTACKS = {
    "passive": _OracleAttack({}, lambda *_: None),
    "randomize-rows": _OracleAttack({"r": (int, _non_tail)}, _check_randomize_rows),
    "flip-entry": _OracleAttack({"row": (int, 0), "col": (int, 0)}, _check_flip_entry),
    "zero-rows": _OracleAttack({}, lambda *_: None),
    "extract-bits": _OracleAttack(
        {"target_row": (int, 0), "num_known": (int, 8), "known_positions": (list, None)},
        _check_extract_bits,
    ),
    "collision-impersonation": _OracleAttack({"search_budget": (int, 1 << 20)}, _check_collision),
    "otp-malleability": _OracleAttack(
        {"bit_positions": (list, None), "num_flips": (int, None)}, _check_otp
    ),
}


def oracle_validate_config(config: ScenarioConfig) -> None:
    """scenarios.validate_config with the hand-written option checks above."""
    if config.trials < 1:
        raise ConfigError(f"trials must be at least 1, got {config.trials}")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    params = config.params
    if params.key_len >= params.n_raw:
        # A non-empty sift discloses at least one sample bit.
        raise ConfigError(
            f"key_len must be below n_raw = {params.n_raw}, got {params.key_len}: "
            "the reconciled key has at most n_raw - 1 bits"
        )
    name = config.attack.name
    if name not in ORACLE_ATTACKS:
        raise ConfigError(f"unknown attack {name!r}, expected one of: {', '.join(ORACLE_ATTACKS)}")
    attack = ORACLE_ATTACKS[name]
    for key, value in config.attack.options.items():
        if key not in attack.options:
            raise ConfigError(
                f"unknown option {key!r} for attack {name!r}"
                + (f", allowed: {', '.join(sorted(attack.options))}" if attack.options else "")
            )
        _check_value(f"{name} {key}", value, attack.options[key][0])
    attack.validate(config, attack.resolve(params, config.attack.options), _non_tail(params))



# ------------------------------------------------------------ analytic rates


@functools.cache
def exact_abort_probability(params: SessionParams) -> Fraction:
    """P(ABORT) of one honest session, summed exactly over its random counts.

    The sifted length is N ~ Bin(n_raw, 1/2), since each party's bases are
    fair bits. k = ceil(sample_fraction * N) positions are disclosed, and
    the mismatches among them are Bin(k, qber), since the noise is drawn
    independently of the bases. The session aborts on N = 0, on a sampled
    rate mismatches/k above abort_threshold, or on a short key, N - k < key_len.

    With qber = a / d and b = d - a, the session passes a sample of k with
    probability S_k / d^k, S_k = sum over m <= t of C(k, m) a^m b^(k-m), t
    the most mismatches the threshold lets pass. So the sum is taken over
    integers: S_k by Horner's rule in b up to m = t, and the weighted S_k
    of every k over one common denominator.
    """
    n = params.n_raw
    a, d = Fraction(params.qber).as_integer_ratio()
    b = d - a
    weights: dict[int, int] = {}  # k -> sum of C(n, N) over the N that draw k and keep a full key
    comb = 1
    for sifted in range(1, n + 1):
        comb = comb * (n - sifted + 1) // sifted
        k = math.ceil(params.sample_fraction * sifted)
        if sifted - k >= params.key_len:
            weights[k] = weights.get(k, 0) + comb
    top = max(weights, default=0)
    passing = 0  # sum of weights[k] * S_k * d^(top - k)
    for k in range(min(weights, default=0), top + 1):
        t = min(k, math.floor(Fraction(params.abort_threshold) * k))
        s, c, a_m = 1, 1, 1
        for m in range(1, t + 1):
            c = c * (k - m + 1) // m
            a_m *= a
            s = s * b + c * a_m
        passing = passing * d + weights.get(k, 0) * s * b ** (k - t)
    return 1 - Fraction(passing, 2**n * d**top)


def _found_rate(params: SessionParams, opts: dict) -> float:
    # 1 - (1 - 2^-w)^K. Its exact numerator has w * K bits, 16 Mbit at the
    # builtin's w = 16 and K = 2^20, so this one value is taken in double
    # precision.
    return -math.expm1(opts["search_budget"] * math.log1p(-(2.0**-params.hash_width)))


_ACCEPTS = ("accept_rate_alice", "accept_rate_bob")
_NO_ABORT = dict.fromkeys(_ACCEPTS, lambda params, opts: 1 - exact_abort_probability(params))

# Builtin -> summary rate -> its value as a function of the builtin's params
# and attack options. A rate of an attack's effect is that of a session
# that does not abort: at every builtin's params the abort probability is
# below 10^-16, which no run of a builtin's trial count can read.
ANALYTIC_RATES = {
    "baseline": _NO_ABORT,
    "randomize-rows": {
        **_NO_ABORT,
        "key_mismatch_rate": lambda params, opts: 1 - Fraction(1, 2 ** opts["r"]),
    },
    "flip-entry": {**_NO_ABORT, "attack_success_rate": lambda params, opts: Fraction(1, 2)},
    "zero-rows": _NO_ABORT,
    "extract-bits": _NO_ABORT,
    "collision-impersonation": dict.fromkeys(("attack_success_rate", "accept_rate_bob"), _found_rate),
    "otp-malleability": _NO_ABORT,
    # With the matrix in the log, a tampered matrix passes only on a
    # collision of the two parties' truncated digests.
    **{
        f"harden-matrix-in-log-{attack}": dict.fromkeys(
            _ACCEPTS, lambda params, opts: Fraction(1, 2**params.hash_width)
        )
        for attack in ("randomize-rows", "flip-entry", "zero-rows", "extract-bits")
    },
    "harden-derived-matrix": _NO_ABORT,
}


def analytic_rates(config: ScenarioConfig) -> dict[str, Fraction | float]:
    """The value of each rate ANALYTIC_RATES gives for builtin config."""
    opts = ORACLE_ATTACKS[config.attack.name].resolve(config.params, config.attack.options)
    return {rate: value(config.params, opts) for rate, value in ANALYTIC_RATES[config.name].items()}
