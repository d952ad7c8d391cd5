"""Outside-in tracer for qkdsim: spans around the calls into each module's public functions.

The tracer replaces module attributes with timing wrappers. A function is
wrapped at every binding that refers to it in any loaded qkdsim module, so
`from .gf2 import matvec` copies in `pipeline` and `adversary` are wrapped
too, and methods are wrapped on their class. Each call records a span
(name, start, end, parent span, trial); spans stay in memory until the
caller writes them out. `restore` puts every original object back.

Per-candidate helpers of the collision search (`gf2.pack_bits_msb`) and
BitVector methods are not wrapped: spans at that grain would cost more than
the work they time. Their time counts as self time of the enclosing span.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, module under qkdsim, attribute or Class.method). The span
# name's first component is the layer.
TARGETS = (
    ("seeding.make_rng", "seeding", "make_rng"),
    ("seeding.derive_bytes", "seeding", "derive_bytes"),
    ("seeding.trial_seed", "seeding", "trial_seed"),
    ("gf2.random_matrix", "gf2", "random_matrix"),
    ("gf2.matvec", "gf2", "matvec"),
    ("gf2.replace_rows", "gf2", "replace_rows"),
    ("gf2.flip_entry", "gf2", "flip_entry"),
    ("gf2.BitMatrix.to_bytes_msb", "gf2", "BitMatrix.to_bytes_msb"),
    ("channel.deliver", "channel", "Channel.deliver"),
    ("pipeline.source_correlated", "pipeline", "source_correlated"),
    ("pipeline.sift", "pipeline", "sift"),
    ("pipeline.estimate_error", "pipeline", "estimate_error"),
    ("pipeline.reconcile", "pipeline", "reconcile"),
    ("pipeline.privacy_amplify", "pipeline", "privacy_amplify"),
    ("pipeline.build_log_extract", "pipeline", "build_log_extract"),
    ("pipeline.authenticate", "pipeline", "authenticate"),
    ("pipeline.verify", "pipeline", "verify"),
    ("pipeline.log_digest", "pipeline", "log_digest"),
    ("pipeline.serialize_log", "pipeline", "serialize_log"),
    ("pipeline.run_session", "pipeline", "run_session"),
    ("hardening.derive_matrix", "hardening", "derive_matrix"),
    ("hardening.embed_matrix_in_log", "hardening", "embed_matrix_in_log"),
    ("adversary.tamper", "adversary", "RandomizeRowsStrategy.tamper"),
    ("adversary.tamper", "adversary", "FlipEntryStrategy.tamper"),
    ("adversary.tamper", "adversary", "ZeroRowsStrategy.tamper"),
    ("adversary.tamper", "adversary", "ExtractBitsStrategy.tamper"),
    ("adversary.collision_search", "adversary", "attack_collision_impersonate"),
    ("adversary.run_collision_impersonation", "adversary", "run_collision_impersonation"),
    ("adversary.otp_encrypt", "adversary", "otp_encrypt"),  # otp_decrypt is the same function
    ("adversary.demo_otp_malleability", "adversary", "demo_otp_malleability"),
    ("scenarios.run_trial", "scenarios", "run_trial"),
)

LAYERS = ("seeding", "gf2", "channel", "pipeline", "hardening", "adversary", "scenarios")


class Tracer:
    """Span recorder. Use as a context manager: wrappers are in place only inside it."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent span id, trial), by span id
        self.counters: dict[str, int] = {}
        self.trial = -1  # set by the loop before each trial
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        importlib.import_module("qkdsim")
        modules = [m for n, m in list(sys.modules.items()) if n == "qkdsim" or n.startswith("qkdsim.")]
        for name, module_name, attr in TARGETS:
            home = importlib.import_module(f"qkdsim.{module_name}")
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(home, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self.trial)
            if observe is not None:
                observe(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.span_name = name
        return wrapper

    # ------------------------------------------------------------ analysis

    def span_table(self, scales=None) -> dict[str, dict]:
        """Per span name: calls, inclusive ns and self ns (inclusive minus child spans).

        With scales, each span's times are multiplied by scales[its trial].
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict] = {}
        for span_id, (name, start, end, _, trial) in enumerate(self.spans):
            scale = 1 if scales is None else scales[trial]
            row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += (end - start) * scale
            row["self_ns"] += (end - start - child_ns[span_id]) * scale
        return table

    def root_ns(self, scales=None) -> int:
        """Time inside top-level spans; equals the sum of every span's self time."""
        return sum(
            (end - start) * (1 if scales is None else scales[trial])
            for _, start, end, parent, trial in self.spans
            if parent < 0
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span_id,name,start_ns,end_ns,parent_id,trial\n")
            for span_id, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(f"{span_id},{name},{start},{end},{parent},{trial}\n")


def _count_frame(counters, args, result) -> None:
    # Channel.deliver(self, direction, frame): a strategy that tampers returns a new frame.
    counters["channel.tampered_frames"] = counters.get("channel.tampered_frames", 0) + (
        result is not args[2]
    )


def _count_log_bytes(counters, args, result) -> None:
    counters["pipeline.serialize_log.bytes"] = counters.get("pipeline.serialize_log.bytes", 0) + len(result)


def _count_candidates(counters, args, result) -> None:
    counters["adversary.candidates"] = counters.get("adversary.candidates", 0) + result.candidates_examined
    counters["adversary.search_hits"] = counters.get("adversary.search_hits", 0) + (result.matrix is not None)


_OBSERVERS = {
    "channel.deliver": _count_frame,
    "pipeline.serialize_log": _count_log_bytes,
    "adversary.collision_search": _count_candidates,
}
