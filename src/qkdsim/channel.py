"""Classical channel between the two parties.

Every message of the post-processing phase crosses this channel as a tagged
frame. The channel records each delivered frame in an ordered transcript
together with a flag saying whether the installed strategy modified it in
flight, which is what the analysis code and the attacks operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

A_TO_B = "A->B"
B_TO_A = "B->A"


class FrameType(str, Enum):
    BASES = "BASES"
    EST_POSITIONS = "EST_POSITIONS"
    EST_VALUES = "EST_VALUES"
    EST_RATE = "EST_RATE"
    CORRECTIONS = "CORRECTIONS"
    PA_MATRIX = "PA_MATRIX"
    AUTH_TAG_A = "AUTH_TAG_A"
    AUTH_TAG_B = "AUTH_TAG_B"


@dataclass(frozen=True)
class Frame:
    kind: FrameType
    payload: object


@dataclass(frozen=True)
class TranscriptEntry:
    direction: str
    frame: Frame
    tampered: bool


class AttackStrategy:
    """Base strategy: forward every frame untouched (a passive wiretap).

    Active strategies override tamper and must return either the original
    frame object (meaning "not modified") or a new Frame. They override
    outcome too: given the finished session, it returns whether the attack
    had its effect and the attack's own entries for the trial record.
    """

    def tamper(self, direction: str, frame: Frame) -> Frame:
        return frame

    def outcome(self, result) -> tuple[bool, dict]:
        return False, {}  # a wiretap never counts as a success


class Channel:
    def __init__(self, strategy: AttackStrategy | None = None):
        self.strategy = strategy if strategy is not None else AttackStrategy()
        self.transcript: list[TranscriptEntry] = []

    def deliver(self, direction: str, frame: Frame) -> Frame:
        """Pass a frame through the strategy and record what came out."""
        out = self.strategy.tamper(direction, frame)
        self.transcript.append(TranscriptEntry(direction, out, out is not frame))
        return out

    def frames(self, kind: FrameType) -> list[TranscriptEntry]:
        return [e for e in self.transcript if e.frame.kind is kind]
