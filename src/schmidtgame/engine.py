"""The Schmidt game referee: alternating moves, exact validation, transcripts.

Bob owns the initial ball.  On each round Alice shrinks the current ball by
the factor alpha (Classic: exactly; Strong: at least), then Bob replies with
the factor beta.  The referee validates every proposed ball exactly and
forfeits the offending player on the first illegal move.  After max_rounds
full rounds the final enclosure is Bob's last ball, of radius
rho * (alpha*beta)^max_rounds in the Classic variant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Protocol, Tuple

from .exact import format_frac, frac, sqrt_interval
from .geometry import Ball, Vec, as_vec, schmidt_leq
from .matseq import MatrixSequence, mat_vec
from .supports import SupportModel
from .targets import TargetFamily, dist2_to_targets


class Player(str, Enum):
    ALICE = "alice"
    BOB = "bob"


class Variant(str, Enum):
    CLASSIC = "classic"
    STRONG = "strong"


class InvalidMove(Exception):
    def __init__(self, player: Player, round_no: int, reason: str):
        self.player = player
        self.round_no = round_no
        self.reason = reason
        super().__init__(f"{player.value} forfeits at round {round_no}: {reason}")


@dataclass(frozen=True)
class GameConfig:
    alpha: Fraction
    beta: Fraction
    variant: Variant
    support: SupportModel
    initial_ball: Ball
    max_rounds: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", frac(self.alpha))
        object.__setattr__(self, "beta", frac(self.beta))
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise ValueError("alpha and beta must lie in (0,1)")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not self.support.on_support(self.initial_ball.center):
            center = ", ".join(format_frac(c) for c in self.initial_ball.center)
            raise ValueError(f"initial ball center {center} is off the support")


@dataclass(frozen=True)
class Move:
    round_no: int
    player: Player
    ball: Ball
    annotations: Dict = field(default_factory=dict)


@dataclass
class GameTranscript:
    config_digest: Dict
    moves: List[Move] = field(default_factory=list)
    certificates: List[Dict] = field(default_factory=list)
    final_enclosure: Optional[Ball] = None


class Strategy(Protocol):
    def propose(self, transcript: GameTranscript, outer: Ball) -> Tuple[Ball, Dict]:
        ...


def _check_move(
    config: GameConfig, player: Player, round_no: int, outer: Ball, ball: Ball
) -> Optional[str]:
    ratio = config.alpha if player is Player.ALICE else config.beta
    if config.variant is Variant.CLASSIC:
        if ball.radius != ratio * outer.radius:
            return f"radius must equal {format_frac(ratio * outer.radius)} exactly"
    else:
        if not (ratio * outer.radius <= ball.radius <= outer.radius):
            return "radius outside the strong-variant bounds"
    if not schmidt_leq(ball, outer):
        return "proposed ball is not schmidt-contained in the current ball"
    if not config.support.on_support(ball.center):
        return "center is off the support"
    return None


def _config_digest(config: GameConfig) -> Dict:
    return {
        "alpha": format_frac(config.alpha),
        "beta": format_frac(config.beta),
        "variant": config.variant.value,
        "dim": config.initial_ball.dim,
        "max_rounds": config.max_rounds,
    }


def run_game(
    config: GameConfig, alice: Strategy, bob: Strategy, seed: int = 0
) -> GameTranscript:
    """Referee one game; raises InvalidMove when a strategy forfeits."""
    for s in (alice, bob):
        start = getattr(s, "start", None)
        if start is not None:
            start(config, seed)
    t = GameTranscript(config_digest=_config_digest(config))
    current = config.initial_ball
    t.moves.append(Move(1, Player.BOB, current, {"initial": True}))
    for round_no in range(1, config.max_rounds + 1):
        ball, ann = alice.propose(t, current)
        reason = _check_move(config, Player.ALICE, round_no, current, ball)
        if reason is not None:
            raise InvalidMove(Player.ALICE, round_no, reason)
        t.moves.append(Move(round_no, Player.ALICE, ball, ann))
        for cert in ann.get("certificates", ()):
            t.certificates.append(cert)
        current = ball
        ball, ann = bob.propose(t, current)
        reason = _check_move(config, Player.BOB, round_no, current, ball)
        if reason is not None:
            raise InvalidMove(Player.BOB, round_no, reason)
        t.moves.append(Move(round_no + 1, Player.BOB, ball, ann))
        current = ball
    t.final_enclosure = current
    return t


def validate_transcript(t: GameTranscript, config: GameConfig) -> bool:
    """Replay every rule check exactly."""
    if not t.moves or t.moves[0].player is not Player.BOB:
        return False
    first = t.moves[0].ball
    if first != config.initial_ball:
        return False
    if not config.support.on_support(first.center):
        return False
    current = first
    expect_alice = True
    for mv in t.moves[1:]:
        player = Player.ALICE if expect_alice else Player.BOB
        if mv.player is not player:
            return False
        if _check_move(config, player, mv.round_no, current, mv.ball) is not None:
            return False
        current = mv.ball
        expect_alice = not expect_alice
    if t.final_enclosure is not None and t.final_enclosure != current:
        return False
    return True


# +infinity sentinel for an empty constraint horizon
INF_MARGIN = Fraction(10 ** 12)


def limit_margin(
    t: GameTranscript,
    seq: MatrixSequence,
    targets: TargetFamily,
    k_max: int,
) -> Fraction:
    """Certified lower bound on d(M_k x, Z_k) over k <= k_max, any x in the
    final enclosure; +inf sentinel when k_max = 0."""
    if k_max == 0:
        return INF_MARGIN
    if t.final_enclosure is None:
        raise ValueError("transcript incomplete")
    ball = t.final_enclosure
    best: Optional[Fraction] = None
    for k in range(1, k_max + 1):
        p = mat_vec(seq.matrix(k), ball.center)
        d2 = dist2_to_targets(targets, k, p)
        if d2 is None:
            continue
        d_lo = sqrt_interval(d2).lo
        m = d_lo - seq.t(k).hi * ball.radius
        m = max(Fraction(0), m)
        best = m if best is None else min(best, m)
    if best is None:
        return INF_MARGIN
    return best


# ---------------------------------------------------------------------------
# transcript serialization (line-delimited JSON, exact rationals as "p/q")


def _vec_to_json(v: Vec) -> List[str]:
    return [format_frac(x) for x in v]


def _ball_to_json(b: Ball) -> Dict:
    return {"center": _vec_to_json(b.center), "radius": format_frac(b.radius)}


def _ball_from_json(d: Dict) -> Ball:
    return Ball(as_vec([frac(x) for x in d["center"]]), frac(d["radius"]))


def save_transcript(t: GameTranscript, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "config", **t.config_digest}) + "\n")
        for mv in t.moves:
            rec = {
                "type": "move",
                "round": mv.round_no,
                "player": mv.player.value,
                **_ball_to_json(mv.ball),
                "annotations": _jsonable(mv.annotations),
            }
            fh.write(json.dumps(rec) + "\n")
        summary = {
            "type": "summary",
            "certificates": _jsonable(t.certificates),
        }
        if t.final_enclosure is not None:
            summary["final"] = _ball_to_json(t.final_enclosure)
        fh.write(json.dumps(summary) + "\n")


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return format_frac(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def load_transcript(path: str) -> GameTranscript:
    t = GameTranscript(config_digest={})
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec.pop("type")
            if kind == "config":
                t.config_digest = rec
            elif kind == "move":
                t.moves.append(
                    Move(
                        rec["round"],
                        Player(rec["player"]),
                        _ball_from_json(rec),
                        rec.get("annotations", {}),
                    )
                )
            elif kind == "summary":
                t.certificates = rec.get("certificates", [])
                if "final" in rec:
                    t.final_enclosure = _ball_from_json(rec["final"])
    return t
