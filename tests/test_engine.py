"""Game referee: move validation, transcripts, and the limit margin."""

import json
import math
import os
import random
from fractions import Fraction as F

import pytest

from schmidtgame.cli import _game_inputs, main
from schmidtgame.engine import (
    INF_MARGIN,
    GameConfig,
    GameTranscript,
    InvalidMove,
    Move,
    Player,
    Variant,
    limit_margin,
    load_transcript,
    run_game,
    save_transcript,
    validate_transcript,
)
from schmidtgame.exact import sqrt_interval
from schmidtgame.geometry import Ball
from schmidtgame.matseq import MatrixSequence
from schmidtgame.strategies import MaximalBob, certified_game
from schmidtgame.supports import DecayParams, Similarity, SupportModel
from schmidtgame.targets import TargetFamily

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def line_support():
    return SupportModel.euclidean(1, DecayParams(C=F(1), gamma=F(1), ambient_dim=1))


def cantor_support():
    return SupportModel.ifs(
        [Similarity(F(1, 3), (F(0),)), Similarity(F(1, 3), (F(2, 3),))],
        (F(0),),
        (F(1),),
        DecayParams(C=F(33, 16), gamma=F(5, 8), ambient_dim=1),
    )


def classic_config(max_rounds=5):
    return GameConfig(
        F(1, 4),
        F(1, 2),
        Variant.CLASSIC,
        line_support(),
        Ball((F(0),), F(1)),
        max_rounds,
    )


class CenteredAlice:
    """Keeps the center, shrinking at the required rate."""

    def __init__(self, alpha):
        self.alpha = alpha

    def propose(self, outer):
        return Ball(outer.center, self.alpha * outer.radius), {}


class CenteredBob:
    """Keeps the center and shrinks by exactly the beta of its game."""

    def __init__(self, config):
        self.beta = config.beta

    def propose(self, outer):
        return Ball(outer.center, self.beta * outer.radius), {}


class CheatingAlice:
    def propose(self, outer):
        return Ball(outer.center, outer.radius / 3), {}


class EscapingBob:
    def propose(self, outer):
        # correct radius but a center violating containment
        return Ball((outer.center[0] + outer.radius,), outer.radius / 2), {}


class OffSupportBob:
    """A legal radius and containment, but the center 1/2 is off the Cantor set."""

    def propose(self, outer):
        return Ball((F(1, 2),), outer.radius / 2), {}


class TestRunGame:
    def test_radii_follow_schedule(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob(cfg))
        assert t.final_enclosure.radius == F(1, 8) ** 4
        radii = [m.ball.radius for m in t.moves]
        assert radii[0] == F(1)
        for i in range(1, len(radii)):
            factor = F(1, 4) if i % 2 == 1 else F(1, 2)
            assert radii[i] == factor * radii[i - 1]

    def test_wrong_radius_forfeits(self):
        cfg = classic_config()
        with pytest.raises(InvalidMove) as e:
            run_game(cfg, CheatingAlice(), CenteredBob(cfg))
        assert e.value.player is Player.ALICE

    def test_containment_enforced(self):
        with pytest.raises(InvalidMove) as e:
            run_game(classic_config(), CenteredAlice(F(1, 4)), EscapingBob())
        assert e.value.player is Player.BOB

    def test_strong_variant_accepts_larger_radii(self):
        cfg = GameConfig(
            F(1, 4),
            F(1, 2),
            Variant.STRONG,
            line_support(),
            Ball((F(0),), F(1)),
            3,
        )
        t = run_game(cfg, CenteredAlice(F(1, 4)), MaximalBob())
        assert validate_transcript(t, cfg)

    def test_initial_center_must_be_on_support(self):
        cantor = cantor_support()
        with pytest.raises(ValueError):
            GameConfig(
                F(1, 4), F(1, 2), Variant.CLASSIC, cantor, Ball((F(1, 2),), F(1)), 3
            )

    def test_off_support_center_forfeits(self):
        cantor = cantor_support()
        # Alice keeps the center 1/3 at radius 1, so B(1/2, 1/2) is contained
        cfg = GameConfig(
            F(1, 4), F(1, 2), Variant.CLASSIC, cantor, Ball((F(1, 3),), F(4)), 3
        )
        with pytest.raises(InvalidMove) as e:
            run_game(cfg, CenteredAlice(F(1, 4)), OffSupportBob())
        assert e.value.player is Player.BOB
        assert e.value.round_no == 1
        assert "center is off the support" in str(e.value)


class TestValidateTranscript:
    def test_round_trip(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob(cfg))
        assert validate_transcript(t, cfg)

    def test_tampered_radius_rejected(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob(cfg))
        bad = t.moves[2]
        t.moves[2] = Move(
            bad.round_no, bad.player, Ball(bad.ball.center, bad.ball.radius * 2)
        )
        assert not validate_transcript(t, cfg)

    def test_other_config_rejected(self):
        # a legal game of 4 rounds is no transcript of a 3- or 5-round config,
        # nor of one whose digest names another beta
        played = classic_config(4)
        t = run_game(played, CenteredAlice(F(1, 4)), CenteredBob(played))
        for cfg in (classic_config(3), classic_config(5)):
            assert not validate_transcript(t, cfg)
        other = classic_config(4)
        t.config_digest = dict(t.config_digest, beta="1/3")
        assert not validate_transcript(t, other)

    def test_truncated_or_renumbered_rejected(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob(cfg))
        short = GameTranscript(t.config_digest, t.moves[:-2], [], t.moves[-3].ball)
        assert not validate_transcript(short, cfg)
        mv = t.moves[3]
        t.moves[3] = Move(mv.round_no + 1, mv.player, mv.ball, mv.annotations)
        assert not validate_transcript(t, cfg)

    def test_wrong_final_or_dimension_rejected(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob(cfg))
        final = t.final_enclosure
        t.final_enclosure = None
        assert not validate_transcript(t, cfg)
        t.final_enclosure = final
        mv = t.moves[2]
        t.moves[2] = Move(mv.round_no, mv.player, Ball((F(0), F(0)), mv.ball.radius))
        assert not validate_transcript(t, cfg)


class TestSerialization:
    def test_save_load_exact(self, tmp_path):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob(cfg))
        path = str(tmp_path / "t.jsonl")
        save_transcript(t, path)
        loaded = load_transcript(path)
        assert [m.ball for m in loaded.moves] == [m.ball for m in t.moves]
        assert loaded.final_enclosure == t.final_enclosure
        assert validate_transcript(loaded, cfg)

    def test_deterministic_bytes(self, tmp_path):
        cfg = classic_config(4)
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for p in (p1, p2):
            save_transcript(run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob(cfg)), p)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestLimitMargin:
    def _transcript(self, center, radius):
        t = GameTranscript(config_digest={})
        t.final_enclosure = Ball((center,), radius)
        return t

    def test_frozen_value(self):
        seq = MatrixSequence.powers(((F(3),),))
        targets = TargetFamily.lattice([F(1, 2)])
        t = self._transcript(F(1, 4), F(1, 1000))
        # min over k<=2 of d(3^k/4, Z+1/2) - 3^k/1000 = 1/4 - 9/1000
        assert limit_margin(t, seq, targets, 2) == F(241, 1000)

    def test_zero_horizon_sentinel(self):
        seq = MatrixSequence.powers(((F(3),),))
        targets = TargetFamily.lattice([F(1, 2)])
        t = self._transcript(F(1, 4), F(1, 1000))
        assert limit_margin(t, seq, targets, 0) == INF_MARGIN

    def test_clamped_at_zero(self):
        seq = MatrixSequence.powers(((F(3),),))
        targets = TargetFamily.lattice([F(1, 2)])
        t = self._transcript(F(1, 6), F(1, 1000))
        # 3 * 1/6 = 1/2 is a target: margin 0
        assert limit_margin(t, seq, targets, 1) == F(0)


# ---------------------------------------------------------------------------
# limit_margin against the Fraction version it replaced


def ref_dist2_to_targets(family, k, p):
    """Squared distance to Z_k with the Fraction rounding of the lattice."""
    if family.kind == "lattice":
        q = tuple(yi + math.ceil(pi - yi - F(1, 2)) for pi, yi in zip(p, family.base(k)))
    else:
        pts = (family._points or {}).get(k, [])
        if not pts:
            return None
        q = min(pts, key=lambda z: (sum((a - b) ** 2 for a, b in zip(z, p)), z))
    return sum(((a - b) ** 2 for a, b in zip(p, q)), F(0))


def ref_limit_margin(t, seq, targets, k_max):
    if k_max == 0:
        return INF_MARGIN
    if t.final_enclosure is None:
        raise ValueError("transcript incomplete")
    ball = t.final_enclosure
    best = None
    for k in range(1, k_max + 1):
        M = seq.matrix(k)
        p = tuple(sum((a * b for a, b in zip(row, ball.center)), F(0)) for row in M)
        d2 = ref_dist2_to_targets(targets, k, p)
        if d2 is None:
            continue
        d_lo = sqrt_interval(d2).lo
        m = max(F(0), d_lo - seq.t(k).hi * ball.radius)
        best = m if best is None else min(best, m)
    return INF_MARGIN if best is None else best


def _shipped_game(name):
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        return certified_game(**_game_inputs(json.load(fh), None))


class TestLimitMarginAgainstReference:
    @pytest.mark.parametrize("name", ["cantor_pow2", "dim2_classic", "pow3_classic", "pow3_strong"])
    def test_shipped_transcripts(self, tmp_path, capsys, name):
        argv = ["play", "--config", os.path.join(CONFIG_DIR, f"{name}.json"), "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        t = load_transcript(str(tmp_path / "transcript.jsonl"))
        game = _shipped_game(name)
        got = limit_margin(t, game.seq, game.targets, game.k_max)
        assert got == ref_limit_margin(t, game.seq, game.targets, game.k_max)
        assert got == F(json.loads((tmp_path / "summary.json").read_text())["realized_margin"])

    @pytest.mark.parametrize("name", ["pow3_classic", "dim2_classic"])
    def test_seeded_balls(self, name):
        game = _shipped_game(name)
        rng = random.Random(f"limit_margin:{name}")
        n, clamped = game.config.initial_ball.dim, 0
        for _ in range(60):
            den = rng.choice((1000, 3 ** 30, 2 ** 90, 7 ** 50))
            center = tuple(F(rng.randint(-2 * den, 2 * den), den) for _ in range(n))
            radius = F(1, rng.choice((10, 10 ** 6, 3 ** 40, 2 ** 120)))
            t = GameTranscript(config_digest={})
            t.final_enclosure = Ball(center, radius)
            for k_max in (1, 5, game.k_max):
                got = limit_margin(t, game.seq, game.targets, k_max)
                assert got == ref_limit_margin(t, game.seq, game.targets, k_max)
                clamped += got == 0
        # both the clamp at 0 and positive margins occur
        assert 0 < clamped < 180

    def test_exact_target_hits(self):
        # a center whose images land on targets: d_lo = 0 at those k
        game = _shipped_game("pow3_classic")
        for center in (F(1, 6), F(1, 18), F(-5, 6), F(1, 2 * 3 ** 20)):
            t = GameTranscript(config_digest={})
            t.final_enclosure = Ball((center,), F(1, 3 ** 30))
            assert limit_margin(t, game.seq, game.targets, game.k_max) == 0
            assert ref_limit_margin(t, game.seq, game.targets, game.k_max) == 0
