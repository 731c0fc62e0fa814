"""Game referee: move validation, transcripts, and the limit margin."""

from fractions import Fraction as F

import pytest

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
from schmidtgame.geometry import Ball
from schmidtgame.matseq import MatrixSequence
from schmidtgame.strategies import CenteredAlice, MaximalBob
from schmidtgame.supports import DecayParams, Similarity, SupportModel
from schmidtgame.targets import TargetFamily


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


class CenteredBob:
    """Keeps the center and shrinks by exactly beta."""

    def start(self, config, seed):
        self.beta = config.beta

    def propose(self, transcript, outer):
        return Ball(outer.center, self.beta * outer.radius), {}


class CheatingAlice:
    def propose(self, transcript, outer):
        return Ball(outer.center, outer.radius / 3), {}


class EscapingBob:
    def propose(self, transcript, outer):
        # correct radius but a center violating containment
        return Ball((outer.center[0] + outer.radius,), outer.radius / 2), {}


class OffSupportBob:
    """A legal radius and containment, but the center 1/2 is off the Cantor set."""

    def propose(self, transcript, outer):
        return Ball((F(1, 2),), outer.radius / 2), {}


class TestRunGame:
    def test_radii_follow_schedule(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob())
        assert t.final_enclosure.radius == F(1, 8) ** 4
        radii = [m.ball.radius for m in t.moves]
        assert radii[0] == F(1)
        for i in range(1, len(radii)):
            factor = F(1, 4) if i % 2 == 1 else F(1, 2)
            assert radii[i] == factor * radii[i - 1]

    def test_wrong_radius_forfeits(self):
        with pytest.raises(InvalidMove) as e:
            run_game(classic_config(), CheatingAlice(), CenteredBob())
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
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob())
        assert validate_transcript(t, cfg)

    def test_tampered_radius_rejected(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob())
        bad = t.moves[2]
        t.moves[2] = Move(
            bad.round_no, bad.player, Ball(bad.ball.center, bad.ball.radius * 2)
        )
        assert not validate_transcript(t, cfg)

    def test_other_config_rejected(self):
        # a legal game of 4 rounds is no transcript of a 3- or 5-round config,
        # nor of one whose digest names another beta
        t = run_game(classic_config(4), CenteredAlice(F(1, 4)), CenteredBob())
        for cfg in (classic_config(3), classic_config(5)):
            assert not validate_transcript(t, cfg)
        other = classic_config(4)
        t.config_digest = dict(t.config_digest, beta="1/3")
        assert not validate_transcript(t, other)

    def test_truncated_or_renumbered_rejected(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob())
        short = GameTranscript(t.config_digest, t.moves[:-2], [], t.moves[-3].ball)
        assert not validate_transcript(short, cfg)
        mv = t.moves[3]
        t.moves[3] = Move(mv.round_no + 1, mv.player, mv.ball, mv.annotations)
        assert not validate_transcript(t, cfg)

    def test_wrong_final_or_dimension_rejected(self):
        cfg = classic_config(4)
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob())
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
        t = run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob())
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
            save_transcript(run_game(cfg, CenteredAlice(F(1, 4)), CenteredBob()), p)
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
