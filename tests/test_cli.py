"""Command-line harness: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import shutil

import pytest

from schmidtgame.cli import main
from schmidtgame.matseq import DegenerateDirection, MatrixSequence

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def config(name):
    return os.path.join(CONFIG_DIR, name)


class TestPlay:
    def test_pow3_wins(self, tmp_path, capsys):
        code = main(
            ["play", "--config", config("pow3_classic.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["won"] is True
        assert (tmp_path / "transcript.jsonl").exists()

    def test_deterministic_bytes(self, tmp_path, capsys):
        # another Cantor game, played between the two runs of each config,
        # must leave nothing behind that changes the second run
        other = json.loads(open(config("cantor_pow2.json")).read())
        other["game"]["center"] = ["3/4"]
        other["strategy"]["bob"] = "random"
        between = tmp_path / "between.json"
        between.write_text(json.dumps(other))
        for name in ("pow3_classic.json", "cantor_pow2.json", "dim2_classic.json"):
            runs = []
            for out in ("a", "between", "b"):
                cfg = str(between) if out == "between" else config(name)
                path = tmp_path / name / out
                assert (
                    main(["play", "--config", cfg, "--seed", "5", "--out", str(path)])
                    == 0
                )
                runs.append((path / "transcript.jsonl").read_bytes())
            assert runs[0] == runs[2], name

    def test_greedy_mode(self, tmp_path, capsys):
        code = main(
            [
                "play",
                "--config",
                config("pow3_classic.json"),
                "--mode",
                "greedy",
                "--horizon",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_infeasible_alpha_exit_3(self, tmp_path, capsys):
        cfg = json.loads(open(config("pow3_classic.json")).read())
        cfg["game"]["alpha"] = "9/10"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["play", "--config", str(bad), "--out", str(tmp_path)]) == 3

    def test_missing_config_exit_4(self, tmp_path, capsys):
        assert main(["play", "--config", str(tmp_path / "nope.json")]) == 4

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", "abc", "not an exact rational"),
            ("radius", "-1/40", "radius must be positive"),
            ("center", ["1/6", "1/6"], "center has dimension 2"),
            ("variant", "bogus", "not a valid Variant"),
        ],
    )
    def test_malformed_game_exit_4(self, tmp_path, capsys, field, value, message):
        cfg = json.loads(open(config("pow3_classic.json")).read())
        cfg["game"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        for argv in (
            ["play", "--config", str(bad), "--out", str(tmp_path)],
            ["verify", str(tmp_path / "transcript.jsonl"), "--config", str(bad)],
        ):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "section, value",
        [
            ("game", {"epochs": "abc"}),
            ("support", {"dim": "abc"}),
            ("targets", {"kind": "explicit", "points": {"abc": [["1/2"]]}, "delta": "1/10"}),
        ],
    )
    def test_malformed_integer_exit_4(self, tmp_path, capsys, section, value):
        cfg = json.loads(open(config("pow3_classic.json")).read())
        cfg[section].update(value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        for argv in (
            ["play", "--config", str(bad), "--out", str(tmp_path)],
            ["verify", str(tmp_path / "transcript.jsonl"), "--config", str(bad)],
        ):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "not an integer: 'abc'" in err
            assert len(err.strip().splitlines()) == 1


class TestVerify:
    def test_round_trip(self, tmp_path, capsys):
        assert (
            main(
                [
                    "play",
                    "--config",
                    config("pow3_classic.json"),
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        tpath = tmp_path / "transcript.jsonl"
        assert (
            main(["verify", str(tpath), "--config", config("pow3_classic.json")]) == 0
        )

    def test_tampered_transcript_rejected(self, tmp_path, capsys):
        assert (
            main(
                [
                    "play",
                    "--config",
                    config("pow3_classic.json"),
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        tpath = tmp_path / "transcript.jsonl"
        lines = tpath.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["center"] = ["999/1000"]
        lines[3] = json.dumps(rec)
        tpath.write_text("\n".join(lines) + "\n")
        assert (
            main(["verify", str(tpath), "--config", config("pow3_classic.json")]) == 2
        )


class TestDegenerateDirection:
    def test_play_and_verify_exit_3(self, tmp_path, capsys, monkeypatch):
        args = ["--config", config("pow3_classic.json")]
        assert main(["play", *args, "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()

        def degenerate(self, k):
            raise DegenerateDirection(f"repeated top singular value at k={k}")

        monkeypatch.setattr(MatrixSequence, "v", degenerate)
        assert main(["play", *args, "--out", str(tmp_path / "bad")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("infeasible parameters:")
        tpath = tmp_path / "ok" / "transcript.jsonl"
        assert main(["verify", str(tpath), *args]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("infeasible parameters:")


class TestAnalyzeSeq:
    def test_diag_2_3(self, tmp_path, capsys):
        assert main(["analyze-seq", "--config", config("dim2_classic.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lacunary"] is True
        assert out["decomposition"] == [1, 1]

    def test_jordan_needs_single_block_exit_4(self, capsys):
        argv = ["analyze-seq", "--config", config("dim2_classic.json"), "--jordan"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Jordan block" in err

    def test_jordan_readme_example(self, capsys):
        argv = ["analyze-seq", "--config", config("pow3_classic.json"), "--jordan"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["jordan"]["ok"] is True

    @pytest.mark.parametrize("horizon", ["1", "0", "-3"])
    def test_short_horizon_exit_4(self, capsys, horizon):
        argv = ["analyze-seq", "--config", config("pow3_classic.json"), "--horizon", horizon]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--horizon must be >= 2" in err


class TestMalformedSequence:
    @pytest.mark.parametrize(
        "sequence, message",
        [
            ({"kind": "powers", "base": [["1", "0"], ["1"]]}, "sequence: ragged matrix"),
            ({"kind": "powers", "base": []}, "sequence: ragged matrix"),
            ({"kind": "powers", "base": [["1", "2"]]}, "needs a square matrix"),
            ({"kind": "rows", "rows": [["3"], ["0"]]}, "sequence: zero row vector"),
            ({"kind": "explicit", "matrices": [[["3"]], [["0"]]]}, "sequence: zero matrix"),
            ({"kind": "explicit", "matrices": [[["1", "0"]], [["1"]]]}, "must have equal shapes"),
            ({"kind": "powers", "base": 5}, "sequence: 'int' object is not iterable"),
            ({"kind": "rows", "rows": ["12", "35"]}, "not a list of exact rationals: '12'"),
        ],
        ids=[
            "ragged", "empty", "non_square", "zero_row", "zero_matrix", "mixed_shapes",
            "number", "string_rows",
        ],
    )
    def test_exit_4(self, tmp_path, capsys, sequence, message):
        cfg = json.loads(open(config("pow3_classic.json")).read())
        cfg["sequence"] = sequence
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        for argv in (
            ["play", "--config", str(bad), "--out", str(tmp_path)],
            ["verify", str(tmp_path / "transcript.jsonl"), "--config", str(bad)],
            ["analyze-seq", "--config", str(bad)],
        ):
            assert main(argv) == 4, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err
            assert len(err.strip().splitlines()) == 1


class TestMalformedSupport:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("translations", [["0", "0"], ["2/3"]], "translation 0 has dimension 2"),
            ("ratios", ["1/3"], "1 ratios but 2 translations"),
            ("translations", 5, "not a list of translations: 5"),
        ],
        ids=["translation_length", "map_count", "translations_number"],
    )
    def test_ifs_shape_exit_4(self, tmp_path, capsys, field, value, message):
        cfg = json.loads(open(config("cantor_pow2.json")).read())
        cfg["support"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        for argv in (
            ["play", "--config", str(bad), "--out", str(tmp_path)],
            ["verify", str(tmp_path / "transcript.jsonl"), "--config", str(bad)],
        ):
            assert main(argv) == 4, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err
            assert len(err.strip().splitlines()) == 1

    def test_off_support_center_exit_4(self, tmp_path, capsys):
        good = tmp_path / "good"
        assert main(["play", "--config", config("cantor_pow2.json"), "--out", str(good)]) == 0
        capsys.readouterr()
        cfg = json.loads(open(config("cantor_pow2.json")).read())
        cfg["game"]["center"] = ["1/2"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        for argv in (
            ["play", "--config", str(bad), "--out", str(tmp_path / "bad")],
            ["verify", str(good / "transcript.jsonl"), "--config", str(bad)],
        ):
            assert main(argv) == 4, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "center 1/2 is off the support" in err
            assert len(err.strip().splitlines()) == 1


# SHA-256 of transcript.jsonl and of summary.json (without wall_time and the
# transcript path, keys sorted) for each shipped game config at seed 3
GOLDEN = {
    "cantor_pow2": (
        "43bf16390383cba98ce4e6069a7612245e3755dcf3c5cd58a6a765f542af68c3",
        "b259a21b9309a44e9054b2a680c3ebc7c63f95b17ececba1e3a0a6412a70542f",
    ),
    "dim2_classic": (
        "ebbd69210a9e6c00e9ab5477bb420597b9ef5b8cc94db18d12a8e9bc453ed972",
        "c44d75d4f0d7f159c1b839458f428c40f8a5f38780dc5e4340ebebfa8b9e8c56",
    ),
    "pow3_classic": (
        "6e6fb2d8e3e6c18213dfc192815ad93eb818d954350540f95bca086322d42d42",
        "2f03153828ad6f3ce831173964bb3601b5eb3d34366dc193e89810402d1c8ba8",
    ),
    "pow3_strong": (
        "6a263627d50d15d5de46b183f705a91c766a745a050fc80756282a89c470ed92",
        "aa7bf34b04cc8a38de9ec7441c9251bd0023b57d3013f837f43f90c9d52a9098",
    ),
}


class TestGoldenTranscripts:
    """Performance changes must leave every certified output byte-identical."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_shipped_config_bytes(self, tmp_path, capsys, name):
        argv = ["play", "--config", config(f"{name}.json"), "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        transcript = (tmp_path / "transcript.jsonl").read_bytes()
        summary = json.loads((tmp_path / "summary.json").read_text())
        del summary["wall_time"], summary["transcript"]
        summary_bytes = json.dumps(summary, sort_keys=True).encode()
        got = (
            hashlib.sha256(transcript).hexdigest(),
            hashlib.sha256(summary_bytes).hexdigest(),
        )
        assert got == GOLDEN[name]


class TestEstimateDecay:
    def test_cantor(self, capsys):
        assert (
            main(
                [
                    "estimate-decay",
                    "--config",
                    config("cantor_pow2.json"),
                    "--trials",
                    "40",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert 0.4 < out["gamma_hat"] < 0.9


class TestBadapproxCmd:
    def test_rational(self, capsys):
        assert main(["badapprox", "--config", config("badapprox_rational.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rational"] is True
        assert out["u"] == [2]
        assert out["bad_margin"] == "1/6"

    def test_sqrt2_table(self, capsys):
        assert main(["badapprox", "--config", config("badapprox_sqrt2.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rational"] is False
        assert out["denominators"][:5] == [1, 2, 5, 12, 29]

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("badapprox_rational.json", "rank_bound", "abc"),
            ("badapprox_rational.json", "q_bound", "abc"),
            ("badapprox_sqrt2.json", "count", "abc"),
            ("badapprox_sqrt2.json", "A", [[{"poly": ["abc", 0, 1], "lo": "1", "hi": "2"}]]),
        ],
    )
    def test_malformed_integer_exit_4(self, tmp_path, capsys, name, key, value):
        cfg = json.loads(open(config(name)).read())
        cfg["badapprox"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["badapprox", "--config", str(bad)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not an integer: 'abc'" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("badapprox_rational.json", "q_bound", 0, "q_bound must be >= 1"),
            ("badapprox_rational.json", "q_bound", -3, "q_bound must be >= 1"),
            ("badapprox_rational.json", "rank_bound", 0, "rank_bound must be >= 1"),
            ("badapprox_sqrt2.json", "count", 0, "count must be >= 2"),
            ("badapprox_sqrt2.json", "count", 1, "count must be >= 2"),
            ("badapprox_rational.json", "x", ["1/3", "1/5"], "x has dimension 2"),
            ("badapprox_sqrt2.json", "x", ["1/3", "1/5"], "x has dimension 2"),
            ("badapprox_rational.json", "A", [], "non-empty"),
            ("badapprox_rational.json", "A", [["1/2", "1/3"], ["1/5"]], "equal length"),
            (
                "badapprox_sqrt2.json",
                "A",
                [[{"poly": [-2, 0, 1], "lo": "2", "hi": "3"}]],
                "does not isolate a sign change",
            ),
        ],
    )
    def test_malformed_input_exit_4(self, tmp_path, capsys, name, key, value, message):
        cfg = json.loads(open(config(name)).read())
        cfg["badapprox"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["badapprox", "--config", str(bad)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert len(err.strip().splitlines()) == 1


class TestSeedFallback:
    def test_env_seed_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCHMIDT_SEED", "9")
        out1 = tmp_path / "env"
        assert (
            main(
                [
                    "play",
                    "--config",
                    config("pow3_classic.json"),
                    "--out",
                    str(out1),
                ]
            )
            == 0
        )
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["seed"] == 9
