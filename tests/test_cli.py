"""Command-line harness: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import shutil

import pytest

from schmidtgame import cli
from schmidtgame.cli import main
from schmidtgame.matseq import DegenerateDirection, MatrixSequence

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def config(name):
    return os.path.join(CONFIG_DIR, name)


def _cat_map(tmp_path, epochs=1):
    """The hyperbolic toral automorphism [[2, 1], [1, 1]] on dim2_classic,
    against the chase Bob; its norms grow by phi^2 > 2 = Q per index."""
    cfg = json.loads(open(config("dim2_classic.json")).read())
    cfg["sequence"]["base"] = [["2", "1"], ["1", "1"]]
    cfg["Q"] = "2"
    cfg["strategy"]["bob"] = "chase"
    cfg["game"]["epochs"] = epochs
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(cfg))
    return path


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

    def test_cat_map_chase_wins_and_verifies(self, tmp_path, capsys):
        path = _cat_map(tmp_path)
        out = tmp_path / "out"
        assert main(["play", "--config", str(path), "--seed", "1", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["won"] is True and summary["certificates"] >= 1
        assert main(["verify", str(out / "transcript.jsonl"), "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "replay: ok" and lines[1].startswith("margin: ok")
        assert lines[2:] == ["epoch 1: 1 certificates ok"]

    def test_cat_map_past_the_range_of_a_double(self, tmp_path, capsys):
        # sixteen epochs reach k = 784, where the entries of M_k^T M_k pass
        # the range of a double: the float read of the spectrum is scaled
        path = _cat_map(tmp_path, epochs=16)
        out = tmp_path / "out"
        assert main(["play", "--config", str(path), "--seed", "1", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["won"], summary["k_max"], summary["certificates"]) == (True, 784, 29)
        assert main(["verify", str(out / "transcript.jsonl"), "--config", str(path)]) == 0

    def test_uncertified_mode_exit_4(self, tmp_path, capsys):
        cfg = json.loads(open(config("pow3_classic.json")).read())
        cfg["strategy"]["mode"] = "greedy"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["play", "--config", str(bad), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: unknown strategy mode 'greedy'")
        assert not (tmp_path / "out").exists()

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


    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("targets", {"kind": "explicit", "points": {"1": [["1/2"]]}, "delta": "0"},
             "targets: delta must be positive"),
            ("targets", {"kind": "explicit", "points": {}, "delta": "1/10"},
             "targets: explicit family needs at least one point"),
            ("targets", {"kind": "explicit", "points": [["1/2"]], "delta": "1/10"},
             "targets: points is not an object of point lists: [['1/2']]"),
            ("targets", {"kind": "explicit", "points": {"1": 5}, "delta": "1/10"},
             "targets: points is not an object of point lists: {'1': 5}"),
            ("targets", {"kind": "explicit", "points": {"1": [["1/2"], ["3/4"]]}, "delta": "1"},
             "targets: targets at index 1 are not 1-uniformly discrete"),
            ("game", {"beta": "0"}, "beta must be in (0, 1), got 0"),
            ("game", {"beta": "-1/2"}, "beta must be in (0, 1), got -1/2"),
            ("game", {"beta": "1"}, "beta must be in (0, 1), got 1"),
            ("game", {"alpha": "0"}, "alpha must be in (0, 1), got 0"),
            ("game", {"alpha": "1"}, "alpha must be in (0, 1), got 1"),
            ("game", {"epochs": 1.5}, "not an integer: 1.5"),
            # a JSON float is a dyadic, not the decimal it is written as
            ("game", {"radius": 0.5}, "not an exact rational: 0.5"),
        ],
        ids=[
            "zero_delta", "no_points", "points_list", "point_list_number",
            "points_within_delta",
            "beta_zero", "beta_negative", "beta_one", "alpha_zero", "alpha_one",
            "epochs_float", "radius_float",
        ],
    )
    def test_out_of_range_exit_4(self, tmp_path, capsys, section, value, message):
        cfg = json.loads(open(config("pow3_classic.json")).read())
        cfg[section].update(value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        for argv in (
            ["play", "--config", str(bad), "--out", str(tmp_path / "out")],
            ["verify", str(tmp_path / "transcript.jsonl"), "--config", str(bad)],
        ):
            assert main(argv) == 4, argv[0]
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"config error: {message}"]
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_nonpositive_epochs_exit_4(self, tmp_path, capsys, epochs):
        argv = ["play", "--config", config("pow3_classic.json"), "--epochs", epochs]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: epochs must be >= 1, got {epochs}"]
        assert captured.out == "" and not (tmp_path / "out").exists()


class TestUsage:
    """argparse's usage errors exit 4, like config errors; 2 means lost."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["play"], "the following arguments are required: --config"),
            (["play", "--config", "c.json", "--mode", "greedy"], "unrecognized arguments: --mode"),
            (["bogus"], "invalid choice: 'bogus'"),
        ],
        ids=["missing_config", "unknown_flag", "bad_choice"],
    )
    def test_usage_error_exit_4(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: schmidtgame") and "error: " in err and message in err

    @pytest.mark.parametrize(
        "command, options",
        [
            ("play", ["--config", "--seed", "--out", "--epochs"]),
            ("verify", ["--config", "--epochs"]),
            ("analyze-seq", ["--config", "--horizon", "--jordan"]),
            ("estimate-decay", ["--config", "--seed", "--trials"]),
            ("badapprox", ["--config"]),
        ],
    )
    def test_only_options_read(self, capsys, command, options):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        flags = {"--config", "--seed", "--out", "--mode", "--epochs", "--horizon",
                 "--jordan", "--trials"}
        assert {f for f in flags if f in out} == set(options)


class TestParserReuse:
    """main parses with one parser per process; parse_args leaves it as built."""

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_usage_error_leaves_parser_intact(self, capsys):
        names = ("badapprox_rational.json", "badapprox_sqrt2.json", "badapprox_sqrt2_sqrt3.json")
        cli._parser.cache_clear()
        first = []
        for name in names:  # the first of these builds the parser
            assert main(["badapprox", "--config", config(name)]) == 0
            first.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            main(["badapprox", "--config", config(names[0]), "--seed", "3"])
        assert exc.value.code == 4
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        for name, out in zip(names, first):
            assert main(["badapprox", "--config", config(name)]) == 0
            assert capsys.readouterr().out == out


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


class TestVerifyAgainstConfig:
    """verify replays a transcript against the game its config builds."""

    @pytest.fixture
    def played(self, tmp_path, capsys):
        out = tmp_path / "play"
        argv = ["play", "--config", config("pow3_classic.json"), "--epochs", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        return out / "transcript.jsonl"

    def test_same_epochs_ok(self, played, capsys):
        argv = ["verify", str(played), "--config", config("pow3_classic.json")]
        assert main(argv + ["--epochs", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "replay: ok" and lines[2].startswith("epoch 1: ")
        assert len(lines) == 3

    def test_other_epochs_fail(self, played, capsys):
        # the config's 2 epochs need 3r - 1 rounds; the transcript has 2r - 1
        argv = ["verify", str(played), "--config", config("pow3_classic.json")]
        assert main(argv) == 2
        assert capsys.readouterr().out.splitlines()[0] == "replay: FAIL"

    def test_other_alpha_fails(self, played, tmp_path, capsys):
        cfg = json.loads(open(config("pow3_classic.json")).read())
        cfg["game"]["alpha"] = "3/10"
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        argv = ["verify", str(played), "--config", str(other), "--epochs", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().out.splitlines()[0] == "replay: FAIL"

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_nonpositive_epochs_exit_4(self, played, capsys, epochs):
        argv = ["verify", str(played), "--config", config("pow3_classic.json")]
        assert main(argv + ["--epochs", epochs]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: epochs must be >= 1, got {epochs}"]
        assert captured.out == ""

    @pytest.mark.parametrize("keep", [-1, 0], ids=["no_summary", "empty"])
    def test_truncated_fails_replay(self, played, capsys, keep):
        lines = played.read_text().splitlines(keepends=True)
        played.write_text("".join(lines[:keep]))
        argv = ["verify", str(played), "--config", config("pow3_classic.json")]
        assert main(argv + ["--epochs", "1"]) == 2
        assert capsys.readouterr().out == "replay: FAIL\n"


class TestMalformedTranscript:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: ["{not json"] + lines[1:],
            lambda lines: lines[:2] + [lines[2].replace('"center": [', '"center": ["x", ')] + lines[3:],
            lambda lines: lines[:2] + [lines[2].replace('"alice"', '"carol"')] + lines[3:],
            lambda lines: lines[:2] + [lines[2].replace('"round"', '"turn"')] + lines[3:],
            lambda lines: lines[:2] + ["[1, 2]"] + lines[3:],
            lambda lines: lines[:2] + ["5"] + lines[3:],
        ],
        ids=["not_json", "bad_center", "unknown_player", "missing_key", "list_line",
             "number_line"],
    )
    def test_exit_4(self, tmp_path, capsys, edit):
        assert main(["play", "--config", config("pow3_classic.json"), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        tpath = tmp_path / "transcript.jsonl"
        lines = tpath.read_text().splitlines()
        assert '"player": "alice"' in lines[2]
        tpath.write_text("".join(line + "\n" for line in edit(lines)))
        assert main(["verify", str(tpath), "--config", config("pow3_classic.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot read transcript {tpath}")


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

    @pytest.mark.parametrize("sequence", [
        {"kind": "rows", "rows": [["1"], ["3"]]},
        {"kind": "explicit", "matrices": [[["2"]], [["5"]]]},
    ], ids=["rows", "explicit"])
    def test_jordan_on_finite_sequence_exit_4(self, tmp_path, capsys, sequence):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"sequence": sequence}))
        assert main(["analyze-seq", "--config", str(path), "--jordan"]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"config error: --jordan: a {sequence['kind']} sequence has no base matrix"
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("sequence", [
        {"kind": "rows", "rows": [["3"]]},
        {"kind": "explicit", "matrices": [[["2", "1"], ["1", "1"]]]},
    ], ids=["rows", "explicit"])
    def test_one_index_has_no_ratio(self, tmp_path, capsys, sequence):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"sequence": sequence}))
        assert main(["analyze-seq", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["lacunary"], out["Q"], out["note"]) == (None, None, "fewer than two indices")

    def test_cat_map_past_the_range_of_a_double(self, tmp_path, capsys):
        # t_k passes 10^154 by k = 370, so M_k^T M_k has entries no double holds
        argv = ["analyze-seq", "--config", str(_cat_map(tmp_path)), "--horizon", "800"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["lacunary"], out["decomposition"]) == (True, [1, 1])

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
            ("x", "sequence is not an object: 'x'"),
            ([["3"]], "sequence is not an object: [['3']]"),
        ],
        ids=[
            "ragged", "empty", "non_square", "zero_row", "zero_matrix", "mixed_shapes",
            "number", "string_rows",
            "string_section", "list_section",
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


    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("sequence", {"kind": "powers", "base": [["2", "0"], ["0", "2"]]},
             "the sequence maps dimension 2 to 2, but the support has dimension 1"),
            ("sequence", {"kind": "rows", "rows": [["1", "2"]]},
             "the sequence maps dimension 2 to 1, but the support has dimension 1"),
            ("targets", {"kind": "lattice", "base": ["0", "1/2"]},
             "the sequence maps dimension 1 to 1, but the support has dimension 1 "
             "and the targets 2"),
        ],
        ids=["square_base", "row_length", "target_dimension"],
    )
    def test_shape_against_support_and_targets_exit_4(self, tmp_path, capsys, section, value, message):
        cfg = json.loads(open(config("pow3_classic.json")).read())
        cfg[section] = value
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


class TestNonObjectSection:
    @pytest.mark.parametrize(
        "name, path, value, message",
        [
            ("pow3_classic.json", (), [1], "is not an object"),
            ("pow3_classic.json", ("game",), [1], "game is not an object: [1]"),
            ("pow3_classic.json", ("support",), "x", "support is not an object: 'x'"),
            ("pow3_classic.json", ("support", "decay"), [1], "decay is not an object: [1]"),
            ("pow3_classic.json", ("targets",), "x", "targets is not an object: 'x'"),
            ("pow3_classic.json", ("strategy",), [1], "strategy is not an object: [1]"),
            ("badapprox_sqrt2.json", (), "x", "is not an object"),
            ("badapprox_sqrt2.json", ("badapprox",), [1], "badapprox is not an object: [1]"),
        ],
        ids=["config", "game", "support", "decay", "targets", "strategy",
             "badapprox_config", "badapprox"],
    )
    def test_exit_4(self, tmp_path, capsys, name, path, value, message):
        cfg = json.loads(open(config(name)).read())
        if path:
            section = cfg
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
        else:
            cfg = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        if name.startswith("badapprox"):
            argvs = [["badapprox", "--config", str(bad)]]
        else:
            argvs = [
                ["play", "--config", str(bad), "--out", str(tmp_path / "out")],
                ["verify", str(tmp_path / "transcript.jsonl"), "--config", str(bad)],
            ]
        for argv in argvs:
            assert main(argv) == 4, argv[0]
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:") and message in err[0]
            assert captured.out == ""
        assert not (tmp_path / "out").exists()


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


# the same two hashes for variants of the shipped configs at seed 3:
# name -> (shipped config, edits per config section, hashes)
GOLDEN_VARIANTS = {
    "pow3_classic-random": (
        "pow3_classic",
        {"strategy": {"bob": "random"}},
        (
            "09b6640072f55747bc270e4f944cbf7cf4e8c7a89f5428d9906502f76c59f232",
            "c326823d18055e811acd45070b114025e002aa77c73189e2cced71dcd38dedff",
        ),
    ),
    "dim2_classic-random": (
        "dim2_classic",
        {"strategy": {"bob": "random"}},
        (
            "fe87eb093178e8fcdd49c80680a0c7249e07248955843f88a250770a3cc9b32e",
            "d3c6a58a51028550008c1264c6af4f204761836d31c051e7f53401fc27046518",
        ),
    ),
    "cantor_pow2-random": (
        "cantor_pow2",
        {"strategy": {"bob": "random"}},
        (
            "9b11bfd256458be97b3f0fbcaef2b9c70a8db52f7d465fe565313c924b031dfa",
            "7be054f505ab1162771e1bc2781a85c9091320023e98569207ddaed0e680bc9e",
        ),
    ),
    "pow3_classic-chase-337": (
        "pow3_classic",
        {"game": {"center": ["337/1000"]}},
        (
            "b7910361350e6d64db18b1bbe2dcf6289e54c359679748e9600d7359d84a1dce",
            "2426f8ed4ee3300a86dae829ef7277abb602aee935f816b3f52a2477af6afb9d",
        ),
    ),
}

# SHA-256 of verify's stdout on the transcript of every pinned game
GOLDEN_VERIFY = {
    "cantor_pow2": "5387518a43d2151890bb72621d6f32f731cedbf0cff0010140a0b17bb8983a21",
    "dim2_classic": "ff1ff0ade4addd4bdba2060a4dc7d39749dc5d014150f989a3f76c4de12bea47",
    "pow3_classic": "51c1434a8e3346342c39e94bd9f4f495d1f1c38cb7b66c6d0b3bebe18f8dde87",
    "pow3_strong": "98b3d6d85a5e3a09fc2de03505df5656e85275b72e5f292c813b46739b3316e9",
    "pow3_classic-random": "5c9a319ff44904c79737c569481015a565959df763a4c274f3423e1556d3a4ca",
    "dim2_classic-random": "f2a373ae399e992ed709db84498505c3b5aed173ae455837aa71bbd1595dd7e4",
    "cantor_pow2-random": "2398c590d00f28db3706accbaddb355435f0a7827ff82d0f910860b82fce4f26",
    "pow3_classic-chase-337": "63b6910c773bbf26a8e14483915291dd5ef03f1e98f9c2d8279c60159c1fdd19",
}


def _pinned_config(tmp_path, name):
    """The config file of a pinned game: a shipped config or a variant of one."""
    if name in GOLDEN:
        return config(f"{name}.json")
    base, edits, _ = GOLDEN_VARIANTS[name]
    cfg = json.loads(open(config(f"{base}.json")).read())
    for section, values in edits.items():
        cfg[section].update(values)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _play_hashes(tmp_path, cfg, seed_argv=("--seed", "3")):
    """Play cfg into tmp_path, at seed 3 unless seed_argv says otherwise; the
    hashes of the transcript and of summary.json without wall_time and the
    transcript path."""
    argv = ["play", "--config", cfg, *seed_argv]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    transcript = (tmp_path / "transcript.jsonl").read_bytes()
    summary = json.loads((tmp_path / "summary.json").read_text())
    del summary["wall_time"], summary["transcript"]
    summary_bytes = json.dumps(summary, sort_keys=True).encode()
    return (
        hashlib.sha256(transcript).hexdigest(),
        hashlib.sha256(summary_bytes).hexdigest(),
    )


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

    @pytest.mark.parametrize("name", sorted(GOLDEN_VARIANTS))
    def test_variant_bytes(self, tmp_path, capsys, name):
        cfg = _pinned_config(tmp_path, name)
        assert _play_hashes(tmp_path / "out", cfg) == GOLDEN_VARIANTS[name][2]

    @pytest.mark.parametrize("name", ["cantor_pow2-random", "pow3_classic-random"])
    def test_env_seed_bytes(self, tmp_path, capsys, monkeypatch, name):
        # SCHMIDT_SEED=3 with no --seed seeds RandomBob as --seed 3 does
        monkeypatch.setenv("SCHMIDT_SEED", "3")
        cfg = _pinned_config(tmp_path, name)
        assert _play_hashes(tmp_path / "out", cfg, ()) == GOLDEN_VARIANTS[name][2]

    @pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
    def test_verify_stdout(self, tmp_path, capsys, name):
        cfg = _pinned_config(tmp_path, name)
        _play_hashes(tmp_path / "out", cfg)
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "out" / "transcript.jsonl"), "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[name]


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

    def test_too_few_trials_exit_4(self, capsys):
        argv = ["estimate-decay", "--config", config("cantor_pow2.json"), "--trials", "5"]
        assert main(argv) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: estimate-decay: insufficient samples"]

    def test_2d_ifs_exit_4(self, tmp_path, capsys):
        cfg = json.loads(open(config("cantor_pow2.json")).read())
        cfg["support"].update(
            dim=2, translations=[["0", "0"], ["2/3", "0"]], box_lo=["0", "0"], box_hi=["1", "1"]
        )
        bad = tmp_path / "ifs2.json"
        bad.write_text(json.dumps(cfg))
        assert main(["estimate-decay", "--config", str(bad)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: estimate-decay: decay estimation implemented for 1-D IFS"]


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

    def test_sqrt2_sqrt3_stdout_pinned(self, capsys):
        # a 1x2 system: the successive-minima search, eta and the q scan
        assert main(["badapprox", "--config", config("badapprox_sqrt2_sqrt3.json")]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2163fbb6cb20e9405e9e4e2e4a4a57c656f2a54bd4edc80f231ad28227cb645f"
        )
        out = json.loads(out)
        assert out["rational"] is False
        assert (out["denominators"], out["thinned"]) == ([1, 3, 7], [[-1], [-3], [-19]])

    @pytest.mark.parametrize(
        "poly, lo, hi, root, u",
        [([-4, 0, 1], "1", "3", "2", [1]), ([-2, 1], "1", "3", "2", [1]), ([-3, 2], "1", "2", "3/2", [2])],
    )
    def test_rational_root_inside_interval(self, tmp_path, capsys, poly, lo, hi, root, u):
        # the root is found at construction, so the entry runs as the rational it is
        outs = []
        for entry in ({"poly": poly, "lo": lo, "hi": hi}, root):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"badapprox": {"A": [[entry]], "x": ["1/3"], "rank_bound": 32}}))
            assert main(["badapprox", "--config", str(path)]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert outs[0]["rational"] is True and outs[0]["u"] == u

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
            ("badapprox_sqrt2.json", "A", [[{"poly": [], "lo": "1", "hi": "3"}]], "zero polynomial"),
            ("badapprox_sqrt2.json", "A", [[{"poly": [0, 0], "lo": "1", "hi": "3"}]], "zero polynomial"),
            (
                "badapprox_sqrt2.json",
                "A",
                [[{"poly": [-2, 0, 1], "lo": "1", "hi": "1"}]],
                "does not isolate a sign change",
            ),
            # a rational A whose least u lies beyond rank_bound (key None:
            # value updates several keys)
            ("badapprox_sqrt2.json", None, {"A": [["1/7"]], "rank_bound": 5}, "rank_bound 5"),
            ("badapprox_sqrt2.json", None, {"A": [["1/70"]], "rank_bound": 50}, "rank_bound 50"),
            ("badapprox_rational.json", "q_bound", 1.5, "not an integer: 1.5"),
            ("badapprox_sqrt2.json", "count", 2.0, "not an integer: 2.0"),
            # a number or a string where the coefficient list belongs (appended
            # so the existing ids keep their numbers)
            ("badapprox_sqrt2.json", "A", [[{"poly": 5, "lo": "1", "hi": "2"}]], "poly is not a list"),
            ("badapprox_sqrt2.json", "A", [[{"poly": "102", "lo": "1", "hi": "2"}]], "poly is not a list"),
            # a JSON float is the dyadic nearest it: 0.1 is not 1/10
            ("badapprox_rational.json", "x", [0.1], "config error: not an exact rational: 0.1"),
            # x^3 - 2x has the roots -sqrt(2), 0 and sqrt(2) in [-2, 10]; and
            # (x - 1)^2 (x - 3), whose double root 1 is an endpoint, two in [1, 4]
            (
                "badapprox_sqrt2.json",
                "A",
                [[{"poly": [0, -2, 0, 1], "lo": "-2", "hi": "10"}]],
                "[lo, hi] holds 3 distinct roots, not one",
            ),
            (
                "badapprox_sqrt2.json",
                "A",
                [[{"poly": [-3, 7, -5, 1], "lo": "1", "hi": "4"}]],
                "[lo, hi] holds 2 distinct roots, not one",
            ),
        ],
    )
    def test_malformed_input_exit_4(self, tmp_path, capsys, name, key, value, message):
        cfg = json.loads(open(config(name)).read())
        cfg["badapprox"].update(value if key is None else {key: value})
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["play", "--config", config("pow3_classic.json")],
            ["estimate-decay", "--config", config("cantor_pow2.json")],
        ],
        ids=["play", "estimate-decay"],
    )
    def test_malformed_env_seed_exit_4(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("SCHMIDT_SEED", "abc")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: not an integer: 'abc'"]
        assert not list(tmp_path.iterdir())


class TestReadme:
    def test_library_example_runs(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            text = fh.read()
        example = text.split("```python\n", 1)[1].split("```", 1)[0]
        assert "certified_game(" in example
        exec(compile(example, "README.md", "exec"), {})
