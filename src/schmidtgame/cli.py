"""Command-line harness: play, analyze-seq, estimate-decay, badapprox, verify.

Configuration is a JSON document with every exact rational written as a
"p/q" string; algebraic numbers as {"poly": [...], "lo": "p/q", "hi": "p/q"}.
Exit codes: 0 success/won, 2 lost or certificate failure, 3 infeasible
parameters (including a sequence whose slab direction is degenerate), 4 I/O,
configuration or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import badapprox as ba
from .engine import (
    GameTranscript,
    InvalidMove,
    Variant,
    load_transcript,
    run_game,
    save_transcript,
    validate_transcript,
)
from .exact import format_frac, frac
from .geometry import Ball
from .matseq import (
    DegenerateDirection,
    MatrixSequence,
    analyze_lacunarity,
    jordan_dominance_check,
    mat_shape,
    poly_divmod,
    poly_eval,
    sturm_chain,
    sturm_count,
)
from .strategies import (
    CertificateError,
    MoreThanOneTarget,
    NoFeasibleCenter,
    bob_adversaries,
    certified_game,
)
from .supports import (
    DecayParams,
    ParameterError,
    Similarity,
    SupportModel,
    estimate_decay,
    pointwise_dim_lower,
)
from .targets import TargetFamily

EXIT_OK = 0
EXIT_LOST = 2
EXIT_INFEASIBLE = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> Dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not an object")
    return cfg


def _object(cfg: Dict, key: str, default: Optional[Dict] = None) -> Dict:
    """The JSON object cfg[key]; `default` if it is absent, else a KeyError."""
    value = cfg[key] if default is None else cfg.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} is not an object: {value!r}")
    return value


def _num(x) -> Fraction:
    if isinstance(x, float):  # frac would read 0.1 as the dyadic nearest 1/10
        raise ConfigError(f"not an exact rational: {x!r}")
    try:
        return frac(x)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"not an exact rational: {x!r}") from e


def _int(x) -> int:
    if isinstance(x, float):  # int() would truncate 1.5 to 1
        raise ConfigError(f"not an integer: {x!r}")
    try:
        return int(x)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"not an integer: {x!r}") from e


def _vec(data) -> Tuple[Fraction, ...]:
    # a string would be read character by character: "12" as (1, 2)
    if not isinstance(data, list):
        raise ConfigError(f"not a list of exact rationals: {data!r}")
    return tuple(_num(x) for x in data)


def _build_support(cfg: Dict) -> SupportModel:
    d = _object(cfg, "decay", {})
    decay = DecayParams(
        C=_num(d.get("C", 1)),
        gamma=_num(d.get("gamma", 1)),
        rho0=_num(d["rho0"]) if "rho0" in d else None,
        ambient_dim=_int(cfg.get("dim", 1)),
    )
    kind = cfg.get("kind", "euclidean")
    if kind == "euclidean":
        return SupportModel.euclidean(decay.ambient_dim, decay)
    if kind == "ifs":
        ratios, translations = _vec(cfg["ratios"]), cfg["translations"]
        if not isinstance(translations, list):
            raise ConfigError(f"not a list of translations: {translations!r}")
        translations = [_vec(t) for t in translations]
        box_lo, box_hi = _vec(cfg["box_lo"]), _vec(cfg["box_hi"])
        if len(ratios) != len(translations):
            raise ConfigError(
                f"{len(ratios)} ratios but {len(translations)} translations"
            )
        for i, t in enumerate(translations):
            if len(t) != len(box_lo):
                raise ConfigError(
                    f"translation {i} has dimension {len(t)} "
                    f"but the box has dimension {len(box_lo)}"
                )
        maps = [Similarity(r, t) for r, t in zip(ratios, translations)]
        return SupportModel.ifs(maps, box_lo, box_hi, decay)
    raise ConfigError(f"unknown support kind {kind!r}")


def _build_sequence(cfg: Dict) -> MatrixSequence:
    kind = cfg.get("kind")
    try:
        if kind == "powers":
            return MatrixSequence.powers(tuple(_vec(row) for row in cfg["base"]))
        if kind == "rows":
            return MatrixSequence.rows([_vec(r) for r in cfg["rows"]])
        if kind == "explicit":
            return MatrixSequence.explicit(
                [tuple(_vec(row) for row in m) for m in cfg["matrices"]]
            )
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        # a number where a list of rows belongs; a ragged, empty or
        # non-square matrix, a zero matrix or row, or unequal shapes
        raise ConfigError(f"sequence: {e}") from e
    raise ConfigError(f"unknown sequence kind {kind!r}")


def _build_targets(cfg: Dict) -> TargetFamily:
    kind = cfg.get("kind", "lattice")
    if kind == "lattice":
        return TargetFamily.lattice(_vec(cfg["base"]))
    if kind == "explicit":
        points = cfg["points"]
        if not isinstance(points, dict) or not all(isinstance(v, list) for v in points.values()):
            raise ConfigError(f"targets: points is not an object of point lists: {points!r}")
        pts = {_int(k): [_vec(p) for p in v] for k, v in points.items()}
        delta = _num(cfg["delta"])
        try:
            return TargetFamily.explicit(pts, delta)
        except ValueError as e:
            # delta <= 0, no point at all, or two points within delta
            raise ConfigError(f"targets: {e}") from e
    raise ConfigError(f"unknown target kind {kind!r}")


def _entry(e) -> ba.Entry:
    if isinstance(e, dict):
        # a string would be read digit by digit: "102" as 1 + 2x^2
        if not isinstance(e["poly"], list):
            raise ConfigError(f"poly is not a list of integers: {e['poly']!r}")
        poly, lo, hi = tuple(_int(c) for c in e["poly"]), _num(e["lo"]), _num(e["hi"])
        try:
            x = ba.AlgebraicReal(poly, lo, hi)
            # count distinct roots on p / gcd(p, p'), where Sturm counts are sound
            p = list(map(Fraction, poly))
            p, _ = poly_divmod(p, sturm_chain(p)[-1])
            roots = sturm_count(sturm_chain(p), lo, hi) + (poly_eval(p, lo) == 0)
            if roots != 1:
                raise ValueError(f"[lo, hi] holds {roots} distinct roots, not one")
        except ValueError as err:
            raise ConfigError(f"algebraic entry {e!r}: {err}") from err
        return x
    return _num(e)


def _build_affine(cfg: Dict) -> ba.AffineSystem:
    rows = cfg["A"]
    if not isinstance(rows, list) or not rows or not all(
        isinstance(row, list) and row for row in rows
    ):
        raise ConfigError("A must be a non-empty list of non-empty rows")
    if len({len(row) for row in rows}) != 1:
        raise ConfigError("the rows of A must have equal length")
    return ba.AffineSystem(tuple(tuple(_entry(e) for e in row) for row in rows))


def _game_inputs(cfg: Dict, epochs: Optional[int]) -> Dict:
    """certified_game's arguments, parsed once for play and verify; `epochs`
    (--epochs) overrides the config's unless it is None."""
    mode = _object(cfg, "strategy", {}).get("mode", "certified")
    if mode != "certified":
        raise ConfigError(f"unknown strategy mode {mode!r}: only 'certified' games are played")
    game = _object(cfg, "game")
    support = _build_support(_object(cfg, "support"))
    alpha, beta = _num(game["alpha"]), _num(game["beta"])
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0 < value < 1:
            raise ConfigError(f"{name} must be in (0, 1), got {format_frac(value)}")
    try:
        variant = Variant(game.get("variant", "classic"))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    radius = _num(game["radius"])
    if radius <= 0:
        raise ConfigError(f"radius must be positive, got {format_frac(radius)}")
    epochs = _int(game.get("epochs", 1)) if epochs is None else epochs
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    center = _vec(game["center"])
    if len(center) != support.dim:
        raise ConfigError(
            f"center has dimension {len(center)} but the support has dimension {support.dim}"
        )
    seq, targets = _build_sequence(_object(cfg, "sequence")), _build_targets(_object(cfg, "targets"))
    rows, cols = mat_shape(seq.matrix(1))
    if (cols, rows) != (support.dim, targets.dim):
        raise ConfigError(
            f"the sequence maps dimension {cols} to {rows}, but the support has "
            f"dimension {support.dim} and the targets {targets.dim}"
        )
    return dict(
        support=support, seq=seq, targets=targets, alpha=alpha, beta=beta,
        variant=variant, radius=radius, center=center, Q=_num(cfg.get("Q", 2)),
        epochs=epochs,
    )


def _checked(build, *args, **kwargs):
    """build(*args, **kwargs) with GameConfig's ValueError (an initial center
    off the support) as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ParameterError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _read_transcript(path: str) -> GameTranscript:
    try:
        return load_transcript(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        # not JSON, a field that is not an exact rational, an unknown player
        raise ConfigError(f"cannot read transcript {path}: {type(e).__name__}: {e}") from e


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SCHMIDT_SEED")
    return _int(env) if env else 0


def cmd_play(args) -> int:
    cfg = _load_config(args.config)
    inputs = _game_inputs(cfg, args.epochs)
    seed = _seed(args)
    game = _checked(certified_game, **inputs)

    bob_name = _object(cfg, "strategy", {}).get("bob", "random")
    bobs = bob_adversaries(game.config, game.seq, game.targets, seed)
    if bob_name not in bobs:
        raise ConfigError(f"unknown adversary {bob_name!r}")
    t0 = time.perf_counter()
    transcript = run_game(game.config, game.alice(), bobs[bob_name])
    wall = time.perf_counter() - t0
    margin = game.margin(transcript)
    won = margin >= game.params.c

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    tpath = os.path.join(out_dir, "transcript.jsonl")
    save_transcript(transcript, tpath)
    summary = {
        "won": won,
        "c_theory": format_frac(game.params.c),
        "realized_margin": format_frac(margin),
        "epochs_completed": inputs["epochs"],
        "k_max": game.k_max,
        "wall_time": round(wall, 3),
        "transcript": tpath,
        "certificates": len(transcript.certificates),
        "seed": seed,
        "mode": "certified",
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary))
    return EXIT_OK if won else EXIT_LOST


def cmd_analyze_seq(args) -> int:
    cfg = _load_config(args.config)
    seq = _build_sequence(_object(cfg, "sequence"))
    if args.jordan and seq.finite:
        raise ConfigError(f"--jordan: a {seq.kind} sequence has no base matrix")
    horizon = 60 if args.horizon is None else args.horizon
    if horizon < 2:
        raise ConfigError(f"--horizon must be >= 2, got {horizon}")
    report = analyze_lacunarity(seq, horizon)
    out = {
        "lacunary": report.lacunary,
        "Q": format_frac(report.Q) if report.Q is not None else None,
        "decomposition": list(report.decomposition)
        if report.decomposition
        else None,
        "horizon": report.horizon,
        "note": report.note,
    }
    if args.jordan:
        try:
            out["jordan"] = jordan_dominance_check(seq.matrix(1), horizon)
        except ValueError as e:
            raise ConfigError(f"--jordan: {e}") from e
    print(json.dumps(out))
    return EXIT_OK


def cmd_estimate_decay(args) -> int:
    cfg = _load_config(args.config)
    support = _build_support(_object(cfg, "support"))
    seed = _seed(args)
    region = Ball(
        tuple(Fraction(0) for _ in range(support.dim)), Fraction(1)
    )
    try:
        est = estimate_decay(support, trials=args.trials, seed=seed)
        dim_lower = pointwise_dim_lower(support, region, trials=args.trials, seed=seed)
    except ValueError as e:
        # too few --trials, or a support the estimators do not handle
        raise ConfigError(f"estimate-decay: {e}") from e
    print(
        json.dumps(
            {
                "C_hat": est.C_hat,
                "gamma_hat": est.gamma_hat,
                "D_hat": est.D_hat,
                "pointwise_dim_lower": dim_lower,
                "seed": seed,
            }
        )
    )
    return EXIT_OK


def cmd_badapprox(args) -> int:
    cfg = _load_config(args.config)
    bcfg = _object(cfg, "badapprox")
    A = _build_affine(bcfg)
    rank_bound = _int(bcfg.get("rank_bound", 100))
    q_bound = _int(bcfg.get("q_bound", 10 ** 4))
    count = _int(bcfg.get("count", 10))
    for name, value, least in (
        ("rank_bound", rank_bound, 1),
        ("q_bound", q_bound, 1),
        ("count", count, 2),
    ):
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    x = _vec(bcfg["x"]) if "x" in bcfg else None
    if x is not None and len(x) != A.n:
        raise ConfigError(f"x has dimension {len(x)} but A has {A.n} rows")
    out: Dict = {}
    u = ba.rational_rank_check(A, rank_bound)
    if u is None and A.is_rational:
        raise ConfigError(
            f"rational A: no integer u with A^T u integral has |u| <= rank_bound {rank_bound}"
        )
    if u is not None:
        out["rational"] = True
        out["u"] = list(u)
        if x is not None:
            case = ba.rational_case_set(A, u)
            out["x_in_bad"] = case.in_bad_set(x)
    else:
        out["rational"] = False
        seq = ba.best_approx_sequence(A, count)
        out["denominators"] = seq.denominators[:count]
        out["thinned"] = [list(v) for v in seq.vectors]
        out["errors"] = [
            [format_frac(e.lo), format_frac(e.hi)] for e in seq.errors
        ]
    if x is not None:
        out["bad_margin"] = format_frac(ba.bad_margin(A, x, q_bound))
    print(json.dumps(out))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    inputs = _game_inputs(cfg, args.epochs)
    transcript = _read_transcript(args.transcript)
    game = _checked(certified_game, **inputs)
    if not validate_transcript(transcript, game.config):
        # a margin or certificate read off a transcript that does not replay
        # proves nothing
        print("replay: FAIL")
        return EXIT_LOST
    margin = game.margin(transcript)
    margin_ok = margin >= game.params.c
    epochs = game.epoch_checks(transcript)
    print("replay: ok")
    print(
        f"margin: {'ok' if margin_ok else 'FAIL'} "
        f"({format_frac(margin)} vs c={format_frac(game.params.c)})"
    )
    for check in epochs:
        print(check)
    return EXIT_OK if margin_ok and all(c.ok for c in epochs) else EXIT_LOST


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, like config errors; argparse's own 2 means lost."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once: parse_args never changes it."""
    parser = _Parser(prog="schmidtgame")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "transcript": {},
        "--config": dict(required=True),
        "--seed": dict(type=int),
        "--out": {},
        "--epochs": dict(type=int),
        "--horizon": dict(type=int),
        "--jordan": dict(action="store_true"),
        "--trials": dict(type=int, default=60),
    }
    # each subcommand registers only the options it reads
    for name, fn, text, names in (
        ("play", cmd_play, "run one game end to end",
         ("--config", "--seed", "--out", "--epochs")),
        ("analyze-seq", cmd_analyze_seq, "lacunarity analysis of a sequence",
         ("--config", "--horizon", "--jordan")),
        ("estimate-decay", cmd_estimate_decay, "empirical decay parameters",
         ("--config", "--seed", "--trials")),
        ("badapprox", cmd_badapprox, "badly approximable form analysis", ("--config",)),
        ("verify", cmd_verify, "re-validate a transcript",
         ("transcript", "--config", "--epochs")),
    ):
        p = sub.add_parser(name, help=text)
        for option in names:
            p.add_argument(option, **options[option])
        p.set_defaults(fn=fn)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, KeyError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParameterError, DegenerateDirection) as e:
        # DegenerateDirection: a repeated irrational top singular value leaves
        # Alice's slab direction undefined
        print(f"infeasible parameters: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InvalidMove, NoFeasibleCenter, MoreThanOneTarget, CertificateError) as e:
        print(f"game failure: {e}", file=sys.stderr)
        return EXIT_LOST


if __name__ == "__main__":
    sys.exit(main())
