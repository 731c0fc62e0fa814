"""Command-line harness: play, analyze-seq, estimate-decay, badapprox, verify.

Configuration is a JSON document with every exact rational written as a
"p/q" string; algebraic numbers as {"poly": [...], "lo": "p/q", "hi": "p/q"}.
Exit codes: 0 success/won, 2 lost or certificate failure, 3 infeasible
parameters (including a sequence whose slab direction is degenerate), 4 I/O
or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import badapprox as ba
from .engine import (
    GameConfig,
    InvalidMove,
    Variant,
    limit_margin,
    load_transcript,
    run_game,
    save_transcript,
    validate_transcript,
)
from .exact import format_frac, frac
from .geometry import Ball, slab_distance_exceeds
from .matseq import (
    DegenerateDirection,
    MatrixSequence,
    analyze_lacunarity,
    jordan_dominance_check,
)
from .strategies import (
    CertificateError,
    GreedyAlice,
    MoreThanOneTarget,
    NoFeasibleCenter,
    Theorem42Alice,
    bob_adversaries,
    epoch_constraints,
    schedule_params,
    strong_wrapper,
    virtual_beta,
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
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")


def _num(x) -> Fraction:
    try:
        return frac(x)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"not an exact rational: {x!r}") from e


def _int(x) -> int:
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
    d = cfg.get("decay", {})
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
        pts = {_int(k): [_vec(p) for p in v] for k, v in cfg["points"].items()}
        return TargetFamily.explicit(pts, _num(cfg["delta"]))
    raise ConfigError(f"unknown target kind {kind!r}")


def _entry(e) -> ba.Entry:
    if isinstance(e, dict):
        poly = tuple(_int(c) for c in e["poly"])
        try:
            return ba.AlgebraicReal(poly, _num(e["lo"]), _num(e["hi"]))
        except ValueError as err:
            raise ConfigError(f"algebraic entry {e!r}: {err}") from err
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


def _build_game(
    game: Dict, dim: int
) -> Tuple[Fraction, Fraction, Variant, Fraction, Tuple[Fraction, ...]]:
    """(alpha, beta, variant, radius, center) of a game section played on a
    support of dimension `dim`."""
    alpha, beta = _num(game["alpha"]), _num(game["beta"])
    try:
        variant = Variant(game.get("variant", "classic"))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    rho = _num(game["radius"])
    if rho <= 0:
        raise ConfigError(f"radius must be positive, got {format_frac(rho)}")
    center = _vec(game["center"])
    if len(center) != dim:
        raise ConfigError(
            f"center has dimension {len(center)} but the support has dimension {dim}"
        )
    return alpha, beta, variant, rho, center


def _game_config(alpha, beta, variant, support, ball, max_rounds) -> GameConfig:
    try:
        return GameConfig(alpha, beta, variant, support, ball, max_rounds)
    except ValueError as e:
        # an initial center off the support, or alpha or beta outside (0, 1)
        raise ConfigError(str(e)) from e


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SCHMIDT_SEED")
    return int(env) if env else 0


def _k_max(seq: MatrixSequence, cap: Fraction) -> int:
    out = 0
    k = 0
    misses = 0
    while True:
        k += 1
        if seq.finite and k > len(seq):
            break
        t = seq.t(k)
        if t.hi < cap:
            out = k
            misses = 0
        else:
            misses += 1
            if not seq.finite and misses >= 8:
                break
        if not seq.finite and k > 10000:
            break
    return out


def cmd_play(args) -> int:
    cfg = _load_config(args.config)
    game = cfg["game"]
    support = _build_support(cfg["support"])
    alpha, beta, variant, rho, center = _build_game(game, support.dim)
    epochs = args.epochs or _int(game.get("epochs", 1))
    mode = args.mode or cfg.get("strategy", {}).get("mode", "certified")
    seq = _build_sequence(cfg["sequence"])
    targets = _build_targets(cfg["targets"])
    Q = _num(cfg.get("Q", 2))
    delta = targets.delta
    seed = _seed(args)

    if mode == "certified":
        if variant is Variant.STRONG:
            s, beta_v = virtual_beta(alpha, beta)
            params = schedule_params(alpha, beta_v, Q, support.decay, delta, rho)
            inner = Theorem42Alice(params, seq, targets, support, alpha, beta_v)
            alice = strong_wrapper(inner, alpha)
            beta_eff = beta_v
            max_rounds = s * ((epochs + 1) * params.r - 1) - 1
        else:
            params = schedule_params(alpha, beta, Q, support.decay, delta, rho)
            alice = Theorem42Alice(params, seq, targets, support, alpha, beta)
            beta_eff = beta
            max_rounds = (epochs + 1) * params.r - 1
        c_theory = params.c
    else:
        params = None
        beta_eff = beta
        alice = GreedyAlice(seq, targets, support, alpha, delta / 100)
        max_rounds = args.horizon or 24
        c_theory = Fraction(0)

    bob_name = cfg.get("strategy", {}).get("bob", "random")
    bobs = bob_adversaries(seq, targets, seed)
    if bob_name not in bobs:
        raise ConfigError(f"unknown adversary {bob_name!r}")
    bob = bobs[bob_name]

    game_config = _game_config(alpha, beta, variant, support, Ball(center, rho), max_rounds)
    t0 = time.perf_counter()
    transcript = run_game(game_config, alice, bob, seed=seed)
    wall = time.perf_counter() - t0

    if params is not None:
        cap = (1 / (alpha * beta_eff)) ** (params.r * epochs)
        kmax = _k_max(seq, cap)
    else:
        kmax = args.horizon or 24
    margin = limit_margin(transcript, seq, targets, kmax)
    won = margin >= c_theory if params is not None else margin > 0

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    tpath = os.path.join(out_dir, "transcript.jsonl")
    save_transcript(transcript, tpath)
    summary = {
        "won": won,
        "c_theory": format_frac(c_theory),
        "realized_margin": format_frac(margin),
        "epochs_completed": epochs if params is not None else 0,
        "k_max": kmax,
        "wall_time": round(wall, 3),
        "transcript": tpath,
        "certificates": len(transcript.certificates),
        "seed": seed,
        "mode": mode,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary))
    return EXIT_OK if won else EXIT_LOST


def cmd_analyze_seq(args) -> int:
    cfg = _load_config(args.config)
    seq = _build_sequence(cfg["sequence"])
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
    if args.jordan and seq.kind == "powers":
        try:
            out["jordan"] = jordan_dominance_check(seq.base, horizon)
        except ValueError as e:
            raise ConfigError(f"--jordan: {e}") from e
    print(json.dumps(out))
    return EXIT_OK


def cmd_estimate_decay(args) -> int:
    cfg = _load_config(args.config)
    support = _build_support(cfg["support"])
    seed = _seed(args)
    est = estimate_decay(support, trials=args.trials, seed=seed)
    region = Ball(
        tuple(Fraction(0) for _ in range(support.dim)), Fraction(1)
    )
    dim_lower = pointwise_dim_lower(support, region, trials=args.trials, seed=seed)
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
    bcfg = cfg["badapprox"]
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
    if u is not None:
        out["rational"] = True
        out["u"] = list(u)
        if x is not None:
            case = ba.rational_case_set(A, u)
            out["x_in_bad"] = case.in_bad_set(x)
            out["bad_margin"] = format_frac(
                ba.bad_margin(A, x, q_bound)
            )
    else:
        out["rational"] = False
        seq = ba.best_approx_sequence(A, count)
        out["denominators"] = seq.denominators[:count]
        out["thinned"] = [list(v) for v in seq.vectors]
        out["errors"] = [
            [format_frac(e.lo), format_frac(e.hi)] for e in seq.errors
        ]
        if x is not None:
            out["bad_margin"] = format_frac(
                ba.bad_margin(A, x, q_bound)
            )
    print(json.dumps(out))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    game = cfg["game"]
    support = _build_support(cfg["support"])
    alpha, beta, variant, rho, center = _build_game(game, support.dim)
    seq = _build_sequence(cfg["sequence"])
    targets = _build_targets(cfg["targets"])
    Q = _num(cfg.get("Q", 2))
    epochs = args.epochs or _int(game.get("epochs", 1))
    transcript = load_transcript(args.transcript)
    checks: List[str] = []
    ok = True

    if variant is Variant.STRONG:
        _, beta_eff = virtual_beta(alpha, beta)
    else:
        beta_eff = beta
    params = schedule_params(alpha, beta_eff, Q, support.decay, targets.delta, rho)
    max_rounds = (len(transcript.moves) - 1) // 2
    game_config = _game_config(alpha, beta, variant, support, Ball(center, rho), max_rounds)
    replay = validate_transcript(transcript, game_config)
    checks.append(f"replay: {'ok' if replay else 'FAIL'}")
    ok = ok and replay

    cap = (1 / (alpha * beta_eff)) ** (params.r * epochs)
    kmax = _k_max(seq, cap)
    margin = limit_margin(transcript, seq, targets, kmax)
    margin_ok = margin >= params.c
    checks.append(
        f"margin: {'ok' if margin_ok else 'FAIL'} "
        f"({format_frac(margin)} vs c={format_frac(params.c)})"
    )
    ok = ok and margin_ok

    if variant is Variant.CLASSIC and transcript.final_enclosure is not None:
        # re-derive every epoch's constraints and re-check disjointness
        final = transcript.final_enclosure
        bob_balls = {m.round_no: m.ball for m in transcript.moves if m.player.value == "bob"}
        for j in range(1, epochs + 1):
            start = params.r * j
            if start not in bob_balls:
                checks.append(f"epoch {j}: missing ball, skipped")
                continue
            try:
                ecs = epoch_constraints(
                    bob_balls[start], seq, targets, params, j, alpha, beta
                )
            except MoreThanOneTarget as e:
                checks.append(f"epoch {j}: FAIL ({e})")
                ok = False
                continue
            bad = [
                ec.k
                for ec in ecs
                if not slab_distance_exceeds(final, ec.cert_slab, Fraction(0))
            ]
            if bad:
                checks.append(f"epoch {j}: FAIL at k={bad}")
                ok = False
            else:
                checks.append(f"epoch {j}: {len(ecs)} certificates ok")
    for line in checks:
        print(line)
    return EXIT_OK if ok else EXIT_LOST


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="schmidtgame")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--mode", choices=["certified", "greedy"], default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--horizon", type=int, default=None)

    p = sub.add_parser("play", help="run one game end to end")
    common(p)
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("analyze-seq", help="lacunarity analysis of a sequence")
    common(p)
    p.add_argument("--jordan", action="store_true")
    p.set_defaults(fn=cmd_analyze_seq)

    p = sub.add_parser("estimate-decay", help="empirical decay parameters")
    common(p)
    p.add_argument("--trials", type=int, default=60)
    p.set_defaults(fn=cmd_estimate_decay)

    p = sub.add_parser("badapprox", help="badly approximable form analysis")
    common(p)
    p.set_defaults(fn=cmd_badapprox)

    p = sub.add_parser("verify", help="re-validate a transcript")
    p.add_argument("transcript")
    common(p)
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
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
