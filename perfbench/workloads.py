"""Seeded inputs, timed operations and correctness checks for each workload.

A workload is a fixed batch of operations built from the seed alone.  Each
operation is one call into a public entry point: `schmidtgame.cli.main` for
`play`, `verify`, `analyze-seq` and `badapprox`, and
`schmidtgame.strategies.avoidance_move` for the avoidance lemma.  Entry
points are looked up on their module at call time, so a tracer that rebinds
them sees every call.

An operation has three parts: `call` is the only timed part; `output`
returns the certified output bytes that go into the digest; `check` returns
None when the output is correct and a reason otherwise.  `output` and
`check` run outside the timed region.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from schmidtgame import cli, strategies
from schmidtgame.exact import format_frac
from schmidtgame.geometry import Ball, SlabConstraint, dist2, slab_distance_exceeds
from schmidtgame.matseq import MatrixSequence, spectral_radius_gt_one
from schmidtgame.supports import DecayParams, SupportModel

SHIPPED_GAMES = ("dim2_classic", "cantor_pow2", "pow3_classic", "pow3_strong")


@dataclass
class Op:
    label: str
    kind: str
    call: Callable[[], object]
    output: Callable[[object], bytes]
    check: Callable[[object], Optional[str]]
    transcript: Optional[Path] = None


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: List[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code if isinstance(e.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_failure(res: CliResult) -> Optional[str]:
    if res.code != 0:
        tail = res.stderr.strip().splitlines()[-1:] or ["no message"]
        return f"exit code {res.code}: {tail[0]}"
    return None


def _json_stdout(res: CliResult) -> dict:
    return json.loads(res.stdout.strip().splitlines()[-1])


def _stdout_bytes(res: CliResult) -> bytes:
    return f"exit {res.code}\n{res.stdout}".encode()


def _write_json(path: Path, data) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# games: play then verify on the shipped configs and seeded variants


def _cantor_code_word(rng: random.Random) -> Fraction:
    depth = rng.randint(2, 6)
    return sum(
        (Fraction(rng.choice((0, 2)), 3 ** (i + 1)) for i in range(depth)), Fraction(0)
    )


def game_configs(root: Path, seed: int) -> List[Tuple[str, dict, int]]:
    """(label, config, play seed) for every game of the sweep.

    The four shipped configs come first, unchanged.  The variants change the
    center and the adversary:
    - Cantor: code-word centers of depth 2-6, one chase and one random Bob;
    - 2-D Euclidean: centers with denominator 1000, four random Bob;
    - 1-D classic: centers with denominator 1000, six chase, six random Bob;
    - 1-D strong: centers with denominator 1000, six maximal Bob.
    """
    rng = random.Random(f"games:{seed}")
    shipped = {}
    for name in SHIPPED_GAMES:
        with open(root / "configs" / f"{name}.json") as fh:
            shipped[name] = json.load(fh)
    out = [(name, shipped[name], 0) for name in SHIPPED_GAMES]
    plan = (
        [("cantor_pow2", "chase"), ("cantor_pow2", "random")]
        + [("dim2_classic", "random")] * 4
        + [("pow3_classic", "chase"), ("pow3_classic", "random")] * 6
        + [("pow3_strong", "maximal")] * 6
    )
    for i, (name, bob) in enumerate(plan):
        cfg = copy.deepcopy(shipped[name])
        game = cfg["game"]
        if name == "cantor_pow2":
            game["center"] = [format_frac(_cantor_code_word(rng))]
        else:
            game["center"] = [
                format_frac(Fraction(rng.randint(1, 999), 1000)) for _ in game["center"]
            ]
        cfg["strategy"]["bob"] = bob
        out.append((f"{name}-v{i:02d}-{bob}", cfg, rng.randrange(1 << 30)))
    return out


def _play_output(summary_path: Path, transcript: Path) -> Callable[[object], bytes]:
    def output(res: CliResult) -> bytes:
        summary = json.loads(summary_path.read_text())
        # wall_time is a measurement and transcript is a path in the work
        # directory; neither is a certified output
        summary.pop("wall_time", None)
        summary.pop("transcript", None)
        return (f"exit {res.code}\n".encode() + transcript.read_bytes()
                + json.dumps(summary, sort_keys=True).encode())

    return output


def _check_play(res: CliResult) -> Optional[str]:
    failure = _cli_failure(res)
    if failure:
        return failure
    if _json_stdout(res).get("won") is not True:
        return "game not won"
    return None


def games(root: Path, seed: int, work: Path) -> List[Op]:
    ops: List[Op] = []
    for label, cfg, play_seed in game_configs(root, seed):
        path = _write_json(work / "games" / f"{label}.json", cfg)
        out_dir = work / "games" / label
        transcript = out_dir / "transcript.jsonl"
        play = ["play", "--config", str(path), "--out", str(out_dir), "--seed", str(play_seed)]
        verify = ["verify", str(transcript), "--config", str(path)]
        ops.append(
            Op(
                f"play:{label}",
                "play",
                lambda argv=play: run_cli(argv),
                _play_output(out_dir / "summary.json", transcript),
                _check_play,
                transcript=transcript,
            )
        )
        ops.append(
            Op(f"verify:{label}", "verify", lambda argv=verify: run_cli(argv),
               _stdout_bytes, _cli_failure)
        )
    return ops


# ---------------------------------------------------------------------------
# lacunarity: analyze-seq on random lacunary 3x3 matrices plus controls

LACUNARY_MATRICES = 24
HORIZON = 60
ROTATION3 = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
UNIPOTENT3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def lacunary_matrices(seed: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """3x3 integer matrices, entries in [-3, 3], certified spectral radius > 1."""
    rng = random.Random(f"lacunarity:{seed}")
    out = []
    while len(out) < LACUNARY_MATRICES:
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        if spectral_radius_gt_one(tuple(tuple(Fraction(x) for x in row) for row in M)):
            out.append(M)
    return out


def _check_lacunary(M) -> Callable[[CliResult], Optional[str]]:
    def check(res: CliResult) -> Optional[str]:
        failure = _cli_failure(res)
        if failure:
            return failure
        rep = _json_stdout(res)
        if rep.get("decomposition") is None or rep.get("Q") is None:
            return f"no decomposition: {rep.get('note')}"
        Q = Fraction(rep["Q"])
        if not Q > 1:
            return f"Q = {rep['Q']} is not > 1"
        ell, start = rep["decomposition"]
        fresh = MatrixSequence.powers(tuple(tuple(Fraction(x) for x in row) for row in M))
        for k in range(start, HORIZON - ell + 1):
            if fresh.t(k + ell).lo / fresh.t(k).hi < Q:
                return f"claimed Q fails at k={k}"
        return None

    return check


def _check_control(res: CliResult) -> Optional[str]:
    failure = _cli_failure(res)
    if failure:
        return failure
    if _json_stdout(res).get("lacunary") is not False:
        return "control not certified non-lacunary"
    return None


def lacunarity(root: Path, seed: int, work: Path) -> List[Op]:
    ops = []
    mats = [(f"m{i:02d}", M, True) for i, M in enumerate(lacunary_matrices(seed))]
    mats += [("rotation", ROTATION3, False), ("unipotent", UNIPOTENT3, False)]
    for label, M, lacunary in mats:
        cfg = {"sequence": {"kind": "powers", "base": [[str(x) for x in row] for row in M]}}
        path = _write_json(work / "lacunarity" / f"{label}.json", cfg)
        argv = ["analyze-seq", "--config", str(path), "--horizon", str(HORIZON)]
        ops.append(
            Op(f"analyze-seq:{label}", "analyze-seq", lambda argv=argv: run_cli(argv),
               _stdout_bytes, _check_lacunary(M) if lacunary else _check_control)
        )
    return ops


# ---------------------------------------------------------------------------
# badapprox: margins for sqrt(n) and for rational 1x1 systems

IRRATIONAL_INPUTS = 16   # sqrt(2) plus seeded non-square n
RATIONAL_INPUTS = 24     # 1/2 at x = 1/3 plus seeded rationals
IRRATIONAL_Q_BOUND = 1000
RATIONAL_Q_BOUND = 2000
SQRT2_DENOMINATORS = [1, 2, 5, 12, 29, 70, 169]


def rational_margin(a: Fraction, x: Fraction, q_bound: int) -> Fraction:
    """min over 0 < q <= q_bound of q * d(+-a*q - x, Z), in integer arithmetic."""
    den = a.denominator * x.denominator
    best = None
    for q in range(1, q_bound + 1):
        for sign in (1, -1):
            num = (sign * a.numerator * q * x.denominator - x.numerator * a.denominator) % den
            val = Fraction(q * min(num, den - num), den)
            if best is None or val < best:
                best = val
    return best


def badapprox_inputs(seed: int) -> List[Tuple[str, dict]]:
    rng = random.Random(f"badapprox:{seed}")
    out = []
    radicands = [2]
    while len(radicands) < IRRATIONAL_INPUTS:
        n = rng.randint(3, 200)
        if math.isqrt(n) ** 2 != n and n not in radicands:
            radicands.append(n)
    for n in radicands:
        r = math.isqrt(n)
        b = rng.randint(2, 50)
        cfg = {
            "A": [[{"poly": [-n, 0, 1], "lo": str(r), "hi": str(r + 1)}]],
            "x": [format_frac(Fraction(rng.randint(1, b - 1), b))],
            "q_bound": IRRATIONAL_Q_BOUND,
            "count": 9,
            "rank_bound": 32,
        }
        out.append((f"sqrt{n}", {"badapprox": cfg}))
    out.append(("half-third", {"badapprox": {"A": [["1/2"]], "x": ["1/3"], "q_bound": 10 ** 4, "rank_bound": 100}}))
    while len(out) < IRRATIONAL_INPUTS + RATIONAL_INPUTS:
        a = Fraction(rng.randint(1, 39), rng.randint(2, 40))
        v = rng.randint(2, 40)
        x = Fraction(rng.randint(1, v - 1), v)
        if a >= 1 or a.denominator % x.denominator == 0:
            continue  # x must not lie in (1/den a)Z, so the margin is positive
        cfg = {"A": [[format_frac(a)]], "x": [format_frac(x)],
               "q_bound": RATIONAL_Q_BOUND, "rank_bound": 100}
        out.append((f"rat{len(out):02d}", {"badapprox": cfg}))
    return out


def _check_badapprox(label: str, cfg: dict) -> Callable[[CliResult], Optional[str]]:
    bcfg = cfg["badapprox"]

    def check(res: CliResult) -> Optional[str]:
        failure = _cli_failure(res)
        if failure:
            return failure
        out = _json_stdout(res)
        margin = Fraction(out["bad_margin"])
        if isinstance(bcfg["A"][0][0], dict):
            if out.get("rational") is not False:
                return "irrational input reported rational"
            if label == "sqrt2" and out["denominators"][:7] != SQRT2_DENOMINATORS:
                return f"sqrt(2) denominators {out['denominators'][:7]}"
            return None if margin > 0 else f"margin {out['bad_margin']} is not > 0"
        if label == "half-third" and margin != Fraction(1, 6):
            return f"bad_margin(1/2, 1/3, 10^4) = {out['bad_margin']}, expected 1/6"
        expect = rational_margin(Fraction(bcfg["A"][0][0]), Fraction(bcfg["x"][0]), bcfg["q_bound"])
        return None if margin == expect else f"margin {out['bad_margin']} != {format_frac(expect)}"

    return check


def badapprox(root: Path, seed: int, work: Path) -> List[Op]:
    ops = []
    for label, cfg in badapprox_inputs(seed):
        path = _write_json(work / "badapprox" / f"{label}.json", cfg)
        argv = ["badapprox", "--config", str(path)]
        ops.append(
            Op(f"badapprox:{label}", "badapprox", lambda argv=argv: run_cli(argv),
               _stdout_bytes, _check_badapprox(label, cfg))
        )
    return ops


# ---------------------------------------------------------------------------
# avoidance: the avoidance lemma on 3-D instances (criterion-1 generator)

AVOIDANCE_INSTANCES = 60
MAX_SLABS = 20
ALPHA = Fraction(9, 50)  # 0.9 * max_alpha for C = 2, gamma = 1
EPSILON = Fraction(5, 41)  # the lemma's guaranteed share at that alpha


def avoidance_instances(seed: int):
    """3-D instances; slab counts cycle through 1..MAX_SLABS in seeded order.

    Screening cost grows with the slab count, so a fixed mix of counts keeps
    the batch's cost from drifting with the seed.
    """
    rng = random.Random(f"avoidance:{seed}")
    n, rho = 3, Fraction(1)
    sizes = [1 + i % MAX_SLABS for i in range(AVOIDANCE_INSTANCES)]
    rng.shuffle(sizes)
    out = []
    for size in sizes:
        ball = Ball(tuple(Fraction(0) for _ in range(n)), rho)
        slabs = []
        for _ in range(size):
            normal = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            if all(x == 0 for x in normal):
                normal = (Fraction(1),) + tuple(Fraction(0) for _ in range(n - 1))
            anchor = tuple(Fraction(rng.randint(-90, 90), 100) for _ in range(n))
            offset = sum(a * b for a, b in zip(normal, anchor))
            hw = Fraction(rng.randint(0, 8), 8) * (ALPHA * rho / 8)
            slabs.append(SlabConstraint(normal, offset, hw))
        out.append((ball, slabs))
    return out


def _check_avoidance(ball: Ball, slabs) -> Callable[[object], Optional[str]]:
    def check(res) -> Optional[str]:
        center, avoided = res
        rho = ball.radius
        if dist2(center, ball.center) > ((1 - ALPHA) * rho) ** 2:
            return "center outside (1 - alpha) * rho"
        if len(avoided) < math.ceil(EPSILON * len(slabs)):
            return f"avoided {len(avoided)} of {len(slabs)} slabs"
        small = Ball(center, ALPHA * rho)
        for i in avoided:
            if not slab_distance_exceeds(small, slabs[i], Fraction(0)):
                return f"slab {i} not cleared"
        return None

    return check


def _avoidance_output(res) -> bytes:
    center, avoided = res
    return json.dumps({"center": [format_frac(c) for c in center], "avoided": list(avoided)}).encode()


def avoidance(root: Path, seed: int, work: Path) -> List[Op]:
    K = SupportModel.euclidean(3, DecayParams(C=Fraction(2), gamma=Fraction(1), ambient_dim=3))
    ops = []
    for i, (ball, slabs) in enumerate(avoidance_instances(seed)):
        ops.append(
            Op(f"avoid:{i:03d}:{len(slabs)}", "avoidance",
               lambda ball=ball, slabs=slabs: strategies.avoidance_move(K, ball, slabs, ALPHA),
               _avoidance_output, _check_avoidance(ball, slabs))
        )
    return ops


BUILDERS = {
    "games": games,
    "lacunarity": lacunarity,
    "badapprox": badapprox,
    "avoidance": avoidance,
}


def build(workload: str, seed: int, root: Path, work: Path) -> List[Op]:
    """Generate the workload's inputs from the seed and write its config files."""
    return BUILDERS[workload](root, seed, work)
