"""Experiment runner: seeded synthetic benchmarks with CSV/JSON emission.

Reruns with an identical config and seed produce byte-identical outputs.
Experiments: the moving Frechet-mean stream on hyperbolic space, the
quadratic logdet game, synthetic robust PCA, and the geometry verification
suite.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .games import (
    ZeroSumGame,
    make_spd_dataset,
    ne_diagnostics,  # noqa: F401 - kept importable from riopt.bench
    quad_logdet_game,
    rceg_step,
    rgda_step,
    robust_pca_game,
    rogda_init,
    rogda_step,
)
from .geometry import (
    frechet_mean,
    sigma_constant,
    zeta_constant,
)
from .manifolds import SPD, Euclidean, Hyperbolic, Sphere
from .online import (
    MetaWeights,
    RegretLedger,
    aoogd_configure,
    aoogd_round,
    grad_variation,
    regret_update,
    rogd_step,
    roogd_corrected_init,
    roogd_corrected_step,
    roogd_init,
    roogd_step,
)
from .streams import (
    TAG_INIT,
    child_rng,
    fixed_probe_points,
    gen_frechet_stream,
)
from .verify import (
    correction_blowup_trace,
    fd_gradient_check,
    holonomy_probe,
    random_small_rectangle,
    triangle_comparison_suite,
)

EXPERIMENTS = ("frechet", "quadgame", "robust_pca", "verify")
ONLINE_ALGORITHMS = ("rogd", "roogd", "roogd_corrected", "raoogd")
GAME_ALGORITHMS = ("rogda", "rgda", "rceg")
# The algorithms each experiment accepts, and those it runs when none are named.
ALGORITHMS = {
    "frechet": ONLINE_ALGORITHMS,
    "quadgame": GAME_ALGORITHMS,
    "robust_pca": GAME_ALGORITHMS,
    "verify": (),
}
DEFAULT_ALGORITHMS = {
    "frechet": ("rogd", "roogd", "raoogd"),
    "quadgame": GAME_ALGORITHMS,
    "robust_pca": ("rogda",),
    "verify": (),
}

CSV_HEADER = "round,algorithm,instantaneous_loss,cumulative_loss,cumulative_regret,grad_norm"

# Probe-set size for the gradient-variation estimate: comparator, iterate,
# plus this many fixed random points, never refreshed.
N_FIXED_PROBES = 14


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    eta: Optional[float] = None


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    T: int = 1000
    seed: int = 0
    algorithms: tuple[AlgorithmSpec, ...] = ()
    # frechet stream
    dim: int = 10
    n_points: int = 20
    mode: str = "abrupt"
    S: int = 250
    drift: float = 0.1
    ball_radius: float = 1.0
    center_diam: float = 1.0
    curvature_mag: float = 1.0
    v_t_bound: Optional[float] = None
    # quadratic logdet game
    d: int = 10
    c1: float = 0.0
    c2: float = 1.0
    # robust pca
    n_samples: int = 40
    alpha: float = 1.0
    eig_low: float = 0.2
    eig_high: float = 4.5
    # verification suite
    n_triangles: int = 1000
    # io
    out: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if self.mode not in ("abrupt", "drift"):
            raise ConfigError(f"mode must be 'abrupt' or 'drift', got {self.mode!r}")
        if self.S < 1:
            raise ConfigError("S must be >= 1")
        if min(self.dim, self.n_points, self.d, self.n_samples) < 1:
            raise ConfigError("dim, n_points, d and n_samples must be >= 1")
        n_tri = self.n_triangles
        if isinstance(n_tri, bool) or not isinstance(n_tri, int) or n_tri < 1:
            raise ConfigError(f"n_triangles must be an integer >= 1, got {n_tri!r}")
        if self.experiment == "robust_pca" and self.d < 2:
            raise ConfigError(
                f"d must be >= 2 for robust_pca (the max player lives on S^(d-1)), got {self.d}"
            )
        if not self.eig_low > 0:
            raise ConfigError(f"eig_low must be > 0, got {self.eig_low!r}")
        if not self.eig_low <= self.eig_high:
            raise ConfigError(
                f"eig_high must be >= eig_low, got eig_low={self.eig_low!r}, "
                f"eig_high={self.eig_high!r}"
            )
        allowed = ALGORITHMS[self.experiment]
        algs = self.algorithms or tuple(
            AlgorithmSpec(name) for name in DEFAULT_ALGORITHMS[self.experiment]
        )
        for spec in algs:
            if spec.name not in allowed:
                raise ConfigError(
                    f"algorithm {spec.name!r} not valid for {self.experiment} "
                    f"(allowed: {allowed})"
                )
            if spec.eta is not None and spec.eta <= 0:
                raise ConfigError(f"algorithm {spec.name!r}: eta must be positive")
        names = [spec.name for spec in algs]
        if len(set(names)) < len(names):
            raise ConfigError(f"each algorithm may be listed once, got {names}")
        object.__setattr__(self, "algorithms", tuple(algs))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(raw)
        if "algorithms" in data and data["algorithms"] is not None:
            specs = []
            for item in data["algorithms"]:
                if isinstance(item, str):
                    specs.append(AlgorithmSpec(item))
                elif isinstance(item, dict):
                    extra = set(item) - {"name", "eta"}
                    if extra:
                        raise ConfigError(f"unknown algorithm keys: {sorted(extra)}")
                    if "name" not in item:
                        raise ConfigError("algorithm entries need a 'name'")
                    specs.append(AlgorithmSpec(item["name"], item.get("eta")))
                else:
                    raise ConfigError("algorithms must be names or {name, eta} objects")
            data["algorithms"] = tuple(specs)
        if "experiment" not in data:
            raise ConfigError("config must name an experiment")
        return cls(**data)

    def to_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        raw["algorithms"] = [
            {"name": a.name} if a.eta is None else {"name": a.name, "eta": a.eta}
            for a in self.algorithms
        ]
        return raw


@dataclass(frozen=True)
class ResultRow:
    round: int
    algorithm: str
    instantaneous_loss: float
    cumulative_loss: float
    cumulative_regret: float
    grad_norm: float

    def to_csv(self) -> str:
        return (
            f"{self.round},{self.algorithm},{self.instantaneous_loss!r},"
            f"{self.cumulative_loss!r},{self.cumulative_regret!r},"
            f"{self.grad_norm!r}"
        )


@dataclass(frozen=True)
class BenchResult:
    config: ExperimentConfig
    rows: list
    summary: dict

    def csv_text(self) -> str:
        return "\n".join([CSV_HEADER] + [r.to_csv() for r in self.rows]) + "\n"


@dataclass(frozen=True)
class FrechetConstants:
    """Geometry constants feeding the step-size rules of the frechet runs."""

    D0: float
    G: float
    L: float
    sigma0: float
    zeta0: float


def frechet_constants(cfg: ExperimentConfig) -> FrechetConstants:
    """Conservative region-scale constants for the fixed-step safety caps.

    D0 is the a-priori diameter of the region containing clouds, comparators
    and iterates; the loss Hessian within it is bounded by the distortion at
    that scale, so L = zeta(kappa, D0).
    """
    kappa = -abs(cfg.curvature_mag)
    D0 = cfg.center_diam + 2.0 * cfg.ball_radius
    zeta0 = zeta_constant(kappa, D0)
    return FrechetConstants(
        D0=D0, G=D0, L=zeta0, sigma0=sigma_constant(kappa, D0), zeta0=zeta0
    )


def frechet_meta_constants(cfg: ExperimentConfig) -> FrechetConstants:
    """Experiment-scale constants for the adaptive learner's step-size grid.

    The pool is a search grid, not a safety cap: it is configured at the
    scale the environment actually moves (center-set diameter D, gradients of
    the cloud scale, L = zeta(kappa, D)), so it brackets the empirically good
    steps; the hedge then adapts within it. The top of the grid still sits
    near the corresponding theoretical cap by construction.
    """
    kappa = -abs(cfg.curvature_mag)
    D = cfg.center_diam
    G = cfg.center_diam / 2.0 + cfg.ball_radius
    return FrechetConstants(
        D0=D,
        G=G,
        L=zeta_constant(kappa, D),
        sigma0=sigma_constant(kappa, D),
        zeta0=zeta_constant(kappa, D),
    )


def default_eta(cfg: ExperimentConfig, name: str) -> Optional[float]:
    """Documented default step sizes per experiment and algorithm.

    frechet: the optimistic learners use the dynamic-regret safety cap
    sigma0/(4 zeta0 L) at the conservative region scale; plain descent uses
    the static tuning D0/(G sqrt(T)). quadgame: the reference steps (0.5 for
    weak coupling, 0.2 for strong) are divided by d^2 because the logdet
    gradient has norm sqrt(d) and the scalar reduction of the game carries
    another factor d, so the literal reference values are unstable for d > 1.
    robust_pca: 0.07.
    """
    if cfg.experiment == "frechet":
        c = frechet_constants(cfg)
        if name in ("roogd", "roogd_corrected"):
            return c.sigma0 / (4.0 * c.zeta0 * c.L)
        if name == "rogd":
            return c.D0 / (c.G * math.sqrt(cfg.T))
        return None  # raoogd uses the step-size pool
    if cfg.experiment == "quadgame":
        return (0.5 if cfg.c1 < 0.25 else 0.2) / cfg.d**2
    if cfg.experiment == "robust_pca":
        return 0.07
    return None


def run_experiment(cfg: ExperimentConfig, out: Optional[str] = None) -> BenchResult:
    """Run one experiment; write CSV + summary JSON when an out dir is given."""
    if cfg.experiment == "frechet":
        rows, summary = _run_frechet(cfg)
    elif cfg.experiment in ("quadgame", "robust_pca"):
        rows, summary = _run_game(cfg)
    else:
        rows, summary = [], run_verification(cfg)
    result = BenchResult(config=cfg, rows=rows, summary=summary)
    target = out or cfg.out
    if target is not None:
        write_outputs(result, Path(target))
    return result


def write_outputs(result: BenchResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if result.rows:
        (out_dir / "results.csv").write_text(result.csv_text(), encoding="utf-8", newline="")
    (out_dir / "summary.json").write_text(
        json.dumps(result.summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "config.json").write_text(
        json.dumps(result.config.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _step_sizes(cfg: ExperimentConfig) -> dict[str, Optional[float]]:
    """Each algorithm's step size: the configured eta, else its default."""
    return {
        spec.name: spec.eta if spec.eta is not None else default_eta(cfg, spec.name)
        for spec in cfg.algorithms
    }


def _online_learner(cfg: ExperimentConfig, name: str, manifold, x0, eta):
    """Online learner ``name`` started at x0, as a ``play`` callable.

    ``play(loss, prev_loss)`` returns ``(x_t, loss.grad(x_t))``: the point
    x_t, fixed before ``loss`` is touched, and the gradient there, computed
    once. It then advances the learner. ``prev_loss`` is None in round 1;
    only R-AOOGD reads it, for its optimism term. R-AOOGD ignores ``eta`` and
    hedges over its own pool of R-OOGD experts.
    """
    if name == "raoogd":
        mc = frechet_meta_constants(cfg)
        # the hedge rate wants the true gradient variation, which is not
        # causal; default to the sqrt-horizon scale (slowly mixing stream)
        v_bound = cfg.v_t_bound if cfg.v_t_bound is not None else mc.G**2 * math.sqrt(cfg.T)
        pool, beta = aoogd_configure(cfg.T, mc.D0, mc.G, mc.L, mc.sigma0, mc.zeta0, v_bound)
        experts = [roogd_init(manifold, x0, e) for e in pool.etas]
        weights = MetaWeights.uniform(pool.N)

        def play(loss, prev_loss):
            nonlocal experts, weights
            prev_grad = prev_loss.grad if prev_loss is not None else None
            x_t, experts, weights, diag = aoogd_round(
                manifold, experts, weights, beta, loss.grad, prev_grad
            )
            return x_t, diag.g_play

        return play

    if name == "rogd":
        state = x0
        point = lambda x: x  # noqa: E731
        advance = lambda x, g: rogd_step(manifold, x, g, eta)  # noqa: E731
    else:
        init, step = (
            (roogd_init, roogd_step)
            if name == "roogd"
            else (roogd_corrected_init, roogd_corrected_step)
        )
        state = init(manifold, x0, eta)
        point = lambda s: s.x_cur  # noqa: E731
        advance = lambda s, g: step(manifold, s, g)  # noqa: E731

    def play(loss, prev_loss):
        nonlocal state
        x_t = point(state)
        g_t = loss.grad(x_t)
        state = advance(state, g_t)
        return x_t, g_t

    return play


def _run_frechet(cfg: ExperimentConfig) -> tuple[list, dict]:
    manifold = Hyperbolic(cfg.dim)
    stream = gen_frechet_stream(
        manifold,
        T=cfg.T,
        n_points=cfg.n_points,
        mode=cfg.mode,
        S=cfg.S,
        drift=cfg.drift,
        ball_radius=cfg.ball_radius,
        center_diam=cfg.center_diam,
        seed=cfg.seed,
    )
    anchor = stream.anchor
    probe_radius = cfg.center_diam / 2.0 + cfg.ball_radius
    probes = fixed_probe_points(manifold, anchor, probe_radius, N_FIXED_PROBES, cfg.seed)

    etas = _step_sizes(cfg)
    players = {
        name: _online_learner(cfg, name, manifold, anchor, eta) for name, eta in etas.items()
    }
    ledgers = dict.fromkeys(players, RegretLedger())
    max_dist = dict.fromkeys(players, 0.0)

    # Each round, the comparator's move and the gradient variation at the
    # shared probes (the fixed points and the comparator) are computed once;
    # each learner then folds in only its own point. The probes never move,
    # so each loss's probe gradients also serve as the next round's previous
    # values.
    rows: list[ResultRow] = []
    prev_loss = None
    prev_probe_grads: list = []
    u_prev = None
    for t in range(1, cfg.T + 1):
        loss = stream.losses[t - 1]
        u_t = frechet_mean(manifold, loss.point_list())
        comp_val = loss.value(u_t)
        probe_grads = [loss.grad(p) for p in probes]
        hop = manifold.dist(u_t, u_prev) if u_prev is not None else 0.0
        shared_vt = 0.0
        if prev_loss is not None:
            shared_pairs = list(zip(probe_grads, prev_probe_grads))
            shared_pairs.append((loss.grad(u_t), prev_loss.grad(u_t)))
            shared_vt = grad_variation(manifold, shared_pairs)
        for name, play in players.items():
            x_t, g_t = play(loss, prev_loss)
            inst = loss.value(x_t)
            vt = shared_vt
            if prev_loss is not None:
                vt = grad_variation(manifold, [(g_t, prev_loss.grad(x_t))], start=shared_vt)
            led = ledgers[name] = regret_update(ledgers[name], inst, comp_val, hop, vt)
            max_dist[name] = max(max_dist[name], manifold.dist(x_t, anchor))
            rows.append(
                ResultRow(
                    round=t,
                    algorithm=name,
                    instantaneous_loss=inst,
                    cumulative_loss=led.cum_alg_loss,
                    cumulative_regret=led.regret,
                    grad_norm=manifold.norm(x_t, g_t),
                )
            )
        prev_loss = loss
        prev_probe_grads = probe_grads
        u_prev = u_t

    summary = {
        "experiment": cfg.experiment,
        "T": cfg.T,
        "seed": cfg.seed,
        "comparator_path_length": next(iter(ledgers.values())).path_length,
        "constants": dataclasses.asdict(frechet_constants(cfg)),
        "algorithms": {},
    }
    for name, led in ledgers.items():
        summary["algorithms"][name] = {
            "eta": etas[name],
            "final_cumulative_loss": led.cum_alg_loss,
            "final_cumulative_regret": led.regret,
            "comparator_cumulative_loss": led.cum_comparator_loss,
            "grad_variation_estimate": led.grad_variation,
            "max_dist_to_center": max_dist[name],
        }
    return rows, summary


def build_game(cfg: ExperimentConfig) -> ZeroSumGame:
    if cfg.experiment == "quadgame":
        return quad_logdet_game(cfg.d, cfg.c1, cfg.c2)
    data = make_spd_dataset(
        cfg.d, cfg.n_samples, (cfg.eig_low, cfg.eig_high), seed=cfg.seed
    )
    return robust_pca_game(data, cfg.alpha)


def game_initial_point(cfg: ExperimentConfig, game: ZeroSumGame):
    if cfg.experiment == "quadgame":
        spd = game.space.factors[0]
        x0 = spd.random_point(child_rng(cfg.seed, TAG_INIT, 0))
        y0 = spd.random_point(child_rng(cfg.seed, TAG_INIT, 1))
        return game.join(x0, y0)
    spd, sphere = game.space.factors
    a0 = spd.base_point()
    x0 = sphere.random_point(child_rng(cfg.seed, TAG_INIT, 1))
    return game.join(a0, x0)


def _game_solver(name: str, game: ZeroSumGame, z0, eta: float):
    """Game solver ``name`` started at z0 with step eta, as a ``play`` callable.

    ``play()`` returns ``(z_t, F(z_t))``: the point it plays this round and
    the game field there, evaluated once and handed to the step. It then
    advances to z_{t+1}. R-OGDA's ``play`` also carries its current
    ``GameState`` as ``play.state``, whose running average the summary reports.
    """
    if name == "rogda":

        def play():
            state = play.state
            F = game.field(state.z_cur)
            play.state = rogda_step(game, state, eta, F)
            return state.z_cur, F

        play.state = rogda_init(game, z0)
        return play

    step = rgda_step if name == "rgda" else rceg_step
    z = z0

    def play():
        nonlocal z
        z_t = z
        F = game.field(z_t)
        z = step(game, z_t, eta, F)
        return z_t, F

    return play


def _run_game(cfg: ExperimentConfig) -> tuple[list, dict]:
    game = build_game(cfg)
    z0 = game_initial_point(cfg, game)

    etas = _step_sizes(cfg)
    players = {name: _game_solver(name, game, z0, eta) for name, eta in etas.items()}
    cum = dict.fromkeys(players, 0.0)

    rows: list[ResultRow] = []
    for t in range(1, cfg.T + 1):
        for name, play in players.items():
            z_t, F = play()
            inst = game.value(z_t)
            gn = game.space.norm(z_t, F)
            cum[name] += inst
            rows.append(
                ResultRow(
                    round=t,
                    algorithm=name,
                    instantaneous_loss=inst,
                    cumulative_loss=cum[name],
                    # games play against the equilibrium value 0, so the
                    # regret column coincides with the cumulative payoff
                    cumulative_regret=cum[name],
                    grad_norm=gn,
                )
            )

    summary = {
        "experiment": cfg.experiment,
        "T": cfg.T,
        "seed": cfg.seed,
        "comparator_path_length": 0.0,
        "algorithms": {},
    }
    for name, play in players.items():
        gns = np.array([r.grad_norm for r in rows if r.algorithm == name])
        entry = {
            "eta": etas[name],
            "final_cumulative_loss": cum[name],
            "final_cumulative_regret": cum[name],
            "grad_norm_final": float(gns[-1]),
            "grad_norm_min": float(gns.min()),
        }
        state = getattr(play, "state", None)
        if state is not None:
            entry["ne_residual"] = [float(r) for r in game.residual(state.z_cur)]
            entry["ne_residual_averaged"] = [float(r) for r in game.residual(state.z_bar)]
            entry["best_grad_norm"] = entry["grad_norm_min"]
        summary["algorithms"][name] = entry
    return rows, summary


def run_verification(cfg: ExperimentConfig) -> dict:
    """Geometry property suites plus the analytic-gradient oracles."""
    from .streams import FrechetMeanLoss

    checks = {}
    manifolds = {
        "euclidean": (Euclidean(3), 2.0),
        "sphere": (Sphere(2), math.pi / 2.0 - 0.1),
        "hyperbolic": (Hyperbolic(2), 1.5),
        "spd": (SPD(2), 1.5),
    }
    for name, (m, diam) in manifolds.items():
        report = triangle_comparison_suite(m, cfg.n_triangles, diam, seed=cfg.seed)
        checks[f"triangles_{name}"] = {
            "report": report.to_dict(),
            "passed": bool(report.max_violation <= 1e-8),
        }

    sphere = Sphere(2)
    rng = child_rng(cfg.seed, TAG_INIT, 7)
    worst_ratio = 0.0
    holonomy_ok = True
    for _ in range(200):
        corners, z = random_small_rectangle(sphere, rng, scale=0.01)
        defect, bound = holonomy_probe(sphere, corners, z)
        holonomy_ok &= defect <= bound
        if bound > 0:
            worst_ratio = max(worst_ratio, defect / bound)
    checks["holonomy_sphere"] = {
        "passed": bool(holonomy_ok),
        "worst_defect_to_bound": worst_ratio,
    }

    trace = correction_blowup_trace(0.1, 1.0, 50)
    increasing = bool(np.all(np.diff(trace.values) > 0))
    checks["correction_blowup"] = {
        "passed": increasing and bool(trace.values.max() > 1e3),
        "diverged_at": trace.diverged_at,
        "first_values": [float(v) for v in trace.values[:3]],
    }

    # Gradient oracles for the shipped losses and payoffs.
    hyp = Hyperbolic(4)
    rngp = child_rng(cfg.seed, TAG_INIT, 9)
    pts = np.stack(
        [hyp.random_point(rngp, center=hyp.base_point(), radius=1.0).coords for _ in range(6)]
    )
    loss = FrechetMeanLoss(hyp, pts)
    x = hyp.random_point(rngp, center=hyp.base_point(), radius=1.0)
    rep = fd_gradient_check(hyp, loss.value, loss.grad, x, n_dirs=10, seed=cfg.seed)
    checks["fd_frechet_loss"] = {"report": rep.to_dict(), "passed": bool(rep.max_violation <= 1e-4)}

    game = quad_logdet_game(4, 0.7, 1.3)
    z = game_initial_point(
        dataclasses.replace(cfg, experiment="quadgame", d=4), game
    )
    repg = fd_gradient_check(
        game.space, game.value, game.gradient, z, n_dirs=8, seed=cfg.seed
    )
    checks["fd_quad_logdet"] = {
        "report": repg.to_dict(),
        "passed": bool(repg.max_violation <= 1e-4),
    }

    data = make_spd_dataset(4, 4, (0.2, 4.5), seed=cfg.seed)
    pca = robust_pca_game(data, alpha=1.0)
    zp = game_initial_point(
        dataclasses.replace(cfg, experiment="robust_pca", d=4, n_samples=4), pca
    )
    repp = fd_gradient_check(
        pca.space, pca.value, pca.gradient, zp, n_dirs=8, seed=cfg.seed
    )
    checks["fd_robust_pca"] = {
        "report": repp.to_dict(),
        "passed": bool(repp.max_violation <= 1e-4),
    }

    passed = all(entry["passed"] for entry in checks.values())
    return {
        "experiment": "verify",
        "seed": cfg.seed,
        "passed": passed,
        "checks": checks,
    }


def sweep(configs: Sequence[ExperimentConfig], out: Optional[str] = None) -> dict:
    """Run several configs, tolerating per-config failures, and aggregate.

    The aggregate lists every run's headline metrics and, per algorithm,
    the mean and standard deviation of final loss/regret across successful
    runs.
    """
    runs = []
    per_alg: dict[str, dict[str, list]] = {}
    for idx, cfg in enumerate(configs):
        entry: dict = {"index": idx, "T": cfg.T, "seed": cfg.seed, "experiment": cfg.experiment}
        try:
            sub_out = Path(out) / f"run_{idx:03d}" if out is not None else None
            result = run_experiment(cfg, out=str(sub_out) if sub_out else None)
            entry["status"] = "ok"
            entry["summary"] = result.summary
            for alg, stats in result.summary.get("algorithms", {}).items():
                bucket = per_alg.setdefault(alg, {})
                for key in (
                    "final_cumulative_loss",
                    "final_cumulative_regret",
                    "grad_norm_min",
                    "best_grad_norm",
                ):
                    if key in stats:
                        bucket.setdefault(key, []).append(stats[key])
        except Exception as exc:  # noqa: BLE001 - per-config isolation is the contract
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        runs.append(entry)

    aggregate = {}
    for alg, metrics in per_alg.items():
        aggregate[alg] = {}
        for key, values in metrics.items():
            arr = np.asarray(values, dtype=float)
            aggregate[alg][key] = {
                "mean": float(arr.mean()),
                "std": float(arr.std()),
                "values": [float(v) for v in arr],
            }
    report = {"n_configs": len(configs), "runs": runs, "aggregate": aggregate}
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep_summary.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return report


def expand_sweep_file(raw: dict) -> list[ExperimentConfig]:
    """Config list from a sweep spec: explicit list or base + axis grid."""
    if "configs" in raw:
        return [ExperimentConfig.from_dict(item) for item in raw["configs"]]
    if "base" not in raw:
        raise ConfigError("sweep file needs 'configs' or 'base'")
    base = raw["base"]
    axes = raw.get("sweep", {})
    extra = set(raw) - {"base", "sweep"}
    if extra:
        raise ConfigError(f"unknown sweep keys: {sorted(extra)}")
    configs = [dict(base)]
    for key, values in axes.items():
        configs = [dict(c, **{key: v}) for c in configs for v in values]
    return [ExperimentConfig.from_dict(c) for c in configs]
