"""Experiment runner: seeded synthetic benchmarks with CSV/JSON emission.

Reruns with an identical config and seed produce byte-identical CSV output;
wall-clock timing is therefore opt-in (``record_timing``) and kept out of the
default artifacts. Experiments: the moving Frechet-mean stream on hyperbolic
space, the quadratic logdet game, synthetic robust PCA, and the geometry
verification suite.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
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
    FrechetMeanError,
    GeometryError,
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

CSV_HEADER = "round,algorithm,instantaneous_loss,cumulative_loss,cumulative_regret,grad_norm,wall_micros"

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
    record_timing: bool = False

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
        allowed = self._allowed_algorithms()
        algs = self.algorithms or self._default_algorithms()
        for spec in algs:
            if spec.name not in allowed:
                raise ConfigError(
                    f"algorithm {spec.name!r} not valid for {self.experiment} "
                    f"(allowed: {allowed})"
                )
            if spec.eta is not None and spec.eta <= 0:
                raise ConfigError(f"algorithm {spec.name!r}: eta must be positive")
        object.__setattr__(self, "algorithms", tuple(algs))

    def _allowed_algorithms(self) -> tuple[str, ...]:
        if self.experiment == "frechet":
            return ONLINE_ALGORITHMS
        if self.experiment in ("quadgame", "robust_pca"):
            return GAME_ALGORITHMS
        return ()

    def _default_algorithms(self) -> tuple[AlgorithmSpec, ...]:
        if self.experiment == "frechet":
            return (AlgorithmSpec("rogd"), AlgorithmSpec("roogd"), AlgorithmSpec("raoogd"))
        if self.experiment == "quadgame":
            return (AlgorithmSpec("rogda"), AlgorithmSpec("rgda"), AlgorithmSpec("rceg"))
        if self.experiment == "robust_pca":
            return (AlgorithmSpec("rogda"),)
        return ()

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
    wall_micros: int

    def to_csv(self) -> str:
        return (
            f"{self.round},{self.algorithm},{self.instantaneous_loss!r},"
            f"{self.cumulative_loss!r},{self.cumulative_regret!r},"
            f"{self.grad_norm!r},{self.wall_micros}"
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


def quadgame_reference_eta(c1: float) -> float:
    return 0.5 if c1 < 0.25 else 0.2


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
        return quadgame_reference_eta(cfg.c1) / cfg.d**2
    if cfg.experiment == "robust_pca":
        return 0.07
    return None


def run_experiment(cfg: ExperimentConfig, out: Optional[str] = None) -> BenchResult:
    """Run one experiment; write CSV + summary JSON when an out dir is given."""
    if cfg.experiment == "frechet":
        rows, summary = _run_frechet(cfg)
    elif cfg.experiment == "quadgame" or cfg.experiment == "robust_pca":
        rows, summary = _run_game(cfg)
    elif cfg.experiment == "verify":
        rows, summary = [], run_verification(cfg)
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    result = BenchResult(config=cfg, rows=rows, summary=summary)
    target = out or cfg.out
    if target is not None:
        write_outputs(result, Path(target))
    return result


def write_outputs(result: BenchResult, out_dir: Path) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    if result.rows:
        csv_path = out_dir / "results.csv"
        csv_path.write_text(result.csv_text(), encoding="utf-8", newline="")
        paths["csv"] = str(csv_path)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(
        json.dumps(result.summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    paths["summary"] = str(summary_path)
    config_path = out_dir / "config.json"
    config_path.write_text(
        json.dumps(result.config.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    paths["config"] = str(config_path)
    return paths


def _now_micros() -> int:
    return time.perf_counter_ns() // 1000


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
    consts = frechet_constants(cfg)
    probe_radius = cfg.center_diam / 2.0 + cfg.ball_radius
    probes = fixed_probe_points(manifold, anchor, probe_radius, N_FIXED_PROBES, cfg.seed)

    x0 = anchor
    states: dict[str, dict] = {}
    for spec in cfg.algorithms:
        eta = spec.eta if spec.eta is not None else default_eta(cfg, spec.name)
        st: dict = {"eta": eta, "ledger": RegretLedger(), "max_dist": 0.0}
        if spec.name == "rogd":
            st["x"] = x0
        elif spec.name == "roogd":
            st["state"] = roogd_init(manifold, x0, eta)
        elif spec.name == "roogd_corrected":
            st["state"] = roogd_corrected_init(manifold, x0, eta)
        elif spec.name == "raoogd":
            mc = frechet_meta_constants(cfg)
            # the hedge rate wants the true gradient variation, which is not
            # causal; default to the sqrt-horizon scale (slowly mixing stream)
            v_bound = (
                cfg.v_t_bound
                if cfg.v_t_bound is not None
                else mc.G**2 * math.sqrt(cfg.T)
            )
            pool, beta = aoogd_configure(
                cfg.T, mc.D0, mc.G, mc.L, mc.sigma0, mc.zeta0, v_bound
            )
            st["experts"] = [roogd_init(manifold, x0, e) for e in pool.etas]
            st["weights"] = MetaWeights.uniform(pool.N)
            st["beta"] = beta
        states[spec.name] = st

    # The probes never move, so each loss's probe gradients are computed once
    # and serve as the next round's previous-loss values.
    rows: list[ResultRow] = []
    prev_loss = None
    prev_probe_grads: list = []
    u_prev = None
    for t in range(1, cfg.T + 1):
        loss = stream.losses[t - 1]
        u_t = frechet_mean(manifold, loss.point_list())
        comp_val = loss.value(u_t)
        probe_grads = [loss.grad(p) for p in probes]
        shared_pairs = []
        if prev_loss is not None:
            shared_pairs = list(zip(probe_grads, prev_probe_grads))
            shared_pairs.append((loss.grad(u_t), prev_loss.grad(u_t)))
        for spec in cfg.algorithms:
            st = states[spec.name]
            tic = _now_micros() if cfg.record_timing else 0
            if spec.name == "raoogd":
                x_t, st["experts"], st["weights"], diag = aoogd_round(
                    manifold,
                    st["experts"],
                    st["weights"],
                    st["beta"],
                    loss.grad,
                    prev_loss.grad if prev_loss is not None else None,
                )
                g_t = diag.g_play
            else:
                x_t = st["x"] if spec.name == "rogd" else st["state"].x_cur
                g_t = loss.grad(x_t)
            inst = loss.value(x_t)
            pairs = shared_pairs
            if prev_loss is not None:
                pairs = shared_pairs + [(g_t, prev_loss.grad(x_t))]
            st["ledger"] = regret_update(
                st["ledger"], inst, comp_val, u_t, u_prev, pairs, manifold
            )
            st["max_dist"] = max(st["max_dist"], manifold.dist(x_t, anchor))
            if spec.name == "rogd":
                st["x"] = rogd_step(manifold, x_t, g_t, st["eta"])
            elif spec.name == "roogd":
                st["state"] = roogd_step(manifold, st["state"], g_t)
            elif spec.name == "roogd_corrected":
                st["state"] = roogd_corrected_step(manifold, st["state"], g_t)
            wall = (_now_micros() - tic) if cfg.record_timing else 0
            led = st["ledger"]
            rows.append(
                ResultRow(
                    round=t,
                    algorithm=spec.name,
                    instantaneous_loss=inst,
                    cumulative_loss=led.cum_alg_loss,
                    cumulative_regret=led.regret,
                    grad_norm=manifold.norm(x_t, g_t),
                    wall_micros=wall,
                )
            )
        prev_loss = loss
        prev_probe_grads = probe_grads
        u_prev = u_t

    any_ledger = next(iter(states.values()))["ledger"]
    summary = {
        "experiment": cfg.experiment,
        "T": cfg.T,
        "seed": cfg.seed,
        "comparator_path_length": any_ledger.path_length,
        "constants": dataclasses.asdict(consts),
        "algorithms": {},
    }
    for spec in cfg.algorithms:
        st = states[spec.name]
        led = st["ledger"]
        summary["algorithms"][spec.name] = {
            "eta": st["eta"],
            "final_cumulative_loss": led.cum_alg_loss,
            "final_cumulative_regret": led.regret,
            "comparator_cumulative_loss": led.cum_comparator_loss,
            "grad_variation_estimate": led.grad_variation,
            "max_dist_to_center": st["max_dist"],
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


def _run_game(cfg: ExperimentConfig) -> tuple[list, dict]:
    game = build_game(cfg)
    z0 = game_initial_point(cfg, game)
    m = game.space

    states: dict[str, dict] = {}
    for spec in cfg.algorithms:
        eta = spec.eta if spec.eta is not None else default_eta(cfg, spec.name)
        st = {"eta": eta, "grad_norms": []}
        if spec.name == "rogda":
            st["state"] = rogda_init(game, z0)
        else:
            st["z"] = z0
        states[spec.name] = st

    rows: list[ResultRow] = []
    for t in range(1, cfg.T + 1):
        for spec in cfg.algorithms:
            st = states[spec.name]
            tic = _now_micros() if cfg.record_timing else 0
            if spec.name == "rogda":
                z_t = st["state"].z_cur
            else:
                z_t = st["z"]
            inst = game.value(z_t)
            F = game.field(z_t)
            gn = m.norm(z_t, F)
            st["grad_norms"].append(gn)
            if spec.name == "rogda":
                st["state"] = rogda_step(game, st["state"], st["eta"], F)
            elif spec.name == "rgda":
                st["z"] = rgda_step(game, z_t, st["eta"], F)
            else:
                st["z"] = rceg_step(game, z_t, st["eta"], F)
            wall = (_now_micros() - tic) if cfg.record_timing else 0
            cum = st.get("cum", 0.0) + inst
            st["cum"] = cum
            rows.append(
                ResultRow(
                    round=t,
                    algorithm=spec.name,
                    instantaneous_loss=inst,
                    cumulative_loss=cum,
                    # games play against the equilibrium value 0, so the
                    # regret column coincides with the cumulative payoff
                    cumulative_regret=cum,
                    grad_norm=gn,
                    wall_micros=wall,
                )
            )

    summary = {
        "experiment": cfg.experiment,
        "T": cfg.T,
        "seed": cfg.seed,
        "comparator_path_length": 0.0,
        "algorithms": {},
    }
    for spec in cfg.algorithms:
        st = states[spec.name]
        gns = np.array(st["grad_norms"])
        entry = {
            "eta": st["eta"],
            "final_cumulative_loss": st["cum"],
            "final_cumulative_regret": st["cum"],
            "grad_norm_final": float(gns[-1]),
            "grad_norm_min": float(gns.min()),
        }
        if spec.name == "rogda":
            final_state = st["state"]
            entry["ne_residual"] = [float(r) for r in game.residual(final_state.z_cur)]
            entry["ne_residual_averaged"] = [
                float(r) for r in game.residual(final_state.z_bar)
            ]
            entry["best_grad_norm"] = entry["grad_norm_min"]
        summary["algorithms"][spec.name] = entry
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
