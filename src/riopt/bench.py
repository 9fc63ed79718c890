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
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .games import (
    ZeroSumGame,
    make_spd_dataset,
    ne_diagnostics,  # noqa: F401 - kept importable from riopt.bench
    play_round_rows,
    quad_logdet_game,
    rceg_step,  # noqa: F401 - kept importable from riopt.bench
    rgda_step,  # noqa: F401 - kept importable from riopt.bench
    robust_pca_game,
    rogda_init,
    rogda_step,  # noqa: F401 - kept importable from riopt.bench
)
from .geometry import (
    GeometryError,
    Manifold,
    Point,
    TangentVector,
    frechet_mean,  # noqa: F401 - kept importable from riopt.bench
    frechet_mean_rows,
    sigma_constant,
    zeta_constant,
)
from .manifolds import SPD, Euclidean, Hyperbolic, Sphere
from .online import (
    MetaWeights,
    aoogd_commit,
    aoogd_configure,
    aoogd_update,
    rogd_step,
    roogd_corrected_init,
    roogd_corrected_step,
    roogd_init,
    roogd_init_rows,
    roogd_step,
)
from .streams import (
    TAG_INIT,
    FrechetMeanLoss,
    child_rng,
    fixed_probe_points,
    gen_frechet_stream,
)
from .verify import (
    correction_blowup_trace,
    fd_gradient_check,
    holonomy_suite,
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

# Rounds per block of frechet's comparator track. Its stacked temporaries are
# a few (block, n_points, dim + 1) arrays, so their memory does not grow with T.
COMPARATOR_BLOCK = 128


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# numpy's largest index: a size above it cannot shape an array.
INDEX_MAX = int(np.iinfo(np.intp).max)

# The numeric fields of ExperimentConfig and the values each admits: an
# integer or a finite real, with an optional lower bound, inclusive (">=") or
# strict (">"), and for the sizes of arrays the upper bound INDEX_MAX.
# v_t_bound may also be None.
NUMBER_FIELDS = {
    **{
        name: (int, ">=", 1, INDEX_MAX)
        for name in ("T", "dim", "n_points", "d", "n_samples", "n_triangles")
    },
    "S": (int, ">=", 1),
    "seed": (int, ">=", 0),
    "drift": (float, ">=", 0),
    "ball_radius": (float, ">=", 0),
    # the step-size constants of raoogd divide by the center diameter
    "center_diam": (float, ">", 0),
    "v_t_bound": (float, ">", 0),
    "c1": (float, ">=", 0),
    "eig_low": (float, ">", 0),
    **{name: (float, None, None) for name in ("c2", "alpha", "eig_high")},
}


def check_number(field: str, value, kind: type, op=None, bound=None, most=None) -> None:
    """Raise ConfigError unless ``value`` is an integer (``kind`` int) or a
    finite real number (``kind`` float), not a bool, ``value op bound`` and,
    if ``most`` is given, ``value <= most``."""
    ok = isinstance(value, numbers.Integral if kind is int else numbers.Real)
    try:
        ok = ok and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        ok = False
    if (
        not ok
        or (op == ">=" and value < bound)
        or (op == ">" and value <= bound)
        or (most is not None and value > most)
    ):
        what = "an integer" if kind is int else "a finite real number"
        limit = "" if op is None else f" {op} {bound}"
        limit += "" if most is None else f" and <= {most}"
        raise ConfigError(f"{field} must be {what}{limit}, got {value!r}")


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

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        for name, rule in NUMBER_FIELDS.items():
            if name != "v_t_bound" or self.v_t_bound is not None:
                check_number(name, getattr(self, name), *rule)
        if self.mode not in ("abrupt", "drift"):
            raise ConfigError(f"mode must be 'abrupt' or 'drift', got {self.mode!r}")
        if self.experiment == "robust_pca" and self.d < 2:
            raise ConfigError(
                f"d must be >= 2 for robust_pca (the max player lives on S^(d-1)), got {self.d}"
            )
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
            if spec.eta is not None:
                check_number(f"algorithm {spec.name!r}: eta", spec.eta, float, ">", 0)
        names = [spec.name for spec in algs]
        if len(set(names)) < len(names):
            raise ConfigError(f"each algorithm may be listed once, got {names}")
        object.__setattr__(self, "algorithms", tuple(algs))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {raw!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(raw)
        if "algorithms" in data and data["algorithms"] is not None:
            if not isinstance(data["algorithms"], (list, tuple)):
                raise ConfigError(f"algorithms must be a list, got {data['algorithms']!r}")
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


def frechet_manifold(cfg: ExperimentConfig) -> Manifold:
    """The space of the frechet experiment: H^dim."""
    return Hyperbolic(cfg.dim)


def _constants_at(cfg: ExperimentConfig, D: float, G: float) -> FrechetConstants:
    """The constants at diameter D and gradient bound G: the loss Hessian
    within a region of diameter D is bounded by the distortion at that
    scale, so L = zeta0 = zeta(kappa, D), and sigma0 = sigma(K, D), where
    kappa <= K are the curvature bounds of ``frechet_manifold``."""
    curv = frechet_manifold(cfg).curvature
    zeta0 = zeta_constant(curv.kappa, D)
    return FrechetConstants(D0=D, G=G, L=zeta0, sigma0=sigma_constant(curv.K, D), zeta0=zeta0)


def frechet_constants(cfg: ExperimentConfig) -> FrechetConstants:
    """Conservative region-scale constants for the fixed-step safety caps:
    D0 = G is the a-priori diameter of the region containing clouds,
    comparators and iterates."""
    D0 = cfg.center_diam + 2.0 * cfg.ball_radius
    return _constants_at(cfg, D0, D0)


def frechet_meta_constants(cfg: ExperimentConfig) -> FrechetConstants:
    """Experiment-scale constants for the adaptive learner's step-size grid.

    The pool is a search grid, not a safety cap: it is configured at the
    scale the environment actually moves (center-set diameter D, gradients of
    the cloud scale), so it brackets the empirically good steps; the hedge
    then adapts within it. The top of the grid still sits near the
    corresponding theoretical cap by construction.
    """
    return _constants_at(cfg, cfg.center_diam, cfg.center_diam / 2.0 + cfg.ball_radius)


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
    if out is not None:
        write_outputs(result, Path(out))
    return result


def write_outputs(result: BenchResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "results.csv"
    if result.rows:
        csv.write_text(result.csv_text(), encoding="utf-8", newline="")
    else:  # a run without rows leaves no earlier run's rows beside its summary
        csv.unlink(missing_ok=True)
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
    """Online learner ``name`` started at x0, as ``(commit, update)`` callables.

    Round protocol: before the round's loss is touched, ``commit(prev_loss)``
    returns the (k, ambient) rows the learner needs the loss's gradients at,
    its played point x_t the last row: x_t alone for R-OGD, R-OOGD and the
    corrected variant, R-AOOGD's experts and then x_t (``aoogd_commit``).
    ``prev_loss`` is None in round 1; only R-AOOGD reads it, for its
    optimism. The runner takes every learner's rows from one ``loss.grad``
    call, and ``update(grads)`` advances the learner from the gradients at
    its rows. R-AOOGD ignores ``eta`` and hedges over its own pool of R-OOGD
    experts, which advance as one stacked step (``aoogd_update``).
    """
    if name == "raoogd":
        mc = frechet_meta_constants(cfg)
        # the hedge rate wants the true gradient variation, which is not
        # causal; default to the sqrt-horizon scale (slowly mixing stream)
        v_bound = cfg.v_t_bound if cfg.v_t_bound is not None else mc.G**2 * math.sqrt(cfg.T)
        try:
            pool, beta = aoogd_configure(cfg.T, mc.D0, mc.G, mc.L, mc.sigma0, mc.zeta0, v_bound)
        except ValueError as exc:
            raise ConfigError(f"raoogd at center_diam={cfg.center_diam!r}: {exc}")
        experts = roogd_init_rows(manifold, x0, pool.etas)
        weights = MetaWeights.uniform(pool.N)
        logs_play = None

        def commit(prev_loss):
            nonlocal logs_play, weights
            prev_grad = prev_loss.grad if prev_loss is not None else None
            logs_play, weights = aoogd_commit(manifold, experts, weights, beta, prev_grad)
            return np.vstack([experts.x_cur.coords, logs_play.base.coords])

        def update(grads):
            nonlocal experts, weights
            experts, weights = aoogd_update(manifold, experts, weights, logs_play, grads)

        return commit, update

    if name == "rogd":
        state = x0
        point = lambda s: s  # noqa: E731
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

    def update(grads):
        nonlocal state
        state = advance(state, TangentVector(point(state), grads[0]))

    return (lambda _: point(state).coords[None]), update


def _comparator_track(manifold: Manifold, losses: list) -> tuple[np.ndarray, ...]:
    """u_t = argmin f_t of every round, its value f_t(u_t) and, from round 2
    on, the gradients of f_t and f_{t-1} at u_t.

    Solved on stacks, COMPARATOR_BLOCK rounds at a time: the block's Karcher
    means in one ``frechet_mean_rows`` iteration, then one ``value`` and two
    ``grad`` calls on its stacked losses (row t paired with u_t).
    Every row agrees with the per-round call to rounding, and the first
    failing round raises its own error.
    """
    T, shape = len(losses), losses[0].targets.shape[1:]
    comps, vals = np.empty((T,) + shape), np.empty(T)
    now, before = np.empty((T - 1,) + shape), np.empty((T - 1,) + shape)
    for i in range(0, T, COMPARATOR_BLOCK):
        # the block's clouds, after the first block with round i - 1 ahead
        lo, j = max(i - 1, 0), min(i + COMPARATOR_BLOCK, T)
        clouds = np.stack([loss.targets for loss in losses[lo:j]])
        u = frechet_mean_rows(manifold, clouds[i - lo :])
        comps[i:j] = u.coords
        vals[i:j] = FrechetMeanLoss(manifold, clouds[i - lo :]).value(u)
        k = max(i, 1)
        u_k = Point(comps[k:j], manifold.manifold_id)
        now[k - 1 : j - 1] = FrechetMeanLoss(manifold, clouds[k - lo :]).grad(u_k).coords
        prev = FrechetMeanLoss(manifold, clouds[k - 1 - lo : j - 1 - lo])
        before[k - 1 : j - 1] = prev.grad(u_k).coords
    return comps, vals, now, before


def _run_frechet(cfg: ExperimentConfig) -> tuple[list, dict]:
    manifold = frechet_manifold(cfg)
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
    probe_stack = Point(np.stack([p.coords for p in probes]), manifold.manifold_id)

    etas = _step_sizes(cfg)
    players = {
        name: _online_learner(cfg, name, manifold, anchor, eta) for name, eta in etas.items()
    }
    cum_loss = dict.fromkeys(players, 0.0)
    grad_variation = dict.fromkeys(players, 0.0)
    max_dist = dict.fromkeys(players, 0.0)

    # The comparator u_t = argmin f_t depends on no learner, so its whole
    # track comes first, and a comparator failure at any round is raised
    # before the learners play round 1. Its running loss and path length
    # are summed once for every learner, in round order, as cumsum adds.
    comps, comp_vals, comp_now, comp_before = _comparator_track(manifold, stream.losses)
    later = Point(comps[1:], manifold.manifold_id)
    hops = manifold.dist(later, Point(comps[:-1], manifold.manifold_id))
    path_length = np.cumsum(np.concatenate(([0.0], hops)))[-1].item()
    comp_cum = np.cumsum(comp_vals).tolist()
    # the squared change of the comparator's gradient, rounds 2 to T
    comp_change = TangentVector(later, comp_now - comp_before)
    comp_vts = [v**2 for v in manifold.norm(later, comp_change).tolist()]

    # Each round, every learner commits its rows before the loss is touched,
    # and one grad call on the fixed probes and those rows gives every
    # gradient under this loss; each learner then advances from its slice.
    # The gradient variation at the shared probes (the fixed points and the
    # comparator) is computed once; each learner then folds in only its own
    # point. The probes never move, so each loss's probe gradients also
    # serve as the next round's previous values.
    rows: list[ResultRow] = []
    prev_loss = prev_probe_grads = None
    for t in range(1, cfg.T + 1):
        loss = stream.losses[t - 1]
        committed = [commit(prev_loss) for commit, _ in players.values()]
        stack = np.concatenate([probe_stack.coords, *committed])
        grads = loss.grad(Point(stack, manifold.manifold_id)).coords
        ends = N_FIXED_PROBES + np.cumsum([len(c) for c in committed])
        for (_, update), c, end in zip(players.values(), committed, ends):
            update(grads[end - len(c) : end])
        shared_vt = 0.0
        if prev_loss is not None:
            change = TangentVector(probe_stack, grads[:N_FIXED_PROBES] - prev_probe_grads)
            probe_vts = [v**2 for v in manifold.norm(probe_stack, change).tolist()]
            shared_vt = max(probe_vts + [comp_vts[t - 2]])

        # each per-learner quantity from one call on the stacked points, row
        # i the single call at learner i's point to rounding
        xs = Point(np.stack([c[-1] for c in committed]), manifold.manifold_id)
        gs = TangentVector(xs, grads[ends - 1])
        inst = loss.value(xs).tolist()
        grad_norms = manifold.norm(xs, gs).tolist()
        anchor_dists = manifold.dist(xs, anchor).tolist()
        vts = [shared_vt] * len(committed)
        if prev_loss is not None:
            change = TangentVector(xs, gs.coords - prev_loss.grad(xs).coords)
            vts = [max(shared_vt, v**2) for v in manifold.norm(xs, change).tolist()]
        for name, val, norm, dist, vt in zip(players, inst, grad_norms, anchor_dists, vts):
            cum = cum_loss[name] = cum_loss[name] + val
            grad_variation[name] += vt
            max_dist[name] = max(max_dist[name], dist)
            rows.append(ResultRow(t, name, val, cum, cum - comp_cum[t - 1], norm))
        prev_loss = loss
        prev_probe_grads = grads[:N_FIXED_PROBES]

    summary = {
        "experiment": cfg.experiment,
        "T": cfg.T,
        "seed": cfg.seed,
        "comparator_path_length": path_length,
        "constants": dataclasses.asdict(frechet_constants(cfg)),
        "algorithms": {},
    }
    for name in players:
        summary["algorithms"][name] = {
            "eta": etas[name],
            "final_cumulative_loss": cum_loss[name],
            "final_cumulative_regret": cum_loss[name] - comp_cum[-1],
            "comparator_cumulative_loss": comp_cum[-1],
            "grad_variation_estimate": grad_variation[name],
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


def _run_game(cfg: ExperimentConfig) -> tuple[list, dict]:
    """Run every configured game solver from the shared start z0.

    Round protocol (``games.play_round_rows``): the solvers' points z_t are
    the rows of one stack, in the configured order, and each stage of the
    round runs once, as one call on the stack of the solvers that take part
    in it. Row i of each call agrees with solver i's single call (see
    ``games``), and each solver's rows are those it gives alone. Round 1
    stacks z0 once per solver.
    If a stacked stage fails (GeometryError, a numpy linear-algebra error,
    or a floating-point overflow, invalid value or division by zero), the
    round is replayed solver by solver, ``play_round_rows`` on each one-row
    stack in the configured order and under the same floating-point
    setting, so the error raised is the one the first failing solver meets
    alone.
    """
    game = build_game(cfg)
    z0 = game_initial_point(cfg, game)

    etas = _step_sizes(cfg)
    Z = game.space.stack([z0] * len(etas))
    avg = rogda_init(game, z0)
    cum = dict.fromkeys(etas, 0.0)

    rows: list[ResultRow] = []
    for t in range(1, cfg.T + 1):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                Z, avg, vals, norms = play_round_rows(game, etas, Z, avg)
            except (GeometryError, FloatingPointError, np.linalg.LinAlgError):
                new, vals, norms = [], [], []
                for i, (name, eta) in enumerate(etas.items()):
                    row = Point(Z.coords[i : i + 1], Z.manifold_id)
                    out, avg, val, norm = play_round_rows(game, {name: eta}, row, avg)
                    new.append(out.coords)
                    vals += val
                    norms += norm
                Z = Point(np.concatenate(new), Z.manifold_id)
        for name, inst, gn in zip(etas, vals, norms):
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
    for name in etas:
        gns = np.array([r.grad_norm for r in rows if r.algorithm == name])
        entry = {
            "eta": etas[name],
            "final_cumulative_loss": cum[name],
            "final_cumulative_regret": cum[name],
            "grad_norm_final": float(gns[-1]),
            "grad_norm_min": float(gns.min()),
        }
        if name == "rogda":
            entry["ne_residual"] = [float(r) for r in game.residual(avg.z_cur)]
            entry["ne_residual_averaged"] = [float(r) for r in game.residual(avg.z_bar)]
            entry["best_grad_norm"] = entry["grad_norm_min"]
        summary["algorithms"][name] = entry
    return rows, summary


def run_verification(cfg: ExperimentConfig) -> dict:
    """Geometry property suites plus the analytic-gradient oracles."""
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

    rng = child_rng(cfg.seed, TAG_INIT, 7)
    checks["holonomy_sphere"] = holonomy_suite(Sphere(2), 200, 0.01, rng)

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
    """Config list from a sweep spec: explicit list or base + axis grid.

    ``{"configs": [config, ...]}`` lists the runs. ``{"base": config,
    "sweep": {field: [value, ...], ...}}`` runs every combination of the
    axis values over the base. Any other shape is a ConfigError.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"a sweep file must be a JSON object, got {raw!r}")
    mode = {"configs"} if "configs" in raw else {"base", "sweep"}
    extra = set(raw) - mode
    if extra:
        raise ConfigError(f"unknown sweep keys: {sorted(extra)}")
    if "configs" in raw:
        items = raw["configs"]
        if not isinstance(items, list) or not items:
            raise ConfigError(f"sweep 'configs' must be a nonempty list, got {items!r}")
        return [ExperimentConfig.from_dict(item) for item in items]
    if "base" not in raw:
        raise ConfigError("sweep file needs 'configs' or 'base'")
    base, axes = raw["base"], raw.get("sweep", {})
    if not isinstance(base, dict):
        raise ConfigError(f"sweep 'base' must be a config object, got {base!r}")
    if not isinstance(axes, dict):
        raise ConfigError(f"sweep 'sweep' must map fields to value lists, got {axes!r}")
    configs = [base]
    for key, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {key!r} must be a nonempty list, got {values!r}")
        configs = [dict(c, **{key: v}) for c in configs for v in values]
    return [ExperimentConfig.from_dict(c) for c in configs]
