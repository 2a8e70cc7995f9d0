"""Command-line orchestration: config parsing, dispatch, CSV serialization.

Usage: rsmfg <mode> --config <path> [--out <dir>] with mode one of
solve-single, verify-single, solve-mfg, simulate-population, nash-gap,
reproduce-paper.  Configs are JSON; cost matrices may be given
either with an explicit per-agent risk loading "delta" or with
"raw_exponent": true, meaning the quadratic weights are the literal
exponent coefficients (loaded as delta=2 so that delta/2 equals one).
All emitted CSVs are long-format and byte-stable for a fixed config.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import importlib.resources
import io
import json
import operator
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    FiniteEscape,
    NonFiniteState,
    NotConverged,
    ParseError,
)
from .mfg import equilibrium_laws, solve_consistency
from .model import (
    LqgProblem,
    MajorMinorSpec,
    MajorParams,
    MinorTypeParams,
    validate_game,
    validate_single,
)
from .montecarlo import (
    _run_paths,
    as_control_law,
    check_martingale_quotient,
    is_deterministic,
    normalization_report,
    optimal_cost_report,
    path_blocks,
    quotient_report,
)
from .numerics import MatrixTrajectory, TimeGrid, state_transition
from .population import (
    apportion,
    finite_cost,
    nash_gap,
    simulate_population,
    summarize_fluctuations,
)
from .riccati import solve

MODES = ("solve-single", "verify-single", "solve-mfg",
         "simulate-population", "nash-gap", "reproduce-paper")
STOCHASTIC_MODES = ("verify-single", "simulate-population", "nash-gap")
# the fields the parser reads from each section and each model document;
# any other field is a ParseError, whatever the mode
SECTIONS = {"grid": ("steps",), "montecarlo": ("n_paths", "seed"),
            "fixedpoint": ("tol", "relaxation", "max_iter"),
            "population": ("N", "N_schedule", "n_reps", "agent"),
            "output": ("directory",)}
MODEL_FIELDS = {
    "single": ("type", "T", "raw_exponent", "A", "B", "b", "sigma", "Q",
               "S", "R", "eta", "zeta", "Q_hat", "delta", "x0"),
    "major_minor": ("type", "T", "raw_exponent", "n", "m", "r", "pi",
                    "major", "minors")}
AGENT_FIELDS = ("A", "F", "B", "b", "sigma", "Q", "S", "R", "Q_hat", "H",
                "eta", "delta", "x0")
MINOR_FIELDS = AGENT_FIELDS + ("G", "H_hat")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_CONVERGED = 3
EXIT_FINITE_ESCAPE = 4
EXIT_NON_FINITE = 5

RAW_EXPONENT_DELTA = 2.0


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    mode: str
    model: object                 # LqgProblem or MajorMinorSpec
    grid: TimeGrid
    montecarlo: dict
    fixedpoint: dict
    population: dict
    output: dict
    raw: dict                     # the config document as read


@dataclass
class ResultBundle:
    """In-memory results: manifest, named CSV tables, convergence log."""

    manifest: dict
    tables: dict = field(default_factory=dict)   # name -> CSV text
    convergence: list = field(default_factory=list)


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be a JSON object")
    if key not in doc:
        raise ParseError(f"{where}: missing field '{key}'")
    return doc[key]


def _known(doc, fields, where: str) -> dict:
    """doc, a JSON object whose every field is among fields."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ParseError(f"{where}: unknown field '{unknown[0]}'")
    return doc


def _numbers_only(value) -> bool:
    """Whether a JSON value holds no string or boolean at any depth."""
    if isinstance(value, list):
        return all(map(_numbers_only, value))
    return not isinstance(value, (str, bool))


def _array(value, where: str) -> np.ndarray:
    """A config value as a finite float array; ParseError names the field.

    Strings and booleans are refused element by element: numpy would
    read "1" and true as numbers, and upcast [true, 1] silently.
    """
    try:
        if not _numbers_only(value):
            raise ValueError
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{where} must be a number or a rectangular array"
                         " of numbers") from None
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{where} must be finite")
    return arr


def _number(value, where: str) -> float:
    arr = _array(value, where)
    if arr.ndim:
        raise ParseError(f"{where} must be a number")
    return float(arr)


def _getter(doc: dict, where: str):
    """get(key[, default]): doc[key] as a float array, named where.key."""
    def get(key, default=None):
        value = (_require(doc, key, where) if default is None
                 else doc.get(key, default))
        return _array(value, f"{where}.{key}")
    return get


def _coefficient(value, grid: TimeGrid, where: str):
    """A constant array, or {"nodes": [...]} sampled on the grid nodes."""
    if isinstance(value, dict):
        _known(value, ("nodes",), where)
        arr = _array(_require(value, "nodes", where), where + ".nodes")
        if arr.ndim == 0 or arr.shape[0] != grid.steps + 1:
            raise ParseError(
                f"{where}: node array needs {grid.steps + 1} entries")
        return MatrixTrajectory(grid, arr)
    return _array(value, where)


def _agent_delta(doc: dict, raw_exponent: bool, where: str) -> float:
    if raw_exponent:
        if "delta" in doc:
            raise ParseError(
                f"{where}: 'delta' conflicts with raw_exponent form")
        return RAW_EXPONENT_DELTA
    return _number(_require(doc, "delta", where), where + ".delta")


def _parse_single(doc: dict, grid: TimeGrid) -> LqgProblem:
    _known(doc, MODEL_FIELDS["single"], "model")
    raw_exp = doc.get("raw_exponent", False)
    get = _getter(doc, "model")
    x0 = get("x0").reshape(-1)
    n = x0.size
    B = get("B")
    if n == 0 or B.size % n:
        raise ParseError("model.B needs one row per state component")
    B = B.reshape(1, 1) if B.ndim == 0 else B.reshape(n, -1)
    m = B.shape[1]
    return LqgProblem(
        A=_coefficient(_require(doc, "A", "model"), grid, "model.A"),
        B=B,
        b=_coefficient(doc.get("b", np.zeros(n)), grid, "model.b"),
        sigma=_coefficient(_require(doc, "sigma", "model"), grid,
                           "model.sigma"),
        Q=get("Q"), S=get("S", np.zeros((n, m))), R=get("R"),
        eta=get("eta", np.zeros(n)).reshape(-1),
        zeta=get("zeta", np.zeros(m)).reshape(-1),
        Q_hat=get("Q_hat"),
        delta=_agent_delta(doc, raw_exp, "model"),
        x0=x0,
        T=grid.t_end,
    )


def _agent(cls, doc: dict, where: str, grid: TimeGrid, n: int, m: int,
           raw_exp: bool):
    """The major's or one minor type's parameters; absent weights are 0."""
    _known(doc, MINOR_FIELDS if cls is MinorTypeParams else AGENT_FIELDS,
           where)
    get = _getter(doc, where)
    params = dict(
        A=get("A"), F=get("F"), B=get("B"),
        b=_coefficient(doc.get("b", np.zeros(n)), grid, where + ".b"),
        sigma=_coefficient(_require(doc, "sigma", where), grid,
                           where + ".sigma"),
        Q=get("Q"), S=get("S", np.zeros((n, m))), R=get("R"),
        Q_hat=get("Q_hat", np.zeros((n, n))),
        H=get("H", np.zeros((n, n))),
        eta=get("eta", np.zeros(n)),
        delta=_agent_delta(doc, raw_exp, where),
        x0=get("x0"),
    )
    if cls is MinorTypeParams:
        params.update(G=get("G"), H_hat=get("H_hat", np.zeros((n, n))))
    return cls(**params)


def _parse_game(doc: dict, grid: TimeGrid) -> MajorMinorSpec:
    _known(doc, MODEL_FIELDS["major_minor"], "model")
    raw_exp = doc.get("raw_exponent", False)
    n, m, r = (_at_least(_require(doc, key, "model"), 1, f"model.{key}")
               for key in ("n", "m", "r"))
    major = _agent(MajorParams, _require(doc, "major", "model"), "major",
                   grid, n, m, raw_exp)
    kdocs = _require(doc, "minors", "model")
    if not isinstance(kdocs, list):
        raise ParseError("model.minors must be a list")
    minors = [_agent(MinorTypeParams, kdoc, f"minors[{i}]", grid, n, m,
                     raw_exp) for i, kdoc in enumerate(kdocs)]
    return MajorMinorSpec(
        major=major, minors=minors,
        pi=_array(_require(doc, "pi", "model"), "model.pi"),
        T=grid.t_end, n=n, m=m, r=r,
    )


def bundled_config(name: str) -> dict:
    """Load one of the packaged example configs by file name."""
    ref = importlib.resources.files("rsmfg") / "configs" / name
    return json.loads(ref.read_text())


def load_config(path, mode: str) -> ExperimentConfig:
    """Read, parse, and validate a JSON experiment config."""
    if mode not in MODES:
        raise ParseError(f"unknown mode '{mode}'")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}")
    except OSError as e:
        raise ParseError(f"cannot read config file {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise ParseError(f"config file {path} is not UTF-8 text")
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}")
    return parse_config(raw, mode)


def _at_least(value, minimum: int, where: str) -> int:
    # a JSON integer only: no float, numeric string or boolean
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where} must be an integer")
    if value < minimum:
        raise ParseError(f"{where} must be at least {minimum}")
    return value


def parse_config(raw: dict, mode: str) -> ExperimentConfig:
    _known(raw, ("model",) + tuple(SECTIONS), "config")
    docs = {name: _known(raw.get(name, {}), fields, name)
            for name, fields in SECTIONS.items()}
    if not isinstance(docs["output"].get("directory", ""), str):
        raise ParseError("output.directory must be a string")
    steps = _at_least(docs["grid"].get("steps", 2000), 2, "grid.steps")
    mc = dict(docs["montecarlo"])
    if "seed" in mc:
        mc["seed"] = _at_least(mc["seed"], 0, "montecarlo.seed")
        if mc["seed"] >= 2 ** 32:
            raise ParseError("montecarlo.seed must be below 2**32")
    elif mode in STOCHASTIC_MODES:
        raise ParseError("seed required")
    # relaxation 1 would keep the initial guess and call it converged
    fp = {key: _number(docs["fixedpoint"].get(key, default),
                       f"fixedpoint.{key}")
          for key, default in (("tol", 1e-10), ("relaxation", 0.0))}
    fp["max_iter"] = _at_least(docs["fixedpoint"].get("max_iter", 50), 1,
                               "fixedpoint.max_iter")
    if not (fp["tol"] > 0.0 and fp["relaxation"] < 1.0):
        raise ParseError("fixedpoint needs tol > 0 and relaxation < 1")

    model_doc = raw.get("model")
    if model_doc is None:
        if mode != "reproduce-paper":
            raise ParseError("missing field 'model'")
        model_doc = bundled_config("paper_example.json")["model"]
    kind = _require(model_doc, "type", "model")
    if not isinstance(model_doc.get("raw_exponent", False), bool):
        raise ParseError("model.raw_exponent must be true or false")
    # grid end time comes from the model horizon
    T = _number(_require(model_doc, "T", "model"), "model.T")
    if not T > 0.0:
        raise ParseError("model.T must be positive")
    grid = TimeGrid(t_end=T, steps=steps)
    if kind == "single":
        model = validate_single(_parse_single(model_doc, grid))
    elif kind == "major_minor":
        model = validate_game(_parse_game(model_doc, grid))
    else:
        raise ParseError(f"model.type must be 'single' or 'major_minor',"
                         f" got '{kind}'")
    single_modes = ("solve-single", "verify-single")
    if mode in single_modes and not isinstance(model, LqgProblem):
        raise ParseError(f"mode {mode} needs a 'single' model")
    if mode not in single_modes and isinstance(model, LqgProblem):
        raise ParseError(f"mode {mode} needs a 'major_minor' model")

    return ExperimentConfig(
        mode=mode, model=model, grid=grid,
        montecarlo=mc, fixedpoint=fp,
        population=dict(docs["population"]), output=dict(docs["output"]),
        raw=raw,
    )


def _config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _manifest(cfg: ExperimentConfig) -> dict:
    return {
        "mode": cfg.mode,
        "config": cfg.raw,
        "config_sha256": _config_hash(cfg.raw),
        "versions": {
            "rsmfg": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }


TRAJ_HEADER = ("time [problem units]", "entity", "component",
               "value [dimensionless]")


def _csv_line(*fields) -> str:
    """fields as one CSV line, quoted as csv.writer quotes them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _csv_table(header, rows) -> str:
    """A small table's CSV text, header line first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@functools.lru_cache(maxsize=1)
def _time_column(grid: TimeGrid) -> tuple:
    """The grid nodes as the time fields of trajectory rows."""
    return tuple(map(repr, grid.nodes.tolist()))


def _traj_csv(times: tuple, values, entity: str, *lead) -> str:
    """CSV lines (time, entity, component, value) of one trajectory.

    Times run outer and components inner, in index order, as csv.writer
    writes the rows (*lead, repr(float(t)), entity, component,
    repr(float(v))): the entity/component prefixes are quoted once,
    since a matrix component such as "0,1" holds the delimiter, and the
    values pass through one tolist() and repr.
    """
    values = np.asarray(values, dtype=float)
    prefixes = [_csv_line(entity, ",".join(map(str, ix)))[:-1]
                for ix in np.ndindex(*values.shape[1:])]
    heads = [f"{t},{p}," for t in times for p in prefixes]
    lead = _csv_line(*lead)[:-1] + "," if lead else ""
    return (lead + ("\n" + lead).join(
        map(operator.add, heads, map(repr, values.ravel().tolist())))
        + "\n")


def _traj_table(grid: TimeGrid, trajectories) -> str:
    """TRAJ_HEADER and the lines of every (values, entity) in turn."""
    times = _time_column(grid)
    return _csv_line(*TRAJ_HEADER) + "".join(
        _traj_csv(times, values, entity) for values, entity in trajectories)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


# A fork_map whose sizes sum to fewer path-steps or agent-steps than this
# runs in-process.  On a 2-core Xeon a three-job map of trivial jobs after
# a solve took 5.1 ms best, 6.0 ms mean, and two children at most halve
# the work.  The slowest jobs per step, two paths or two replications,
# took 10-20 ms per 1000 steps in-process (both ensembles of 1-d and 2-d
# verify-single) and 13-14 ms (nash-gap on the bundled game, N = 5), so
# forking saves at most 0-5 ms at 1000 steps and nothing below; jobs of
# more paths or replications run 1000 steps faster in-process.  The
# benchmark's smallest map is 2.6 M.
FORK_MIN_STEPS = 1000


def _forking() -> bool:
    """Whether work may go to forked processes: two usable CPUs and fork."""
    return _usable_cpus() >= 2 and hasattr(os, "fork")


class _Child:
    """fn() run in a forked child process, which inherits fn unpickled.

    The child pickles (True, fn()) or (False, the error fn raised) to an
    unnamed temporary file and leaves by os._exit.  A child that leaves
    without an outcome (killed, by os._exit, or with an outcome that does
    not pickle) makes result() raise a RuntimeError naming its wait status.
    """

    def __init__(self, fn):
        self.file = tempfile.TemporaryFile()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                try:
                    outcome = True, fn()
                except Exception as e:
                    import traceback
                    e.add_note("raised in a forked child:\n"
                               + traceback.format_exc())
                    outcome = False, e
                pickle.dump(outcome, self.file, pickle.HIGHEST_PROTOCOL)
                self.file.flush()
                code = 0
            finally:
                os._exit(code)

    def result(self, status: int | None = None):
        """fn()'s value or its error; waits for the child unless status
        gives the wait status it was reaped with."""
        if status is None:
            status = os.waitpid(self.pid, 0)[1]
        with self.file:
            if status:
                raise RuntimeError(f"forked child {self.pid} ended with "
                                   f"wait status {status}")
            self.file.seek(0)
            ok, value = pickle.load(self.file)
        if not ok:
            raise value
        return value


class _Formatter:
    """The text of every item put, formatted on a second core.

    text() returns "".join(fmt(*item) for every item put) and
    last(*item) of the last item.  Where fork_map would fork, one _Child
    formats the items as they arrive: put pickles an item down a pipe
    and returns while the child formats it, close() ends the pipe, and
    text() returns the child's texts or raises its error, as does a put
    that finds the child gone.  Elsewhere put formats in-process.  As a
    context manager it reaps the child on every path.
    """

    def __init__(self, fmt, last):
        self.fmt, self.last, self.parts, self.child = fmt, last, [], None
        if not _forking():
            return
        items_r, items_w = os.pipe()

        def format_items():
            os.close(items_w)
            parts = []
            with os.fdopen(items_r, "rb") as items:
                while True:
                    try:
                        item = pickle.load(items)
                    except EOFError:
                        return "".join(parts), last(*item)
                    parts.append(fmt(*item))

        self.child = _Child(format_items)
        os.close(items_r)
        self.items = os.fdopen(items_w, "wb")

    def put(self, *item):
        if self.child is None:
            self.parts.append(self.fmt(*item))
            self.item = item
            return
        try:
            pickle.dump(item, self.items, pickle.HIGHEST_PROTOCOL)
            self.items.flush()
        except BrokenPipeError:
            # the child left before its input ended: text() raises why
            self.text()

    def close(self):
        """Ends the items; the child finishes while the caller goes on."""
        if self.child is not None:
            with contextlib.suppress(BrokenPipeError):  # the child left early
                self.items.close()

    def text(self) -> tuple:
        if self.child is None:
            return "".join(self.parts), self.last(*self.item)
        self.close()
        child, self.child = self.child, None
        return child.result()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # after an error of the caller's, which stands, the child's
        # outcome is dropped
        if self.child is not None:
            with contextlib.suppress(Exception):
                self.text()


def fork_map(fn, jobs, sizes) -> list:
    """[fn(job) for job in jobs], each job in a forked _Child.

    sizes[i] is the work of job i in path-steps or agent-steps.  Jobs
    start largest sizes[i] first, at most one child per usable CPU, each
    ending child handing its CPU to the next job, and no job starts after
    a failure.  With one usable CPU, with sizes summing to less than
    FORK_MIN_STEPS, or where fork is unavailable, the same jobs run in
    this process in a plain loop.  Either way the results come back in
    input order, the error raised is that of the first failing job in
    submission order, and no child is left when the call returns or raises.
    """
    order = sorted(range(len(jobs)), key=lambda i: sizes[i], reverse=True)
    if len(jobs) < 2 or sum(sizes) < FORK_MIN_STEPS or not _forking():
        results = {i: fn(jobs[i]) for i in order}
        return [results[i] for i in range(len(jobs))]
    cpus = _usable_cpus()
    pending, running, results, errors = order[::-1], {}, {}, {}
    try:
        while pending or running:
            while pending and len(running) < cpus:
                i = pending.pop()
                child = _Child(functools.partial(fn, jobs[i]))
                running[child.pid] = i, child
            # whichever child ends is this map's: the CLI has no other
            # child process while a map runs
            pid, status = os.waitpid(-1, 0)
            i, child = running.pop(pid)
            try:
                results[i] = child.result(status)
            except Exception as e:
                errors[i] = e
                pending = []
    finally:
        # only after an error of this process's own, which stands
        for _, child in running.values():
            with contextlib.suppress(Exception):
                child.result()
    for i in order:
        if i in errors:
            raise errors[i]
    return [results[i] for i in range(len(jobs))]


def _run_solve_single(cfg: ExperimentConfig, bundle: ResultBundle):
    sol = solve(cfg.model, cfg.grid)
    bundle.tables["solution"] = _traj_table(cfg.grid, (
        (sol.Pi.values, "Pi"), (sol.s.values, "s"),
        (sol.K_gain.values, "K_gain"), (sol.k_offset.values, "k_offset")))
    bundle.tables["scalars"] = _csv_table(
        ("name", "value"), [("C_star", repr(float(sol.C_star)))])
    return sol


def _run_verify_single(cfg: ExperimentConfig, bundle: ResultBundle):
    # a standard error needs two paths, or two replications below
    n_paths = _at_least(cfg.montecarlo.get("n_paths", 10_000), 2,
                        "montecarlo.n_paths")
    seed = cfg.montecarlo["seed"]
    sol = _run_solve_single(cfg, bundle)
    p, grid = cfg.model, cfg.grid
    if is_deterministic(p, grid):
        # without noise the cost checks compare C_star with itself, so
        # only the quotient is checked, in-process and without sampling
        quot = check_martingale_quotient(p, sol, n_paths, seed + 2)
        reports = []
    else:
        reports, quot = _sampled_checks(p, sol, grid, n_paths, seed)
    rows = [(name, "", repr(rep.value), repr(rep.target),
             repr(rep.std_error), repr(rep.z))
            for name, rep in zip(("normalization", "optimal_cost"), reports)]
    for j in range(cfg.model.n):
        rows.append(("martingale_quotient", str(j),
                     repr(float(quot.quotient[j])),
                     repr(float(quot.target[j])),
                     repr(float(quot.std_error[j])),
                     repr(float(quot.z[j]))))
    bundle.tables["checks"] = _csv_table(
        ("check", "component", "value", "target", "std_error", "z"), rows)


def _sampled_checks(p: LqgProblem, sol, grid: TimeGrid, n_paths: int,
                    seed: int):
    """The three identity checks on two ensembles, run as one fork_map.

    Paths 0..n_paths-1 are sampled on seed for the normalization check
    and on seed + 2, with G streamed, for the quotient check; the
    optimal-cost check reads the log_weights of the seed + 2 ensemble.
    Each ensemble's blocks are concatenated in path order and passed to
    the estimators, which gives the reports of check_normalization(seed),
    check_optimal_cost(seed + 2) and check_martingale_quotient(seed + 2)
    bit for bit.  The job list depends on n_paths alone, so the first
    failing block, and with it the error, does not depend on the CPUs.
    """
    ups, _ = state_transition(p.A, grid)
    law = as_control_law(sol, grid, p.n, p.m)
    seeds = (seed, seed + 2)
    streams = ({}, {"ups_values": ups.values})
    # a quotient path-step also streams G and measured about 15 % slower,
    # so its blocks are submitted first
    cost = (1.0, 1.15)
    blocks = path_blocks(range(n_paths))
    jobs = [(j, paths) for j in range(2) for paths in blocks]

    def sample(job):
        j, paths = job
        return _run_paths(p, law, paths, seeds[j], grid, **streams[j])

    samples = fork_map(sample, jobs, sizes=[
        cost[j] * len(paths) * grid.steps for j, paths in jobs])

    def joined(j):
        parts = samples[j * len(blocks):(j + 1) * len(blocks)]
        return {key: np.concatenate([part[key] for part in parts])
                for key in parts[0]}

    quotient = joined(1)
    return ((normalization_report(sol, joined(0)),
             optimal_cost_report(sol, quotient)),
            quotient_report(p, sol, ups, quotient))


def _solve_mfg(cfg: ExperimentConfig, callback=None):
    return solve_consistency(cfg.model, cfg.grid, callback=callback,
                             **cfg.fixedpoint)


def _mean_field_table(grid, A_bar, G_bar, m_bar) -> str:
    return _traj_table(grid, ((A_bar, "A_bar"), (G_bar, "G_bar"),
                              (m_bar, "m_bar")))


def _emit_mfg_tables(cfg, bundle, eq):
    (K0, k0), minor_laws = equilibrium_laws(eq)
    laws = [(K0.values, "major_gain"), (k0.values, "major_offset")]
    for k, (Kk, kk) in enumerate(minor_laws):
        laws += [(Kk.values, f"minor{k}_gain"),
                 (kk.values, f"minor{k}_offset")]
    bundle.tables["laws"] = _traj_table(cfg.grid, laws)
    bundle.convergence = list(eq.iterations.errors)
    bundle.tables["convergence"] = _csv_table(
        ("iteration", "error"),
        [(str(j + 1), repr(e)) for j, e in enumerate(eq.iterations.errors)])


def _run_solve_mfg(cfg: ExperimentConfig, bundle: ResultBundle):
    eq = _solve_mfg(cfg)
    bundle.tables["mean_field"] = _mean_field_table(
        cfg.grid, eq.A_bar.values, eq.G_bar.values, eq.m_bar.values)
    _emit_mfg_tables(cfg, bundle, eq)
    return eq


def _run_reproduce_paper(cfg: ExperimentConfig, bundle: ResultBundle):
    times = _time_column(cfg.grid)

    def sweep_lines(j, A_bar, G_bar, m_bar):
        return "".join(_traj_csv(times, values, entity, str(j))
                       for values, entity in ((A_bar, "A_bar"),
                                              (G_bar, "G_bar"),
                                              (m_bar, "m_bar")))

    def mean_field(j, A_bar, G_bar, m_bar):
        # the last sweep's iterate is the equilibrium's mean field
        return _mean_field_table(cfg.grid, A_bar, G_bar, m_bar)

    # each sweep's iterate is formatted while the next sweep solves, and
    # the last one also as mean_field.csv
    with _Formatter(sweep_lines, mean_field) as sweeps:
        eq = _solve_mfg(cfg, callback=lambda j, A_bar, G_bar, m_bar, error:
                        sweeps.put(j, A_bar, G_bar, m_bar))
        sweeps.close()
        # mean_field.csv comes from the child; its key goes first, so the
        # tables are written and listed in solve-mfg's order
        bundle.tables["mean_field"] = None
        _emit_mfg_tables(cfg, bundle, eq)
        lines, bundle.tables["mean_field"] = sweeps.text()
        bundle.tables["iterations"] = (
            _csv_line("iteration", *TRAJ_HEADER) + lines)
    return eq


def _populated(spec, N: int) -> int:
    """N, if apportion gives every minor type at least one agent."""
    counts = apportion(spec.pi, N)
    if not counts.all():
        raise ParseError(f"population N={N} gives minor type "
                         f"{int(np.argmin(counts))} no agents")
    return N


def _run_simulate_population(cfg: ExperimentConfig, bundle: ResultBundle):
    pop = cfg.population
    N = _populated(cfg.model, _at_least(pop.get("N", 5), 1, "population.N"))
    n_reps = _at_least(pop.get("n_reps", 1000), 2, "population.n_reps")
    eq = _solve_mfg(cfg)
    run = simulate_population(cfg.model, eq, N, n_reps=n_reps,
                              seed=cfg.montecarlo["seed"])
    rows = []
    for name, agent in [("major", "major")] + [(f"minor{j}", j)
                                               for j in range(N)]:
        est = finite_cost(run, agent)
        rows.append((name, repr(est.log_value), repr(est.std_error),
                     str(est.n)))
    bundle.tables["costs"] = _csv_table(
        ("agent", "log_cost", "std_error", "n_reps"), rows)
    bundle.tables["empirical_avg"] = _traj_table(
        cfg.grid, [(run.empirical_avg, "x_emp")])
    bundle.tables["fluctuations"] = _csv_table(
        ("statistic", "value"),
        [("mean_sup", repr(float(np.mean(run.fluct_sup)))),
         ("mean_terminal", repr(float(np.mean(run.fluct_T))))])


def _run_nash_gap(cfg: ExperimentConfig, bundle: ResultBundle):
    pop = cfg.population
    schedule = pop.get("N_schedule", [5, 20, 80])
    if not isinstance(schedule, list):
        raise ParseError("population.N_schedule must be a list")
    schedule = [_populated(cfg.model,
                           _at_least(N, 1, "population.N_schedule entry"))
                for N in schedule]
    # the fluctuation slopes are fits over N
    if len(set(schedule)) < 2:
        raise ParseError("population.N_schedule needs at least two "
                         "distinct sizes")
    n_reps = _at_least(pop.get("n_reps", 1000), 2, "population.n_reps")
    agent = pop.get("agent", "major")
    if agent != "major":
        agent = _at_least(agent, 0, "population.agent")
        if agent >= min(schedule):
            raise ParseError("population.agent must be a minor slot of "
                             "every N in N_schedule")
    seed = cfg.montecarlo["seed"]
    eq = _solve_mfg(cfg)
    # one population pass per N gives the gap and, from its equilibrium
    # ensemble, the fluctuation statistics; the passes are independent
    reports = fork_map(
        lambda N: nash_gap(cfg.model, eq, agent, N=N, n_reps=n_reps,
                           seed=seed),
        schedule, sizes=[n_reps * (1 + N) * cfg.grid.steps
                         for N in schedule])
    rows, runs = [], []
    for N, rep in zip(schedule, reports):
        runs.append(rep.equilibrium_run)
        rows.append((str(N), "equilibrium", repr(rep.equilibrium.log_value),
                     repr(rep.equilibrium.std_error), repr(rep.gap),
                     repr(rep.gap_std_error)))
        for label, est in rep.deviations:
            rows.append((str(N), label, repr(est.log_value),
                         repr(est.std_error), "", ""))
    bundle.tables["gaps"] = _csv_table(
        ("N", "law", "log_cost", "std_error", "gap", "gap_std_error"), rows)
    stats = summarize_fluctuations(runs)
    rows = [(str(N), repr(float(s)), repr(float(t)))
            for N, s, t in zip(schedule, stats.mean_sup,
                               stats.mean_terminal)]
    bundle.tables["fluctuations"] = _csv_table(
        ("N", "mean_sup", "mean_terminal"), rows)
    # an empty value: a mean is not positive, so there is no log-log fit
    bundle.tables["slopes"] = _csv_table(
        ("statistic", "value"),
        [(name, "" if slope is None else repr(slope))
         for name, slope in (("slope_sup", stats.slope_sup),
                             ("slope_terminal", stats.slope_terminal))])


_DISPATCH = {
    "solve-single": _run_solve_single,
    "verify-single": _run_verify_single,
    "solve-mfg": _run_solve_mfg,
    "simulate-population": _run_simulate_population,
    "nash-gap": _run_nash_gap,
    "reproduce-paper": _run_reproduce_paper,
}


def run(cfg: ExperimentConfig) -> ResultBundle:
    """Execute the configured mode and collect all result tables."""
    bundle = ResultBundle(manifest=_manifest(cfg))
    _DISPATCH[cfg.mode](cfg, bundle)
    return bundle


def write_bundle(bundle: ResultBundle, out_dir) -> list:
    """Write manifest.json and one CSV per table; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(bundle.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(path)
    for name, text in bundle.tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rsmfg",
        description="risk-sensitive mean-field game solver and verifier")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.mode)
        bundle = run(cfg)
        out_dir = args.out or cfg.output.get("directory")
        if out_dir:
            try:
                written = write_bundle(bundle, out_dir)
            except OSError as e:
                raise ParseError(f"cannot write the output directory "
                                 f"{out_dir}: {e.strerror}") from None
            for path in written:
                print(path)
        if bundle.convergence:
            print(f"converged in {len(bundle.convergence)} iterations, "
                  f"final error {bundle.convergence[-1]:.3e}")
        return EXIT_OK
    except (ParseError, AssumptionViolated, DimensionMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NotConverged as e:
        print(f"error: fixed point did not converge after {e.iterations} "
              f"iterations (last error {e.last_error:.3e})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except FiniteEscape as e:
        print(f"error: finite escape of the backward equation at "
              f"t={e.t:.6g}", file=sys.stderr)
        return EXIT_FINITE_ESCAPE
    except NonFiniteState as e:
        print(f"error: simulation became non-finite at t={e.t:.6g}",
              file=sys.stderr)
        return EXIT_NON_FINITE


if __name__ == "__main__":
    sys.exit(main())
