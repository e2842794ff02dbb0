"""Command-line front end.

Commands
--------
simulate        run a bias/MSE experiment from a config file, write CSV
power           empirical rejection-rate curves, write CSV
replicate-table rerun a canonical experiment table (1, 2 or 4)
ingest          feed one batch CSV into a persistent stream state
estimate        print the current coefficient estimates
test            print the added-covariate F test

Exit codes: 0 ok, 2 configuration error, 3 runtime error (unreadable state
snapshots included), 4 phase/protocol violation.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import inference, io, simlab
from .batchstats import StreamSchema, compress_batch
from .engine import CONVENTIONS, GRAM_SQUARED, AccumulatorState, Phase, new_stream
from .errors import (
    HetstreamError,
    InvalidConfig,
    NonFiniteData,
    PhaseMismatch,
    SchemaMismatch,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_PHASE = 4


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _print_kv(key: str, value, out=None) -> None:
    print(f"{key} = {_fmt(value)}", file=out or sys.stdout)


def _print_vector(prefix: str, vec, out=None) -> None:
    for i, v in enumerate(np.asarray(vec).reshape(-1), start=1):
        _print_kv(f"{prefix}_{i}", float(v), out)


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(" ", "").split(",") if v)


# ----------------------------------------------------------------------
# experiment commands
# ----------------------------------------------------------------------

def cmd_simulate(args) -> int:
    values = io.read_config(args.config)
    config = io.config_to_simconfig(values, seed_override=args.seed)
    checkpoints = (
        tuple(int(c) for c in _parse_grid(args.checkpoints))
        if args.checkpoints
        else (config.j_max,)
    )
    result = simlab.run_bias_mse(config, checkpoints)
    with _open_out(args.out) as fh:
        result.to_csv(fh)
    return EXIT_OK


def cmd_power(args) -> int:
    values = io.read_config(args.config)
    config = io.config_to_simconfig(values, seed_override=args.seed)
    a_grid = _parse_grid(args.a_grid) if args.a_grid else None
    j_grid = (
        tuple(int(v) for v in _parse_grid(args.j_grid)) if args.j_grid else None
    )
    result = simlab.run_power(config, j_grid=j_grid, a_grid=a_grid, alpha=args.alpha)
    with _open_out(args.out) as fh:
        result.to_csv(fh)
    return EXIT_OK


_TABLE_METRIC = {1: ("beta",), 2: ("theta",), 4: ("beta", "theta", "gamma")}


def cmd_replicate_table(args) -> int:
    table = args.table
    rows: list[tuple] = []
    if table in (1, 2):
        checkpoints = (12, 16, 20)
        for corr_case in ("uncorrelated", "correlated"):
            for param_set in ("a", "b"):
                config = simlab.example1_config(
                    param_set=param_set,
                    corr_case=corr_case,
                    n=args.n,
                    replications=args.replications,
                    seed=args.seed,
                )
                result = simlab.run_bias_mse(config, checkpoints)
                for method, j, metric, value in result.records:
                    rows.append((corr_case, param_set, args.n, int(j), method, metric, value))
    elif table == 4:
        checkpoints = (25, 30)
        for sigma_sq in (2.0, 4.0):
            config = simlab.example4_config(
                sigma_sq=sigma_sq,
                n=args.n,
                replications=args.replications,
                seed=args.seed,
            )
            result = simlab.run_bias_mse(config, checkpoints)
            for method, j, metric, value in result.records:
                rows.append(("correlated", f"sigma_sq={sigma_sq:g}", args.n, int(j), method, metric, value))
    else:
        raise InvalidConfig(f"no table {table}; choose 1, 2 or 4")

    keep = tuple(f"_{group}" for group in _TABLE_METRIC[table])
    with _open_out(args.out) as fh:
        fh.write("panel,setting,n,j,method,metric,value\n")
        for panel, setting, n, j, method, metric, value in rows:
            if metric.endswith(keep):
                fh.write(f"{panel},{setting},{n},{j},{method},{metric},{value:.12g}\n")
    return EXIT_OK


# ----------------------------------------------------------------------
# streaming session commands
# ----------------------------------------------------------------------

def cmd_ingest(args) -> int:
    x, z, w, y = io.read_batch_csv(args.batch)
    if os.path.exists(args.state):
        state = io.load_state(args.state)
        if z is not None and state.schema.q and z.shape[1] != state.schema.q:
            raise SchemaMismatch(
                f"{args.batch}: z has {z.shape[1]} columns, state expects {state.schema.q}"
            )
    else:
        state = new_stream(
            StreamSchema(x.shape[1]), weight_convention=args.weight_convention
        )
    stats = compress_batch(
        x, y,
        StreamSchema(x.shape[1], z.shape[1] if z is not None else 0,
                     w.shape[1] if w is not None else 0),
        z_rows=z, w_rows=w,
    )

    overrides = {}
    if args.sigma0_sq is not None:
        overrides["sigma0_sq"] = args.sigma0_sq
    if args.theta0 is not None:
        overrides["theta0"] = np.asarray(_parse_grid(args.theta0))
    if args.e0_zz is not None:
        diag = np.asarray(_parse_grid(args.e0_zz))
        overrides["e0_zz"] = np.diag(diag)
    if args.event is None and (overrides or args.uncorrelated):
        raise InvalidConfig(
            "--sigma0-sq, --theta0, --e0-zz and --uncorrelated apply only with --event"
        )

    if args.event == "add-z":
        state.begin_update_phase(
            stats, assume_uncorrelated=args.uncorrelated, **overrides
        )
        print("event = add-z")
        for i in range(state.homog.b_hat.shape[0]):
            _print_vector(f"b_hat_row{i + 1}", state.homog.b_hat[i])
    elif args.event == "add-w":
        # without the flag the stream's case decides
        state.begin_second_update(stats, assume_uncorrelated=args.uncorrelated or None, **overrides)
        print("event = add-w")
    elif state.phase is Phase.PRE:
        state.ingest_pre_change(stats)
    else:
        state.ingest_post_change(stats)

    io.save_state(state, args.state)
    _print_kv("ingested_n", stats.n)
    _print_kv("n_total", state.n_total)
    if args.print_estimate:
        _emit_estimate(state)
    return EXIT_OK


def _emit_estimate(state: AccumulatorState) -> None:
    report = state.estimate()
    _print_kv("phase", state.phase.value)
    _print_kv("n_total", report.n_total)
    _print_kv("m_post", report.m_post)
    _print_kv("rho_hat", report.rho_hat)
    if report.case_label:
        _print_kv("case", report.case_label)
    _print_vector("beta", report.beta)
    if report.theta is not None:
        _print_vector("theta", report.theta)
    if report.gamma is not None:
        _print_vector("gamma", report.gamma)
    if report.theta_naive is not None:
        _print_vector("theta_naive", report.theta_naive)
    _print_kv("sse", state.update_sse())


def cmd_estimate(args) -> int:
    if not os.path.exists(args.state):
        raise InvalidConfig(f"state file {args.state!r} does not exist")
    state = io.load_state(args.state)
    _emit_estimate(state)
    return EXIT_OK


def cmd_test(args) -> int:
    if not os.path.exists(args.state):
        raise InvalidConfig(f"state file {args.state!r} does not exist")
    state = io.load_state(args.state)
    report = inference.test_theta_zero(state, alpha=args.alpha, denominator_df=args.denominator_df)
    _print_kv("f_value", report.f_value)
    _print_kv("df1", report.df1)
    _print_kv("df2", report.df2)
    _print_kv("p_value", report.p_value)
    _print_kv("alpha", report.alpha)
    _print_kv("reject", report.reject)
    _print_kv("degenerate", report.degenerate)
    if report.case_label:
        _print_kv("case", report.case_label)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetstream",
        description="Online-updating regression for streams whose covariate set grows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="bias/MSE experiment from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--checkpoints", default=None, help="comma-separated batch indices")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    pow_ = sub.add_parser("power", help="empirical rejection-rate curves")
    pow_.add_argument("--config", required=True)
    pow_.add_argument("--seed", type=int, default=None)
    pow_.add_argument("--alpha", type=float, default=0.05)
    pow_.add_argument("--a-grid", default=None)
    pow_.add_argument("--j-grid", default=None)
    pow_.add_argument("--out", default=None)
    pow_.set_defaults(func=cmd_power)

    rep = sub.add_parser("replicate-table", help="rerun a canonical experiment table")
    rep.add_argument("--table", type=int, required=True, choices=(1, 2, 4))
    rep.add_argument("--n", type=int, default=100)
    rep.add_argument("--replications", type=int, default=500)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_replicate_table)

    ing = sub.add_parser("ingest", help="feed one batch CSV into a stream state")
    ing.add_argument("--state", required=True)
    ing.add_argument("--batch", required=True)
    ing.add_argument("--event", choices=("add-z", "add-w"), default=None)
    ing.add_argument("--uncorrelated", action="store_true",
                     help="force the new group's projections to zero at the event")
    ing.add_argument("--weight-convention", choices=CONVENTIONS, default=GRAM_SQUARED)
    ing.add_argument("--sigma0-sq", type=float, default=None)
    ing.add_argument("--theta0", default=None, help="comma-separated initial theta")
    ing.add_argument("--e0-zz", default=None, help="comma-separated diagonal of E0[zz']")
    ing.add_argument("--print-estimate", action="store_true")
    ing.set_defaults(func=cmd_ingest)

    est = sub.add_parser("estimate", help="print current estimates")
    est.add_argument("--state", required=True)
    est.set_defaults(func=cmd_estimate)

    tst = sub.add_parser("test", help="added-covariate F test")
    tst.add_argument("--state", required=True)
    tst.add_argument("--alpha", type=float, default=0.05)
    tst.add_argument("--denominator-df", choices=("paper", "classical"), default="paper")
    tst.set_defaults(func=cmd_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhaseMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHASE
    except (SchemaMismatch, NonFiniteData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except HetstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
