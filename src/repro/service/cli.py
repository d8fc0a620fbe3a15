"""``repro serve`` / ``repro loadgen``: the live service from the shell.

Both commands validate their numeric arguments up front — NaN,
infinities and negatives are rejected with messages that say what to
pass instead (the same contract as the config dataclasses they feed) —
so a bad flag fails in milliseconds, not minutes into a soak.

``repro serve`` prints one ``{"event": "listening", ...}`` JSON line
once the socket is bound (harnesses parse the port from it when
``--port 0`` picks a free one) and exits 0 only after a clean drain
with a balanced conservation ledger.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional, Sequence

from .app import BroadcastService
from .clock import run_with_precise_timers
from .config import LoadGenConfig, LossPhase, ServiceConfig, SurgePhase
from .ledger import LedgerViolation

__all__ = [
    "build_serve_parser",
    "serve_main",
    "build_loadgen_parser",
    "loadgen_main",
]


def _parse_phases(specs: Sequence[str], kind: str) -> tuple:
    """Parse repeated ``start:end:value`` phase flags into phase objects."""
    phases = []
    cls = SurgePhase if kind == "surge" else LossPhase
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"--{kind} expects START:END:"
                f"{'MULTIPLIER' if kind == 'surge' else 'PROBABILITY'} "
                f"(e.g. --{kind} 2.0:4.0:{'3.0' if kind == 'surge' else '0.3'}), "
                f"got {spec!r}"
            )
        try:
            numbers = [float(part) for part in parts]
        except ValueError:
            raise ValueError(
                f"--{kind} fields must be numbers, got {spec!r}"
            ) from None
        phases.append(cls(*numbers))
    return tuple(phases)


def _parse_deadlines(spec: Optional[str]) -> Optional[tuple]:
    """Parse ``--deadlines A,B,C`` (seconds per class, rank order)."""
    if spec is None:
        return None
    try:
        return tuple(float(part) for part in spec.split(","))
    except ValueError:
        raise ValueError(
            f"--deadlines expects comma-separated seconds per class "
            f"(e.g. --deadlines 6.0,4.0,2.5), got {spec!r}"
        ) from None


# -- repro serve ------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of ``repro serve`` (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description=(
            "Run the live broadcast scheduling service (see docs/service.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = pick a free port)"
    )
    parser.add_argument("--items", type=int, default=50, help="catalog size")
    parser.add_argument("--cutoff", type=int, default=15, help="push/pull cutoff K")
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.05,
        help="wall seconds per broadcast unit",
    )
    parser.add_argument(
        "--deadlines",
        default=None,
        metavar="A,B,C",
        help="per-class deadline budgets in seconds (rank order)",
    )
    parser.add_argument(
        "--ingress-capacity",
        type=int,
        default=64,
        help="bounded pull-queue entries before backpressure (429)",
    )
    parser.add_argument(
        "--downlink-loss",
        type=float,
        default=0.0,
        help="per-transmission corruption probability (fault injection)",
    )
    parser.add_argument(
        "--brownout-window", type=float, default=0.5, help="monitor window seconds"
    )
    parser.add_argument("--seed", type=int, default=0, help="service RNG seed")
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="self-stop after this many seconds (default: run until SIGTERM)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds granted to in-flight work at shutdown",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH", help="write the obs trace here"
    )
    parser.add_argument(
        "--slo",
        default=None,
        metavar="PATH",
        help=(
            "per-class SLO targets (JSON, see docs/control.md); enables the "
            "closed-loop controller and the /control endpoints"
        ),
    )
    return parser


async def _serve(args: argparse.Namespace) -> int:
    from ..control.slo import load_slo
    from ..core import HybridConfig

    config = ServiceConfig(
        hybrid=HybridConfig(num_items=args.items, cutoff=args.cutoff),
        time_scale=args.time_scale,
        class_deadlines=_parse_deadlines(args.deadlines),
        ingress_capacity=args.ingress_capacity,
        brownout_window=args.brownout_window,
        downlink_loss=args.downlink_loss,
        drain_timeout=args.drain_timeout,
        slo=load_slo(args.slo) if args.slo is not None else None,
        seed=args.seed,
    )
    service = BroadcastService(
        config, host=args.host, port=args.port, trace_path=args.trace
    )
    await service.start()
    print(
        json.dumps(
            {"event": "listening", "host": service.host, "port": service.port}
        ),
        flush=True,
    )
    if args.duration is not None:
        asyncio.get_running_loop().call_later(args.duration, service.request_stop)
    snapshot = await service.serve_forever()
    print(json.dumps({"event": "drained", "ledger": snapshot.to_dict()}), flush=True)
    if args.trace is not None:
        print(json.dumps({"event": "trace_written", "path": args.trace}), flush=True)
    return 0


def serve_main(argv: Sequence[str]) -> int:
    """Entry point of ``repro serve``; returns an exit code."""
    args = build_serve_parser().parse_args(list(argv))
    try:
        return run_with_precise_timers(_serve(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LedgerViolation as exc:
        print(f"conservation violation: {exc}", file=sys.stderr)
        return 1


# -- repro loadgen ----------------------------------------------------------------
def build_loadgen_parser() -> argparse.ArgumentParser:
    """Parser of ``repro loadgen`` (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments loadgen",
        description=(
            "Replay a seeded paper workload against a running service, with "
            "retry + full-jitter backoff, flash-crowd surges and injected "
            "uplink-loss phases."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="service address")
    parser.add_argument("--port", type=int, required=True, help="service port")
    parser.add_argument(
        "--rate", type=float, default=50.0, help="base request rate (req/s, > 0)"
    )
    parser.add_argument(
        "--duration", type=float, default=5.0, help="send window seconds (> 0)"
    )
    parser.add_argument(
        "--concurrency", type=int, default=4, help="in-flight request bound (>= 1)"
    )
    parser.add_argument("--seed", type=int, default=0, help="plan + jitter seed")
    parser.add_argument(
        "--max-retries", type=int, default=3, help="retries after the first attempt"
    )
    parser.add_argument(
        "--backoff-base", type=float, default=0.05, help="backoff base seconds"
    )
    parser.add_argument(
        "--backoff-cap", type=float, default=2.0, help="backoff ceiling seconds"
    )
    parser.add_argument(
        "--surge",
        action="append",
        default=[],
        metavar="START:END:MULT",
        help="flash-crowd phase (repeatable), e.g. --surge 2.0:4.0:3.0",
    )
    parser.add_argument(
        "--loss",
        action="append",
        default=[],
        metavar="START:END:PROB",
        help="uplink-loss phase (repeatable), e.g. --loss 1.0:3.0:0.3",
    )
    parser.add_argument(
        "--items", type=int, default=50, help="catalog size (must match the server)"
    )
    parser.add_argument(
        "--cutoff", type=int, default=15, help="cutoff K (must match the server)"
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH", help="write the JSON report here"
    )
    return parser


def loadgen_main(argv: Sequence[str]) -> int:
    """Entry point of ``repro loadgen``; returns an exit code."""
    from ..core import HybridConfig
    from .loadgen import run_loadgen

    args = build_loadgen_parser().parse_args(list(argv))
    try:
        config = LoadGenConfig(
            rate=args.rate,
            duration=args.duration,
            concurrency=args.concurrency,
            seed=args.seed,
            max_retries=args.max_retries,
            backoff_base=args.backoff_base,
            backoff_cap=args.backoff_cap,
            surges=_parse_phases(args.surge, "surge"),
            losses=_parse_phases(args.loss, "loss"),
        )
        hybrid = HybridConfig(num_items=args.items, cutoff=args.cutoff)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_with_precise_timers(run_loadgen(args.host, args.port, config, hybrid))
    payload = report.to_dict()
    print(json.dumps(payload, indent=2))
    if args.report is not None:
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2)
    # A run that reached no verdict at all is a failed run.
    return 0 if report.outcomes or report.planned == 0 else 1
