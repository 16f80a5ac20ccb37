"""Command-line front end: prove, model, consistency, mus, and asylum workflows.

Every report begins with an SZS status line.  Exit status is 0 for a
decisive verdict (Theorem, CounterSatisfiable, Unsatisfiable,
Satisfiable), 1 when the tool had to give up (Unknown), and 2 for
input problems such as unreadable files or parse errors.  Identical
input and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .syntax import Falsity, Signature, SignatureError, signature_of
from .tptp import (
    ArityError,
    DuplicateLabelError,
    FreeVariableError,
    ParseError,
    Problem,
    parse_tptp,
)
from .saturation import Derivation, Limits, format_derivation
from .models import Interpretation, Model, NoModelUpTo, find_model
from .analysis import (
    PreconditionViolated,
    RunStats,
    Verdict,
    check_consistency,
    conjecture_units,
    extract_mus,
    format_mus_report,
    format_verdict,
    prove_conjecture,
    verify_verdict,
)
from .asylum import UnknownLabel, subset

DECISIVE = ("Theorem", "CounterSatisfiable", "Unsatisfiable", "Satisfiable")

EXIT_DECISIVE = 0
EXIT_UNKNOWN = 1
EXIT_INPUT = 2


@dataclass
class RunConfig:
    """One CLI invocation: a workflow, one input source, and limits."""

    command: str
    path: str | None = None
    labels: list[str] | None = None
    max_model_size: int = 8
    time_limit_seconds: float = 60.0
    clause_limit: int = 10**6
    proof_out: str | None = None
    model_out: str | None = None
    check: bool = False

    def __post_init__(self):
        if self.max_model_size < 1:
            raise ValueError("--max-size must be positive")
        if self.time_limit_seconds <= 0:
            raise ValueError("--time-limit must be positive")
        if self.clause_limit < 1:
            raise ValueError("--clause-limit must be positive")
        if (self.path is None) == (self.labels is None):
            raise ValueError("exactly one input source required")

    def limits(self) -> Limits:
        return Limits(self.clause_limit, self.time_limit_seconds)


def _load(config: RunConfig) -> Problem:
    if config.labels is not None:
        return Problem(subset(config.labels))
    text = Path(config.path).read_text(encoding="utf-8")
    return parse_tptp(text)


def _write_artifacts(
    config: RunConfig, verdict: Verdict, signature: Signature | None = None
) -> None:
    if config.proof_out and isinstance(verdict.witness, Derivation):
        Path(config.proof_out).write_text(
            format_derivation(verdict.witness), encoding="utf-8"
        )
    if config.model_out and isinstance(verdict.witness, Interpretation):
        Path(config.model_out).write_text(
            format_verdict(verdict, signature), encoding="utf-8"
        )


def _checked_line(ok: bool) -> str:
    return "witness check: ok\n" if ok else "witness check: FAILED\n"


def _run_verdict(config: RunConfig, problem: Problem, out) -> int:
    """The prove and consistency workflows, which differ only in dispatch."""
    conjecture = problem.conjecture()
    axioms = [u for u in problem.units if u.role != "conjecture"]
    limits = config.limits()
    if (
        config.command == "consistency"
        or conjecture is None
        or isinstance(conjecture.formula, Falsity)
    ):
        verdict = check_consistency(axioms, limits, config.max_model_size)
        basis = axioms
    else:
        verdict = prove_conjecture(
            axioms, conjecture.formula, limits, config.max_model_size
        )
        basis = conjecture_units(axioms, conjecture.formula)
    return _report(config, verdict, basis, out)


def _report(config: RunConfig, verdict: Verdict, basis, out) -> int:
    """Print a verdict, check it against its units if asked, write artifacts."""
    signature = signature_of(u.formula for u in basis)
    out.write(format_verdict(verdict, signature))
    ok = True
    if config.check:
        ok = verify_verdict(verdict, basis)
        out.write(_checked_line(ok))
    _write_artifacts(config, verdict, signature)
    return EXIT_DECISIVE if ok and verdict.status in DECISIVE else EXIT_UNKNOWN


def _run_model(config: RunConfig, problem: Problem, out) -> int:
    axioms = [u for u in problem.units if u.role != "conjecture"]
    result = find_model(axioms, config.max_model_size, config.limits())
    if isinstance(result, Model):
        verdict = Verdict("Satisfiable", result.interpretation, RunStats())
        return _report(config, verdict, axioms, out)
    out.write("SZS status Unknown\n")
    if isinstance(result, NoModelUpTo):
        out.write(f"no model of size up to {result.size}\n")
    else:
        out.write(f"gave up: {result.reason}\n")
    return EXIT_UNKNOWN


def _run_mus(config: RunConfig, problem: Problem, out) -> int:
    axioms = [u for u in problem.units if u.role != "conjecture"]
    try:
        report = extract_mus(axioms, config.limits(), config.max_model_size)
    except PreconditionViolated as exc:
        out.write("SZS status Unknown\n")
        out.write(f"{exc}\n")
        return EXIT_UNKNOWN
    out.write("SZS status Unsatisfiable\n")
    out.write(format_mus_report(report))
    refuted = Verdict("Unsatisfiable", report.refutation, RunStats())
    ok = True
    if config.check:
        core = [u for u in axioms if u.label in set(report.core)]
        ok = verify_verdict(refuted, core) and all(
            model is None
            or verify_verdict(
                Verdict("Satisfiable", model, RunStats()),
                [u for u in core if u.label != dropped],
            )
            for dropped, model in report.deletions.items()
        )
        out.write(_checked_line(ok))
    _write_artifacts(config, refuted)
    return EXIT_UNKNOWN if not ok else EXIT_DECISIVE


_INPUT_ERRORS = (
    ParseError,
    ArityError,
    DuplicateLabelError,
    FreeVariableError,
    SignatureError,
    UnknownLabel,
)


def run(config: RunConfig, out=None) -> int:
    """Run one workflow; returns the process exit status."""
    out = out if out is not None else sys.stdout
    try:
        problem = _load(config)
    except FileNotFoundError:
        print(f"error: no such file: {config.path}", file=sys.stderr)
        return EXIT_INPUT
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if config.command in ("prove", "consistency"):
        return _run_verdict(config, problem, out)
    if config.command == "model":
        return _run_model(config, problem, out)
    if config.command == "mus":
        return _run_mus(config, problem, out)
    raise ValueError(f"unknown command {config.command!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-size", type=int, default=8, metavar="N",
        help="largest model domain to try (default 8)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=60.0, metavar="S",
        help="wall-clock budget in seconds (default 60)",
    )
    parser.add_argument(
        "--clause-limit", type=int, default=10**6, metavar="N",
        help="generated-clause budget (default 1000000)",
    )
    parser.add_argument(
        "--proof-out", metavar="PATH", help="write the refutation here"
    )
    parser.add_argument(
        "--model-out", metavar="PATH", help="write the model here"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="re-verify the emitted witness and say so",
    )


WORKFLOWS = ("prove", "model", "consistency", "mus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folkit",
        description="First-order proving, finite models, and unsatisfiable cores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("prove", "refute a problem file (axioms plus optional conjecture)"),
        ("model", "search for a finite model of the axioms"),
        ("consistency", "decide whether the axioms are satisfiable"),
        ("mus", "extract a minimal unsatisfiable core of the axioms"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("file", help="TPTP problem file")
        _add_common(p)
    asylum = sub.add_parser(
        "asylum", help="run a workflow on the built-in asylum hypotheses"
    )
    asylum.add_argument(
        "workflow", choices=WORKFLOWS, help="what to do with the subset"
    )
    asylum.add_argument(
        "--subset", metavar="LABELS", default=",".join(f"ax{k}" for k in range(1, 13)),
        help="comma-separated hypothesis labels (default: all twelve)",
    )
    _add_common(asylum)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "asylum":
        labels = [s for s in args.subset.split(",") if s]
        command, path = args.workflow, None
    else:
        labels, command, path = None, args.command, args.file
    try:
        config = RunConfig(
            command=command,
            path=path,
            labels=labels,
            max_model_size=args.max_size,
            time_limit_seconds=args.time_limit,
            clause_limit=args.clause_limit,
            proof_out=args.proof_out,
            model_out=args.model_out,
            check=args.check,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
