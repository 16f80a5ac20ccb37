"""Command-line workflows: dispatch, reports, exit codes, artifacts."""

import io
import os
import sys
import time

import pytest

from folkit.cli import (
    EXIT_DECISIVE,
    EXIT_INPUT,
    EXIT_UNKNOWN,
    RunConfig,
    build_parser,
    main,
    run,
)
from folkit.models import DEFAULT_MAX_MODEL_SIZE
from folkit.saturation import Limits
from folkit.tptp import MAX_NESTING
from conftest import DATA_DIR

FIGURE1 = str(DATA_DIR / "figure1.p")
ASYLUM12 = str(DATA_DIR / "asylum12.p")


def run_text(config):
    out = io.StringIO()
    code = run(config, out)
    return code, out.getvalue()


def write_problem(tmp_path, text, name="problem.p"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- configuration ------------------------------------------------------------

def test_config_requires_exactly_one_source():
    with pytest.raises(ValueError):
        RunConfig("prove")
    with pytest.raises(ValueError):
        RunConfig("prove", path="x.p", labels=["ax1"])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_model_size": 0},
        {"time_limit_seconds": 0.0},
        {"time_limit_seconds": float("nan")},
        {"time_limit_seconds": float("inf")},
        {"clause_limit": 0},
    ],
)
def test_config_rejects_nonpositive_limits(kwargs):
    with pytest.raises(ValueError):
        RunConfig("prove", path="x.p", **kwargs)


# -- prove and consistency ------------------------------------------------------

def test_prove_contradictory_file_reports_unsatisfiable():
    code, text = run_text(RunConfig("prove", path=FIGURE1))
    assert code == EXIT_DECISIVE
    assert text.startswith("SZS status Unsatisfiable\n")
    assert "[input ax4]" in text
    assert "0. $false" in text


def test_prove_theorem_and_countersatisfiable(tmp_path):
    theorem = write_problem(
        tmp_path, "fof(a, axiom, p => q).\nfof(b, axiom, p).\n"
        "fof(goal, conjecture, q).", "theorem.p"
    )
    code, text = run_text(RunConfig("prove", path=theorem))
    assert code == EXIT_DECISIVE
    assert text.startswith("SZS status Theorem\n")

    openq = write_problem(
        tmp_path, "fof(a, axiom, p(c)).\nfof(goal, conjecture, ![X] : p(X)).",
        "open.p"
    )
    code, text = run_text(RunConfig("prove", path=openq))
    assert code == EXIT_DECISIVE
    assert text.startswith("SZS status CounterSatisfiable\n")
    assert "domain size" in text


def test_consistency_of_satisfiable_axioms(tmp_path):
    path = write_problem(tmp_path, "fof(a, axiom, p | q).")
    code, text = run_text(RunConfig("consistency", path=path))
    assert code == EXIT_DECISIVE
    assert text.startswith("SZS status Satisfiable\n")


def test_consistency_ignores_the_conjecture(tmp_path):
    path = write_problem(
        tmp_path, "fof(a, axiom, p).\nfof(goal, conjecture, ~p)."
    )
    code, text = run_text(RunConfig("consistency", path=path))
    assert text.startswith("SZS status Satisfiable\n")
    assert code == EXIT_DECISIVE


def test_check_flag_appends_witness_line(tmp_path):
    path = write_problem(tmp_path, "fof(a, axiom, p).\nfof(b, axiom, ~p).")
    code, text = run_text(RunConfig("consistency", path=path, check=True))
    assert code == EXIT_DECISIVE
    assert text.rstrip().endswith("witness check: ok")


def test_unknown_gets_exit_one(tmp_path):
    path = write_problem(tmp_path, "fof(a, axiom, ?[X] : ?[Y] : ~(X = Y)).")
    config = RunConfig(
        "consistency", path=path, max_model_size=1, time_limit_seconds=2.0
    )
    code, text = run_text(config)
    assert code == EXIT_UNKNOWN
    assert text.startswith("SZS status Unknown\n")


def test_time_limit_bounds_grounding(tmp_path):
    # no model of size 1; at size 2 the clause has 2**199 ground instances
    term = "f(" * 198 + "a" + ")" * 198
    path = write_problem(tmp_path, f"fof(a, axiom, {term} != b).")
    config = RunConfig("consistency", path=path, time_limit_seconds=2.0)
    start = time.monotonic()
    code, text = run_text(config)
    assert time.monotonic() - start < 10.0
    assert code == EXIT_UNKNOWN
    assert text == "SZS status Unknown\n"


# -- model --------------------------------------------------------------------

def test_model_workflow_prints_interpretation(tmp_path):
    path = write_problem(tmp_path, "fof(a, axiom, ?[X] : p(X)).")
    code, text = run_text(RunConfig("model", path=path, check=True))
    assert code == EXIT_DECISIVE
    lines = text.splitlines()
    assert lines[0] == "SZS status Satisfiable"
    assert lines[1] == "domain size 1"
    assert "witness check: ok" in lines
    assert any(line.startswith("p(0) = ") for line in lines)


def test_model_workflow_reports_exhausted_bound():
    code, text = run_text(RunConfig("model", path=FIGURE1, max_model_size=3))
    assert code == EXIT_UNKNOWN
    assert text == "SZS status Unknown\nno model of size up to 3\n"


# -- mus ------------------------------------------------------------------------

def test_mus_workflow_on_small_core(tmp_path):
    path = write_problem(
        tmp_path,
        "fof(p1, axiom, p).\nfof(p2, axiom, ~p).\nfof(q1, axiom, q).",
    )
    code, text = run_text(RunConfig("mus", path=path, check=True))
    assert code == EXIT_DECISIVE
    lines = text.splitlines()
    assert lines[0] == "SZS status Unsatisfiable"
    assert lines[1] == "core: p1 p2"
    assert "witness check: ok" in lines


def test_mus_workflow_needs_contradiction(tmp_path):
    path = write_problem(tmp_path, "fof(a, axiom, p).")
    code, text = run_text(RunConfig("mus", path=path))
    assert code == EXIT_UNKNOWN
    assert text.startswith("SZS status Unknown\n")
    assert "not refuted" in text


# -- artifacts -------------------------------------------------------------------

def test_proof_artifact_written(tmp_path):
    proof = tmp_path / "proof.txt"
    path = write_problem(
        tmp_path, "fof(a, axiom, p(c)).\nfof(b, axiom, ![X] : ~p(X))."
    )
    config = RunConfig("prove", path=path, proof_out=str(proof))
    code, text = run_text(config)
    assert code == EXIT_DECISIVE
    saved = proof.read_text()
    assert saved.splitlines()[-1].startswith("0. $false")
    assert saved in text  # the report embeds the same derivation


def test_model_artifact_written(tmp_path):
    target = tmp_path / "model.txt"
    path = write_problem(tmp_path, "fof(a, axiom, p(c)).")
    code, text = run_text(RunConfig("model", path=path, model_out=str(target)))
    assert code == EXIT_DECISIVE
    saved = target.read_text()
    assert saved.startswith("SZS status Satisfiable\ndomain size 1\n")
    assert saved == text


def test_mus_proof_artifact_written(tmp_path):
    proof = tmp_path / "core.txt"
    path = write_problem(
        tmp_path,
        "fof(p1, axiom, p).\nfof(p2, axiom, ~p).\nfof(q1, axiom, q).",
    )
    model = tmp_path / "model.txt"
    config = RunConfig("mus", path=path, proof_out=str(proof), model_out=str(model))
    code, _ = run_text(config)
    assert code == EXIT_DECISIVE
    saved = proof.read_text()
    assert saved.splitlines()[-1].startswith("0. $false")
    assert "[input p1]" in saved and "[input p2]" in saved and "q1" not in saved
    assert not model.exists()  # a core comes with a refutation, not a model


def test_countermodel_artifact_from_prove(tmp_path):
    target = tmp_path / "counter.txt"
    path = write_problem(
        tmp_path, "fof(a, axiom, p(c)).\nfof(goal, conjecture, ![X] : p(X))."
    )
    code, _ = run_text(
        RunConfig("prove", path=path, model_out=str(target))
    )
    assert code == EXIT_DECISIVE
    assert target.read_text().startswith("SZS status CounterSatisfiable\n")


def test_unwritable_proof_out_is_an_input_error(tmp_path, capsys):
    path = write_problem(
        tmp_path, "fof(a, axiom, p(c)).\nfof(b, axiom, ![X] : ~p(X))."
    )
    assert main(["prove", path]) == EXIT_DECISIVE
    report = capsys.readouterr().out
    target = tmp_path / "missing" / "proof.txt"
    assert main(["prove", path, "--proof-out", str(target)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == report
    assert captured.err.startswith(f"error: cannot write {target}: ")


def test_model_out_naming_a_directory_is_an_input_error(tmp_path, capsys):
    path = write_problem(tmp_path, "fof(a, axiom, p(c)).")
    assert main(["model", path]) == EXIT_DECISIVE
    report = capsys.readouterr().out
    assert main(["model", path, "--model-out", str(tmp_path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == report
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ")


# -- input errors -----------------------------------------------------------------

def test_missing_file_is_an_input_error(capsys):
    assert run(RunConfig("prove", path="/nonexistent/x.p")) == EXIT_INPUT
    assert "no such file" in capsys.readouterr().err


def test_directory_is_an_input_error(tmp_path, capsys):
    assert run(RunConfig("prove", path=str(tmp_path))) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot read ")


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.p"
    path.write_bytes(b"\xfffof(a, axiom, p).\n")
    assert run(RunConfig("prove", path=str(path))) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err


def test_parse_error_is_an_input_error(tmp_path, capsys):
    path = write_problem(tmp_path, "fof(a, axiom, p & | q).")
    assert run(RunConfig("prove", path=path)) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def _nested(depth):
    """Units nested exactly depth levels: formulas under `~`, a term under f."""
    term = "f(" * (depth - 1) + "a" + ")" * (depth - 1)
    negated = "~" * depth + "p"
    return (
        f"fof(n, axiom, {negated}).\nfof(t, axiom, q({term})).\n"
        f"fof(c, conjecture, {negated}).\n"
    )


@pytest.mark.parametrize("command", ["consistency", "model", "prove"])
def test_input_nested_up_to_the_bound_decides(tmp_path, command):
    path = write_problem(tmp_path, _nested(MAX_NESTING))
    assert run_text(RunConfig(command, path=path, check=True))[0] == EXIT_DECISIVE


@pytest.mark.parametrize(
    "text",
    [
        "fof(n, axiom, " + "~" * (MAX_NESTING + 1) + "p).",
        "fof(t, axiom, q(" + "f(" * MAX_NESTING + "a" + ")" * MAX_NESTING + ")).",
        "fof(c, axiom, " + " & ".join(["p"] * (MAX_NESTING + 2)) + ").",
        "fof(d, axiom, " + "~" * 3000 + "p).",
    ],
    ids=["formula", "term", "chain", "deep"],
)
def test_input_nested_past_the_bound_exits_two(tmp_path, capsys, text):
    path = write_problem(tmp_path, text)
    assert run(RunConfig("consistency", path=path)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: line 1, column ")
    assert f"deeper than {MAX_NESTING} levels" in err


def _called_from_depth(frames, fn, *args):
    """fn(*args), called with frames more Python frames below it."""
    if frames == 0:
        return fn(*args)
    return _called_from_depth(frames - 1, fn, *args)


@pytest.mark.parametrize(
    "text",
    [
        "fof(a, axiom, " + "(" * MAX_NESTING + "p" + ")" * MAX_NESTING + ").",
        "fof(a, axiom, "
        + "".join(f"![X{i}] : " for i in range(MAX_NESTING - 1))
        + "p(X0)).",
    ],
    ids=["parentheses", "quantifiers"],
)
def test_input_at_the_bound_decides_from_deep_in_the_callers_stack(tmp_path, text):
    # the parser spends two frames per level, so 200 levels fit in the
    # default 1,000-frame limit with room for a caller's own 250
    path = write_problem(tmp_path, text)
    argv = ["consistency", path, "--time-limit", "5"]
    assert _called_from_depth(250, main, argv) == EXIT_DECISIVE


def test_unknown_asylum_label_is_an_input_error(capsys):
    assert run(RunConfig("consistency", labels=["ax99"])) == EXIT_INPUT
    assert "ax99" in capsys.readouterr().err


# -- determinism ------------------------------------------------------------------

def test_reports_are_byte_identical_across_runs(tmp_path):
    path = write_problem(
        tmp_path,
        "fof(a, axiom, f(c) = d).\nfof(b, axiom, p(f(c))).\n"
        "fof(c1, axiom, ~p(d)).\nfof(d1, axiom, q | r).",
    )
    config = RunConfig("prove", path=path)
    _, first = run_text(config)
    _, second = run_text(RunConfig("prove", path=path))
    assert first == second
    assert first.startswith("SZS status Unsatisfiable\n")


# -- argument parsing ---------------------------------------------------------------

def test_parser_builds_expected_namespace():
    args = build_parser().parse_args(
        ["prove", "x.p", "--max-size", "4", "--time-limit", "10",
         "--clause-limit", "500", "--check"]
    )
    assert args.command == "prove"
    assert args.file == "x.p"
    assert args.max_size == 4 and args.time_limit == 10.0
    assert args.clause_limit == 500 and args.check is True
    defaults = build_parser().parse_args(["prove", "x.p"])
    assert defaults.max_size == DEFAULT_MAX_MODEL_SIZE
    assert defaults.time_limit == Limits().max_seconds
    assert defaults.clause_limit == Limits().max_clauses
    assert defaults.check is False


def test_main_runs_asylum_subset(capsys):
    code = main(["asylum", "consistency", "--subset", "ax1,ax2"])
    assert code == EXIT_DECISIVE
    assert capsys.readouterr().out.startswith("SZS status Satisfiable\n")


def test_main_rejects_bad_flag_values(capsys):
    assert main(["prove", "x.p", "--max-size", "0"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_main_rejects_a_time_limit_that_never_runs_out(capsys, value):
    argv = ["asylum", "consistency", "--subset", "ax4,ax5", "--time-limit", value]
    assert main(argv) == EXIT_INPUT
    assert "--time-limit must be finite and positive" in capsys.readouterr().err


def test_main_exits_quietly_when_stdout_is_closed(monkeypatch, capsys):
    """As under `folkit asylum consistency --check | head -1`: no traceback."""
    read, write = os.pipe()
    os.close(read)
    # line buffered, so the report's first write raises BrokenPipeError
    with open(write, "w", buffering=1) as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["asylum", "model", "--subset", "ax6,ax7"]) == EXIT_UNKNOWN
        closed.write("after\n")  # the descriptor now leads to devnull
    assert capsys.readouterr().err == ""
