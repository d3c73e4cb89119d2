import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import reljoint
from reljoint.cli import ConfigError, RunConfig, cli, main

from conftest import write_lines


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def world(tmp_path):
    from reljoint.synth import SynthConfig, generate

    counts = {"country": 60, "city": 72, "person": 66, "org": 60}
    config = SynthConfig(seed=3, pairs=60, noise=0.35, entity_counts=counts)
    return generate(config, tmp_path / "world")


def invoke(runner, args):
    result = runner.invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_mine_writes_clue_file(runner, world, tmp_path):
    out = tmp_path / "clues.json"
    result = invoke(runner, ["mine", "--triples", str(world.triples_path), "--out", str(out)])
    assert "mined" in result.output
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"sr", "ro", "rer", "ou", "su"}


def test_candidates_command(runner, world, tmp_path):
    out = tmp_path / "cands.json"
    invoke(
        runner,
        ["candidates", "--predictions", str(world.predictions_path), "--out", str(out)],
    )
    payload = json.loads(out.read_text(encoding="utf-8"))
    some_pair = next(iter(payload.values()))
    assert {"subject", "object", "candidates"} <= set(some_pair)


def test_solve_hard_and_eval(runner, world, tmp_path):
    clues = tmp_path / "clues.json"
    invoke(runner, ["mine", "--triples", str(world.triples_path), "--out", str(clues)])
    run_dir = tmp_path / "run"
    invoke(
        runner,
        [
            "solve",
            "--predictions", str(world.predictions_path),
            "--clues", str(clues),
            "--out-dir", str(run_dir),
        ],
    )
    census = json.loads((run_dir / "census.json").read_text(encoding="utf-8"))
    assert census["method"] == "ilp"
    assert census["solver"]["optimal"] is True
    assert "wall" not in json.dumps(census)

    eval_dir = tmp_path / "eval"
    result = invoke(
        runner,
        [
            "eval",
            "--predictions", str(run_dir / "predictions.tsv"),
            "--gold", str(world.gold_path),
            "--out-dir", str(eval_dir),
        ],
    )
    assert "peak F1" in result.output
    summary = json.loads((eval_dir / "summary.json").read_text(encoding="utf-8"))
    assert 0.0 <= summary["peak"]["f1"] <= 1.0
    header = (eval_dir / "pr_curve.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "recall,precision"


def test_solve_methods_and_diff(runner, world, tmp_path):
    clues = tmp_path / "clues.json"
    invoke(runner, ["mine", "--triples", str(world.triples_path), "--out", str(clues)])
    for method, extra in [("mintzpp", []), ("rule", ["--clues", str(clues)])]:
        out_dir = tmp_path / method
        invoke(
            runner,
            ["solve", "--predictions", str(world.predictions_path),
             "--out-dir", str(out_dir), "--method", method, *extra],
        )
        assert (out_dir / "predictions.tsv").exists()
    ilp_dir = tmp_path / "ilp"
    invoke(
        runner,
        ["solve", "--predictions", str(world.predictions_path),
         "--clues", str(clues), "--out-dir", str(ilp_dir)],
    )
    eval_dir = tmp_path / "eval_diff"
    invoke(
        runner,
        ["eval", "--predictions", str(ilp_dir / "predictions.tsv"),
         "--gold", str(world.gold_path), "--out-dir", str(eval_dir),
         "--baseline", str(tmp_path / "mintzpp" / "predictions.tsv")],
    )
    diff = json.loads((eval_dir / "diff.json").read_text(encoding="utf-8"))
    assert {"eliminated", "corrected", "introduced", "details"} <= set(diff)


def test_eval_against_itself_zero_diff(runner, world, tmp_path):
    run_dir = tmp_path / "run"
    invoke(
        runner,
        ["solve", "--predictions", str(world.predictions_path),
         "--out-dir", str(run_dir), "--method", "mintzpp"],
    )
    eval_dir = tmp_path / "eval"
    invoke(
        runner,
        ["eval", "--predictions", str(run_dir / "predictions.tsv"),
         "--gold", str(world.gold_path), "--out-dir", str(eval_dir),
         "--baseline", str(run_dir / "predictions.tsv")],
    )
    diff = json.loads((eval_dir / "diff.json").read_text(encoding="utf-8"))
    assert (diff["eliminated"], diff["corrected"], diff["introduced"]) == (0, 0, 0)


def test_hash_pair_id_survives_solve_and_eval(runner, tmp_path):
    # a ranked line whose pair id starts with '#' is a record, not a comment
    records = [
        {"pair_id": pair_id, "subject": subject, "object": "o", "mention_id": "m0",
         "scores": {"r": 0.9}}
        for pair_id, subject in [("#p1", "s1"), ("p2", "s2")]
    ]
    predictions = write_lines(tmp_path / "preds.jsonl", [json.dumps(r) for r in records])
    gold = write_lines(tmp_path / "gold.tsv", ["s1\tr\to", "s2\tr\to"])
    invoke(
        runner,
        ["solve", "--predictions", str(predictions), "--method", "mintzpp",
         "--out-dir", str(tmp_path / "run")],
    )
    invoke(
        runner,
        ["eval", "--predictions", str(tmp_path / "run" / "predictions.tsv"),
         "--gold", str(gold), "--out-dir", str(tmp_path / "eval")],
    )
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text(encoding="utf-8"))
    assert summary["predictions"] == 2
    assert summary["peak"]["recall"] == 1.0


def test_soft_mode_flag(runner, world, tmp_path):
    clues = tmp_path / "clues.json"
    invoke(runner, ["mine", "--triples", str(world.triples_path), "--out", str(clues)])
    out_dir = tmp_path / "soft"
    invoke(
        runner,
        ["solve", "--predictions", str(world.predictions_path), "--clues", str(clues),
         "--out-dir", str(out_dir), "--mode", "soft", "--alpha", "0.5"],
    )
    census = json.loads((out_dir / "census.json").read_text(encoding="utf-8"))
    assert census["mode"] == "soft"


def test_export_lp_command(runner, world, tmp_path):
    clues = tmp_path / "clues.json"
    invoke(runner, ["mine", "--triples", str(world.triples_path), "--out", str(clues)])
    out = tmp_path / "model.lp"
    invoke(
        runner,
        ["export-lp", "--predictions", str(world.predictions_path),
         "--clues", str(clues), "--out", str(out)],
    )
    text = out.read_text(encoding="utf-8")
    assert text.startswith("Maximize\n")
    assert text.endswith("End\n")


def test_empty_predictions_vacuous_run(runner, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out_dir = tmp_path / "run"
    invoke(runner, ["solve", "--predictions", str(empty), "--out-dir", str(out_dir)])
    assert (out_dir / "predictions.tsv").read_text(encoding="utf-8") == ""


def test_config_file_and_flag_precedence(runner, world, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"top_k": 1, "conf_threshold": 0.2}), encoding="utf-8")
    out_a = tmp_path / "a.json"
    invoke(
        runner,
        ["candidates", "--config", str(config),
         "--predictions", str(world.predictions_path), "--out", str(out_a)],
    )
    out_b = tmp_path / "b.json"
    invoke(
        runner,
        ["candidates", "--config", str(config), "--top-k", "3",
         "--predictions", str(world.predictions_path), "--out", str(out_b)],
    )
    count_a = sum(len(p["candidates"]) for p in json.loads(out_a.read_text()).values())
    count_b = sum(len(p["candidates"]) for p in json.loads(out_b.read_text()).values())
    assert count_b >= count_a


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit1:
        main(["solve", "--predictions", "x.jsonl"])  # missing required --out-dir
    assert exit1.value.code == 1

    with pytest.raises(SystemExit) as exit2:
        main(
            ["mine", "--triples", str(tmp_path / "missing.tsv"),
             "--out", str(tmp_path / "c.json")]
        )
    assert exit2.value.code == 2

    bad = write_lines(tmp_path / "bad.tsv", ["only_one_field"])
    with pytest.raises(SystemExit) as exit3:
        main(["mine", "--triples", str(bad), "--out", str(tmp_path / "c.json")])
    assert exit3.value.code == 2

    with pytest.raises(SystemExit) as exit4:
        main(
            ["mine", "--triples", str(bad), "--out", str(tmp_path / "c.json"),
             "--kappa", "1.0"]
        )
    assert exit4.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("mine", "--kappa"),
        ("mine", "--uniq-threshold"),
        ("candidates", "--conf-threshold"),
        ("solve", "--alpha"),
    ],
)
def test_nan_config_value_exits_1(tmp_path, capsys, command, flag):
    inputs = {
        "mine": ["--triples", str(tmp_path / "kb.tsv"), "--out", str(tmp_path / "c.json")],
        "candidates": ["--predictions", str(tmp_path / "p.jsonl"), "--out", str(tmp_path / "c.json")],
        "solve": ["--predictions", str(tmp_path / "p.jsonl"), "--out-dir", str(tmp_path / "run")],
    }
    with pytest.raises(SystemExit) as exit_info:
        main([command, *inputs[command], flag, "nan"])
    assert exit_info.value.code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "values",
    [{"alpha": "x"}, {"top_k": 2.5}, {"time_budget_ms": float("nan")}],
    ids=["string-alpha", "fractional-top-k", "nan-time-budget"],
)
def test_config_value_of_wrong_type_exits_1(tmp_path, capsys, world, values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["solve", "--config", str(config), "--predictions", str(world.predictions_path),
             "--out-dir", str(tmp_path / "run")]
        )
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert "config error" in err and next(iter(values)) in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_config_types():
    RunConfig(alpha=2, kappa=-1).validate()  # an int stands for a float
    for bad in ({"alpha": True}, {"top_k": True}, {"mode": 1}, {"seed": 1.0}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            RunConfig(**bad).validate()
    with pytest.raises(ConfigError, match="time_budget_ms"):
        RunConfig(time_budget_ms=-1).validate()


def test_nan_clue_score_exits_2(tmp_path, capsys, world):
    clues = tmp_path / "clues.json"
    clues.write_text('{"sr": [{"relations": ["a", "b"], "k_score": NaN}]}', encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["solve", "--predictions", str(world.predictions_path), "--clues", str(clues),
             "--out-dir", str(tmp_path / "run"), "--mode", "soft"]
        )
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "k_score" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "k_score, alpha, code, message",
    [
        (0.0, "inf", 1, "config error: alpha must be finite"),  # inf * 0 would be a NaN penalty
        (-10.0, "1e308", 2, "data error: coefficient of aux_0_1 is not finite"),  # overflows
    ],
    ids=["infinite-alpha", "overflowing-penalty"],
)
def test_non_finite_soft_penalty_exits(tmp_path, capsys, k_score, alpha, code, message):
    record = {
        "pair_id": "p", "subject": "a", "object": "b", "mention_id": "m0",
        "scores": {"r1": 0.5, "r2": 0.4},
    }
    predictions = write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
    clues = tmp_path / "clues.json"
    clues.write_text(json.dumps({"sr": [{"relations": ["r1", "r2"], "k_score": k_score}]}))
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["solve", "--predictions", str(predictions), "--clues", str(clues),
             "--out-dir", str(tmp_path / "run"), "--mode", "soft", "--alpha", alpha]
        )
    assert exit_info.value.code == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run" / "predictions.tsv").exists()


@pytest.mark.parametrize(
    "payload", ['{"ou": 5}', '{"sr": "ab"}', '{"su": [{"relation": "a", "ratio": true}]}']
)
def test_misshapen_clue_file_exits_2(tmp_path, capsys, world, payload):
    clues = tmp_path / "clues.json"
    clues.write_text(payload, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["solve", "--predictions", str(world.predictions_path), "--clues", str(clues),
             "--out-dir", str(tmp_path / "run")]
        )
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def test_bad_clue_file_among_two_is_named(tmp_path, capsys, world):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"sr": [["a", "b"]]}), encoding="utf-8")
    bad.write_text(json.dumps({"sr": [["a"]]}), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["solve", "--predictions", str(world.predictions_path), "--clues", str(good),
             "--clues", str(bad), "--out-dir", str(tmp_path / "run")]
        )
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"data error: {bad}: sr entry must be a pair of relation names: ['a']" in err
    assert str(good) not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "values",
    [
        {"scores": {"r1": True}},
        {"pair_id": None, "subject": None},
        {"scores": {"r1": "0.5"}},
        {"scores": {"r1": 10**400}},
        {"subject": "a\tb"},
        {"scores": {"r\n2": 0.5}},
    ],
    ids=["bool-score", "null-ids", "string-score", "huge-int-score", "tab-in-id",
         "newline-in-relation"],
)
def test_malformed_prediction_value_exits_2(tmp_path, capsys, values):
    record = {
        "pair_id": "p", "subject": "a", "object": "b", "mention_id": "m0", "scores": {"r1": 0.5},
    }
    predictions = write_lines(tmp_path / "p.jsonl", [json.dumps({**record, **values})])
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["solve", "--predictions", str(predictions), "--method", "mintzpp",
             "--out-dir", str(tmp_path / "run")]
        )
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "data error" in err and ":1: bad record" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "predictions.tsv").exists()


def test_import_loads_no_numpy():
    """Every command starts by importing the command line; numpy, which
    the package does not use, must not be part of that start-up even
    where it is installed."""
    src = str(Path(reljoint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, reljoint, reljoint.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True,
        timeout=60,
    )
    assert result.stdout.strip() == "False"


_PRINT_LOADED = """
import sys
print(" ".join(sorted(name for name in sys.modules if name.startswith("reljoint"))))
"""

_RUN_COMMAND = """
import sys
from reljoint.cli import main

try:
    main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
""" + _PRINT_LOADED


def _last_line_of_fresh_run(code: str, *args: str) -> str:
    src = str(Path(reljoint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def _loaded_modules(code: str, *args: str) -> set[str]:
    """The reljoint modules a fresh interpreter holds after running `code`."""
    return set(_last_line_of_fresh_run(code, *args).split())


_START_UP = {"reljoint", "reljoint.cli", "reljoint.defaults"}


def test_package_import_loads_no_module():
    assert _loaded_modules("import reljoint" + _PRINT_LOADED) == {"reljoint"}


@pytest.mark.parametrize(
    "argv, loads",
    [
        (None, set()),
        (["solve", "--help"], set()),
        (["mine", "--triples", "WORLD/triples.tsv", "--out", "OUT/clues.json"], {"kb", "clues"}),
        (["candidates", "--predictions", "WORLD/predictions.jsonl", "--out", "OUT/c.json"],
         {"candidates", "kb"}),
        (["eval", "--predictions", "OUT/run.tsv", "--gold", "WORLD/gold.tsv",
          "--out-dir", "OUT/eval"], {"evaluate", "candidates", "kb"}),
        (["synth", "--out-dir", "OUT/synth", "--pairs", "20"], {"synth", "candidates", "kb"}),
        (["solve", "--predictions", "WORLD/predictions.jsonl", "--method", "rule",
          "--out-dir", "OUT/rule"], {"evaluate", "candidates", "clues", "kb"}),
    ],
    ids=["import", "solve-help", "mine", "candidates", "eval", "synth", "solve-rule"],
)
def test_start_up_loads_only_what_the_command_runs(world, tmp_path, argv, loads):
    """Every command is its own process: importing the command line loads
    click, the command line and the defaults, and each command adds only
    the modules it runs."""
    if argv is None:
        loaded = _loaded_modules("import reljoint.cli" + _PRINT_LOADED)
    else:
        write_lines(tmp_path / "run.tsv", ["p0\ts\tr\to\t0.5"])
        argv = [a.replace("WORLD", str(world.triples_path.parent)).replace("OUT", str(tmp_path))
                for a in argv]
        loaded = _loaded_modules(_RUN_COMMAND, *argv)
    assert loaded == _START_UP | {f"reljoint.{name}" for name in loads}


# the names the package root exported when it imported every module eagerly
_EXPORTED = {
    "candidates": ["NA_LABEL", "Candidate", "MentionPrediction", "PairCandidates", "aggregate",
                   "build_pair_candidates", "load_predictions", "select_mention_candidates"],
    "clues": ["ClueSet", "TypeClue", "UniquenessClue", "kulczynski", "load_clue_file",
              "merge_clue_sets", "mine_clues", "mine_type_clues", "mine_uniqueness_clues",
              "prune_clues", "save_clue_file"],
    "constraints": ["AuxVar", "ConflictBlock", "DecisionVar", "HardConstraint",
                    "SoftAugmentation", "generate_blocks", "generate_hard", "soften"],
    "evaluate": ["DiffReport", "PeakF1", "PrPoint", "RankedPrediction", "diff_analysis",
                 "mintzpp", "peak_f1", "pr_curve", "ranked_from_solution", "rule_based"],
    "ilp": ["Component", "IlpModel", "Solution", "brute_force", "build_model",
            "check_assignment", "decompose", "export_lp", "selection_objective", "solve"],
    "kb": ["KbIndex", "Triple", "load_triples", "read_triples"],
    "synth": ["GeneratedWorld", "RelationSpec", "SynthConfig", "generate"],
}
_EXPORTED_NAMES = sorted(name for names in _EXPORTED.values() for name in names)


def test_package_root_resolves_each_name_from_its_home_module():
    import importlib

    for module, names in _EXPORTED.items():
        home = importlib.import_module(f"reljoint.{module}")
        for name in names:
            assert getattr(reljoint, name) is getattr(home, name), name
    assert len(_EXPORTED_NAMES) == 55
    assert sorted(reljoint.__all__) == _EXPORTED_NAMES
    assert set(_EXPORTED_NAMES) <= set(dir(reljoint))
    with pytest.raises(AttributeError, match="no_such_name"):
        reljoint.no_such_name  # noqa: B018


def test_star_import_of_the_package_root():
    probe = "from reljoint import *\nprint(*sorted(k for k in dir() if not k.startswith('_')))"
    assert _last_line_of_fresh_run(probe).split() == _EXPORTED_NAMES


_QUICK_START_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from reljoint.cli import main
from reljoint.ilp import IlpModel, brute_force

out = sys.argv[1]
main(["synth", "--out-dir", f"{out}/world", "--pairs", "200", "--seed", "7"])
main(["mine", "--triples", f"{out}/world/triples.tsv", "--out", f"{out}/clues.json"])
flags = ["--predictions", f"{out}/world/predictions.jsonl", "--clues", f"{out}/clues.json"]
main(["solve", *flags, "--out-dir", f"{out}/soft", "--mode", "soft"])
main(["eval", "--predictions", f"{out}/soft/predictions.tsv",
      "--gold", f"{out}/world/gold.tsv", "--out-dir", f"{out}/eval"])
main(["export-lp", *flags, "--out", f"{out}/model.lp"])
model = IlpModel(coeffs=[0.5, 0.9, 0.7, -0.2], num_decision=3, pairwise=[(0, 1)],
                 links=[(0, 2, 3)])
print(brute_force(model).selected())
"""


def test_quick_start_and_oracle_run_without_numpy(tmp_path):
    """numpy is not a dependency: the quick start and the brute-force
    oracle run in an interpreter where importing numpy fails."""
    src = str(Path(reljoint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", _QUICK_START_WITHOUT_NUMPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[1, 2]"
    for name in ("soft/predictions.tsv", "soft/census.json", "eval/summary.json", "model.lp"):
        assert (tmp_path / name).stat().st_size > 0, name


def test_run_config_defaults_match_documented_values():
    config = RunConfig()
    assert config.kappa == -3.0
    assert config.uniq_threshold == 0.8
    assert config.conf_threshold == 0.1
    assert config.top_k == 3
    assert config.alpha == 1.0
    assert config.mode == "hard"
    assert config.max_relations == 0
    assert config.time_budget_ms == 60000
    assert config.seed == 0
    synth_flags = {param.name: param.default for param in cli.commands["synth"].params}
    assert {name: synth_flags[name] for name in
            ("pairs", "noise", "world_mode", "mentions_min", "mentions_max")} == {
        "pairs": 500, "noise": 0.3, "world_mode": "conflict", "mentions_min": 1, "mentions_max": 3,
    }
    from reljoint.synth import SynthConfig

    world = SynthConfig()
    assert (world.seed, world.pairs, world.noise, world.mode, world.mentions_per_pair) == (
        config.seed, synth_flags["pairs"], synth_flags["noise"], synth_flags["world_mode"],
        (synth_flags["mentions_min"], synth_flags["mentions_max"]),
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve", "--families", "sr,xx"], "unknown clue kinds ['xx']"),
        (["export-lp", "--families", "sr,xx"], "unknown clue kinds ['xx']"),
        (["solve", "--method", "rule", "--dump-constraints", "DUMP"], "only meaningful"),
    ],
    ids=["solve-unknown-family", "export-lp-unknown-family", "dump-without-ilp"],
)
def test_usage_error_exits_1_before_any_file_is_touched(tmp_path, capsys, args, message):
    out = "--out-dir" if args[0] == "solve" else "--out"
    argv = [a.replace("DUMP", str(tmp_path / "dump.tsv")) for a in args]
    # the predictions file does not exist: a usage error must come first
    argv += ["--predictions", str(tmp_path / "missing.jsonl"), out, str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == []


def test_non_finite_ranked_score_exits_2(tmp_path, capsys, world):
    predictions = write_lines(tmp_path / "run.tsv", ["p0\ts\tr\to\tnan"])
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["eval", "--predictions", str(predictions), "--gold", str(world.gold_path),
             "--out-dir", str(tmp_path / "eval")]
        )
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "run.tsv:1: score 'nan' is not a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["solve-missing-predictions", "eval-nan-score", "eval-nan-baseline"])
def test_data_error_leaves_no_out_dir(tmp_path, capsys, world, case):
    good = write_lines(tmp_path / "good.tsv", ["p0\ts\tr\to\t0.5"])
    nan = write_lines(tmp_path / "nan.tsv", ["p0\ts\tr\to\tnan"])
    out = tmp_path / "out"
    eval_args = ["eval", "--gold", str(world.gold_path), "--out-dir", str(out)]
    argv = {
        "solve-missing-predictions": ["solve", "--predictions", str(tmp_path / "missing.jsonl"),
                                      "--out-dir", str(out)],
        "eval-nan-score": [*eval_args, "--predictions", str(nan)],
        "eval-nan-baseline": [*eval_args, "--predictions", str(good), "--baseline", str(nan)],
    }[case]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


# every command's options as released: flag -> (parameter, type or
# choices, default, required, multiple)
RELEASED_OPTIONS = {
    "mine": {
        "--config": ("config_path", "path", None, False, False),
        "--triples": ("triples_path", "path", None, True, False),
        "--out": ("out_path", "path", None, True, False),
        "--kappa": ("kappa", "float", None, False, False),
        "--uniq-threshold": ("uniq_threshold", "float", None, False, False),
    },
    "candidates": {
        "--config": ("config_path", "path", None, False, False),
        "--predictions": ("predictions_path", "path", None, True, False),
        "--out": ("out_path", "path", None, True, False),
        "--top-k": ("top_k", "integer", None, False, False),
        "--conf-threshold": ("conf_threshold", "float", None, False, False),
    },
    "solve": {
        "--config": ("config_path", "path", None, False, False),
        "--predictions": ("predictions_path", "path", None, True, False),
        "--clues": ("clue_paths", "path", None, False, True),
        "--out-dir": ("out_dir", "path", None, True, False),
        "--method": ("method", ("ilp", "mintzpp", "rule"), "ilp", False, False),
        "--mode": ("mode", ("hard", "soft"), None, False, False),
        "--alpha": ("alpha", "float", None, False, False),
        "--top-k": ("top_k", "integer", None, False, False),
        "--conf-threshold": ("conf_threshold", "float", None, False, False),
        "--max-relations": ("max_relations", "integer", None, False, False),
        "--time-budget-ms": ("time_budget_ms", "integer", None, False, False),
        "--families": ("families", "text", None, False, False),
        "--dump-constraints": ("dump_path", "path", None, False, False),
    },
    "eval": {
        "--config": ("config_path", "path", None, False, False),
        "--predictions": ("predictions_path", "path", None, True, False),
        "--gold": ("gold_path", "path", None, True, False),
        "--out-dir": ("out_dir", "path", None, True, False),
        "--baseline": ("baseline_path", "path", None, False, False),
    },
    "synth": {
        "--config": ("config_path", "path", None, False, False),
        "--out-dir": ("out_dir", "path", None, True, False),
        "--pairs": ("pairs", "integer", 500, False, False),
        "--noise": ("noise", "float", 0.3, False, False),
        "--mode": ("world_mode", ("conflict", "riedel"), "conflict", False, False),
        "--seed": ("seed", "integer", None, False, False),
        "--mentions-min": ("mentions_min", "integer", 1, False, False),
        "--mentions-max": ("mentions_max", "integer", 3, False, False),
    },
    "export-lp": {
        "--config": ("config_path", "path", None, False, False),
        "--predictions": ("predictions_path", "path", None, True, False),
        "--clues": ("clue_paths", "path", None, False, True),
        "--out": ("out_path", "path", None, True, False),
        "--mode": ("mode", ("hard", "soft"), None, False, False),
        "--alpha": ("alpha", "float", None, False, False),
        "--top-k": ("top_k", "integer", None, False, False),
        "--conf-threshold": ("conf_threshold", "float", None, False, False),
        "--max-relations": ("max_relations", "integer", None, False, False),
        "--families": ("families", "text", None, False, False),
    },
}


def test_every_command_keeps_its_released_options():
    def signature(param):
        kind = getattr(param.type, "choices", None)
        # click versions differ in what they store as the default of a
        # required or repeated option; neither has one of its own
        default = None if param.required or param.multiple else param.default
        return (param.name, tuple(kind) if kind else param.type.name, default,
                param.required, param.multiple)

    actual = {
        name: {param.opts[0]: signature(param) for param in command.params}
        for name, command in cli.commands.items()
    }
    assert actual == RELEASED_OPTIONS
    assert all(len(command.params) == len(RELEASED_OPTIONS[name])
               for name, command in cli.commands.items())


def test_solve_dump_constraints(runner, world, tmp_path):
    clues = tmp_path / "clues.json"
    invoke(runner, ["mine", "--triples", str(world.triples_path), "--out", str(clues)])
    out_dir = tmp_path / "run"
    dump = tmp_path / "constraints.tsv"
    invoke(
        runner,
        ["solve", "--predictions", str(world.predictions_path), "--clues", str(clues),
         "--out-dir", str(out_dir), "--dump-constraints", str(dump)],
    )
    census = json.loads((out_dir / "census.json").read_text(encoding="utf-8"))
    total = sum(census["constraints"]["hard"].values()) + sum(
        census["constraints"]["soft"].values()
    )
    assert len(dump.read_text(encoding="utf-8").splitlines()) == total


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_lp_and_dump_files_match_the_row_model(runner, world, tmp_path, mode):
    """`solve` and `export-lp` carry bicliques; their files are those of
    the model built from `generate_hard`'s pairwise rows."""
    from reljoint import clues as clue_mod
    from reljoint.candidates import build_pair_candidates, load_predictions
    from reljoint.constraints import dump_constraints, generate_hard, soften
    from reljoint.ilp import build_model, export_lp

    mined = tmp_path / "mined.json"
    invoke(runner, ["mine", "--triples", str(world.triples_path), "--out", str(mined)])
    loaded = clue_mod.load_clue_file(mined)
    # every other type clue gets a finite score, which soft mode relaxes
    scored = {
        kind: [
            clue_mod.TypeClue(kind, c.rel_a, c.rel_b, -4.0 if k % 2 else c.k_score, "mined")
            for k, c in enumerate(getattr(loaded, kind))
        ]
        for kind in clue_mod.TYPE_KINDS
    }
    clues = clue_mod.ClueSet(**scored, ou=loaded.ou, su=loaded.su)
    clue_file = tmp_path / "clues.json"
    clue_mod.save_clue_file(clues, clue_file)
    flags = ["--predictions", str(world.predictions_path), "--clues", str(clue_file),
             "--mode", mode, "--alpha", "0.5"]
    invoke(runner, ["export-lp", *flags, "--out", str(tmp_path / "model.lp")])
    invoke(runner, ["solve", *flags, "--out-dir", str(tmp_path / "run"),
                    "--dump-constraints", str(tmp_path / "dump.tsv")])

    vars, rows = generate_hard(
        build_pair_candidates(load_predictions(world.predictions_path)),
        clue_mod.load_clue_file(clue_file),
    )
    soft = None
    if mode == "soft":
        rows, soft = soften(vars, rows, 0.5)
        assert soft.aux_vars
    export_lp(build_model(vars, rows, soft), tmp_path / "rows.lp")
    dump_constraints(tmp_path / "rows.tsv", vars, rows, soft)
    assert (tmp_path / "model.lp").read_bytes() == (tmp_path / "rows.lp").read_bytes()
    assert (tmp_path / "dump.tsv").read_bytes() == (tmp_path / "rows.tsv").read_bytes()


def test_three_thousand_pair_hub(runner, tmp_path):
    """One subject in 3000 pairs under a manual sr(ra, rb) clue: one
    biclique standing for nine million rows, whose two sides each merge
    into one variable, so the solve takes one node."""
    from random import Random

    from reljoint.candidates import MentionPrediction, write_predictions_file

    rng = Random(7)
    mentions = [
        MentionPrediction(
            f"h{i:05d}", "hub", f"obj_{i:05d}", f"h{i:05d}_m0",
            {"ra": rng.uniform(0.45, 0.7), "rb": rng.uniform(0.1, 0.3)},
        )
        for i in range(3000)
    ]
    predictions = tmp_path / "predictions.jsonl"
    write_predictions_file(predictions, mentions)
    clues = write_lines(tmp_path / "clues.json", ['{"sr": [["ra", "rb"]]}'])
    invoke(runner, ["solve", "--predictions", str(predictions), "--clues", str(clues),
                    "--out-dir", str(tmp_path / "run")])
    census = json.loads((tmp_path / "run" / "census.json").read_text(encoding="utf-8"))
    assert census["constraints"]["hard"]["sr"] == 9_000_000
    assert census["solver"]["nodes"] == 1
    assert census["solver"]["optimal"] is True
    selected = (tmp_path / "run" / "predictions.tsv").read_text(encoding="utf-8").splitlines()
    assert len(selected) == 3000 and all(line.split("\t")[2] == "ra" for line in selected)


_PIPELINE = """
import sys
from reljoint.cli import main

out = sys.argv[1]
main(["synth", "--out-dir", f"{out}/world", "--pairs", "400", "--seed", "7"])
main(["mine", "--triples", f"{out}/world/triples.tsv", "--out", f"{out}/clues.json",
      "--kappa", "-0.2"])
flags = ["--predictions", f"{out}/world/predictions.jsonl", "--clues", f"{out}/clues.json"]
main(["solve", *flags, "--out-dir", f"{out}/hard", "--dump-constraints", f"{out}/hard.tsv"])
main(["solve", *flags, "--out-dir", f"{out}/mintzpp", "--method", "mintzpp"])
main(["solve", *flags, "--out-dir", f"{out}/rule", "--method", "rule"])
soft = [*flags, "--mode", "soft", "--alpha", "0.5"]
main(["solve", *soft, "--out-dir", f"{out}/soft", "--dump-constraints", f"{out}/soft.tsv"])
main(["export-lp", *flags, "--out", f"{out}/hard.lp"])
main(["export-lp", *soft, "--out", f"{out}/soft.lp"])
main(["eval", "--predictions", f"{out}/soft/predictions.tsv",
      "--gold", f"{out}/world/gold.tsv", "--out-dir", f"{out}/eval",
      "--baseline", f"{out}/rule/predictions.tsv"])
"""

# SHA-256 of every file `_PIPELINE` writes. They hold on every supported
# Python; a change that moves one changes an output and must say so.
_PIPELINE_DIGESTS = {
    "clues.json": "c5cc78c5f30a0f02378f797659277b48a9b62799f7b0af729338be8514539646",
    "eval/diff.json": "31f806d7135735c57ae5c8e0e207f1a8b32331e195016a2887238e63dcb7c03c",
    "eval/pr_curve.csv": "125effd49cf1a7df5169007125e197de75e98ec868dc081a9d209dcb12970245",
    "eval/summary.json": "0dbce48047d63b273a1d03e63b009a65ac85a31614d30479d5cb3ea0f4cb4594",
    "hard/census.json": "0629109664c0ba6f1e94a072ea9f0e4a17ccedbe4c7b38eaecdef5a5a962c379",
    "hard/predictions.tsv": "f6b72a9a4b81e12314207330755d1027d7002e70d5b1d032d69ca71cafbc0601",
    "hard.lp": "aa97eb61229d8027bf2d4fe395c1a016724d416e05064691016d14797e4c927c",
    "hard.tsv": "23fa43d6d733c490e09c5cc17885b4af1e50f12d1f169a48583acba10d746e89",
    "mintzpp/census.json": "650987555c068cc0d91fa8d05a9a1766f622add30b0f16a7402704830a411c2d",
    "mintzpp/predictions.tsv": "4c5e292b73101671ed1a9666f9c537fad536cd616669a1b6a936dea2e69de6a2",
    "rule/census.json": "9637eb4ea4ff6f1184f774264f639b51a7aab8f0f974420704d8f74cc9293951",
    "rule/predictions.tsv": "0581b03f7af9343d5abfdb418b05ba3681c465e61f0316c3e22c6cbaf29f2583",
    "soft/census.json": "8849eb9adebcfa43ff77e861e9e1847c1b12a19d00a5fc51632dbd359b622a49",
    "soft/predictions.tsv": "01dcf84d8f0c3c947c61e03250ed162ec393e52d5024c137b1cc5504b7e318fa",
    "soft.lp": "d67601ca73504217d6c79b0b5b3246f5006d39e11d936ff2752133ccfa62b858",
    "soft.tsv": "a4831259876292992cf85ed31a6223b9085290a6477527b2c2870669f7e81de2",
    "world/gold.tsv": "9ca029050bcbc8593dcecf09081dd1d4d1a6ab5546feab4ed0bb5c2c11dbb786",
    "world/predictions.jsonl": "06161d8189b93b0714da19e1b50936d24beca0b94b3f799f3d04af65f5cc07dc",
    "world/triples.tsv": "b86a9dd16c2f8f2af69ebaa8072b7d760b14a6f2bf2422a839a8dd588395f9ec",
}


def test_outputs_identical_across_hash_seeds(tmp_path):
    """The whole pipeline, run in interpreters with different string-hash
    seeds, writes the same bytes: no output depends on set or dict order
    of hashed keys. Those bytes are the pinned ones. Kappa -0.2 gives
    finite clue scores, so soft mode solves with links."""
    src = str(Path(reljoint.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", _PIPELINE, str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append(
            {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        )
    census = json.loads(outputs[0]["soft/census.json"])
    assert census["aux_variables"] > 0 and census["solver"]["optimal"]
    assert json.loads(outputs[0]["hard/census.json"])["solver"]["optimal"]
    assert sorted(outputs[0]) == sorted(outputs[1])
    for name, data in outputs[0].items():
        assert data == outputs[1][name], name
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs[0].items()}
    assert digests == _PIPELINE_DIGESTS
