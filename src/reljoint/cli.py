"""Command-line pipeline: mine, candidates, solve, eval, synth, export-lp.

Each RunConfig field has one flag, declared once in `_configured`; a JSON
config file can preset any field and explicit flags win. Exit codes: 0
success, 1 usage or configuration problem, found before any data is read
or output written, 2 unreadable or malformed data.
Start-up loads click and this module; each command imports what it runs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import defaults

if TYPE_CHECKING:
    from .clues import ClueSet


class ConfigError(Exception):
    pass


SOLVE_MODES = ("hard", "soft")


@dataclass
class RunConfig:
    kappa: float = defaults.DEFAULT_KAPPA
    uniq_threshold: float = defaults.DEFAULT_THETA
    conf_threshold: float = defaults.DEFAULT_MIN_CONF
    top_k: int = defaults.DEFAULT_TOP_K
    alpha: float = 1.0
    mode: str = "hard"
    max_relations: int = 0
    time_budget_ms: int = defaults.DEFAULT_TIME_BUDGET_MS
    seed: int = defaults.DEFAULT_SEED

    def validate(self) -> None:
        # a config file may hold any JSON value: check each against its
        # field's type first (an int passes for a float, a bool for nothing)
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            allowed = (int, float) if kind is float else (kind,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
        # each number check is written so that NaN fails it
        if not self.kappa < 0:
            raise ConfigError(f"kappa must be negative, got {self.kappa}")
        if not 0.0 < self.uniq_threshold <= 1.0:
            raise ConfigError(f"uniq_threshold must be in (0,1], got {self.uniq_threshold}")
        if not 0.0 <= self.conf_threshold <= 1.0:
            raise ConfigError(f"conf_threshold must be in [0,1], got {self.conf_threshold}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if not 0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.mode not in SOLVE_MODES:
            raise ConfigError(f"mode must be hard or soft, got {self.mode!r}")
        if self.max_relations < 0:
            raise ConfigError(f"max_relations must be >= 0, got {self.max_relations}")
        if not self.time_budget_ms >= 0:
            raise ConfigError(f"time_budget_ms must be >= 0, got {self.time_budget_ms}")


def _resolve_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Config-file values override defaults; explicit flags override both."""
    values: dict = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def _load_clue_files(paths: tuple[str, ...]) -> ClueSet:
    from . import clues as clue_mod

    if not paths:
        return clue_mod.ClueSet()
    sets = [clue_mod.load_clue_file(p) for p in paths]
    return sets[0] if len(sets) == 1 else clue_mod.merge_clue_sets(*sets)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, ensure_ascii=False)
        handle.write("\n")


@click.group()
def cli() -> None:
    """Joint inference over relation predictions with KB-mined clues."""


def _configured(*names):
    """Give a command `--config` and one `--kebab-name` flag for each named
    RunConfig field, typed by the field's default. The flags default to
    None, so an absent one leaves the config file's value."""
    options = [click.option("--config", "config_path", type=click.Path(), default=None)]
    for f in fields(RunConfig):
        if f.name in names:
            kind = click.Choice(SOLVE_MODES) if f.name == "mode" else type(f.default)
            options.append(click.option("--" + f.name.replace("_", "-"), type=kind, default=None))

    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command

    return decorate


def _clue_kinds(_ctx, _param, value: str | None) -> list[str] | None:
    if not value:
        return None
    from .clues import ALL_KINDS

    kinds = value.split(",")
    unknown = set(kinds) - set(ALL_KINDS)
    if unknown:
        raise click.BadParameter(f"unknown clue kinds {sorted(unknown)}")
    return kinds


_predictions = click.option("--predictions", "predictions_path", required=True, type=click.Path())
_clues = click.option("--clues", "clue_paths", multiple=True, type=click.Path())
_families = click.option(
    "--families", default=None, callback=_clue_kinds, help="comma-separated clue families to keep"
)
_out = click.option("--out", "out_path", required=True, type=click.Path())
_out_dir = click.option("--out-dir", "out_dir", required=True, type=click.Path())


@cli.command()
@_configured("kappa", "uniq_threshold")
@click.option("--triples", "triples_path", required=True, type=click.Path())
@_out
def mine(config_path, triples_path, out_path, **overrides):
    """Mine type and uniqueness clues from a KB triple file."""
    from . import clues as clue_mod
    from .kb import load_triples

    config = _resolve_config(config_path, overrides)
    kb = load_triples(triples_path)
    clues = clue_mod.mine_clues(kb, config.kappa, config.uniq_threshold)
    clue_mod.save_clue_file(clues, out_path)
    counts = clues.counts()
    click.echo(
        "mined "
        + " ".join(f"{kind}={counts[kind]}" for kind in clue_mod.ALL_KINDS)
        + f" from {len(kb)} facts"
    )


@cli.command("candidates")
@_configured("top_k", "conf_threshold")
@_predictions
@_out
def candidates_cmd(config_path, predictions_path, out_path, **overrides):
    """Aggregate mention scores into per-pair candidate sets."""
    from . import candidates as cand

    config = _resolve_config(config_path, overrides)
    mentions = cand.load_predictions(predictions_path)
    pairs = cand.build_pair_candidates(mentions, config.top_k, config.conf_threshold)
    payload = {
        pc.pair_id: {
            "subject": pc.subject,
            "object": pc.object,
            "candidates": {
                rel: {
                    "conf": c.conf,
                    "max_mention": c.max_mention,
                    "supporting_mentions": list(c.supporting_mentions),
                }
                for rel, c in sorted(pc.candidates.items())
            },
        }
        for pc in pairs
    }
    _write_json(Path(out_path), payload)
    click.echo(f"{len(pairs)} pairs with candidates out of {len(mentions)} pairs seen")


def _build_pipeline(predictions_path, clue_paths, config, families):
    from . import candidates as cand
    from .clues import prune_clues

    mentions = cand.load_predictions(predictions_path)
    pairs = cand.build_pair_candidates(mentions, config.top_k, config.conf_threshold)
    clues = _load_clue_files(clue_paths)
    if families:
        clues = clues.restrict(families)
    if config.max_relations:
        clues = prune_clues(clues, pairs, config.max_relations)
    return mentions, pairs, clues


def _build_model(pairs, clues, config):
    from . import constraints as cons
    from . import ilp

    vars, hard = cons.generate_blocks(pairs, clues)
    soft = None
    if config.mode == "soft":
        hard, soft = cons.soften(vars, hard, config.alpha)
    model = ilp.build_model(vars, hard, soft)
    return vars, hard, soft, model


@cli.command()
@_configured("mode", "alpha", "top_k", "conf_threshold", "max_relations", "time_budget_ms")
@_predictions
@_clues
@_out_dir
@click.option("--method", type=click.Choice(["ilp", "mintzpp", "rule"]), default="ilp")
@_families
@click.option("--dump-constraints", "dump_path", type=click.Path(), default=None)
def solve(
    config_path, predictions_path, clue_paths, out_dir, method, families, dump_path, **overrides
):
    """Select a consistent prediction set and write it with a constraint census."""
    from . import evaluate as ev

    config = _resolve_config(config_path, overrides)
    if dump_path and method != "ilp":
        raise click.UsageError("--dump-constraints is only meaningful with --method ilp")
    mentions, pairs, clues = _build_pipeline(predictions_path, clue_paths, config, families)
    # every input is read: a data error leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    census_payload: dict = {
        "method": method,
        "mode": config.mode if method == "ilp" else None,
        "pairs_with_candidates": len(pairs),
        "clues": clues.counts(),
    }
    if method == "mintzpp":
        ranked = ev.mintzpp(mentions)
    elif method == "rule":
        ranked = ev.rule_based(pairs, clues)
    else:
        from . import constraints as cons
        from . import ilp

        vars, hard, soft, model = _build_model(pairs, clues, config)
        if dump_path:
            cons.dump_constraints(dump_path, vars, hard, soft)
        solution = ilp.solve(model, config.time_budget_ms)
        ranked = ev.ranked_from_solution(vars, solution)
        census_payload.update(
            {
                "variables": len(vars),
                "aux_variables": len(soft.aux_vars) if soft else 0,
                "constraints": cons.census(hard, soft),
                "solver": {
                    "components": solution.stats.components,
                    "nodes": solution.stats.nodes,
                    "optimal": solution.optimal,
                    "objective": solution.objective_value,
                },
            }
        )
    ev.write_ranked_predictions(out / "predictions.tsv", ranked)
    _write_json(out / "census.json", census_payload)
    click.echo(f"{len(ranked)} predictions -> {out / 'predictions.tsv'}")


@cli.command("eval")
@_configured()
@_predictions
@click.option("--gold", "gold_path", required=True, type=click.Path())
@_out_dir
@click.option("--baseline", "baseline_path", type=click.Path(), default=None)
def eval_cmd(config_path, predictions_path, gold_path, out_dir, baseline_path):
    """Precision-recall curve and peak F1 against gold; optional diff."""
    from . import evaluate as ev
    from .kb import read_triples

    _resolve_config(config_path, {})
    predictions = ev.read_ranked_predictions(predictions_path)
    gold = {(t.subject, t.relation, t.object) for t in read_triples(gold_path)}
    if not gold:
        raise ValueError(f"gold file {gold_path} holds no triples")
    baseline = ev.read_ranked_predictions(baseline_path) if baseline_path else None
    curve = ev.pr_curve(predictions, gold)
    peak = ev.peak_f1(curve)
    # every input is read: a data error leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ev.write_pr_csv(out / "pr_curve.csv", curve)
    summary = {
        "predictions": len(predictions),
        "gold": len(gold),
        "peak": {
            "precision": peak.precision,
            "recall": peak.recall,
            "f1": peak.f1,
            "rank": peak.rank,
        },
    }
    _write_json(out / "summary.json", summary)
    if baseline is not None:
        diff = ev.diff_analysis(baseline, predictions, gold)
        _write_json(
            out / "diff.json",
            {
                "eliminated": diff.eliminated,
                "corrected": diff.corrected,
                "introduced": diff.introduced,
                "details": diff.details,
            },
        )
    click.echo(
        f"peak F1 {peak.f1:.4f} (P {peak.precision:.4f}, R {peak.recall:.4f}) over {len(gold)} gold"
    )


@cli.command()
@_configured("seed")
@_out_dir
@click.option("--pairs", type=int, default=defaults.DEFAULT_PAIRS)
@click.option("--noise", type=float, default=defaults.DEFAULT_NOISE)
@click.option(
    "--mode",
    "world_mode",
    type=click.Choice(defaults.WORLD_MODES),
    default=defaults.DEFAULT_WORLD_MODE,
)
@click.option("--mentions-min", type=int, default=defaults.DEFAULT_MENTIONS_PER_PAIR[0])
@click.option("--mentions-max", type=int, default=defaults.DEFAULT_MENTIONS_PER_PAIR[1])
def synth(config_path, out_dir, pairs, noise, world_mode, mentions_min, mentions_max, **overrides):
    """Generate a seeded synthetic world (KB, gold task, noisy mentions)."""
    from . import synth as synth_mod

    config = _resolve_config(config_path, overrides)
    try:
        synth_config = synth_mod.SynthConfig(
            seed=config.seed,
            pairs=pairs,
            noise=noise,
            mode=world_mode,
            mentions_per_pair=(mentions_min, mentions_max),
        )
    except synth_mod.SynthConfigError as exc:
        raise ConfigError(str(exc)) from exc
    world = synth_mod.generate(synth_config, out_dir)
    click.echo(
        f"world with {world.fact_count} facts and {world.pair_count} task pairs in {out_dir}"
    )


@cli.command("export-lp")
@_configured("mode", "alpha", "top_k", "conf_threshold", "max_relations")
@_predictions
@_clues
@_out
@_families
def export_lp_cmd(config_path, predictions_path, clue_paths, out_path, families, **overrides):
    """Write the model as an LP text file for an external solver."""
    from . import ilp

    config = _resolve_config(config_path, overrides)
    _mentions, pairs, clues = _build_pipeline(predictions_path, clue_paths, config, families)
    _vars, _hard, _soft, model = _build_model(pairs, clues, config)
    ilp.export_lp(model, out_path)
    click.echo(f"{model.num_vars} variables -> {out_path}")


def main(argv=None) -> None:
    try:
        cli.main(args=argv, prog_name="reljoint", standalone_mode=False)
    except click.Abort:
        click.echo("aborted", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except (ValueError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
