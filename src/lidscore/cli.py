"""Command-line entry points.

Every subcommand takes `--config <file>` and `--out <dir>`; exit codes are
0 on success, 2 on validation failure, 3 on runtime failure. A subcommand
that fails writes nothing: it computes every result before the first write.

    lidscore validate --config project.yaml
    lidscore storm    --config project.yaml --out results
    lidscore atrcr    --config project.yaml --out results
    lidscore simulate --config project.yaml --out results
    lidscore weights  --config project.yaml --out results
    lidscore evaluate --config project.yaml --out results
    lidscore rank     --config project.yaml --out results
    lidscore report   --config project.yaml --out results --format markdown
"""

from __future__ import annotations

import functools
import sys
import warnings
from pathlib import Path

import click

from lidscore.config import load_config
from lidscore.errors import ConfigError, LidscoreError

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


@click.group()
def main():
    """Evaluate and rank LID stormwater design scenarios."""


def _echo_user_warnings(show):
    """A `warnings.showwarning` that prints each UserWarning as one
    `warning: <message>` line on stderr and hands any other warning to
    `show`."""
    def showwarning(message, category, *args, **kwargs):
        if not issubclass(category, UserWarning):
            return show(message, category, *args, **kwargs)
        click.echo(f"warning: {message}", err=True)
    return showwarning


def _common(fn):
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=False), help="Project YAML file.")
    @click.option("--out", "out_dir", default=None,
                  type=click.Path(), help="Output directory (default from config).")
    @functools.wraps(fn)
    def wrapper(config_path, out_dir, **kwargs):
        try:
            with warnings.catch_warnings():
                warnings.showwarning = _echo_user_warnings(warnings.showwarning)
                config = load_config(config_path)
                fn(config, Path(out_dir) if out_dir else config.output_dir, **kwargs)
        except ConfigError as exc:
            for line in exc.errors:
                click.echo(f"error: {line}", err=True)
            sys.exit(EXIT_VALIDATION)
        except LidscoreError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_RUNTIME)

    return wrapper


@main.command()
@_common
def validate(config, out_dir):
    """Check the project file and report every problem found."""
    click.echo(f"{config.path}: OK ({len(config.subcatchments)} subcatchments, "
               f"{len(config.scenarios)} scenarios)")


@main.command()
@_common
def storm(config, out_dir):
    """Generate the design-storm suite as CSV hyetographs."""
    from lidscore.pipeline import _persist_storms, _Writer, build_storms

    storms = build_storms(config)
    for path, hyeto in zip(_persist_storms(_Writer(out_dir), storms), storms.values()):
        click.echo(f"wrote {path} (depth {hyeto.depth_mm():.2f} mm, "
                   f"peak {hyeto.intensities_mm_hr.max():.1f} mm/hr)")


@main.command()
@_common
def atrcr(config, out_dir):
    """Capture-depth statistics from the configured rainfall record."""
    from lidscore.pipeline import _persist_atrcr_curve, _Writer, compute_sizing

    if config.sizing is None or config.sizing.target.record is None:
        raise ConfigError("config has no sizing.target.rainfall_csv")
    sizing = compute_sizing(config)
    path = _persist_atrcr_curve(_Writer(out_dir), sizing.atrcr_points)
    if (target := config.sizing.target.atrcr) is not None:
        click.echo(f"ATRCR {target:.0%} is reached at a capture depth of "
                   f"{sizing.target_depth_mm:.2f} mm")
    click.echo(f"wrote {path}")


@main.command()
@_common
def simulate(config, out_dir):
    """Run baseline and scenario simulations; write hydrographs and loads."""
    from lidscore.pipeline import _persist_runs, _Stage, _Writer, build_storms, simulate_all

    # the load rule asks for subcatchments only where `rank` simulates
    if not config.subcatchments:
        raise ConfigError("catchment: no subcatchment to simulate")
    with _Stage("simulation"):
        runs = simulate_all(config, build_storms(config))
    _persist_runs(_Writer(out_dir), config, runs)
    for label, storm_runs in runs.items():
        for run in storm_runs:
            worst = max(b.closure_error() for b in run.balances.values())
            click.echo(f"{label} / {run.storm}: volume "
                       f"{run.summary.volume_m3:.0f} m3, peak "
                       f"{run.summary.peak_lps:.0f} L/s, worst closure "
                       f"{worst:.2e}")


@main.command()
@_common
def weights(config, out_dir):
    """Write the hierarchy weights resolved at load (values or matrices)."""
    from lidscore.pipeline import _persist_weights, _Writer

    path = _persist_weights(_Writer(out_dir), config.tree, config.consistency)
    for node, r in sorted(config.consistency.items()):
        click.echo(f"{node}: lambda_max {r.lambda_max:.4f}, CR {r.cr:.4f} "
                   f"({'ok' if r.passed else 'REJECTED'})")
    click.echo(f"wrote {path}")


@main.command()
@_common
def evaluate(config, out_dir):
    """Build the indicator tables (simulating where the hierarchy asks)."""
    from lidscore.pipeline import (_persist_indicators, _Stage, _Writer,
                                   assemble_indicators, simulate_if_needed)

    # without scenarios assemble_indicators fails at once: simulate nothing
    runs = simulate_if_needed(config) if config.scenarios else None
    with _Stage("indicator assembly"):
        tables = assemble_indicators(config, runs)
    writer = _Writer(out_dir)
    _persist_indicators(writer, *tables)
    for rel in writer.files:
        click.echo(f"wrote {out_dir / rel}")


def _warn_if_tied(manifest) -> None:
    if manifest.tied:
        click.echo("warning: ranking has tied comprehensive scores")


@main.command()
@click.option("--sensitivity", "sensitivity_node", default=None,
              help="Hierarchy node whose weight to perturb.")
@click.option("--delta", default=0.05, show_default=True,
              help="Weight perturbation for --sensitivity.")
@_common
def rank(config, out_dir, sensitivity_node, delta):
    """Run the full pipeline and print the scenario ranking."""
    from lidscore.pipeline import run_pipeline

    manifest = run_pipeline(
        config, out_dir,
        sensitivity=(sensitivity_node, delta) if sensitivity_node else None,
    )
    if manifest.ranking:
        click.echo("ranking: " + " > ".join(manifest.ranking))
    else:
        click.echo("ranking: (no scenarios)")
    _warn_if_tied(manifest)
    for name, ok in manifest.compliance.items():
        if not ok:
            click.echo(f"warning: {name} does not meet the required control volume")
    if manifest.sensitivity:
        for key, entry in manifest.sensitivity["perturbations"].items():
            changed = "changes" if entry["top_changed"] else "keeps"
            click.echo(f"Δ{key}: top scenario {changed} "
                       f"({' > '.join(entry['ranking'])})")


@main.command()
@click.option("--format", "fmt", default="markdown", show_default=True,
              type=click.Choice(["markdown", "csv", "json"]))
@_common
def report(config, out_dir, fmt):
    """Full pipeline plus rendered summary tables."""
    from lidscore.pipeline import run_pipeline

    manifest = run_pipeline(config, out_dir, render=fmt)
    click.echo(f"wrote {len(manifest.files)} files under {out_dir}")
    if manifest.ranking:
        click.echo("ranking: " + " > ".join(manifest.ranking))
    _warn_if_tied(manifest)


if __name__ == "__main__":
    main()
