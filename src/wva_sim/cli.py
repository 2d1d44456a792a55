"""Batch command-line surface.

Four subcommands, all emitting machine-readable output whose provenance
(version, command, full config echo, seed) suffices to re-run a result
bit-exactly: a ``#`` header block in the CSV commands, and the
``generator``, ``command``, ``config`` and ``seed`` keys of snr's JSON:

  oracle-validate  exact-pipeline sweep against the closed forms (CSV)
  fig3             click / no-click phase scan over the campaign points,
                   with the per-photon-phase fit from the no-click column
  fig4             differential phase versus post-selection overlap, with
                   the one-parameter amplified-split fit (CSV + fit JSON)
  snr              amplified versus direct scheme signal-to-noise (JSON):
                   scheme i is a campaign point run through the same Monte
                   Carlo loop, on the seed that fig3 / fig4 point i uses

Exit codes: 0 success, 1 config error, 2 tolerance, estimation or fit
failure (among them an oracle point in the valid regime whose engine fails:
a register or beam-splitter blocks over the amplitude budget, both
rejected before any mode is built, a truncation leak past its tolerance
or a non-unitary block; any other exception, such as a missing numpy,
propagates before any output is written), or a usage error that the
argument parser rejects (an unknown command or option, a missing --seed,
a flag value of the wrong type;
options are never abbreviated).  A config error is an errors.FieldError
naming the rejected field: a frozen record's own rejection, reported under the config path it
was parsed from, a config file that cannot be read, is not UTF-8, is not
JSON or nests deeper than the recursion limit (at <config>), a number too
large for a float, an --out or fit sidecar that cannot be written (found
before any work starts), a point whose signal click probability is outside
[0, 1), and one whose n_total * trials_scale reaches 2^63 (at
trials_scale).  Config files are single JSON documents, read as UTF-8;
command-line flags override file fields.  Phases
in configs and outputs are microradians unless a field says otherwise;
internals run in radians.
Monte Carlo commands require an explicit --seed (no silent entropy).
The probe amplitude beta is an oracle parameter: the Monte Carlo reads no
beta, and its campaign value is presets.PROBE_AMPLITUDE.
Every command checks, in this order: --out, --workers (at least 1), --seed
(an unsigned 64-bit integer) and then the merged config, all before any
work but two checks of the Monte Carlo commands: a point's trial count and
click probability are checked as that point is drawn.  Every point is
drawn before any is estimated or written, so these config errors still
come before every estimation or fit failure.  --workers is checked there
and read nowhere else, so it never appears in output and never changes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import math
import os
import random
import sys
from pathlib import Path

from . import __version__, presets
from .errors import DegenerateFitError, FieldError, InsufficientDataError, InvalidRegimeError, require
from .model import InterferometerParams
from .montecarlo import (
    NoiseModel,
    estimate_phases,
    fit_differential,
    fit_per_photon_phase,
    simulate_trials,
)
from .protocol import sweep_validity

URAD = presets.URAD

# snr reported for a scheme whose spread collapses to zero (noise-free data),
# so two noise-free schemes compare at ratio 1
SNR_CAP = 1e9

ORACLE_DEFAULTS: dict = {
    "alpha": [0.2, 0.5, 1.0],
    "delta": [0.1, 0.2, 0.5],
    "beta": [0.5, 1.0],
    "eta": [0.5, 1.0],
    "phi_bar_urad": [100.0, 1000.0],
    "span_over_phi_bar": 2.0,
    "tolerance": 0.05,
}

_CAMPAIGN_POINTS = [dataclasses.asdict(p) for p in presets.CAMPAIGN]

FIG3_DEFAULTS: dict = {
    "phi_bar_urad": presets.PER_PHOTON_PHASE_URAD,
    "span_urad": presets.PHASE_SPLIT_URAD,
    "phase_sigma": presets.DEFAULT_PHASE_SIGMA,
    "trials_scale": 0.01,
    "points": _CAMPAIGN_POINTS,
}

FIG4_DEFAULTS: dict = dict(
    FIG3_DEFAULTS,
    phi_bar_fixed_urad=presets.PER_PHOTON_PHASE_URAD,
    include_delta_one=False,
)

SNR_DEFAULTS: dict = {
    # sigma / sqrt(N) sets the resolution
    "n_trials": 2_000_000,
    "trials_scale": 1.0,
    "phase_sigma": 0.001,
    # the n_bar = 95 campaign point
    "wva": {
        **{k: v for k, v in _CAMPAIGN_POINTS[0].items() if k != "n_total"},
        "phi_bar_urad": presets.PER_PHOTON_PHASE_URAD,
        "span_urad": presets.PHASE_SPLIT_URAD,
    },
    "direct": {
        "n_bar": 1.0,
        "delta": 1.0,
        "eta": 0.3,
        "background": 0.0,
        "p_signal": None,
        "phi_bar_urad": presets.PER_PHOTON_PHASE_URAD + 0.5 * presets.PHASE_SPLIT_URAD,
        "span_urad": 0.0,
    },
}


def _merged_config(defaults: dict, path: str | None, overrides: dict) -> dict:
    config = json.loads(json.dumps(defaults))  # deep copy
    if path is not None:
        try:
            # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
            raise FieldError("<config>", f"cannot read {path} as JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise FieldError("<config>", "top level must be a JSON object")
        for key, value in loaded.items():
            if key not in defaults:
                raise FieldError(key, "unknown config field")
            config[key] = value
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    return config


def _number(value, field: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # false for nan and inf, and exact for an int too large for a float
        if abs(value) <= sys.float_info.max:
            return float(value)
        if isinstance(value, int):
            raise FieldError(field, "expected a finite number, got an integer too large for a float")
    raise FieldError(field, f"expected a finite number, got {value!r}")


def _number_list(config: dict, field: str) -> list[float]:
    value = config[field]
    require(isinstance(value, list) and bool(value), field, "a non-empty list of numbers")
    return [_number(item, f"{field}[{i}]") for i, item in enumerate(value)]


def _parse(make, raw, path: str):
    """``make(**fields)`` from the config object ``raw`` found at ``path``.

    ``raw`` must name only parameters of ``make`` and every parameter
    without a default; each value must be a finite number, or null where
    the default is None.  A FieldError that ``make`` raises is reported at
    ``path.field``.
    """
    if not isinstance(raw, dict):
        raise FieldError(path, "expected an object")
    params = inspect.signature(make).parameters
    for key in raw:
        if key not in params:
            raise FieldError(f"{path}.{key}", "unknown field")
    fields = {}
    for name, param in params.items():
        if name not in raw:
            if param.default is param.empty:
                raise FieldError(f"{path}.{name}", "missing required field")
        elif raw[name] is not None or param.default is not None:
            fields[name] = _number(raw[name], f"{path}.{name}")
    try:
        return make(**fields)
    except FieldError as exc:
        raise FieldError(f"{path}.{exc.field}", exc.message) from exc


def _fail(code: int, what: str, exc: Exception) -> None:
    print(f"{what}: {exc}", file=sys.stderr)
    sys.exit(code)


def _check_out(out: str | None) -> None:
    """Reject an ``out`` that cannot be written, before any work is done.

    The probe opens the file for appending, which changes no existing file,
    and removes a file that it created.  It probes the resolved path, so a
    symlink to a file not yet written stays as it was.
    """
    if out is None:
        return
    path = os.path.realpath(out)
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise FieldError("out", f"cannot write {out}: {exc}") from exc
    if not existed:
        os.remove(path)


def _provenance(command: str, config: dict, seed: int | None) -> dict:
    """What re-runs an output: generator, command, config and any seed."""
    record = {"generator": f"wva-sim {__version__}", "command": command, "config": config}
    if seed is not None:
        record["seed"] = seed
    return record


def _header_lines(command: str, config: dict, seed: int | None) -> list[str]:
    """A CSV's ``#`` block: the provenance record, then the phase unit."""
    lines = [
        f"# {key}: {value if isinstance(value, str) else json.dumps(value, sort_keys=True)}"
        for key, value in _provenance(command, config, seed).items()
    ]
    return lines + ["# phases in microradians, full double precision"]


def _write_text(out: str | None, text: str) -> None:
    """Write ``text`` to the file ``out``, or stdout; a failed write is a config error."""
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # ahead of the summary on stderr, where both share a stream
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FieldError("out", f"cannot write {out}: {exc}") from exc


def _csv_cell(cell) -> str:
    """A float at full double precision; other cells as text, double-quoted
    (inner quotes doubled, RFC 4180) if they hold a comma, quote or line break."""
    if isinstance(cell, float):
        return format(cell, ".17g")
    text = str(cell)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _csv_row(*cells) -> str:
    """One CSV data row of ``_csv_cell`` cells."""
    return ",".join(map(_csv_cell, cells))


def _trials_scale(value) -> float:
    scale = _number(value, "trials_scale")
    require(scale > 0.0, "trials_scale", "a positive number")
    return scale


def _point_seed(seed: int, index: int) -> int:
    """The 64-bit seed of point ``index`` of a run seeded ``seed``: the first
    64 bits of ``random.Random`` seeded with the 16 bytes of ``seed`` and
    ``index``, each 8 little-endian, which Random hashes with SHA-512."""
    key = seed.to_bytes(8, "little") + index.to_bytes(8, "little")
    return random.Random(key).getrandbits(64)


def _simulate_points(points, phase_sigma, scale, seed) -> list:
    """The one Monte Carlo point loop of fig3, fig4 and snr.

    Entry ``i`` of ``points`` is ``(field, CampaignPoint, phi_bar_urad,
    span_urad)``; it runs ``max(2, round(point.n_total * scale))`` trials on
    ``_point_seed(seed, i)`` into its TrialStats, in constant memory.  A
    point whose ``n_total * scale`` reaches 2^63, more than the count draws
    take, is a config error at ``trials_scale``; one whose signal click
    probability is not in [0, 1) is a config error at ``field``.  Every
    point is drawn before any is estimated, so these config errors come
    before any estimation failure.  Returns ``(point, trials,
    EstimatorResult)`` for each entry.
    """
    drawn = []
    for i, (field, point, phi_bar_urad, span_urad) in enumerate(points):
        params = presets.point_params(point, phi_bar_urad, span_urad)
        noise = NoiseModel(phase_sigma, point.background)
        scaled = point.n_total * scale
        require(scaled < 2**63, "trials_scale", f"small enough that {field} runs < 2^63 trials")
        trials = max(2, round(scaled))
        try:
            stats = simulate_trials(params, noise, trials, _point_seed(seed, i), p_signal=point.p_signal)
        except InvalidRegimeError as exc:
            raise FieldError(field, str(exc)) from exc
        drawn.append((point, trials, stats))
    return [(point, trials, estimate_phases(stats)) for point, trials, stats in drawn]


def _campaign(command, config, seed, out_path, fit_name, fit, columns, cells) -> None:
    """The fig3 / fig4 pipeline: simulate every configured point, fit, write.

    ``fit(results)`` returns the FitResult and any further fit JSON fields;
    ``cells(point, est, noisy)`` gives the values of the command's own ``columns``.
    A noisy run with an ``out_path`` also writes the fit to a ``.fit.json``
    sidecar, whose path is checked before any point is simulated.
    """
    phi_bar_urad, span_urad, phase_sigma = (
        _number(config[k], k) for k in ("phi_bar_urad", "span_urad", "phase_sigma")
    )
    scale = _trials_scale(config["trials_scale"])
    raw_points = config["points"]
    require(isinstance(raw_points, list) and bool(raw_points), "points", "a non-empty list")
    points = [
        (f"points[{i}]", _parse(presets.CampaignPoint, raw, f"points[{i}]"), phi_bar_urad, span_urad)
        for i, raw in enumerate(raw_points)
    ]
    noisy = phase_sigma > 0.0
    sidecar = str(Path(out_path).with_suffix(".fit.json")) if noisy and out_path else None
    _check_out(sidecar)
    results = _simulate_points(points, phase_sigma, scale, seed)

    fit_note = "skipped (zero-noise run has no stderr)"
    if noisy:
        result, extra = fit(results)
        fit_json = {
            f"{fit_name}_urad": result.parameter / URAD,
            "stderr_urad": result.stderr / URAD,
            "chi_squared": result.chi_squared,
            "dof": result.dof,
            **extra,
        }
        fit_note = json.dumps(fit_json, sort_keys=True)
    lines = _header_lines(command, config, seed)
    lines.append(f"# fit_{fit_name}: {fit_note}")
    lines.append("delta,n_bar,eta,trials,click_fraction," + columns)
    for point, trials, est in results:
        shared = (point.delta, point.n_bar, point.eta, trials, est.click_fraction)
        lines.append(_csv_row(*shared, *cells(point, est, noisy)))
    _write_text(out_path, "\n".join(lines) + "\n")
    if noisy:
        if sidecar is not None:
            _write_text(sidecar, json.dumps(fit_json, sort_keys=True, indent=2) + "\n")
        print(
            f"{command}: {fit_name} = {fit_json[f'{fit_name}_urad']:.4g} "
            f"+/- {fit_json['stderr_urad']:.4g} urad",
            file=sys.stderr,
        )


_COMMON_OPTIONS = (
    ("--config", {"dest": "config_path", "metavar": "PATH", "help": "JSON config file."}),
    ("--out", {"dest": "out_path", "metavar": "PATH", "help": "Output path (default stdout)."}),
)


def _run(body, defaults: dict, config_path, out_path, seed, workers=1, **overrides) -> None:
    """Run ``body`` after the checks of the module docstring, in its order.

    Probes ``--out``, requires ``--workers`` (where given) to be at least 1
    and drops it, checks ``--seed`` (where given) as an unsigned 64-bit
    integer, and merges ``defaults``, the config file and every other option,
    keyed by its dest, which names the config field it overrides.  The
    body's rejections map onto the exit codes of the module docstring.
    """
    try:
        _check_out(out_path)
        require(workers >= 1, "workers", ">= 1")
        require(seed is None or 0 <= seed < 2**64, "seed", "an unsigned 64-bit integer")
        body(_merged_config(defaults, config_path, overrides), out_path, seed)
    except FieldError as exc:
        _fail(1, "config error", exc)
    except InsufficientDataError as exc:
        _fail(2, "estimation failure", exc)
    except DegenerateFitError as exc:
        _fail(2, "fit failure", exc)


def main(args: list[str] | None = None, prog_name: str = "wva-sim") -> None:
    """Parse ``args`` (default ``sys.argv[1:]``) and run the subcommand they name.

    Help, ``--version`` and usage errors exit through SystemExit, with codes
    0, 0 and 2; a failed run exits with its code from the module docstring.
    """
    parser = argparse.ArgumentParser(
        prog=prog_name,
        description="Simulation harness for post-selected cross-phase interferometry.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"wva-sim, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (body, _, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=body.__doc__, description=body.__doc__, allow_abbrev=False)
        for flag, keywords in (*_COMMON_OPTIONS, *options):
            command.add_argument(flag, **keywords)
    parsed = vars(parser.parse_args(args))
    body, defaults, _ = _COMMANDS[parsed.pop("command")]
    _run(body, defaults, **parsed)


# bench/tracer.py runs a command as main.main(args=..., prog_name=...)
main.main = main

_MONTE_CARLO_OPTIONS = (
    ("--seed", {"type": int, "required": True, "help": "Master seed (required; no silent entropy)."}),
    ("--trials-scale", {"type": float, "help": "Scale on each point's trial count."}),
    ("--workers", {"type": int, "default": 1, "help": "Accepted, at least 1; never changes the output."}),
)


def oracle_validate(config, out_path, seed) -> None:
    """Sweep the exact pipeline against the closed forms; gate valid rows."""
    alphas, deltas, betas, etas, phi_bars = (
        _number_list(config, k) for k in ("alpha", "delta", "beta", "eta", "phi_bar_urad")
    )
    span_ratio, gate = (_number(config[k], k) for k in ("span_over_phi_bar", "tolerance"))
    require(span_ratio >= 0.0, "span_over_phi_bar", ">= 0")
    require(gate >= 0.0, "tolerance", ">= 0")
    grid = []
    axes = itertools.product(alphas, deltas, betas, phi_bars, etas)
    for alpha, delta, beta, phi_bar_urad, eta in axes:
        phi_bar = phi_bar_urad * URAD
        half_span = 0.5 * span_ratio * phi_bar
        phi_plus, phi_minus = phi_bar + half_span, phi_bar - half_span
        require(
            math.isfinite(phi_plus) and math.isfinite(phi_minus),
            "span_over_phi_bar",
            "small enough that phi_plus and phi_minus stay finite",
        )
        grid.append(
            InterferometerParams(
                alpha=alpha,
                beta=beta,
                delta=delta,
                eta=eta,
                phi_plus=phi_plus,
                phi_minus=phi_minus,
            )
        )

    rows = sweep_validity(grid)
    lines = _header_lines("oracle-validate", config, seed)
    lines.append(
        "alpha,beta,delta,eta,phi_plus,phi_minus,p_click_exact,p_click_analytic,"
        "diff_exact,diff_analytic,rel_error,verdict"
    )
    valid_rows = failures = 0
    for row in rows:
        p, pred = row.params, row.prediction
        if row.result is None:
            exact_p, exact_d = math.nan, math.nan
        else:
            exact_p = row.result.p_click
            exact_d = row.result.differential_exact
        # a valid point that raised (no result) fails the gate on its nan
        # rel_error; one with a degenerate branch has no differential to gate
        gated = row.verdict == "valid" and (row.result is None or not row.note)
        valid_rows += gated
        failures += gated and not (row.rel_error < gate)
        lines.append(
            _csv_row(
                p.alpha, p.beta, p.delta, p.eta, p.phi_plus / URAD, p.phi_minus / URAD,
                exact_p, pred.p_click, exact_d / URAD, pred.differential / URAD, row.rel_error,
                row.verdict if not row.note else f"{row.verdict} ({row.note})",
            )
        )
    _write_text(out_path, "\n".join(lines) + "\n")
    print(
        f"oracle-validate: {len(rows)} points, {valid_rows} valid, "
        f"{failures} above tolerance {gate:.4g}",
        file=sys.stderr,
    )
    if failures:
        sys.exit(2)


def fig3(config, out_path, seed) -> None:
    """Click / no-click phase scan with the per-photon-phase fit."""

    def fit(results):
        points = [(point.n_bar, *est.phi_noclick) for point, _, est in results]
        return fit_per_photon_phase(points), {}

    def cells(point, est, noisy):
        return [value / URAD for value in (*est.phi_click, *est.phi_noclick, *est.differential)]

    columns = "phi_click,phi_click_stderr,phi_noclick,phi_noclick_stderr,diff,diff_stderr"
    _campaign("fig3", config, seed, out_path, "phi0", fit, columns, cells)


def fig4(config, out_path, seed) -> None:
    """Differential phase versus overlap, with the amplified-split fit."""
    phi_bar_fixed = _number(config["phi_bar_fixed_urad"], "phi_bar_fixed_urad") * URAD
    include_d1 = config["include_delta_one"]
    require(isinstance(include_d1, bool), "include_delta_one", "true or false")

    def fit(results):
        points = [(point.delta, *est.differential) for point, _, est in results]
        extra = {"phi_bar_fixed_urad": phi_bar_fixed / URAD, "include_delta_one": include_d1}
        return fit_differential(points, phi_bar_fixed, include_delta_one=include_d1), extra

    def cells(point, est, noisy):
        in_fit = noisy and (include_d1 or point.delta < 1.0)
        diff, diff_stderr = est.differential
        # nan at phi_bar = 0, as predict_phases gives its amplification_factor
        amplification = diff / phi_bar_fixed if phi_bar_fixed else math.nan
        return [diff / URAD, diff_stderr / URAD, amplification, int(in_fit)]

    columns = "diff,diff_stderr,amplification,in_fit"
    _campaign("fig4", config, seed, out_path, "span", fit, columns, cells)


def snr(config, out_path, seed) -> None:
    """Compare the amplified and direct schemes at equal trial budgets."""
    phase_sigma, n_trials = (_number(config[k], k) for k in ("phase_sigma", "n_trials"))
    require(n_trials.is_integer() and n_trials >= 2, "n_trials", "an integer >= 2")
    scale = _trials_scale(config["trials_scale"])

    def scheme(n_bar, delta, eta, background, phi_bar_urad, span_urad, p_signal=None):
        # a scheme is a campaign point of n_trials trials at its own phases
        point = presets.CampaignPoint(n_bar, delta, eta, int(n_trials), background, p_signal)
        return point, phi_bar_urad, span_urad

    schemes = [(name, *_parse(scheme, config[name], name)) for name in ("wva", "direct")]
    snrs = []
    for _, trials, est in _simulate_points(schemes, phase_sigma, scale, seed):
        value, stderr = est.differential
        snrs.append(SNR_CAP if stderr == 0.0 else min(abs(value) / stderr, SNR_CAP))
    snr_wva, snr_direct = snrs
    ratio = snr_wva / snr_direct

    report = {
        **_provenance("snr", config, seed),
        "n_trials": trials,  # the count each scheme ran
        "snr_wva": snr_wva,
        "snr_direct": snr_direct,
        "ratio": ratio,
    }
    _write_text(out_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"snr: wva {snr_wva:.4g}, direct {snr_direct:.4g}, ratio {ratio:.4g}", file=sys.stderr)


# name -> (body, defaults, options) of each subcommand: a body runs as
# body(config, out_path, seed), and options are the flags it takes after
# --config and --out, each with its add_argument keywords
_COMMANDS = {
    "oracle-validate": (
        oracle_validate,
        ORACLE_DEFAULTS,
        (("--seed", {"type": int, "help": "Echoed for provenance; this command is deterministic."}),),
    ),
    "fig3": (fig3, FIG3_DEFAULTS, _MONTE_CARLO_OPTIONS),
    "fig4": (fig4, FIG4_DEFAULTS, _MONTE_CARLO_OPTIONS),
    "snr": (snr, SNR_DEFAULTS, _MONTE_CARLO_OPTIONS),
}
