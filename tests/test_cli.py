import csv
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wva_sim import __version__, cli
from wva_sim.cli import SNR_DEFAULTS, _csv_row, main


def parse_csv(text):
    header = {}
    columns = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition(":")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            (cells,) = csv.reader([line])
            assert len(cells) == len(columns), line
            rows.append(dict(zip(columns, cells)))
    return header, columns, rows


def test_csv_row_writes_floats_at_full_precision():
    assert _csv_row(0.1, math.nan, math.inf, -math.inf) == "0.10000000000000001,nan,inf,-inf"
    assert _csv_row(7, 0, "valid (note)") == "7,0,valid (note)"
    assert _csv_row('a, "b"', "c\nd") == '"a, ""b""","c\nd"'


def test_option_prefix_is_usage_error(runner):
    # --trials is a prefix of --trials-scale, which is never taken for it
    result = runner.invoke(main, ["fig3", "--trials", "0.1", "--seed", "1"])
    assert result.exit_code == 2, result.stderr


@pytest.mark.parametrize("args", [["nope"], []], ids=["unknown", "missing"])
def test_command_unknown_or_missing_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.stderr


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == f"wva-sim, version {__version__}\n"


COMMAND_OPTIONS = {
    "oracle-validate": ["--config", "--out", "--seed"],
    **dict.fromkeys(["fig3", "fig4", "snr"], ["--config", "--out", "--seed", "--trials-scale", "--workers"]),
}


@pytest.mark.parametrize("command,options", COMMAND_OPTIONS.items(), ids=list(COMMAND_OPTIONS))
def test_help_names_every_option(runner, command, options):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.stderr
    for option in options:
        assert option in result.stdout


SMALL_ORACLE = {
    "alpha": [0.3],
    "delta": [0.1, 0.2],
    "beta": [0.8],
    "eta": [1.0],
    "phi_bar_urad": [1000.0],
    "span_over_phi_bar": 2.0,
    "tolerance": 0.05,
}


class TestOracleValidate:
    def test_small_grid_passes_tolerance(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(SMALL_ORACLE))
        out = tmp_path / "oracle.csv"
        result = runner.invoke(
            main, ["oracle-validate", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.stderr
        header, columns, rows = parse_csv(out.read_text())
        assert columns == [
            "alpha", "beta", "delta", "eta", "phi_plus", "phi_minus",
            "p_click_exact", "p_click_analytic", "diff_exact", "diff_analytic",
            "rel_error", "verdict",
        ]
        assert len(rows) == 2
        for row in rows:
            if row["verdict"] == "valid":
                assert float(row["rel_error"]) < 0.05

    def test_invalid_regime_rows_are_exempt(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps(dict(SMALL_ORACLE, beta=[2.0], phi_bar_urad=[2e5], delta=[0.05]))
        )
        out = tmp_path / "oracle.csv"
        result = runner.invoke(
            main, ["oracle-validate", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.stderr
        _, _, rows = parse_csv(out.read_text())
        assert all(row["verdict"] == "invalid" for row in rows)

    def test_tolerance_gates_exit_code(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(dict(SMALL_ORACLE, tolerance=1e-9)))
        result = runner.invoke(
            main, ["oracle-validate", "--config", str(config), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2

    def test_largest_seed_echoed(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(dict(SMALL_ORACLE, delta=[0.1])))
        out = tmp_path / "oracle.csv"
        result = runner.invoke(
            main,
            ["oracle-validate", "--config", str(config), "--out", str(out),
             "--seed", str(2**64 - 1)],
        )
        assert result.exit_code == 0, result.stderr
        header, _, _ = parse_csv(out.read_text())
        assert header["seed"] == str(2**64 - 1)

    def test_failing_point_becomes_error_row(self, runner, tmp_path, monkeypatch):
        # alpha 2.5 needs a (32, 32, 16) register, past this budget; alpha 0.3
        # needs (12, 12, 16) and its blocks 4324 entries, inside it
        from wva_sim import fock, protocol

        protocol._optics_stage.cache_clear()
        monkeypatch.setattr(fock, "DEFAULT_AMPLITUDE_BUDGET", 5000)
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(dict(SMALL_ORACLE, alpha=[2.5, 0.3], delta=[0.1])))
        out = tmp_path / "oracle.csv"
        result = runner.invoke(
            main, ["oracle-validate", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 2, result.stderr
        _, _, rows = parse_csv(out.read_text())
        assert [row["alpha"] for row in rows] == ["2.5", "0.29999999999999999"]
        failed, computed = rows
        assert "(error: tensor product needs 16384 amplitudes" in failed["verdict"]
        assert failed["p_click_exact"] == failed["diff_exact"] == failed["rel_error"] == "nan"
        assert computed["verdict"] == "valid"
        assert float(computed["rel_error"]) < 0.05
        assert "2 points, 2 valid, 1 above tolerance" in result.stderr

    @pytest.mark.parametrize(
        "delta,code,summary", [(0.5, 0, "0 valid, 0 above"), (0.01, 2, "1 valid, 1 above")]
    )
    def test_budget_error_row_quoted_and_gated(self, runner, tmp_path, delta, code, summary):
        # both points need a 170 * 170 * 2279 register, over the default
        # budget; only the delta = 0.01 point is in the valid regime
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(
            {"alpha": [10], "beta": [44.72], "delta": [delta], "eta": [1], "phi_bar_urad": [0.001]}
        ))
        out = tmp_path / "oracle.csv"
        result = runner.invoke(
            main, ["oracle-validate", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == code, result.stderr
        _, columns, (row,) = parse_csv(out.read_text())
        assert len(columns) == 12
        assert row["verdict"].endswith(
            "(error: tensor product needs 65863100 amplitudes, budget is 64000000)"
        )
        assert f"1 points, {summary} tolerance" in result.stderr

    def test_vacuum_probe_row_is_degenerate_and_not_gated(self, runner, tmp_path):
        # beta = 0: the valid-regime point's conditioned probe fields are
        # exactly 0, so it has no differential to compare
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(
            {"alpha": [0.3], "delta": [0.1], "beta": [0.0], "eta": [1.0], "phi_bar_urad": [1000.0]}
        ))
        out = tmp_path / "oracle.csv"
        result = runner.invoke(
            main, ["oracle-validate", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.stderr
        _, _, (row,) = parse_csv(out.read_text())
        assert row["verdict"] == "valid (degenerate branch)"
        assert row["diff_exact"] == row["rel_error"] == "nan"
        assert "1 points, 0 valid, 0 above tolerance" in result.stderr

    def test_malformed_config_names_field(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(dict(SMALL_ORACLE, delta="not-a-list")))
        result = runner.invoke(main, ["oracle-validate", "--config", str(config)])
        assert result.exit_code == 1
        assert "delta" in result.stderr

    def test_unknown_field_rejected(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(dict(SMALL_ORACLE, detla=[0.1])))
        result = runner.invoke(main, ["oracle-validate", "--config", str(config)])
        assert result.exit_code == 1
        assert "detla" in result.stderr


class TestFig3:
    def test_zero_noise_columns_equal_analytic(self, runner, tmp_path):
        from wva_sim.model import predict_phases
        from wva_sim.presets import CAMPAIGN, point_params

        config = tmp_path / "fig3.json"
        points = [
            {"n_bar": p.n_bar, "delta": p.delta, "eta": p.eta,
             "n_total": p.n_total, "background": 0.0, "p_signal": p.p_signal}
            for p in CAMPAIGN
        ]
        config.write_text(json.dumps({"phase_sigma": 0.0, "points": points}))
        out = tmp_path / "fig3.csv"
        result = runner.invoke(
            main,
            ["fig3", "--config", str(config), "--out", str(out),
             "--seed", "7", "--trials-scale", "2e-4"],
        )
        assert result.exit_code == 0, result.stderr
        header, _, rows = parse_csv(out.read_text())
        assert "fit_phi0" in header  # skipped note for the zero-noise run
        assert "skipped" in header["fit_phi0"]
        for point, row in zip(CAMPAIGN, rows):
            pred = predict_phases(point_params(point))
            assert float(row["phi_click"]) * 1e-6 == pytest.approx(
                pred.phase_click, rel=1e-12
            )
            assert float(row["phi_noclick"]) * 1e-6 == pytest.approx(
                pred.phase_noclick, rel=1e-12
            )

    def test_campaign_points_echoed_in_header(self, runner, tmp_path):
        out = tmp_path / "fig3.csv"
        result = runner.invoke(
            main, ["fig3", "--out", str(out), "--seed", "7", "--trials-scale", "1e-4"]
        )
        assert result.exit_code == 0, result.stderr
        header, _, rows = parse_csv(out.read_text())
        config = json.loads(header["config"])
        assert [p["n_bar"] for p in config["points"]] == [95.0, 45.0, 20.0, 10.0, 40.0]
        assert [p["delta"] for p in config["points"]] == [0.10, 0.14, 0.22, 0.32, 1.0]
        assert len(rows) == 5

    def test_largest_trial_counts_run(self, runner, tmp_path):
        # the delta = 1 control's 374 443 000 trials scaled to 8.99e18, just
        # below the 2^63 that is a config error
        out, scale = tmp_path / "fig3.csv", 2.4e10
        result = runner.invoke(
            main, ["fig3", "--out", str(out), "--seed", "1", "--trials-scale", str(scale)]
        )
        assert result.exit_code == 0, result.stderr
        header, _, rows = parse_csv(out.read_text())
        n_totals = [p["n_total"] for p in json.loads(header["config"])["points"]]
        trials = [int(row["trials"]) for row in rows]
        assert trials == [round(n * scale) for n in n_totals]
        assert max(trials) < 2**63

    def test_too_few_trials_exits_two(self, runner, tmp_path):
        # a vanishing trials scale leaves groups too small to estimate
        result = runner.invoke(
            main, ["fig3", "--seed", "7", "--trials-scale", "1e-8"]
        )
        assert result.exit_code == 2
        assert "estimation failure" in result.stderr

    def test_underflowed_stderr_is_fit_failure(self, runner, tmp_path):
        # sigma^2 underflows, so a no-click stderr is exactly 0
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({"phase_sigma": 1e-200}))
        result = runner.invoke(
            main, ["fig3", "--config", str(config), "--seed", "1", "--trials-scale", "1e-4"]
        )
        assert result.exit_code == 2, result.stderr
        assert "fit failure" in result.stderr

    def test_huge_stderrs_still_fit(self, runner, tmp_path):
        # stderrs near 1e136: 1/sigma^2 would underflow without the fit's
        # power-of-two scaling, and the slope is invariant under it
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"phase_sigma": 1e140}))
        out = tmp_path / "fig3.csv"
        result = runner.invoke(
            main,
            ["fig3", "--config", str(config), "--seed", "1", "--trials-scale", "1e-4",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.stderr
        fit = json.loads((tmp_path / "fig3.fit.json").read_text())
        assert 1e140 < fit["stderr_urad"] < 1e145
        assert math.isfinite(fit["phi0_urad"]) and fit["chi_squared"] > 0.0

    @pytest.mark.parametrize("flag,value", [("--trials-scale", "0"), ("--workers", "-3")])
    def test_nonpositive_scale_or_workers_is_config_error(self, runner, flag, value):
        result = runner.invoke(
            main, ["fig3", "--seed", "7", "--trials-scale", "1e-4", flag, value]
        )
        assert result.exit_code == 1
        assert "config error" in result.stderr
        assert flag.lstrip("-").replace("-", "_") in result.stderr

    def test_fit_written_with_noise(self, runner, tmp_path):
        out = tmp_path / "fig3.csv"
        result = runner.invoke(
            main, ["fig3", "--out", str(out), "--seed", "7", "--trials-scale", "1e-3"]
        )
        assert result.exit_code == 0, result.stderr
        fit = json.loads((tmp_path / "fig3.fit.json").read_text())
        assert {"phi0_urad", "stderr_urad", "chi_squared", "dof"} <= set(fit)
        assert fit["dof"] == 3


class TestFig4:
    @pytest.mark.parametrize(
        "command,scale",
        [("fig3", "3e-4"), ("snr", "0.2")],
        ids=["fig3", "snr"],
    )
    def test_byte_identical_across_worker_counts(self, runner, tmp_path, command, scale):
        outs = []
        for workers, name in ((1, "a.out"), (4, "b.out")):
            out = tmp_path / name
            result = runner.invoke(
                main,
                [command, "--out", str(out), "--seed", "123",
                 "--trials-scale", scale, "--workers", str(workers)],
            )
            assert result.exit_code == 0, result.stderr
            # fig3 and fig4 also write their fit to a sidecar
            files = [out] if command == "snr" else [out, out.with_suffix(".fit.json")]
            outs.append([path.read_bytes() for path in files])
        assert outs[0] == outs[1]

    def test_fit_json_sidecar(self, runner, tmp_path):
        out = tmp_path / "fig4.csv"
        result = runner.invoke(
            main, ["fig4", "--out", str(out), "--seed", "9", "--trials-scale", "1e-3"]
        )
        assert result.exit_code == 0, result.stderr
        fit = json.loads((tmp_path / "fig4.fit.json").read_text())
        assert fit["dof"] == 3  # delta = 1 control excluded by default
        header, _, rows = parse_csv(out.read_text())
        assert [row["in_fit"] for row in rows] == ["1", "1", "1", "1", "0"]

    def test_zero_phi_bar_writes_nan_amplification(self, runner, tmp_path):
        # the span fit is defined at phi_bar = 0; only the amplification is not
        config = tmp_path / "zero.json"
        config.write_text(json.dumps({"phi_bar_fixed_urad": 0}))
        out = tmp_path / "fig4.csv"
        result = runner.invoke(
            main, ["fig4", "--config", str(config), "--seed", "1", "--trials-scale", "1e-4",
                   "--out", str(out)],
        )
        assert result.exit_code == 0, result.stderr
        _, _, rows = parse_csv(out.read_text())
        assert [row["amplification"] for row in rows] == ["nan"] * 5
        fit = json.loads((tmp_path / "fig4.fit.json").read_text())
        assert fit["phi_bar_fixed_urad"] == 0.0 and math.isfinite(fit["span_urad"])

    def test_single_delta_config_exits_two(self, runner, tmp_path):
        config = tmp_path / "one.json"
        config.write_text(
            json.dumps(
                {
                    "points": [
                        {"n_bar": 95, "delta": 0.1, "eta": 0.2,
                         "n_total": 100000, "background": 0.06}
                    ]
                }
            )
        )
        result = runner.invoke(
            main, ["fig4", "--config", str(config), "--seed", "9",
                   "--trials-scale", "0.1"],
        )
        assert result.exit_code == 2
        assert "fit failure" in result.stderr

    def test_missing_seed_is_usage_error(self, runner):
        result = runner.invoke(main, ["fig4"])
        assert result.exit_code == 2  # usage error
        assert "--seed" in result.stderr

    @pytest.mark.parametrize(
        "command,flag",
        [("fig3", "--workers"), ("fig4", "--trials-scale")],
    )
    def test_flag_of_wrong_type_is_usage_error(self, runner, command, flag):
        result = runner.invoke(main, [command, "--seed", "1", flag, "abc"])
        assert result.exit_code == 2  # usage error
        assert f"argument {flag}: invalid" in result.stderr

    def test_negative_seed_rejected(self, runner):
        result = runner.invoke(main, ["fig4", "--seed", "-1"])
        assert result.exit_code == 1
        assert "seed" in result.stderr

    @pytest.mark.parametrize(
        "bad,field",
        [
            ({"delta": 2.0}, "points[0].delta"),
            ({"background": 1.5}, "points[0].background"),
            ({"p_signal": 1.0}, "points[0].p_signal"),
        ],
        ids=["delta", "background", "p_signal"],
    )
    def test_bad_point_field_named(self, runner, tmp_path, bad, field):
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps(
                {
                    "points": [
                        dict({"n_bar": 95, "delta": 0.1, "eta": 0.2,
                              "n_total": 1000, "background": 0.06}, **bad)
                    ]
                }
            )
        )
        result = runner.invoke(
            main, ["fig4", "--config", str(config), "--seed", "1"]
        )
        assert result.exit_code == 1
        assert field in result.stderr


SNR_WVA = {
    "n_bar": 95.0, "delta": 0.10, "eta": 0.2, "background": 0.06,
    "phi_bar_urad": 5.59, "span_urad": 8.7,
}


class TestSnr:
    def test_config_override_equalizes_schemes(self, runner, tmp_path):
        config = tmp_path / "snr.json"
        wva = {
            "n_bar": 95.0, "delta": 0.10, "eta": 0.2, "background": 0.06,
            "phi_bar_urad": 5.59, "span_urad": 8.7,
        }
        config.write_text(json.dumps({"wva": wva, "direct": wva, "n_trials": 600000}))
        out = tmp_path / "snr.json.out"
        result = runner.invoke(
            main, ["snr", "--config", str(config), "--seed", "5", "--out", str(out)]
        )
        assert result.exit_code == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["ratio"] == pytest.approx(1.0, abs=0.35)

    def test_json_report(self, runner, tmp_path):
        out = tmp_path / "snr.json"
        result = runner.invoke(
            main, ["snr", "--out", str(out), "--seed", "31", "--trials-scale", "0.25"]
        )
        assert result.exit_code == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["seed"] == 31
        assert report["n_trials"] == 500_000
        assert report["ratio"] == pytest.approx(
            report["snr_wva"] / report["snr_direct"], rel=1e-12
        )
        assert report["ratio"] > 1.0

    def test_zero_noise_returns_capped_sentinel(self, runner, tmp_path):
        config = tmp_path / "snr.json"
        direct = dict(SNR_DEFAULTS["direct"], background=0.0)
        config.write_text(
            json.dumps(
                {"phase_sigma": 0.0, "n_trials": 10000,
                 "wva": dict(SNR_WVA, background=0.0), "direct": direct}
            )
        )
        out = tmp_path / "snr.json.out"
        result = runner.invoke(
            main, ["snr", "--config", str(config), "--seed", "23", "--out", str(out)]
        )
        assert result.exit_code == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["snr_wva"] == report["snr_direct"] == 1e9
        assert report["ratio"] == 1.0

    def test_too_few_trials_exits_two(self, runner):
        # two trials per scheme: no click group to estimate from
        result = runner.invoke(main, ["snr", "--seed", "1", "--trials-scale", "1e-6"])
        assert result.exit_code == 2
        assert "estimation failure" in result.stderr

    def test_no_noclick_population_is_config_error(self, runner, tmp_path):
        # same rejection, same exit code as fig3 / fig4
        config = tmp_path / "snr.json"
        # the dark-port design value eta delta^2 n_bar of the delta = 1 control is 1.2
        control = {"n_bar": 40.0, "delta": 1.0, "eta": 0.03}
        config.write_text(json.dumps({"wva": dict(SNR_WVA, **control)}))
        result = runner.invoke(main, ["snr", "--config", str(config), "--seed", "1"])
        assert result.exit_code == 1
        assert "config error" in result.stderr
        assert "field 'wva'" in result.stderr

    def test_bad_scheme_field_named(self, runner, tmp_path):
        config = tmp_path / "snr.json"
        config.write_text(json.dumps({"wva": dict(SNR_WVA, background=1.5)}))
        result = runner.invoke(main, ["snr", "--config", str(config), "--seed", "1"])
        assert result.exit_code == 1
        assert "wva.background" in result.stderr


FIG4_POINT = {"n_bar": 95, "delta": 0.1, "eta": 0.2, "n_total": 1000, "background": 0.06}


@pytest.mark.parametrize(
    "command,config,flags,field",
    [
        ("oracle-validate", None, [], "<config>"),
        ("oracle-validate", "dir", [], "<config>"),
        ("oracle-validate", "{not json", [], "<config>"),
        ("oracle-validate", [], [], "<config>"),
        ("snr", [], ["--seed", "1"], "<config>"),
        ("oracle-validate", dict(SMALL_ORACLE, alpha=[-1.0]), [], "alpha"),
        ("oracle-validate", dict(SMALL_ORACLE, span_over_phi_bar=-1), [], "span_over_phi_bar"),
        ("oracle-validate", dict(SMALL_ORACLE, tolerance=-1), [], "tolerance"),
        ("oracle-validate", SMALL_ORACLE, ["--seed", "-1"], "seed"),
        ("oracle-validate", SMALL_ORACLE, ["--seed", str(2**64)], "seed"),
        ("snr", {"n_trials": 2000000.5}, ["--seed", "1"], "n_trials"),
        ("fig4", {"points": [5]}, ["--seed", "1"], "points[0]"),
        ("fig4", {"points": [{k: v for k, v in FIG4_POINT.items() if k != "n_total"}]},
         ["--seed", "1"], "points[0].n_total"),
        ("fig4", {"points": [FIG4_POINT], "include_delta_one": "yes"}, ["--seed", "1"],
         "include_delta_one"),
        ("oracle-validate", dict(SMALL_ORACLE, beta=[1e200]), [], "beta"),
        ("oracle-validate", dict(SMALL_ORACLE, phi_bar_urad=[1e300], span_over_phi_bar=1e308),
         [], "span_over_phi_bar"),
        ("oracle-validate", dict(SMALL_ORACLE, tolerance="high"), [], "tolerance"),
        ("oracle-validate", dict(SMALL_ORACLE, alpha=[0.3, True]), [], "alpha[1]"),
        ("fig4", {"points": [dict(FIG4_POINT, eta="0.2")]}, ["--seed", "1"], "points[0].eta"),
        ("fig4", {"points": [dict(FIG4_POINT, colour=1)]}, ["--seed", "1"], "points[0].colour"),
        ("fig3", {"beta": 44.72}, ["--seed", "1"], "beta"),
        ("snr", {"beta": 44.72}, ["--seed", "1"], "beta"),
        ("fig3", {"trials_scale": 3e10}, ["--seed", "1"], "trials_scale"),
        ("fig3", {"points": [dict(FIG4_POINT, n_total=1e308)]},
         ["--seed", "1", "--trials-scale", "10"], "trials_scale"),
        ("fig3", {"phase_sigma": -1.0}, ["--seed", "1"], "phase_sigma"),
        ("fig4", {"phase_sigma": -1.0}, ["--seed", "1"], "phase_sigma"),
        ("snr", {"phase_sigma": -1.0}, ["--seed", "1"], "phase_sigma"),
        ("fig3", {"points": []}, ["--seed", "1"], "points"),
        ("fig3", {"phase_sigma": 10**400}, ["--seed", "1"], "phase_sigma"),
        ("fig3", {"points": [dict(FIG4_POINT, n_total=10**400)]}, ["--seed", "1"],
         "points[0].n_total"),
        ("oracle-validate", dict(SMALL_ORACLE, alpha=[10**400]), [], "alpha[0]"),
        ("snr", {"n_trials": 10**400}, ["--seed", "1"], "n_trials"),
        ("fig3", '{"phase_sigma": 1' + "0" * 5000 + "}", ["--seed", "1"], "<config>"),
        ("fig3", b"\xff{}", ["--seed", "1"], "<config>"),
        ("fig3", "[" * 100_000, ["--seed", "1"], "<config>"),
        ("oracle-validate", dict(SMALL_ORACLE, alpha=0.3), [], "alpha"),
        ("oracle-validate", dict(SMALL_ORACLE, alpha=[]), [], "alpha"),
        ("fig3", {"points": 5}, ["--seed", "1"], "points"),
        ("snr", {"wva": 5}, ["--seed", "1"], "wva"),
    ],
    ids=[
        "missing-file", "directory", "invalid-json", "array-oracle", "array-snr",
        "negative-alpha", "negative-span", "negative-tolerance", "oracle-negative-seed",
        "oracle-seed-over-64-bits", "snr-fractional-n_trials", "point-not-object",
        "point-missing-n_total", "include_delta_one-not-bool", "oracle-beta-square-overflows",
        "oracle-phase-overflows", "tolerance-not-a-number", "alpha-item-bool",
        "point-field-string", "point-unknown-field", "fig3-beta-unknown", "snr-beta-unknown",
        "trials-over-2-63", "n_total-times-scale-overflows", "fig3-negative-phase_sigma",
        "fig4-negative-phase_sigma", "snr-negative-phase_sigma", "points-empty",
        "fig3-phase_sigma-int-past-float", "fig3-n_total-int-past-float",
        "oracle-alpha-int-past-float", "snr-n_trials-int-past-float",
        "int-past-str-digits-limit", "not-utf-8", "too-deep", "oracle-alpha-not-list",
        "oracle-alpha-empty", "fig3-points-not-list", "snr-scheme-not-object",
    ],
)
def test_config_errors_exit_one_and_name_field(runner, tmp_path, command, config, flags, field):
    path = tmp_path / "config.json"
    if config == "dir":
        path.mkdir()
    elif isinstance(config, bytes):
        path.write_bytes(config)
    elif isinstance(config, str):
        path.write_text(config)
    elif config is not None:
        path.write_text(json.dumps(config))
    result = runner.invoke(main, [command, "--config", str(path), *flags])
    assert result.exit_code == 1, result.stderr
    assert f"field '{field}'" in result.stderr
    assert "0" * 400 not in result.stdout + result.stderr


def test_config_is_read_as_utf8_in_any_locale(tmp_path):
    # the C locale's default text encoding is ASCII, and JSON text is UTF-8
    config = tmp_path / "config.json"
    config.write_text('{"\u00b5": 1}', encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", "from wva_sim.cli import main; main()",
         "fig3", "--seed", "1", "--config", str(config)],
        env=env, capture_output=True, timeout=60,
    )
    assert run.returncode == 1, run.stderr
    assert b"unknown config field" in run.stderr


@pytest.mark.parametrize(
    "command,scale", [("fig3", "1e-4"), ("fig4", "1e-4"), ("snr", "0.01")]
)
def test_overflowed_stderr_is_estimation_failure(runner, tmp_path, command, scale):
    # sigma^2 overflows, so every stderr is infinite
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"phase_sigma": 1e200}))
    result = runner.invoke(
        main, [command, "--config", str(config), "--seed", "1", "--trials-scale", scale]
    )
    assert result.exit_code == 2, result.stderr
    assert "estimation failure" in result.stderr


# two trials leave too few clicks to estimate, so this point fails estimation
STARVED_POINT = dict(FIG4_POINT, n_total=2)
# eta delta^2 n_bar = 1.2: a signal click probability past 1
OVERFULL = {"n_bar": 40, "delta": 1.0, "eta": 0.03}


@pytest.mark.parametrize(
    "command,config,field",
    [
        ("fig3", {"points": [STARVED_POINT, dict(FIG4_POINT, **OVERFULL)]}, "points[1]"),
        ("fig3", {"points": [STARVED_POINT, dict(FIG4_POINT, **OVERFULL, n_total=1e300)]},
         "trials_scale"),
        ("snr", {"n_trials": 2, "direct": dict(SNR_DEFAULTS["direct"], **OVERFULL)}, "direct"),
    ],
    ids=["click-probability", "trials-over-2-63", "snr-direct"],
)
def test_config_error_beats_earlier_estimation_failure(runner, tmp_path, command, config, field):
    # every point is drawn before any is estimated, so a later point's config
    # error is reported ahead of an earlier point's estimation failure
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(main, [command, "--config", str(path), "--seed", "1"])
    assert result.exit_code == 1, result.stderr
    assert f"field '{field}'" in result.stderr


def echoed_config(command, output):
    if command == "snr":
        return json.loads(output)["config"]
    header, _, _ = parse_csv(output)
    return json.loads(header["config"])


@pytest.mark.parametrize(
    "command,flags",
    [
        ("oracle-validate", []),
        ("fig3", ["--seed", "7", "--trials-scale", "2e-4"]),
        ("fig4", ["--seed", "9", "--trials-scale", "2e-4"]),
        ("snr", ["--seed", "5", "--trials-scale", "0.05"]),
    ],
)
def test_echoed_config_reproduces_output(runner, tmp_path, command, flags):
    """The echoed config is itself a valid config that gives the same bytes."""
    if command == "oracle-validate":
        small = tmp_path / "small.json"
        small.write_text(json.dumps(SMALL_ORACLE))
        first_flags = ["--config", str(small)]
    else:
        first_flags = []
    first, second = tmp_path / "first.out", tmp_path / "second.out"
    result = runner.invoke(main, [command, *first_flags, *flags, "--out", str(first)])
    assert result.exit_code == 0, result.stderr
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(echoed_config(command, first.read_text())))
    result = runner.invoke(main, [command, "--config", str(echo), *flags, "--out", str(second)])
    assert result.exit_code == 0, result.stderr
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "command,flags",
    [
        ("fig3", ["--trials-scale", "2e-4"]),
        ("fig4", ["--trials-scale", "2e-4"]),
        ("snr", ["--trials-scale", "0.05"]),
    ],
    ids=["fig3", "fig4", "snr"],
)
def test_echoed_config_alone_reproduces_output(runner, tmp_path, command, flags):
    """Re-run from the echo with the seed but no --trials-scale: the same bytes."""
    first, second = tmp_path / "first.out", tmp_path / "second.out"
    result = runner.invoke(main, [command, "--seed", "5", *flags, "--out", str(first)])
    assert result.exit_code == 0, result.stderr
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(echoed_config(command, first.read_text())))
    rerun = [command, "--seed", "5", "--config", str(echo), "--out", str(second)]
    result = runner.invoke(main, rerun)
    assert result.exit_code == 0, result.stderr
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "command,flags",
    [
        ("oracle-validate", ["--config", "small.json"]),
        ("fig3", ["--seed", "7", "--trials-scale", "2e-4"]),
        ("fig4", ["--seed", "9", "--trials-scale", "2e-4"]),
        ("snr", ["--seed", "5", "--trials-scale", "0.05"]),
    ],
    ids=["oracle-validate", "fig3", "fig4", "snr"],
)
def test_output_goes_to_stdout_without_out(runner, tmp_path, monkeypatch, command, flags):
    # without --out the bytes --out would hold go to stdout, no file is
    # written (so no fit sidecar either), and stderr has the same summary
    (tmp_path / "small.json").write_text(json.dumps(SMALL_ORACLE))
    monkeypatch.chdir(tmp_path)
    to_stdout = runner.invoke(main, [command, *flags])
    assert to_stdout.exit_code == 0, to_stdout.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["small.json"]
    out = tmp_path / "result.out"
    to_file = runner.invoke(main, [command, *flags, "--out", str(out)])
    assert to_file.exit_code == 0, to_file.stderr
    assert to_file.stdout == ""
    assert to_stdout.stdout == out.read_text()
    assert to_stdout.stderr == to_file.stderr


def test_data_precedes_summary_on_a_shared_stream():
    # with stderr merged into a piped stdout, the CSV is flushed before the
    # fit summary is printed; an unbuffered child keeps that order without
    # the flush, so the child runs buffered
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "from wva_sim.cli import main; main()",
         "fig3", "--seed", "1", "--trials-scale", "1e-3"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stdout
    *data, summary = run.stdout.splitlines()
    assert summary.startswith("fig3: phi0 = "), run.stdout
    _, _, rows = parse_csv("\n".join(data))
    assert len(rows) == 5


@pytest.mark.parametrize(
    "command,flags,engine",
    [
        ("oracle-validate", [], "sweep_validity"),
        ("fig3", ["--seed", "1", "--trials-scale", "1e-3"], "simulate_trials"),
        ("fig4", ["--seed", "1", "--trials-scale", "1e-3"], "simulate_trials"),
        ("snr", ["--seed", "1", "--trials-scale", "0.01"], "simulate_trials"),
    ],
    ids=["oracle-validate", "fig3", "fig4", "snr"],
)
def test_unwritable_out_rejected_before_any_run(runner, tmp_path, monkeypatch, command, flags, engine):
    calls = []
    monkeypatch.setattr(cli, engine, lambda *args, **kwargs: calls.append(args))
    result = runner.invoke(main, [command, *flags, "--out", str(tmp_path / "missing" / "x.csv")])
    assert result.exit_code == 1, result.stderr
    assert "config error" in result.stderr
    assert "field 'out'" in result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert calls == []


@pytest.mark.parametrize("command", ["fig3", "fig4", "snr"])
def test_zero_workers_rejected_before_any_run(runner, monkeypatch, command):
    calls = []
    monkeypatch.setattr(cli, "simulate_trials", lambda *args, **kwargs: calls.append(args))
    result = runner.invoke(main, [command, "--seed", "1", "--trials-scale", "1e-3", "--workers", "0"])
    assert result.exit_code == 1, result.stderr
    assert "field 'workers'" in result.stderr
    assert calls == []


def test_out_probe_leaves_files_as_they_were(runner, tmp_path):
    # a run that fails after the --out check creates no file and changes none,
    # also through a symlink whose target does not exist yet
    fresh, kept, link = tmp_path / "fresh.csv", tmp_path / "kept.csv", tmp_path / "link.csv"
    kept.write_text("earlier result\n")
    link.symlink_to(tmp_path / "target.csv")
    for out in (fresh, kept, link):
        result = runner.invoke(main, ["oracle-validate", "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 1, result.stderr
        assert "field 'seed'" in result.stderr
    assert not fresh.exists()
    assert kept.read_text() == "earlier result\n"
    assert link.is_symlink() and os.readlink(link) == str(tmp_path / "target.csv")
    assert not (tmp_path / "target.csv").exists()


def test_unwritable_sidecar_rejected_before_any_run(runner, tmp_path, monkeypatch):
    # a noisy fig3 with --out also writes <out>.fit.json; a directory there
    # fails before the first point runs, and the probe of --out leaves no CSV
    (tmp_path / "side.fit.json").mkdir()
    calls = []
    monkeypatch.setattr(cli, "simulate_trials", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "side.csv"
    result = runner.invoke(main, ["fig3", "--seed", "1", "--trials-scale", "1e-3", "--out", str(out)])
    assert result.exit_code == 1, result.stderr
    assert "field 'out'" in result.stderr
    assert "side.fit.json" in result.stderr
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags",
    [("oracle-validate", ["--config", "one.json"]), ("fig3", ["--seed", "1", "--trials-scale", "1e-3"])],
    ids=["oracle-validate", "fig3"],
)
def test_late_write_failure_is_config_error(runner, tmp_path, monkeypatch, command, flags):
    # the --out probe passes, then the final write fails, as on a disk that
    # fills during the run
    (tmp_path / "one.json").write_text(json.dumps(dict(SMALL_ORACLE, delta=[0.1])))
    out = tmp_path / "late.csv"
    real = Path.write_text

    def full_disk(path, *args, **kwargs):
        if path == out:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(path, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Path, "write_text", full_disk)
    result = runner.invoke(main, [command, *flags, "--out", str(out)])
    assert result.exit_code == 1, result.stderr
    assert result.stderr.startswith(f"config error: field 'out': cannot write {out}: [Errno 28] ")
    assert "Traceback" not in result.stdout + result.stderr
    assert not out.exists()


def test_snr_scheme_runs_as_the_campaign_point(runner, tmp_path, monkeypatch):
    """Scheme i of snr and point i of fig4 reach simulate_trials with the same arguments."""
    real = cli.simulate_trials
    calls = []

    def recording(params, noise, n_trials, seed, *, p_signal=None, workers=1):
        calls.append((params, noise, n_trials, seed, p_signal))
        return real(params, noise, n_trials, seed, p_signal=p_signal, workers=workers)

    monkeypatch.setattr(cli, "simulate_trials", recording)
    schemes = [SNR_WVA, dict(SNR_WVA, n_bar=45.0, delta=0.14, p_signal=0.2)]
    shared = {"phase_sigma": 0.1, "trials_scale": 0.5}
    snr_config = dict(shared, n_trials=20000, wva=schemes[0], direct=schemes[1])
    points = [
        {k: v for k, v in s.items() if not k.endswith("_urad")} | {"n_total": 20000}
        for s in schemes
    ]
    fig4_config = dict(shared, points=points, phi_bar_urad=5.59, span_urad=8.7)
    for command, config in (("snr", snr_config), ("fig4", fig4_config)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, [command, "--config", str(path), "--seed", "17"])
        assert result.exit_code == 0, result.stderr
    snr_calls, fig4_calls = calls[:2], calls[2:]
    assert snr_calls == fig4_calls
    assert [call[2] for call in snr_calls] == [10000, 10000]
