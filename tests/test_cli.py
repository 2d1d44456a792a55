import json

import pytest
from click.testing import CliRunner

from wva_sim.cli import main


@pytest.fixture
def runner():
    return CliRunner()


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
            rows.append(dict(zip(columns, line.split(","))))
    return header, columns, rows


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
        assert result.exit_code == 0, result.output
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
        assert result.exit_code == 0, result.output
        _, _, rows = parse_csv(out.read_text())
        assert all(row["verdict"] == "invalid" for row in rows)

    def test_tolerance_flag_gates_exit_code(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(SMALL_ORACLE))
        result = runner.invoke(
            main,
            ["oracle-validate", "--config", str(config), "--out",
             str(tmp_path / "o.csv"), "--tolerance", "1e-9"],
        )
        assert result.exit_code == 2

    def test_malformed_config_names_field(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(dict(SMALL_ORACLE, delta="not-a-list")))
        result = runner.invoke(main, ["oracle-validate", "--config", str(config)])
        assert result.exit_code == 1
        assert "delta" in result.output

    def test_unknown_field_rejected(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(dict(SMALL_ORACLE, detla=[0.1])))
        result = runner.invoke(main, ["oracle-validate", "--config", str(config)])
        assert result.exit_code == 1
        assert "detla" in result.output


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
        assert result.exit_code == 0, result.output
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
        assert result.exit_code == 0, result.output
        header, _, rows = parse_csv(out.read_text())
        config = json.loads(header["config"])
        assert [p["n_bar"] for p in config["points"]] == [95.0, 45.0, 20.0, 10.0, 40.0]
        assert [p["delta"] for p in config["points"]] == [0.10, 0.14, 0.22, 0.32, 1.0]
        assert len(rows) == 5

    def test_too_few_trials_exits_two(self, runner, tmp_path):
        # a vanishing trials scale leaves groups too small to estimate
        result = runner.invoke(
            main, ["fig3", "--seed", "7", "--trials-scale", "1e-8"]
        )
        assert result.exit_code == 2
        assert "estimation failure" in result.output

    @pytest.mark.parametrize("flag,value", [("--trials-scale", "0"), ("--workers", "-3")])
    def test_nonpositive_scale_or_workers_is_config_error(self, runner, flag, value):
        result = runner.invoke(
            main, ["fig3", "--seed", "7", "--trials-scale", "1e-4", flag, value]
        )
        assert result.exit_code == 1
        assert "config error" in result.output
        assert flag.lstrip("-").replace("-", "_") in result.output

    def test_fit_written_with_noise(self, runner, tmp_path):
        out = tmp_path / "fig3.csv"
        result = runner.invoke(
            main, ["fig3", "--out", str(out), "--seed", "7", "--trials-scale", "1e-3"]
        )
        assert result.exit_code == 0, result.output
        fit = json.loads((tmp_path / "fig3.fit.json").read_text())
        assert {"phi0_urad", "stderr_urad", "chi_squared", "dof"} <= set(fit)
        assert fit["dof"] == 3


class TestFig4:
    def test_byte_identical_across_worker_counts(self, runner, tmp_path):
        outs = []
        for workers, name in ((1, "a.csv"), (4, "b.csv")):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["fig4", "--out", str(out), "--seed", "123",
                 "--trials-scale", "3e-4", "--workers", str(workers)],
            )
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fit_json_sidecar(self, runner, tmp_path):
        out = tmp_path / "fig4.csv"
        result = runner.invoke(
            main, ["fig4", "--out", str(out), "--seed", "9", "--trials-scale", "1e-3"]
        )
        assert result.exit_code == 0, result.output
        fit = json.loads((tmp_path / "fig4.fit.json").read_text())
        assert fit["dof"] == 3  # delta = 1 control excluded by default
        header, _, rows = parse_csv(out.read_text())
        assert [row["in_fit"] for row in rows] == ["1", "1", "1", "1", "0"]

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
        assert "fit failure" in result.output

    def test_missing_seed_is_usage_error(self, runner):
        result = runner.invoke(main, ["fig4"])
        assert result.exit_code == 2  # click usage error
        assert "--seed" in result.output

    def test_negative_seed_rejected(self, runner):
        result = runner.invoke(main, ["fig4", "--seed", "-1"])
        assert result.exit_code == 1
        assert "seed" in result.output

    @pytest.mark.parametrize(
        "bad,field",
        [({"delta": 2.0}, "points[0].delta"), ({"background": 1.5}, "points[0].background")],
        ids=["delta", "background"],
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
        assert field in result.output


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
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["ratio"] == pytest.approx(1.0, abs=0.35)

    def test_json_report(self, runner, tmp_path):
        out = tmp_path / "snr.json"
        result = runner.invoke(
            main, ["snr", "--out", str(out), "--seed", "31", "--trials-scale", "0.25"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["seed"] == 31
        assert report["n_trials"] == 500_000
        assert report["ratio"] == pytest.approx(
            report["snr_wva"] / report["snr_direct"], rel=1e-12
        )
        assert report["ratio"] > 1.0

    def test_too_few_trials_exits_two(self, runner):
        # two trials per scheme: no click group to estimate from
        result = runner.invoke(main, ["snr", "--seed", "1", "--trials-scale", "1e-6"])
        assert result.exit_code == 2
        assert "estimation failure" in result.output

    def test_no_noclick_population_is_config_error(self, runner, tmp_path):
        # same rejection, same exit code as fig3 / fig4
        config = tmp_path / "snr.json"
        config.write_text(json.dumps({"wva": dict(SNR_WVA, p_signal=0.99)}))
        result = runner.invoke(main, ["snr", "--config", str(config), "--seed", "1"])
        assert result.exit_code == 1
        assert "config error" in result.output
        assert "field 'wva'" in result.output

    def test_bad_scheme_field_named(self, runner, tmp_path):
        config = tmp_path / "snr.json"
        config.write_text(json.dumps({"wva": dict(SNR_WVA, background=1.5)}))
        result = runner.invoke(main, ["snr", "--config", str(config), "--seed", "1"])
        assert result.exit_code == 1
        assert "wva.background" in result.output


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
        ("oracle-validate", SMALL_ORACLE, ["--tolerance", "-1"], "tolerance"),
        ("fig4", {"points": [5]}, ["--seed", "1"], "points[0]"),
        ("fig4", {"points": [{k: v for k, v in FIG4_POINT.items() if k != "n_total"}]},
         ["--seed", "1"], "points[0].n_total"),
        ("fig4", {"points": [FIG4_POINT], "include_delta_one": "yes"}, ["--seed", "1"],
         "include_delta_one"),
    ],
    ids=[
        "missing-file", "directory", "invalid-json", "array-oracle", "array-snr",
        "negative-alpha", "negative-span", "negative-tolerance", "point-not-object",
        "point-missing-n_total", "include_delta_one-not-bool",
    ],
)
def test_config_errors_exit_one_and_name_field(runner, tmp_path, command, config, flags, field):
    path = tmp_path / "config.json"
    if config == "dir":
        path.mkdir()
    elif isinstance(config, str):
        path.write_text(config)
    elif config is not None:
        path.write_text(json.dumps(config))
    result = runner.invoke(main, [command, "--config", str(path), *flags])
    assert result.exit_code == 1, result.output
    assert f"field '{field}'" in result.output


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
    assert result.exit_code == 0, result.output
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(echoed_config(command, first.read_text())))
    result = runner.invoke(main, [command, "--config", str(echo), *flags, "--out", str(second)])
    assert result.exit_code == 0, result.output
    assert second.read_bytes() == first.read_bytes()
