"""Unit tests for iocost_coef_gen, report rendering, and the CLI."""

import json
import re

import pytest

from repro.core.config import NoneKnob, Scenario
from repro.core.report import render_series, render_table
from repro.fleet.spec import demo_fleet
from repro.iorequest import GIB, KIB, OpType, Pattern
from repro.ssd.presets import intel_optane_like, samsung_980pro_like
from repro.tools.cli import build_parser, main
from repro.tools.iocost_coef_gen import (
    DEFAULT_CONSERVATISM,
    derive_model,
    format_model_line,
)
from repro.workloads.apps import batch_app


class TestDeriveModel:
    def test_read_saturation_matches_paper_ratio(self):
        ssd = samsung_980pro_like()
        model = derive_model(ssd)
        nominal = ssd.saturation_iops(OpType.READ, Pattern.RANDOM, 4 * KIB)
        assert model.rrandiops == pytest.approx(nominal * DEFAULT_CONSERVATISM)

    def test_paper_read_saturation_point(self):
        # The paper's generated model had a 2.3 GiB/s read saturation.
        model = derive_model(samsung_980pro_like())
        assert 2.0 * GIB < model.rrandiops * 4 * KIB < 2.6 * GIB

    def test_write_params_include_waf(self):
        ssd = samsung_980pro_like()
        model = derive_model(ssd)
        nominal_write = ssd.saturation_iops(OpType.WRITE, Pattern.RANDOM, 4 * KIB)
        expected = nominal_write * DEFAULT_CONSERVATISM / ssd.gc.write_amplification
        assert model.wrandiops == pytest.approx(expected)

    def test_optane_has_no_waf_discount(self):
        ssd = intel_optane_like()
        model = derive_model(ssd)
        nominal = ssd.saturation_iops(OpType.WRITE, Pattern.RANDOM, 4 * KIB)
        assert model.wrandiops == pytest.approx(nominal * DEFAULT_CONSERVATISM)

    def test_conservatism_validated(self):
        with pytest.raises(ValueError):
            derive_model(samsung_980pro_like(), conservatism=0.0)

    def test_format_model_line_parses_back(self):
        from repro.cgroups.knobs import parse_io_cost_model_line

        model = derive_model(samsung_980pro_like())
        line = format_model_line("259:0", model)
        device, parsed = parse_io_cost_model_line(line)
        assert device == "259:0"
        assert parsed.rbps == pytest.approx(model.rbps, abs=1.0)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            ["knob", "value"], [["none", 1.0], ["io.cost", 2.5]], title="T"
        )
        assert "T" in text
        assert "io.cost" in text
        assert "2.500" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_render_series(self):
        text = render_series(
            "Fig X", {"none": [(1.0, 2.0)]}, x_label="apps", y_label="GiB/s"
        )
        assert "Fig X" in text
        assert "none" in text


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_describe_device(self, capsys):
        assert main(["describe-device", "flash"]) == 0
        assert "GiB/s" in capsys.readouterr().out

    def test_describe_device_json_matches_model_dict(self, capsys):
        import json

        from repro.ssd.model import describe_model_dict
        from repro.ssd.presets import get_preset

        assert main(["describe-device", "flash", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # The CLI document IS the tune.space source of truth.
        assert doc == describe_model_dict(get_preset("flash"))
        assert set(doc["cases"]) == {
            "rand-read-4k",
            "rand-write-4k",
            "rand-read-64k",
            "seq-read-256k",
        }
        case = doc["cases"]["rand-read-4k"]
        assert case["bandwidth_bps"] == case["iops"] * case["size_bytes"]

    def test_tune_unknown_knob(self):
        with pytest.raises(SystemExit, match="unknown knob"):
            main(["tune", "--mini", "--knob", "io.imaginary"])

    def test_place_malformed_fleet_exits_with_message(self, tmp_path):
        doc = demo_fleet().to_json_dict()
        doc["tenants"][0]["sizekib"] = 4
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit, match="unknown key.*sizekib"):
            main(["place", "--fleet", str(path)])

    def test_coef_gen(self, capsys):
        assert main(["coef-gen", "optane"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("259:0 ctrl=user model=linear")

    def test_run_quick_scenario(self, capsys):
        code = main(
            [
                "run",
                "--knob",
                "none",
                "--batch-apps",
                "1",
                "--duration",
                "0.05",
                "--device-scale",
                "16",
            ]
        )
        assert code == 0
        assert "aggregate bandwidth" in capsys.readouterr().out

    def test_run_unknown_knob(self):
        with pytest.raises(SystemExit):
            main(["run", "--knob", "cfq", "--batch-apps", "1"])

    def test_run_without_apps(self):
        with pytest.raises(SystemExit):
            main(["run", "--batch-apps", "0", "--lc-apps", "0"])


#: Every workload-running subcommand ends with this machine-parseable line.
PERF_LINE_RE = re.compile(
    r"^perf: events=\d+ elapsed=\d+\.\d{3}s events/sec=\d+ engine=(batched|legacy)$"
)

QUICK_RUN_ARGS = [
    "--batch-apps",
    "1",
    "--duration",
    "0.05",
    "--device-scale",
    "16",
]


class TestPerfFooter:
    def test_run_ends_with_perf_line(self, capsys):
        assert main(["run", *QUICK_RUN_ARGS]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert PERF_LINE_RE.match(last), last

    def test_trace_ends_with_perf_line(self, capsys, tmp_path):
        out_path = str(tmp_path / "trace.jsonl")
        code = main(
            ["trace", *QUICK_RUN_ARGS, "--format", "jsonl", "--out", out_path]
        )
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert PERF_LINE_RE.match(last), last

    def test_run_prof_prints_breakdown_then_perf_line(self, capsys, tmp_path):
        out_path = str(tmp_path / "profile.pstats")
        code = main(
            [
                "run",
                *QUICK_RUN_ARGS,
                "--prof",
                "--prof-out",
                out_path,
                "--prof-format",
                "pstats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine phase breakdown:" in out
        assert "loop total" in out
        import pstats

        assert pstats.Stats(out_path).stats  # loadable by the stdlib
        last = out.strip().splitlines()[-1]
        assert PERF_LINE_RE.match(last), last


def exit_message(argv: list[str]) -> str:
    """Run the CLI expecting a one-line ``SystemExit`` message; return it."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = info.value.code
    assert isinstance(message, str), message  # a message, not a bare status
    assert "\n" not in message
    return message


class TestCliRejectsBadFlags:
    """Bad flag values exit before any sweep starts, with one line each.

    Study overrides go through the settings' own ``__post_init__``.
    """

    def test_d5_empty_fault_list(self):
        assert "need at least one fault class" in exit_message(
            ["d5", "--mini", "--no-cache", "--faults", ","]
        )

    def test_d5_unknown_fault_class(self):
        assert "unknown fault classes ['bogus']" in exit_message(
            ["d5", "--mini", "--no-cache", "--faults", "gc-storm,bogus"]
        )

    def test_tune_zero_budget(self):
        assert "budget must be >= 1" in exit_message(
            ["tune", "--mini", "--no-cache", "--budget", "0"]
        )

    def test_d9_train_budget_below_floor(self):
        assert "train_budget must be >= 2" in exit_message(
            ["d9", "--mini", "--no-cache", "--knobs", "io.max", "--train-budget", "1"]
        )

    def test_ctl_empty_knob_list(self):
        assert "need at least one knob" in exit_message(
            ["ctl", "--mini", "--no-cache", "--knobs", ","]
        )

    def test_ctl_unknown_pattern_lists_options(self):
        message = exit_message(["ctl", "--mini", "--no-cache", "--patterns", "tsunami"])
        assert "unknown patterns: ['tsunami']; options:" in message

    @pytest.mark.parametrize("command", ["table1", "d5", "tune", "place", "ctl", "d9"])
    def test_zero_workers(self, command):
        argv = [command, "--quick"] if command == "table1" else [command, "--mini"]
        assert exit_message([*argv, "--no-cache", "--workers", "0"]).startswith(
            "--workers:"
        )

    def test_negative_prof_bucket(self):
        assert exit_message(
            ["run", *QUICK_RUN_ARGS, "--prof", "--prof-bucket-us", "-5"]
        ).startswith("--prof-bucket-us:")

    def test_place_zero_budget(self):
        assert "budget must be >= 1" in exit_message(
            ["place", "--mini", "--no-cache", "--budget", "0"]
        )

    def test_surrogate_eval_holdout_every_zero(self, tmp_path, capsys):
        assert exit_message(
            ["surrogate", "eval", "--cache-dir", str(tmp_path), "--holdout-every", "0"]
        ).startswith("--holdout-every:")
        # The flag is checked before the corpus is loaded and reported.
        assert "corpus:" not in capsys.readouterr().out

    def test_surrogate_fit_needs_two_rows_whatever_min_rows(self, tmp_path):
        assert exit_message(
            ["surrogate", "fit", "--cache-dir", str(tmp_path), "--min-rows", "-1"]
        ).startswith("corpus has 0 rows (< 2 required)")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--cores", "0"], "isol-bench run: cores must be >= 1"),
            (["run", "--devices", "0"], "isol-bench run: num_devices must be >= 1"),
            (["run", "--duration", "-1"], "isol-bench run: duration must be positive"),
            (["run", "--size", "0"], "isol-bench run: request size must be positive"),
            (
                ["trace", "--sample-period-us", "-1", "--out", "unused.json"],
                "isol-bench trace: sample period must be >= 0",
            ),
        ],
    )
    def test_scenario_flags(self, argv, message):
        assert exit_message(argv).startswith(message)


class TestCacheCommand:
    """``isol-bench cache stats|path|clear`` on a temporary cache dir."""

    @pytest.fixture
    def cache_dir(self, tmp_path):
        from repro.exec import ResultCache
        from repro.exec.summary import run_scenario_summary

        root = tmp_path / "cache"
        scenario = Scenario(
            name="cache-cli",
            knob=NoneKnob(),
            apps=[batch_app("a", "/t/a")],
            duration_s=0.01,
            warmup_s=0.0,
            device_scale=16.0,
        )
        ResultCache(root).put("ab" * 32, run_scenario_summary(scenario))
        return root

    def run_cache(self, capsys, action, root) -> str:
        assert main(["cache", action, "--cache-dir", str(root)]) == 0
        return capsys.readouterr().out.strip()

    def test_path(self, capsys, cache_dir):
        assert self.run_cache(capsys, "path", cache_dir) == str(cache_dir)

    def test_stats_then_clear(self, capsys, cache_dir):
        stats = self.run_cache(capsys, "stats", cache_dir)
        assert re.fullmatch(
            rf"{re.escape(str(cache_dir))}: 1 entr\(ies\), [\d.]+ KiB", stats
        )
        cleared = self.run_cache(capsys, "clear", cache_dir)
        assert cleared == f"{cache_dir}: removed 1 entr(ies)"
        stats = self.run_cache(capsys, "stats", cache_dir)
        assert stats == f"{cache_dir}: 0 entr(ies), 0.0 KiB"
