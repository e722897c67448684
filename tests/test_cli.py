"""Tests for the command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import PREFETCHER_CHOICES, build_parser, main
from repro.figures import FIGURES, figure_module
from repro.trace.reader import read_trace


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_help_usage_lines(self, capsys):
        # Every sub-command's usage carries the prefix derived from the top
        # level's prog ("repro simulate"), which is all `prog` reaches in --help.
        with pytest.raises(SystemExit):
            main(["--help"])
        assert capsys.readouterr().out.startswith("usage: repro [-h] [--version]")
        for command in ("simulate", "trace", "experiment", "convert", "serve", "submit",
                        "cache", "trace-report"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert capsys.readouterr().out.startswith(f"usage: repro {command} [-h]")

    def test_setup_py_reads_version_from_package(self):
        import re
        from pathlib import Path

        import repro

        setup_text = (Path(__file__).parent.parent / "setup.py").read_text()
        # setup.py must not pin its own version string; it reads the package's.
        assert "_package_version" in setup_text
        assert not re.search(r'version="\d', setup_text)
        init_text = (Path(repro.__file__)).read_text()
        assert f'__version__ = "{repro.__version__}"' in init_text

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--workload", "oltp-db2"])
        assert args.prefetcher == "sms"
        assert args.cpus == 4

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workload", "spec2017"])

    def test_unknown_prefetcher_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workload", "oltp-db2", "--prefetcher", "magic"]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--workload", "oltp-db2", "--pht-backend", "array"],
            ["simulate", "--workload", "oltp-db2", "--pht-shards", "2"],
            ["experiment", "--figure", "fig07", "--pht-backend", "array"],
            ["serve", "--scratch-dir", "/tmp/x"],
        ],
    )
    def test_retired_pht_storage_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_experiment_choice_listed(self):
        # The parser takes every name of the figure table.
        parser = build_parser()
        for name in FIGURES:
            assert parser.parse_args(["experiment", "--figure", name]).figure == name
        assert "fig11" in FIGURES
        assert "tab01" in FIGURES

    def test_every_experiment_choice_names_a_runner_module(self):
        for name in FIGURES:
            assert callable(figure_module(name).run)

    def test_prefetcher_choices_instantiate(self):
        for name, factory in PREFETCHER_CHOICES.items():
            prefetcher = factory()(0)
            assert prefetcher is not None

    def test_one_prefetcher_table_for_every_front_end(self):
        from repro.experiments import common
        from repro.prefetch import registry
        from repro.serve import jobs

        assert PREFETCHER_CHOICES is registry.PREFETCHER_CHOICES is jobs.PREFETCHER_CHOICES
        for helper in ("null_factory", "sms_factory", "ghb_factory", "stride_factory"):
            assert getattr(common, helper) is getattr(registry, helper)


class TestSimulateCommand:
    def test_simulate_prints_coverage(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--workload", "web-apache",
                "--prefetcher", "sms",
                "--cpus", "2",
                "--accesses-per-cpu", "2500",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "coverage" in output
        assert "estimated speedup" in output

    def test_simulate_with_null_prefetcher(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--workload", "ocean",
                "--prefetcher", "none",
                "--cpus", "2",
                "--accesses-per-cpu", "1500",
            ]
        )
        assert exit_code == 0
        assert "L1 coverage" in capsys.readouterr().out

    def test_trace_with_more_cpus_than_the_system_is_a_usage_error(self, tmp_path, capsys):
        trace = tmp_path / "four.strc"
        assert main(["trace", "--workload", "sparse", "--output", str(trace),
                     "--cpus", "4", "--accesses-per-cpu", "50"]) == 0
        capsys.readouterr()
        exit_code = main(["simulate", "--trace", str(trace), "--cpus", "2"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()  # one line, no traceback
        assert line.startswith("error: ")
        assert "CPU 2" in line  # the first record the 2-CPU system cannot place
        assert "--cpus 3" in line
        # The default system (4 CPUs) replays the same trace.
        assert main(["simulate", "--trace", str(trace)]) == 0

    def test_text_trace_replays_like_its_binary_twin(self, tmp_path, capsys):
        # A text trace carries no record count: the warm-up is sized by one
        # counting pass, and the table is the one the .strc header gives.
        text, binary = tmp_path / "ocean.txt", tmp_path / "ocean.strc"
        assert main(["trace", "--workload", "ocean", "--output", str(text),
                     "--cpus", "2", "--accesses-per-cpu", "2000"]) == 0
        assert main(["convert", "--input", str(text), "--output", str(binary)]) == 0
        capsys.readouterr()
        bodies = []
        for trace in (text, binary):
            assert main(["simulate", "--trace", str(trace), "--cpus", "2"]) == 0
            bodies.append(capsys.readouterr().out.splitlines()[1:])
        assert bodies[0] == bodies[1]
        assert any(line.startswith("L1 coverage") for line in bodies[0])

    @pytest.mark.parametrize("name", ["missing.strc", "missing.txt"])
    def test_missing_trace_file_is_a_usage_error(self, name, tmp_path, capsys):
        exit_code = main(["simulate", "--trace", str(tmp_path / name)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()  # one line, no traceback
        assert line.startswith("error: ") and name in line


class TestTraceCommand:
    def test_trace_roundtrip(self, tmp_path, capsys):
        output = tmp_path / "trace.txt"
        exit_code = main(
            [
                "trace",
                "--workload", "sparse",
                "--output", str(output),
                "--cpus", "2",
                "--accesses-per-cpu", "500",
            ]
        )
        assert exit_code == 0
        trace = read_trace(output)
        assert len(trace) == 1000
        assert "wrote 1000 accesses" in capsys.readouterr().out


class TestExperimentCommand:
    def test_tab01(self, capsys):
        exit_code = main(["experiment", "--figure", "tab01"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "system parameters" in output
        assert "application suite" in output

    def test_small_figure_run(self, tmp_path, capsys):
        exit_code = main(
            ["experiment", "--figure", "fig10", "--scale", "0.08", "--cpus", "2",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "region_size" in output
        assert "sweep cache:" in output

    def test_no_cache_suppresses_cache(self, capsys):
        exit_code = main(
            ["experiment", "--figure", "fig10", "--scale", "0.08", "--cpus", "2", "--no-cache"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "region_size" in output
        assert "sweep cache:" not in output

    def test_warm_cache_reuses_results(self, tmp_path, capsys):
        argv = ["experiment", "--figure", "fig10", "--scale", "0.08", "--cpus", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 hit(s)" in cold
        assert "0 miss(es)" in warm
        # Identical figure rows either way.
        assert warm.split("sweep cache:")[0] == cold.split("sweep cache:")[0]


    def test_parallel_workers_follow_the_trace_cache_switch(self, tmp_path):
        # The sweep's pool workers write the .strc traces; they must honour
        # the parent's --no-trace-cache, and write them without it.
        argv = [sys.executable, "-m", "repro.cli", "experiment", "--figure", "fig10",
                "--scale", "0.01", "--cpus", "1", "--workers", "2"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for name, flags in (("off", ["--no-trace-cache"]), ("on", [])):
            subprocess.run([*argv, *flags, "--cache-dir", str(tmp_path / name)],
                           env=env, check=True, capture_output=True, timeout=300)
        assert not (tmp_path / "off" / "traces").exists()
        assert len(list((tmp_path / "on" / "traces").glob("*.strc"))) == 4


class TestConvertCommand:
    def test_text_to_binary_and_back(self, tmp_path, capsys):
        text = tmp_path / "t.trace"
        main(["trace", "--workload", "sparse", "--output", str(text),
              "--cpus", "2", "--accesses-per-cpu", "300"])
        capsys.readouterr()
        binary = tmp_path / "t.strc.gz"
        assert main(["convert", "--input", str(text), "--output", str(binary)]) == 0
        assert "converted 600 records" in capsys.readouterr().out
        back = tmp_path / "back.trace"
        assert main(["convert", "--input", str(binary), "--output", str(back)]) == 0
        assert back.read_text() == text.read_text()

    def test_in_place_convert_refused(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        path.write_text("0 U R 400 1000 5\n")
        assert main(["convert", "--input", str(path), "--output", str(path)]) == 1
        assert "same file" in capsys.readouterr().err
        assert path.read_text() == "0 U R 400 1000 5\n"  # source untouched

    def test_failed_convert_preserves_existing_output(self, tmp_path, capsys):
        output = tmp_path / "precious.trace"
        output.write_text("0 U R 400 1000 5\n")
        missing = tmp_path / "missing.trace"
        assert main(["convert", "--input", str(missing), "--output", str(output)]) == 1
        assert "error:" in capsys.readouterr().err
        assert output.read_text() == "0 U R 400 1000 5\n"
        assert list(tmp_path.iterdir()) == [output]  # no temp leftovers

    def test_malformed_input_preserves_existing_output(self, tmp_path, capsys):
        output = tmp_path / "out.strc"
        main(["trace", "--workload", "sparse", "--output", str(tmp_path / "ok.trace"),
              "--cpus", "1", "--accesses-per-cpu", "100"])
        main(["convert", "--input", str(tmp_path / "ok.trace"), "--output", str(output)])
        good = output.read_bytes()
        capsys.readouterr()
        bad = tmp_path / "bad.trace"
        bad.write_text("0 U R 400 1000 5\nnot a record\n")
        assert main(["convert", "--input", str(bad), "--output", str(output)]) == 1
        assert "error:" in capsys.readouterr().err
        assert output.read_bytes() == good  # previous conversion intact


class TestCacheCommand:
    def _plant(self, root):
        """A cache directory with one fresh, one stale, one temp file per layer,
        and one quarantined entry."""
        from repro.simulation.result_cache import entry_prefix

        root.mkdir(parents=True, exist_ok=True)
        (root / "traces").mkdir(exist_ok=True)
        prefix = entry_prefix()
        fresh_pkl = root / f"{prefix}-{'0' * 64}.pkl"
        fresh_pkl.write_bytes(b"fresh")
        stale_pkl = root / f"{'f' * 16}-{'1' * 64}.pkl"
        stale_pkl.write_bytes(b"stale")
        temp_pkl = root / ".tmp-1-1"
        temp_pkl.write_bytes(b"tmp")
        fresh_trace = root / "traces" / f"oltp-db2-c2-a1000-s7-{prefix}.strc"
        fresh_trace.write_bytes(b"fresh")
        stale_trace = root / "traces" / f"oltp-db2-c2-a1000-s7-{'e' * 16}.strc"
        stale_trace.write_bytes(b"stale")
        temp_trace = root / "traces" / ".tmp-1-1"
        temp_trace.write_bytes(b"tmp")
        (root / "quarantine").mkdir(exist_ok=True)
        quarantined = root / "quarantine" / f"{prefix}-{'2' * 64}.pkl"
        quarantined.write_bytes(b"corrupt")
        return fresh_pkl, stale_pkl, temp_pkl, fresh_trace, stale_trace, temp_trace, quarantined

    def test_stats_counts_fresh_and_stale(self, tmp_path, capsys):
        self._plant(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        sweep_row = next(line for line in output.splitlines() if line.startswith("sweep"))
        traces_row = next(line for line in output.splitlines() if line.startswith("traces"))
        # cache / entries / bytes / stale_entries / stale_bytes / temp_files
        assert sweep_row.split() == ["sweep", "1", "5", "1", "5", "1"]
        assert traces_row.split() == ["traces", "1", "5", "1", "5", "1"]
        # A quarantined entry is visible without --json.
        quarantine_row = next(
            line for line in output.splitlines() if line.startswith("quarantine")
        )
        assert quarantine_row.split()[:3] == ["quarantine", "1", "7"]

    def test_prune_removes_only_stale_and_temp(self, tmp_path, capsys):
        planted = self._plant(tmp_path)
        fresh_pkl, stale_pkl, temp_pkl, fresh_trace, stale_trace, temp_trace, quarantined = planted
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "1 stale sweep" in output and "2 temp file(s)" in output
        assert "1 quarantined" in output
        assert fresh_pkl.exists() and fresh_trace.exists()
        assert not stale_pkl.exists() and not stale_trace.exists()
        assert not temp_pkl.exists() and not temp_trace.exists()
        assert not quarantined.exists()

    def test_stats_on_missing_directory(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "sweep" in capsys.readouterr().out


class TestSubmitCommand:
    def test_connection_refused_reports_error(self, tmp_path, capsys):
        exit_code = main(
            ["submit", "--socket", str(tmp_path / "absent.sock"),
             "--verb", "status", "--timeout", "1"]
        )
        assert exit_code == 1
        assert "cannot connect" in capsys.readouterr().err

    def test_bad_arg_syntax_rejected(self, capsys):
        exit_code = main(["submit", "--socket", "/tmp/x.sock", "--verb", "simulate",
                          "--arg", "no-equals-sign"])
        assert exit_code == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_requires_verb_or_request(self, capsys):
        assert main(["submit", "--socket", "/tmp/x.sock"]) == 1
        assert "pass --verb or --request" in capsys.readouterr().err

    def test_arg_values_parsed_as_json_when_possible(self):
        from repro.cli import _parse_submit_args

        params = _parse_submit_args(
            ["workload=oltp-db2", "cpus=2", "scale=0.5", "flag=true"]
        )
        assert params == {"workload": "oltp-db2", "cpus": 2, "scale": 0.5, "flag": True}
