"""Tests for the ``python -m repro`` command-line interface."""

import pathlib

import pytest

from repro.__main__ import build_parser, main

BUGGY_PROJECT = {
    "app.py": (
        "from unittest import TestCase\n"
        "class TestApp(TestCase):\n"
        "    def test_size(self):\n"
        "        app = self.build_app()\n"
        "        self.assertEqual(app.size, 3)\n"
        "    def test_count(self):\n"
        "        app = self.build_app()\n"
        "        self.assertTrue(app.count, 5)\n"
    ),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "namer.json"
    code = main(
        [
            "mine", "--out", str(out), "--repos", "25",
            "--min-support", "12", "--min-frequency", "5", "--seed", "3",
        ]
    )
    assert code == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_defaults(self):
        args = build_parser().parse_args(["mine"])
        assert args.out == "namer.json"
        assert args.language == "python"

    def test_scan_args(self):
        args = build_parser().parse_args(["scan", "proj", "--fix"])
        assert args.path == "proj" and args.fix

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8750 and args.workers == 4
        assert args.cache_size == 1024 and args.queue_capacity == 64

    def test_analyze_remote_defaults(self):
        args = build_parser().parse_args(["analyze-remote", "proj"])
        assert args.path == "proj"
        assert args.url == "http://127.0.0.1:8750"
        assert args.retries == 3 and args.backoff == 0.1

    def test_mine_resilience_flags(self):
        args = build_parser().parse_args(
            ["mine", "--resume", "--checkpoint-dir", "ck",
             "--keep-checkpoints", "--fault-plan", "plan.json"]
        )
        assert args.resume and args.keep_checkpoints
        assert args.checkpoint_dir == "ck"
        assert args.fault_plan == "plan.json"

    def test_serve_strict_artifacts_flag(self):
        args = build_parser().parse_args(["serve", "--strict-artifacts"])
        assert args.strict_artifacts
        assert not build_parser().parse_args(["serve"]).strict_artifacts

    def test_mine_cache_flags(self):
        args = build_parser().parse_args(["mine"])
        assert args.cache_dir is None and not args.no_cache
        args = build_parser().parse_args(
            ["mine", "--cache-dir", "warm", "--no-cache"]
        )
        assert args.cache_dir == "warm" and args.no_cache

    def test_serve_cache_dir_flag(self):
        assert build_parser().parse_args(["serve"]).cache_dir is None
        args = build_parser().parse_args(["serve", "--cache-dir", "d"])
        assert args.cache_dir == "d"


class TestCommands:
    def test_mine_writes_artifacts(self, artifacts):
        assert artifacts.exists()
        assert artifacts.stat().st_size > 1000

    def test_scan_reports(self, artifacts, tmp_path, capsys):
        project = tmp_path / "proj"
        project.mkdir()
        for name, source in BUGGY_PROJECT.items():
            (project / name).write_text(source)
        code = main(["scan", str(project), "--artifacts", str(artifacts)])
        assert code == 0
        out = capsys.readouterr().out
        assert "naming issue(s) reported" in out

    def test_scan_fix_modifies_file(self, artifacts, tmp_path, capsys):
        project = tmp_path / "fixproj"
        project.mkdir()
        target = project / "app.py"
        target.write_text(BUGGY_PROJECT["app.py"])
        main(["scan", str(project), "--artifacts", str(artifacts), "--fix"])
        out = capsys.readouterr().out
        if "replace 'True'" in out:
            assert "assertEqual(app.count, 5)" in target.read_text()

    def test_scan_skips_unparsable(self, artifacts, tmp_path, capsys):
        project = tmp_path / "badproj"
        project.mkdir()
        (project / "broken.py").write_text("def broken(:")
        code = main(["scan", str(project), "--artifacts", str(artifacts)])
        assert code == 0
        err = capsys.readouterr().err
        assert "unparsable" in err

    def test_scan_skips_undecodable_file(self, artifacts, tmp_path, capsys):
        project = tmp_path / "mixedproj"
        project.mkdir()
        (project / "good.py").write_text(BUGGY_PROJECT["app.py"])
        (project / "bad.py").write_bytes(b"\xff\xfe\x00junk")
        code = main(["scan", str(project), "--artifacts", str(artifacts)])
        assert code == 0
        captured = capsys.readouterr()
        assert "cannot read" in captured.err
        assert "naming issue(s) reported" in captured.out

    def test_scan_fails_when_every_file_is_unreadable(
        self, artifacts, tmp_path, capsys
    ):
        project = tmp_path / "allbad"
        project.mkdir()
        (project / "only.py").write_bytes(b"\xff\xfe\x00junk")
        code = main(["scan", str(project), "--artifacts", str(artifacts)])
        assert code != 0
        assert "unreadable" in capsys.readouterr().err

    def test_mine_resume_round_trip(self, tmp_path, capsys):
        import json

        from repro.resilience.faults import FAULTS

        base = ["--repos", "6", "--min-support", "12", "--min-frequency", "5"]
        out_a = tmp_path / "a.json"
        assert main(["mine", "--out", str(out_a), *base]) == 0

        plan = tmp_path / "kill.json"
        plan.write_text(json.dumps({
            "seed": 0,
            "specs": [{"site": "pipeline.after_train", "max_trips": 1}],
        }))
        out_b = tmp_path / "b.json"
        try:
            code = main(
                ["mine", "--out", str(out_b), "--fault-plan", str(plan), *base]
            )
        finally:
            FAULTS.disarm()  # the CLI arms the process-wide injector
        assert code == 3 and not out_b.exists()
        assert (tmp_path / "b.json.ckpt" / "train.ckpt.json").exists()

        assert main(["mine", "--out", str(out_b), "--resume", *base]) == 0
        assert "resumed from checkpoint" in capsys.readouterr().out
        assert out_b.read_bytes() == out_a.read_bytes()

    def test_mine_rerun_replays_from_the_cache(self, tmp_path, capsys):
        base = ["--repos", "6", "--min-support", "12", "--min-frequency", "5",
                "--cache-dir", str(tmp_path / "cache")]
        out = tmp_path / "namer.json"
        uncached = tmp_path / "uncached.json"
        # `--freeze` still parses and changes nothing: every mine
        # writes the blob.
        assert main(
            ["mine", "--out", str(uncached), "--no-cache", "--freeze", *base[:-2]]
        ) == 0
        assert main(["mine", "--out", str(out), *base]) == 0
        assert "replayed" not in capsys.readouterr().out
        assert main(["mine", "--out", str(out), "--profile", *base]) == 0
        printed = capsys.readouterr().out
        assert "replayed from cache entry train/" in printed
        assert "no phase timings (replayed from cache entry train/" in printed
        assert out.read_bytes() == uncached.read_bytes()
        frozen = pathlib.Path(f"{out}.frozen").read_bytes()
        assert frozen == pathlib.Path(f"{uncached}.frozen").read_bytes()

    def test_scan_style_flag(self, artifacts, tmp_path, capsys):
        project = tmp_path / "styleproj"
        project.mkdir()
        (project / "mixed.py").write_text(
            "def load_user_record(user_id, record_key):\n"
            "    raw_data = fetch_remote_data(user_id)\n"
            "    parsed_row = parse_data_row(raw_data)\n"
            "    final_result = merge_row_values(parsed_row, record_key)\n"
            "    return final_result\n"
            "def helperMethod(inputValue):\n"
            "    return inputValue\n"
        )
        code = main(
            ["scan", str(project), "--artifacts", str(artifacts), "--style"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "helperMethod" in out

    def test_analyze_remote_round_trip(self, artifacts, tmp_path, capsys):
        from repro.service.engine import AnalysisEngine
        from repro.service.server import AnalysisServer

        server = AnalysisServer(
            AnalysisEngine(artifact_path=str(artifacts), workers=1), port=0
        ).start()
        try:
            project = tmp_path / "remoteproj"
            project.mkdir()
            for name, source in BUGGY_PROJECT.items():
                (project / name).write_text(source)
            code = main(["analyze-remote", str(project), "--url", server.url])
            assert code == 0
            out = capsys.readouterr().out
            assert "naming issue(s) reported" in out
            assert "cache: memory=0 disk=0 miss=1" in out
            # Re-analyzing hits the daemon's result cache, and the CLI
            # surfaces the disposition from the X-Repro-Cache header.
            assert main(["analyze-remote", str(project), "--url", server.url]) == 0
            assert "cache: memory=1 disk=0 miss=0" in capsys.readouterr().out
        finally:
            server.stop()

    def test_mine_warm_cache_round_trip(self, tmp_path, capsys):
        base = [
            "--repos", "6", "--min-support", "10", "--min-frequency", "5",
            "--cache-dir", str(tmp_path / "warm"),
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["mine", "--out", str(out_a), *base]) == 0
        assert (tmp_path / "warm").is_dir()
        assert main(["mine", "--out", str(out_b), *base]) == 0
        # The warm run mined bit-identical artifacts from the cache.
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_mine_no_cache_skips_cache_dir(self, tmp_path):
        out = tmp_path / "n.json"
        code = main([
            "mine", "--out", str(out), "--no-cache",
            "--repos", "6", "--min-support", "10", "--min-frequency", "5",
        ])
        assert code == 0
        assert not (tmp_path / "n.json.cache").exists()

    def test_eval_prints_table(self, capsys):
        code = main(
            [
                "eval", "--repos", "10", "--sample", "40",
                "--min-support", "10", "--min-frequency", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Namer" in out and "w/o C" in out


class TestFailureExitCodes:
    """Failures exit nonzero with a message on stderr, not a traceback."""

    def test_scan_missing_artifacts(self, tmp_path, capsys):
        code = main(
            ["scan", str(tmp_path), "--artifacts", str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_scan_corrupt_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        (tmp_path / "bad.json.frozen").write_text("{not a blob")
        code = main(["scan", str(tmp_path), "--artifacts", str(bad)])
        assert code == 2
        assert "bad magic header" in capsys.readouterr().err

    def test_scan_nonexistent_path(self, artifacts, tmp_path, capsys):
        code = main(
            ["scan", str(tmp_path / "nowhere"), "--artifacts", str(artifacts)]
        )
        assert code == 1
        assert "no such file" in capsys.readouterr().err

    def test_scan_single_unparseable_file_fails(self, artifacts, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:")
        code = main(["scan", str(bad), "--artifacts", str(artifacts)])
        assert code == 1
        assert "unparseable" in capsys.readouterr().err

    def test_serve_missing_artifacts(self, tmp_path, capsys):
        code = main(["serve", "--artifacts", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_analyze_remote_unreachable_daemon(self, tmp_path, capsys):
        target = tmp_path / "app.py"
        target.write_text("x = 1\n")
        code = main(
            ["analyze-remote", str(target), "--url", "http://127.0.0.1:9",
             "--timeout", "2"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_analyze_remote_nonexistent_path(self, capsys):
        code = main(["analyze-remote", "/nonexistent/path"])
        assert code == 1
        assert "no such file" in capsys.readouterr().err
