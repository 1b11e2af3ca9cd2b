"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.engine import (
    TieredCache,
    get_breaker,
    reset_breakers,
    reset_kernel_info,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_geometry_flags(self):
        args = build_parser().parse_args(
            ["--length", "300", "--width", "60", "info"]
        )
        assert args.length == 300.0
        assert args.width == 60.0

    def test_subcommand_defaults(self):
        args = build_parser().parse_args(["assay"])
        assert args.analyte == "igg"
        assert args.conc_nm == 10.0

    def test_track_backend_flag(self):
        args = build_parser().parse_args(["track", "--backend", "fused"])
        assert args.backend == "fused"
        assert build_parser().parse_args(["track"]).backend == "auto"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["track", "--backend", "turbo"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "spring constant" in out
        assert "mode 1" in out
        assert "resonant bridge" in out

    def test_info_custom_geometry(self, capsys):
        assert main(["--length", "300", "--width", "60", "info"]) == 0
        assert "300 x 60" in capsys.readouterr().out

    def test_fabricate_clean(self, capsys):
        assert main(["fabricate"]) == 0
        out = capsys.readouterr().out
        assert "KOH etch time" in out
        assert "clean" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "--liquid", "water"]) == 0
        out = capsys.readouterr().out
        assert "sweep f0" in out

    def test_assay_detects(self, capsys):
        code = main(
            ["assay", "--conc-nm", "50", "--exposure", "900", "--stride", "50"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "step" in captured.err

    def test_track(self, capsys):
        code = main(
            ["track", "--exposure", "900", "--gate", "10", "--stride", "40"]
        )
        assert code == 0
        assert "shift" in capsys.readouterr().err

    def test_track_explicit_backends_agree(self, capsys):
        outputs = {}
        for backend in ("reference", "fused"):
            code = main(
                ["track", "--exposure", "900", "--gate", "10",
                 "--stride", "40", "--backend", backend]
            )
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        # the kernel is bit-exact, so the printed trace is too
        assert outputs["reference"] == outputs["fused"]

    def test_sweep_cache_dir_shared_with_fabric(self, tmp_path, capsys):
        """A fabric sweep and a serial sweep on one --cache-dir share
        entries: the second sweep computes nothing and writes no file."""
        from repro.engine import kernel_info, reset_kernel_info

        sweep = ["sweep", "--values", "180:220:4", "--duration", "0.004",
                 "--cache-dir", str(tmp_path / "cache")]
        fabric = ["--fabric", "--fabric-workers", "0",
                  "--db", str(tmp_path / "jobs.sqlite")]
        assert main([*sweep, *fabric]) == 0
        table = capsys.readouterr().out
        files = sorted(tmp_path.rglob("*.pkl"))
        assert files
        reset_kernel_info()
        assert main([*sweep, "--serial"]) == 0
        assert capsys.readouterr().out == table
        assert kernel_info().runs == {}
        assert sorted(tmp_path.rglob("*.pkl")) == files

    def test_sweep_timeout_runs_the_watchdog_and_retries(
        self, capsys, monkeypatch
    ):
        """--timeout on the default (batch) sweep runs it point by point:
        a hung point is abandoned and retried, and the table is the
        fault-free one."""
        from repro.analysis import LoopSweepTask
        from repro.engine import FaultPlan, inject_faults

        sweep = ["sweep", "--values", "180:220:4", "--duration", "0.004"]
        assert main([*sweep, "--serial"]) == 0
        table = capsys.readouterr().out
        batch_calls = []
        batch_call = LoopSweepTask.batch_call

        def spy(task, specs, threads=None):
            batch_calls.append(len(specs))
            return batch_call(task, specs, threads=threads)

        monkeypatch.setattr(LoopSweepTask, "batch_call", spy)
        plan = FaultPlan.single(
            "executor.task", kind="hang", payload=1.0, at=1
        )
        with inject_faults(plan) as inj:
            assert main([*sweep, "--timeout", "0.3", "--retries", "1"]) == 0
        assert capsys.readouterr().out == table
        assert inj.fired["executor.task"] == 1
        assert batch_calls == []  # never handed to batch_call


class TestServiceCommands:
    def test_results_ndjson_against_a_dead_url_is_one_line(self, capsys):
        import socket

        from repro.engine.resilience import reset_breakers
        from repro.service import reset_transport

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        try:
            code = main(["results", "job-x", "--ndjson",
                         "--url", f"http://127.0.0.1:{port}"])
        finally:
            reset_transport()
            reset_breakers()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro: cannot reach service")
        assert err.count("\n") == 1


def damaged_cache_dir(root) -> str:
    """A cache directory of three entries, one of them truncated."""
    cache = TieredCache(root)
    for i in range(3):
        cache.put(f"key-{i}", {"i": i})
    path = cache._path_for("key-1")
    path.write_bytes(path.read_bytes()[:10])
    return str(root)


class TestHealth:
    @pytest.fixture(autouse=True)
    def _clean_engine_state(self):
        """Breakers and kernel counters feed the verdict; isolate them."""
        reset_breakers()
        reset_kernel_info()
        yield
        reset_breakers()
        reset_kernel_info()

    @pytest.mark.parametrize("evict, code", [(False, 1), (True, 0)])
    def test_text_and_json_forms_give_one_verdict(self, tmp_path, capsys,
                                                  evict, code):
        flags = ["--evict"] if evict else []
        text = main(["health", "--cache-dir",
                     damaged_cache_dir(tmp_path / "text"), *flags])
        out = capsys.readouterr().out
        verb = "evicted" if evict else "found"
        assert f"2 intact, 1 damaged ({verb})" in out
        assert "cache tier" not in out
        as_json = main(["health", "--json", "--cache-dir",
                        damaged_cache_dir(tmp_path / "json"), *flags])
        snapshot = json.loads(capsys.readouterr().out)
        assert (snapshot["cache"]["intact"], snapshot["cache"]["damaged"]) \
            == (2, 1)
        assert text == as_json == code

    def test_an_open_breaker_fails_both_forms(self, capsys):
        get_breaker("probe", threshold=1).record_failure("injected")
        assert main(["health"]) == 1
        assert "breaker probe       : OPEN" in capsys.readouterr().out
        assert main(["health", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False
