"""bcache-top: event folding, rendering, CLI (repro.obs.top)."""

from __future__ import annotations

import json

import pytest

from repro.obs.exposition import parse_text
from repro.obs.top import (
    RETRY_STORM_THRESHOLD,
    SweepModel,
    main,
    poll_fleet,
    render_fleet,
    render_server,
    render_sweep,
)


def _event(name: str, *, pid: int = 100, mono: float = 1.0, **fields):
    return {"name": name, "pid": pid, "mono": mono, **fields}


def _sweep_events():
    events = [
        _event("engine.sweep", run_id="panel", jobs=4, mono=0.5)
    ]
    for i, benchmark in enumerate(["gcc", "gcc", "mcf", "mcf"]):
        events.append(
            _event("job.queued", benchmark=benchmark, mono=1.0 + i)
        )
    events += [
        _event("job.running", benchmark="gcc", pid=101, mono=5.0),
        _event("job.done", benchmark="gcc", miss_rate=0.10, mono=6.0),
        _event("job.done", benchmark="gcc", miss_rate=0.20, mono=7.0),
        _event("job.retried", benchmark="mcf", mono=8.0),
        _event("job.failed", benchmark="mcf", mono=9.0),
    ]
    return events


# ----------------------------------------------------------------------
# Log-mode model + rendering
# ----------------------------------------------------------------------
class TestSweepModel:
    def test_folds_lifecycle_events(self):
        model = SweepModel()
        model.apply_all(_sweep_events())
        assert model.run_id == "panel"
        assert model.total_jobs == 4
        assert model.done_jobs == 2
        gcc = model.benchmarks["gcc"]
        assert (gcc.queued, gcc.done) == (2, 2)
        assert gcc.miss_rate_so_far == pytest.approx(0.15)
        mcf = model.benchmarks["mcf"]
        assert (mcf.failed, mcf.retries) == (1, 1)

    def test_unknown_events_only_count(self):
        model = SweepModel()
        model.apply(_event("kernel.batch", cache="dm"))
        assert model.events_seen == 1
        assert model.benchmarks == {}

    def test_retry_storm_window(self):
        model = SweepModel()
        for i in range(RETRY_STORM_THRESHOLD):
            model.apply(
                _event("job.retried", benchmark="mcf", mono=100.0 + i)
            )
        assert model.retry_storm() >= RETRY_STORM_THRESHOLD
        # An event far in the future ages the retries out of the window.
        model.apply(_event("job.done", benchmark="mcf", mono=500.0))
        assert model.retry_storm() == 0

    def test_render_sweep_shows_progress_and_rates(self):
        model = SweepModel()
        model.apply_all(_sweep_events())
        frame = render_sweep(model)
        assert "run=panel" in frame
        assert "2/4 jobs" in frame
        assert "gcc" in frame and "mcf" in frame
        assert "15.000%" in frame
        assert "workers:" in frame

    def test_render_storm_banner(self):
        model = SweepModel()
        for i in range(RETRY_STORM_THRESHOLD + 1):
            model.apply(_event("job.retried", benchmark="mcf", mono=50.0 + i))
        assert "retry storm" in render_sweep(model)

    def test_render_empty_model(self):
        frame = render_sweep(SweepModel())
        assert "0 job(s) done" in frame


# ----------------------------------------------------------------------
# Connect-mode rendering
# ----------------------------------------------------------------------
def _fake_status():
    return {
        "server": {
            "uptime_s": 12.0,
            "draining": False,
            "requests": 9,
            "completed": 9,
            "errors": 0,
            "shed": 0,
            "inflight_jobs": 0,
            "max_pending": 256,
        },
        "batcher": {
            "batches": 3,
            "mean_batch_size": 3.0,
            "coalesced": 1,
            "batch_errors": 0,
        },
        "shards": [
            {"pid": 41, "alive": True, "uptime_s": 12.0, "batches": 2,
             "jobs": 5, "restarts": 0},
            {"pid": 42, "alive": False, "uptime_s": 1.0, "batches": 1,
             "jobs": 4, "restarts": 2},
        ],
    }


_FAKE_METRICS = """\
# TYPE repro_engine_jobs_total counter
repro_engine_jobs_total{status="done"} 9
# TYPE repro_trace_store_hits_total counter
repro_trace_store_hits_total{tier="memory"} 4
repro_trace_store_hits_total{tier="disk"} 2
# TYPE repro_serve_batch_size histogram
repro_serve_batch_size_bucket{le="4"} 3
repro_serve_batch_size_bucket{le="+Inf"} 3
repro_serve_batch_size_sum 9
repro_serve_batch_size_count 3
"""


class TestRenderServer:
    def test_renders_status_and_metrics(self):
        frame = render_server(_fake_status(), parse_text(_FAKE_METRICS))
        assert "uptime=12s" in frame
        assert "batches 3" in frame
        assert "jobs done 9" in frame
        assert "trace hits mem/disk 4/2" in frame
        assert "scraped batch size 3.00" in frame
        # A dead shard renders as NO with its restart count.
        assert "NO" in frame and " 2" in frame

    def test_renders_without_metrics(self):
        frame = render_server(_fake_status(), None)
        assert "metrics" not in frame
        assert "uptime=12s" in frame

    def test_missing_families_are_omitted(self):
        families = parse_text("# TYPE repro_other_total counter\n")
        frame = render_server(_fake_status(), families)
        assert "jobs done" not in frame


# ----------------------------------------------------------------------
# Fleet mode
# ----------------------------------------------------------------------
class TestRenderFleet:
    def test_renders_one_row_per_node_and_totals(self):
        status = _fake_status()
        status["server"]["shard_restarts_total"] = 2
        rows = [
            ("unix:/tmp/a.sock", status, None),
            ("unix:/tmp/b.sock", None, None),
        ]
        frame = render_fleet(rows)
        assert "1/2 node(s) up" in frame
        lines = frame.splitlines()
        row_a = next(line for line in lines if "a.sock" in line)
        row_b = next(line for line in lines if "b.sock" in line)
        assert "up" in row_a and " 9" in row_a and " 2" in row_a
        assert "DOWN" in row_b
        assert any("completed" in line for line in lines)  # header present

    def test_draining_node_renders_drain_state(self):
        status = _fake_status()
        status["server"]["draining"] = True
        frame = render_fleet([("unix:/tmp/a.sock", status, None)])
        assert "drain" in frame

    def test_steals_column_reads_cluster_metric(self):
        families = parse_text(
            "# TYPE repro_cluster_steals_total counter\n"
            'repro_cluster_steals_total{node="unix:/tmp/a.sock"} 7\n'
        )
        frame = render_fleet([("unix:/tmp/a.sock", _fake_status(), families)])
        row = next(line for line in frame.splitlines() if "a.sock" in line)
        assert " 7" in row

    def test_plain_serve_node_renders_dash_for_steals(self):
        frame = render_fleet([("unix:/tmp/a.sock", _fake_status(), None)])
        row = next(line for line in frame.splitlines() if "a.sock" in line)
        assert " -" in row

    def test_long_address_is_truncated(self):
        address = "unix:/" + "x" * 60 + "/serve.sock"
        frame = render_fleet([(address, None, None)])
        assert "..." in frame

    def test_poll_fleet_marks_unreachable_nodes_down(self, tmp_path, capsys):
        rows = poll_fleet([f"unix:{tmp_path}/ghost.sock"])
        assert rows == [(f"unix:{tmp_path}/ghost.sock", None, None)]
        assert "cannot reach" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_once_renders_log_file(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            "\n".join(json.dumps(e) for e in _sweep_events()) + "\n"
        )
        assert main(["--log", str(log), "--once"]) == 0
        out = capsys.readouterr().out
        assert "bcache-top — sweep" in out
        assert "2/4 jobs" in out

    def test_no_log_found_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RUN_ROOT", raising=False)
        monkeypatch.setenv("REPRO_OBS_LOG", str(tmp_path / "absent.jsonl"))
        assert main(["--once"]) == 2
        assert "no event log found" in capsys.readouterr().err

    def test_run_root_picks_newest_run(self, tmp_path, capsys):
        old = tmp_path / "run-old"
        new = tmp_path / "run-new"
        for directory, benchmark in ((old, "old"), (new, "new")):
            directory.mkdir()
            (directory / "events.jsonl").write_text(
                json.dumps(_event("job.done", benchmark=benchmark)) + "\n"
            )
        import os
        os.utime(old / "events.jsonl", (1, 1))
        assert main(["--run-root", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "new" in out and "old" not in out.replace("run-old", "")

    def test_unreachable_server_exits_four(self, capsys):
        assert main(["--connect", "127.0.0.1:1", "--once"]) == 4
        assert "cannot reach" in capsys.readouterr().err

    def test_fleet_of_unreachable_nodes_renders_then_exits_four(
        self, tmp_path, capsys
    ):
        code = main([
            "--connect", f"unix:{tmp_path}/a.sock,unix:{tmp_path}/b.sock",
            "--once",
        ])
        captured = capsys.readouterr()
        assert code == 4
        assert "0/2 node(s) up" in captured.out
        assert captured.out.count("DOWN") == 2

    def test_empty_fleet_list_exits_two(self, capsys):
        assert main(["--connect", ",", "--once"]) == 2
        assert "empty fleet" in capsys.readouterr().err

    def test_log_and_connect_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["--log", "x", "--connect", "y"])
