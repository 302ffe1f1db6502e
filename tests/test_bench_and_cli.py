"""Tests for the benchmark harness, table printers and the CLI."""

import numpy as np
import pytest

from repro.bench import (
    ExperimentRecorder,
    format_paper_table,
    format_rows,
    run_figure11,
    run_figure14,
    run_speedup_curve,
)
from repro.bench.harness import estimate_rsb_cm5_time
from repro.bench.workloads import geometric_hotspot_delta, small_dataset_a, small_dataset_b
from repro.cli import build_parser, main
from repro.graph.incremental import apply_delta, carry_partition
from repro.spectral import rsb_partition


@pytest.fixture(scope="module")
def rows_a():
    return run_figure11(
        small_dataset_a(scale=0.2), num_partitions=4, with_parallel=False
    )


class TestHarness:
    def test_figure11_row_structure(self, rows_a):
        # base + 4 versions x 3 partitioners
        assert len(rows_a) == 1 + 4 * 3
        partitioners = {r.partitioner for r in rows_a}
        assert partitioners == {"SB(base)", "SB", "IGP", "IGPR"}

    def test_igpr_cut_not_worse_than_igp(self, rows_a):
        for v in range(1, 5):
            igp = next(r for r in rows_a if r.version == v and r.partitioner == "IGP")
            igpr = next(r for r in rows_a if r.version == v and r.partitioner == "IGPR")
            assert igpr.cut_total <= igp.cut_total

    def test_balance_maintained(self, rows_a):
        for r in rows_a:
            if r.partitioner in ("IGP", "IGPR"):
                assert r.imbalance <= 1.4  # small meshes: ±1 vertex on tiny parts

    def test_figure14_star_structure(self):
        rows = run_figure14(
            small_dataset_b(scale=0.05), num_partitions=4, with_parallel=False
        )
        versions = {r.version for r in rows}
        assert versions == {0, 1, 2, 3, 4}

    def test_speedup_curve_shape(self):
        seq = small_dataset_a(scale=0.2)
        g0 = seq.graphs[0]
        base = rsb_partition(g0, 4, seed=0)
        inc = apply_delta(g0, seq.deltas[0])
        carried = carry_partition(base, inc)
        curve = run_speedup_curve(
            inc.graph, carried, num_partitions=4, rank_counts=(1, 2, 4)
        )
        assert [c["ranks"] for c in curve] == [1, 2, 4]
        assert curve[0]["speedup"] == 1.0
        assert all(c["sim_time"] > 0 for c in curve)

    def test_parallel_check_compares_stage_records(self):
        """The figure harnesses reject an SPMD run whose stage records
        differ from the serial ones even when the partitions agree."""
        from repro.bench.harness import _check_parallel
        from repro.core.parallel_igp import ParallelRepartitionResult
        from repro.core.partitioner import RepartitionResult, StageRecord

        part = np.array([0, 1])
        stage = StageRecord(1.0, 1.0, 2, 2, 3, 2.0, 1.0)
        res = RepartitionResult(part=part, stages=[stage])
        par = ParallelRepartitionResult(
            result=RepartitionResult(part=part.copy(), stages=[stage]),
            elapsed=0.0, rank_times=[0.0], messages=0, bytes_sent=0,
        )
        _check_parallel(par, res)
        par.result.stages = [StageRecord(1.0, 1.0, 2, 2, 4, 2.0, 1.0)]
        with pytest.raises(AssertionError, match="diverged"):
            _check_parallel(par, res)

    def test_rsb_time_estimate_scales(self):
        seq = small_dataset_a(scale=0.2)
        t_small = estimate_rsb_cm5_time(seq.graphs[0], 4)
        t_more_parts = estimate_rsb_cm5_time(seq.graphs[0], 16)
        assert t_more_parts > t_small

    def test_hotspot_workload(self):
        g, delta = geometric_hotspot_delta(n=200, extra=20, seed=2)
        inc = apply_delta(g, delta)
        assert inc.graph.num_vertices == 220
        assert delta.is_pure_growth


class TestTables:
    def test_paper_table_format(self, rows_a):
        text = format_paper_table(rows_a, title="Figure 11 test")
        assert "Partitioner" in text
        assert "Time-s" in text and "Time-p" in text
        assert "IGPR" in text
        assert "|V| =" in text

    def test_flat_format(self, rows_a):
        text = format_rows(rows_a)
        assert len(text.splitlines()) == len(rows_a)


class TestRecorder:
    def test_markdown_output(self):
        rec = ExperimentRecorder()
        rec.record("fig11", "cut_total(v1, IGPR)", 730, 728, note="close")
        md = rec.to_markdown()
        assert "| fig11 |" in md
        assert "728" in md

    def test_dump(self, tmp_path):
        rec = ExperimentRecorder()
        rec.record("e", "m", 1, 2)
        f = tmp_path / "exp.md"
        rec.dump(f)
        assert "| e | m | 1 | 2 |" in f.read_text()


class TestCLI:
    def test_parser_subcommands(self):
        ap = build_parser()
        args = ap.parse_args(["fig11", "--scale", "0.2", "--no-parallel", "-p", "4"])
        assert args.scale == 0.2 and args.no_parallel

    def test_fig11_command_runs(self, capsys):
        rc = main(["fig11", "--scale", "0.2", "-p", "4", "--no-parallel"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out and "IGPR" in out

    def test_partition_command(self, tmp_path, capsys):
        from repro.graph import grid_graph
        from repro.graph.io import write_metis

        f = tmp_path / "g.metis"
        write_metis(grid_graph(6, 6), f)
        out_file = tmp_path / "part.txt"
        rc = main(["partition", str(f), "-p", "4", "-o", str(out_file)])
        assert rc == 0
        part = np.loadtxt(out_file, dtype=int)
        assert len(part) == 36
        assert set(part.tolist()) == {0, 1, 2, 3}

    def test_speedup_command_runs(self, capsys):
        rc = main(["speedup", "--scale", "0.15", "-p", "4"])
        assert rc == 0
        assert "speedup" in capsys.readouterr().out

    def test_stream_command_dataset_a(self, capsys):
        rc = main(["stream", "--scale", "0.2", "-p", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PartitionSession" in out and "repartition batches" in out

    def test_stream_command_churn_per_delta(self, capsys):
        rc = main(
            ["stream", "--source", "churn", "--scale", "0.25", "-p", "4",
             "--steps", "3", "--per-delta"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 deltas -> 3 repartition batches" in out

    def test_stream_command_bursty(self, capsys):
        rc = main(
            ["stream", "--source", "bursty", "--scale", "0.3", "-p", "4",
             "--steps", "3"]
        )
        assert rc == 0
        assert "repartition batches" in capsys.readouterr().out

    def test_default_lp_backend_is_tableau(self):
        args = build_parser().parse_args(["fig11"])
        assert args.lp_backend == "tableau"

    def test_backends_command_lists_warm_flags(self, capsys):
        rc = main(["backends"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "revised" in out and "tableau" in out
        revised_line = next(l for l in out.splitlines() if l.startswith("revised"))
        assert "yes" in revised_line
        tableau_line = next(l for l in out.splitlines() if l.startswith("tableau"))
        assert "no" in tableau_line

    def test_session_save_load_resume_flow(self, tmp_path, capsys):
        snap = tmp_path / "cli.igps"
        rc = main(
            ["session", "save", str(snap), "--scale", "0.2", "-p", "4",
             "--per-delta", "--upto", "2", "--lp-backend", "revised"]
        )
        assert rc == 0
        assert snap.exists()
        out = capsys.readouterr().out
        assert "snapshot written" in out and "2/4 deltas" in out

        rc = main(["session", "load", str(snap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PartitionSession" in out and "carried bases" in out

        out_snap = tmp_path / "resumed.igps"
        rc = main(["session", "resume", str(snap), "-o", str(out_snap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed 2 deltas" in out
        assert out_snap.exists()


class TestServiceCLI:
    """The serve/client verbs and the one-line-error exit contract."""

    def test_parser_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--root", "/tmp/x", "--port", "0", "--resident", "2",
             "--checkpoint-interval", "5", "--no-fsync"]
        )
        assert args.root == "/tmp/x" and args.resident == 2 and args.no_fsync

    def test_parser_client_verbs(self):
        ap = build_parser()
        args = ap.parse_args(
            ["client", "--port", "7000", "create", "s", "--source",
             "adversarial", "-p", "4", "--per-delta"]
        )
        assert args.port == 7000 and args.name == "s" and args.per_delta
        assert args.source == "adversarial"
        for verb in ("feed", "flush", "repartition", "quality", "query",
                     "save", "close"):
            parsed = ap.parse_args(["client", verb, "s"])
            assert parsed.name == "s"
        assert ap.parse_args(["client", "stats"]).client_command == "stats"
        assert ap.parse_args(["client", "shutdown"]).client_command == "shutdown"

    def test_stream_command_adversarial(self, capsys):
        rc = main(
            ["stream", "--source", "adversarial", "--scale", "0.3", "-p", "4",
             "--steps", "3"]
        )
        assert rc == 0
        assert "repartition batches" in capsys.readouterr().out

    def test_corrupted_snapshot_exits_nonzero_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.igps"
        bad.write_text("this is not a snapshot")
        rc = main(["session", "load", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error (SnapshotError):")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_missing_graph_file_exits_nonzero_one_line(self, tmp_path, capsys):
        rc = main(["partition", str(tmp_path / "nope.metis"), "-p", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error (") and "Traceback" not in err

    def test_unreachable_service_exits_nonzero_one_line(self, capsys):
        # nothing listens on port 1; connection is refused immediately
        rc = main(["client", "--port", "1", "stats"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error (ServiceError):")
        assert "Traceback" not in err
