import csv
import hashlib
import importlib.util
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from treepack import cli, experiments
from treepack.experiments import (
    ExperimentConfig,
    build_config,
    load_config_file,
    p_grid,
    run_dense_experiment,
    run_equality_experiment,
    run_hitting_experiment,
    run_structure_experiment,
    validate_config,
)
from treepack.rng import derive_seed


def read_records(out_dir):
    with open(out_dir / "records.csv") as fh:
        return list(csv.DictReader(fh))


class TestPGrid:
    def test_th2_caps_at_one(self):
        # 51 log n / n exceeds 1 for n <= 240.
        assert p_grid("th2", 128) == [1.0]
        assert p_grid("th2", 300) == [pytest.approx(51 * math.log(300) / 300)]

    def test_logn_rule(self):
        assert p_grid("logn:1.05", 1024) == [pytest.approx(1.05 * math.log(1024) / 1024)]

    def test_explicit_values(self):
        assert p_grid("0.2,0.5", 10) == [0.2, 0.5]

    def test_th1_three_increasing_points(self):
        grid = p_grid("th1", 128)
        assert len(grid) == 3
        assert grid == sorted(grid)
        assert all(0 < p <= 1 for p in grid)
        # At desk scale the additive-log edge is the larger one.
        assert grid[0] == pytest.approx(1.1 * math.log(128) / 128)
        assert grid[2] == pytest.approx((math.log(128) + math.log(math.log(128))) / 128)

    def test_infeasible_values_rejected(self):
        with pytest.raises(ValueError):
            p_grid("0.0", 10)
        with pytest.raises(ValueError):
            p_grid("1.5", 10)


class TestConfig:
    def test_validate_rejects_bad_fields(self):
        good = ExperimentConfig(experiment="equality", n_values=(8,), trials=1)
        validate_config(good)
        with pytest.raises(ValueError):
            validate_config(ExperimentConfig(experiment="nope", n_values=(8,)))
        with pytest.raises(ValueError):
            validate_config(ExperimentConfig(experiment="equality", n_values=()))
        with pytest.raises(ValueError):
            validate_config(ExperimentConfig(experiment="equality", n_values=(3,)))
        with pytest.raises(ValueError):
            validate_config(
                ExperimentConfig(experiment="equality", n_values=(8,), trials=0)
            )
        with pytest.raises(ValueError):
            validate_config(ExperimentConfig(experiment="hitting", n_values=(8,)))
        with pytest.raises(ValueError):
            validate_config(
                ExperimentConfig(experiment="hitting", n_values=(8,), k_values=(5,))
            )

    def test_defaults_by_kind(self):
        cfg = build_config("dense", n_values=(16,))
        assert cfg.p_rule == "th2"
        assert cfg.trials == 50
        assert cfg.master_seed == 0
        cfg2 = build_config("equality", n_values=(16,))
        assert cfg2.p_rule == "th1"

    def test_file_values_and_overrides(self, tmp_path):
        path = tmp_path / "campaign.cfg"
        path.write_text(
            "# near-threshold sweep\n"
            "n = 8, 16\n"
            "p = logn:1.05\n"
            "trials = 3\n"
            "seed = 11\n"
            "sequential = true\n"
        )
        values = load_config_file(str(path))
        cfg = build_config("equality", file_values=values)
        assert cfg.n_values == (8, 16)
        assert cfg.p_rule == "logn:1.05"
        assert cfg.trials == 3
        assert cfg.master_seed == 11
        assert cfg.sequential
        # CLI-style overrides win over file values.
        cfg2 = build_config("equality", file_values=values, trials=7, p_rule="0.5")
        assert cfg2.trials == 7
        assert cfg2.p_rule == "0.5"

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError):
            build_config("equality", file_values={"n": "8", "bogus": "1"})

    def test_malformed_config_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            load_config_file(str(path))


class TestSeedDerivation:
    def test_golden_value(self):
        # Frozen after first computation; guards the byte layout.
        assert derive_seed(0, "equality", 4, 0, 0) == 10732935713083644165
        assert derive_seed(0, "equality", 4, 0, 1) == 3263278774577516530

    def test_campaign_grid_seeds_distinct(self):
        seeds = {
            derive_seed(2026, kind, n, p_index, trial)
            for kind in ("equality", "dense", "hitting", "structure")
            for n in (8, 16, 64, 128)
            for p_index in range(3)
            for trial in range(25)
        }
        assert len(seeds) == 4 * 4 * 3 * 25


class TestEqualityCampaign:
    def test_empty_graph_cell(self):
        # p tiny enough that every sampled graph is empty: sigma = delta = 0.
        cfg = ExperimentConfig(
            experiment="equality", n_values=(4,), p_rule="1e-15",
            trials=5, master_seed=0, sequential=True,
        )
        rows = run_equality_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].fraction_equality == 1.0
        assert rows[0].mean_delta == 0.0
        assert rows[0].mean_sigma == 0.0

    def test_complete_graph_cell_never_equal(self):
        # K16: sigma = 8 < delta = 15 in every trial.
        cfg = ExperimentConfig(
            experiment="equality", n_values=(16,), p_rule="1.0",
            trials=3, master_seed=0, sequential=True,
        )
        rows = run_equality_experiment(cfg)
        assert rows[0].fraction_equality == 0.0
        assert rows[0].fraction_strict == 1.0
        assert rows[0].mean_sigma == 8.0
        assert rows[0].mean_delta == 15.0

    def test_fractions_partition_unity(self):
        cfg = ExperimentConfig(
            experiment="equality", n_values=(8, 16), p_rule="logn:1.05",
            trials=6, master_seed=9, sequential=True,
        )
        for row in run_equality_experiment(cfg):
            assert row.fraction_equality + row.fraction_strict == pytest.approx(1.0)
            assert 0 <= row.fraction_catlin <= 1
            assert row.ci_halfwidth >= 0

    def test_records_csv_schema_and_flush(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="equality", n_values=(8,), p_rule="0.4,0.6",
            trials=4, master_seed=5, out_dir=str(tmp_path), sequential=True,
        )
        rows = run_equality_experiment(cfg)
        records = read_records(tmp_path)
        assert len(records) == 8
        assert list(records[0]) == [
            "n", "p", "p_index", "trial", "seed", "edges", "delta", "sigma",
            "equality", "strict", "catlin",
        ]
        # Summary fractions must be recomputable from the records.
        cell0 = [r for r in records if r["p_index"] == "0"]
        recomputed = sum(int(r["equality"]) for r in cell0) / len(cell0)
        assert rows[0].fraction_equality == pytest.approx(recomputed)
        # sigma <= delta in every record, no exceptions.
        for r in records:
            assert int(r["sigma"]) <= int(r["delta"])
        with open(tmp_path / "timings.csv") as fh:
            timings = list(csv.DictReader(fh))
        assert len(timings) == 8
        assert all(float(t["elapsed"]) >= 0 for t in timings)

    def test_deterministic_and_mode_independent(self, tmp_path):
        base = dict(
            experiment="equality", n_values=(8, 16), p_rule="logn:1.05",
            trials=4, master_seed=7,
        )
        paths = []
        for name, sequential in (("a", True), ("b", True), ("c", False)):
            out = tmp_path / name
            cfg = ExperimentConfig(**base, out_dir=str(out), sequential=sequential)
            run_equality_experiment(cfg)
            paths.append((out / "records.csv").read_bytes())
        assert paths[0] == paths[1]
        assert paths[0] == paths[2]


class TestDenseCampaign:
    def test_capped_complete_cell(self):
        # n = 16: th2 caps p at 1; sigma = 8 < 15 = delta and Catlin holds.
        cfg = ExperimentConfig(
            experiment="dense", n_values=(16,), p_rule="th2",
            trials=3, master_seed=0, sequential=True,
        )
        rows = run_dense_experiment(cfg)
        assert rows[0].p == 1.0
        assert rows[0].fraction_strict == 1.0
        assert rows[0].fraction_catlin == 1.0

    def test_k4_cell(self):
        cfg = ExperimentConfig(
            experiment="dense", n_values=(4,), p_rule="1.0",
            trials=2, master_seed=1, sequential=True,
        )
        rows = run_dense_experiment(cfg)
        assert rows[0].mean_sigma == 2.0
        assert rows[0].mean_delta == 3.0
        assert rows[0].fraction_strict == 1.0


class TestHittingCampaign:
    def test_records_satisfy_tau_order(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="hitting", n_values=(16,), trials=8, master_seed=4,
            k_values=(1, 2), out_dir=str(tmp_path), sequential=True,
        )
        rows = run_hitting_experiment(cfg)
        records = read_records(tmp_path)
        assert len(records) == 16
        for r in records:
            assert int(r["tau_sigma"]) >= int(r["tau_delta"])
            assert int(r["equality"]) == (r["tau_sigma"] == r["tau_delta"])
        assert len(rows) == 2
        for row in rows:
            assert 0 <= row.fraction_equality <= 1
            assert row.mean_tau_sigma >= row.mean_tau_delta

    def test_concurrent_matches_sequential(self, tmp_path):
        hitting = dict(
            experiment="hitting", n_values=(12,), trials=4, master_seed=2,
            k_values=(1,),
        )
        # One trial per cell, fewer than the workers: every cell's trials
        # are in flight at once and must still come back in cell order.
        structure = dict(
            experiment="structure", n_values=(16, 32), trials=1, master_seed=2,
        )
        for runner, base in (
            (run_hitting_experiment, hitting),
            (run_structure_experiment, structure),
        ):
            seq = tmp_path / base["experiment"] / "seq"
            con = tmp_path / base["experiment"] / "con"
            runner(ExperimentConfig(**base, out_dir=str(seq), sequential=True))
            runner(ExperimentConfig(**base, out_dir=str(con)))
            for name in ("records.csv", "summary.csv"):
                assert (seq / name).read_bytes() == (con / name).read_bytes()


class TestStructureCampaign:
    def test_record_schema_and_row_bounds(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="structure", n_values=(64,), p_rule="logn:1.05",
            trials=3, master_seed=6, out_dir=str(tmp_path), sequential=True,
        )
        rows = run_structure_experiment(cfg)
        records = read_records(tmp_path)
        assert len(records) == 3
        assert "expansion_min" in records[0]
        assert "separation_ok" in records[0]
        for row in rows:
            for value in (
                row.fraction_separation, row.fraction_small_ok,
                row.fraction_delta_le_log30, row.fraction_expansion_gt_log10,
                row.fraction_expansion_ge_delta,
            ):
                assert 0 <= value <= 1

    def test_empty_degenerate_cell(self):
        # Near-zero p: graphs are empty; separation holds vacuously but the
        # small class is everything, so the sqrt(n) flag fails.
        cfg = ExperimentConfig(
            experiment="structure", n_values=(9,), p_rule="1e-15",
            trials=2, master_seed=0, sequential=True,
        )
        rows = run_structure_experiment(cfg)
        assert rows[0].fraction_separation == 1.0
        assert rows[0].fraction_small_ok == 0.0


class TestExecuteCells:
    CONCURRENT = ExperimentConfig(experiment="equality", n_values=(8,))

    def test_raising_trial_surfaces_its_error(self):
        # The second cell asks for p = 2, which sample_gnp rejects in a worker.
        cells = [
            ("ok", [(8, 0.5, 0, t, t) for t in range(3)]),
            ("bad", [(8, 0.5, 1, 0, 9), (8, 2.0, 1, 1, 10)]),
            ("after", [(8, 0.5, 2, t, 20 + t) for t in range(3)]),
        ]
        results = experiments._execute_cells(self.CONCURRENT, cells, experiments._sigma_trial)
        key, records = next(results)
        assert key == "ok" and [r.trial for r in records] == [0, 1, 2]
        with pytest.raises(ValueError, match="p must be in"):
            next(results)

    def test_early_exit_cancels_pending_trials(self, monkeypatch):
        shutdowns = []

        class RecordingPool(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        cells = [(n, [(n, 0.5, 0, 0, n)]) for n in (8, 9, 10, 11)]
        results = experiments._execute_cells(self.CONCURRENT, cells, experiments._sigma_trial)
        key, records = next(results)
        assert key == 8 and records[0].n == 8
        results.close()
        assert shutdowns == [True]


class TestOutputs:
    def test_summary_files_written(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="equality", n_values=(8,), p_rule="0.5",
            trials=2, master_seed=3, out_dir=str(tmp_path), sequential=True,
        )
        run_equality_experiment(cfg)
        for name in ("records.csv", "timings.csv", "summary.csv", "summary.json", "plot.svg"):
            assert (tmp_path / name).exists(), name
        with open(tmp_path / "summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 1
        assert summary[0]["n"] == "8"
        import json

        parsed = json.loads((tmp_path / "summary.json").read_text())
        assert parsed[0]["trials"] == 2


# SHA-256 of the four output files of one tiny sequential campaign per kind,
# recorded before the runners shared one driver. th1 is a three-point grid
# (series "th1[i]") and th2 and logn:2 single points (series "p rule ...").
GOLDEN = {
    "equality": (
        dict(n_values=(8, 16), p_rule="th1", trials=3),
        [(n, f"p{i}", t) for n in (8, 16) for i in range(3) for t in range(3)],
        {
            "records.csv": "22a704a77b8d2ac78dbf75fb165db4b5669e19cafb082b6e86a59ad8dcf158cd",
            "summary.csv": "58bed2486414323883cf8829d2af5be6be3b401b9dd7de9c16bfd96f0c975721",
            "summary.json": "99abf9ac724852118812cd966816a071cf969541f07407bb85a25a98ac14e826",
            "plot.svg": "385dd4751818977f84b73df37fd8aaac6a2636377c87bbbc0ebe99bb9b13e438",
        },
    ),
    "dense": (
        dict(n_values=(8, 16), p_rule="th2", trials=2),
        [(n, "p0", t) for n in (8, 16) for t in range(2)],
        {
            "records.csv": "424f158eb341c01b51d3c28d0641eb78805e9e84150dc6758ee01fd6aa402b69",
            "summary.csv": "d4a92cd82baba38f39bb7c2ac20251dfa5492919cee1667cd1d254e5bf5db12f",
            "summary.json": "1251a72ca3aa786904ee42d60c9b73edcc5424b7b516b246cbc620ce569f8339",
            "plot.svg": "610f8ad53f1750d448243a2aa72303905b253fcede6b7d6235546c249949a1c6",
        },
    ),
    "hitting": (
        dict(n_values=(8, 12), k_values=(1, 2), trials=3),
        [(n, f"k{k}", t) for n in (8, 12) for k in (1, 2) for t in range(3)],
        {
            "records.csv": "454f68c6acc27e54572fc910f872e0f4640096c01a0c6248775212d7f2e6b1e5",
            "summary.csv": "4fb6a6fd340ff69af1396298e4ff30ef0830d035c3fffca446c59e6986299e2a",
            "summary.json": "43159115f09278db5c8dd8146fcdda2843a24f9b94a9e32be6a1c0eb3bc59c10",
            "plot.svg": "4ca3f8b8130db09967166f9d8d396f5bbae4d266481250ec7bd82c15c9fc7248",
        },
    ),
    "structure": (
        dict(n_values=(16, 32), p_rule="logn:2", trials=2),
        [(n, "p0", t) for n in (16, 32) for t in range(2)],
        {
            "records.csv": "7ce8ad78f2f3f387109d9f6a30397542f55b7dc60bcd83180523188789b20a0e",
            "summary.csv": "838d977bce0b25f8ffe79c935d78a3f873b65c5d12954a75f023e7c114404d85",
            "summary.json": "beb4c2e1e3a9d19376ff560c4a967943e9499d08552b0f86a128683d2a79aa61",
            "plot.svg": "f08e4c4b0cb160445b40966455352149182e19647d9369591d29e060ac724d2b",
        },
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_campaign_bytes(kind, tmp_path):
    settings, cells, digests = GOLDEN[kind]
    cfg = ExperimentConfig(
        experiment=kind, master_seed=2026, out_dir=str(tmp_path), sequential=True,
        **settings,
    )
    experiments.RUNNERS[kind](cfg)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    with open(tmp_path / "timings.csv") as fh:
        timings = list(csv.DictReader(fh))
    assert [(int(r["n"]), r["cell"], int(r["trial"])) for r in timings] == cells


class TestHookContract:
    """A wrapper set on the module's trial function or RUNNERS entry is the
    one the campaign calls; perfbench's tracer relies on this."""

    @pytest.mark.parametrize("kind, trial_name", [
        ("equality", "_sigma_trial"),
        ("dense", "_sigma_trial"),
        ("hitting", "_hitting_trial"),
        ("structure", "_structure_trial"),
    ])
    def test_driver_calls_module_trial(self, monkeypatch, kind, trial_name):
        original = getattr(experiments, trial_name)
        calls = []

        def counting(args):
            calls.append(args)
            return original(args)

        monkeypatch.setattr(experiments, trial_name, counting)
        settings, cells, _ = GOLDEN[kind]
        experiments.RUNNERS[kind](ExperimentConfig(
            experiment=kind, master_seed=2026, sequential=True, **settings,
        ))
        assert len(calls) == len(cells)

    def test_cli_calls_through_runners(self, monkeypatch, tmp_path, capsys):
        original = experiments.RUNNERS["structure"]
        configs = []

        def counting(cfg):
            configs.append(cfg)
            return original(cfg)

        monkeypatch.setitem(experiments.RUNNERS, "structure", counting)
        argv = ["experiment", "structure", "--n", "16", "--trials", "1",
                "--sequential", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert [cfg.n_values for cfg in configs] == [(16,)]

    def test_tracer_hooks_are_bound(self):
        # perfbench/tracing.py wraps each (owner, attr) of _PATCHES through
        # owner.__dict__, so a hook renamed away fails here, not mid-bench.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        missing = [
            (getattr(owner, "__name__", "RUNNERS"), attr)
            for owner, attr, *_ in tracing._PATCHES
            if attr not in (owner if isinstance(owner, dict) else owner.__dict__)
        ]
        assert len(tracing._PATCHES) > 0
        assert missing == []
