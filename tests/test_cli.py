import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiokv.budget import AllocationMode, load_plan
from audiokv.cli import _NUMBERS, main
from audiokv.errors import FormatError
from audiokv.eviction import POLICIES, load_result
from audiokv.heads import load_scores
from audiokv.trace import load_alignment, load_trace, write_trace


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx")
    assert main(["gen-fixture", "--profile", "spike-plateau", "--seed", "5", "--out", str(out)]) == 0
    return out


def run_score(fixture_dir, tmp_path, extra=()):
    scores_path = tmp_path / "scores.json"
    code = main(
        [
            "score-heads",
            "--trace",
            str(fixture_dir / "trace.akvt"),
            "--alignment",
            str(fixture_dir / "alignment.json"),
            "--out",
            str(scores_path),
            *extra,
        ]
    )
    return code, scores_path


class TestGenFixture:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(
                ["gen-fixture", "--profile", "specialized-heads", "--seed", "42", "--out", str(out)]
            ) == 0
        for name in ("trace.akvt", "trace.akvt.tokens.json", "alignment.json", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_written_trace_loads(self, fixture_dir):
        trace = load_trace(fixture_dir / "trace.akvt")
        assert trace.num_steps == 192

    def test_meta_names_planted_heads(self, fixture_dir):
        meta = json.loads((fixture_dir / "meta.json").read_text())
        assert meta["profile"] == "spike-plateau"
        assert meta["planted_heads"] == [[0, 0], [1, 2]]


class TestScoreHeads:
    def test_writes_scores_and_summary(self, fixture_dir, tmp_path, capsys):
        code, scores_path = run_score(fixture_dir, tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "layer 0" in out and "layer 1" in out
        matrix = load_scores(scores_path)
        assert matrix.shape == (2, 4)

    def test_missing_trace_exits_2_and_names_path(self, tmp_path, capsys):
        code = main(
            [
                "score-heads",
                "--trace",
                str(tmp_path / "missing.akvt"),
                "--alignment",
                str(tmp_path / "missing.json"),
                "--out",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 2
        assert "missing.akvt" in capsys.readouterr().err

    def test_planted_heads_recovered_via_files(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(
            ["gen-fixture", "--profile", "specialized-heads", "--seed", "3", "--out", str(fx)]
        ) == 0
        code, scores_path = run_score(fx, tmp_path)
        assert code == 0
        matrix = load_scores(scores_path)
        planted = json.loads((fx / "meta.json").read_text())["planted_heads"]
        flat = matrix.scores.reshape(-1)
        top = set(np.argsort(-flat)[: len(planted)].tolist())
        assert top == {l * matrix.shape[1] + h for l, h in planted}

    @pytest.mark.parametrize(
        "start,end",
        [(float("nan"), 1.0), (0.5, float("inf")), (-1.0, 1.0), (2.0, 1.0), (10**400, 1.0)],
        ids=["nan", "inf", "negative", "start-after-end", "start-overflows"],
    )
    def test_bad_alignment_times_exit_2(self, fixture_dir, tmp_path, capsys, start, end):
        words = json.loads((fixture_dir / "alignment.json").read_text())
        words[3].update(start=start, end=end)
        alignment = tmp_path / "alignment.json"
        alignment.write_text(json.dumps(words))
        scores_path = tmp_path / "scores.json"
        code = main(
            [
                "score-heads",
                "--trace",
                str(fixture_dir / "trace.akvt"),
                "--alignment",
                str(alignment),
                "--out",
                str(scores_path),
            ]
        )
        assert code == 2
        assert "alignment record 3" in capsys.readouterr().err
        assert not scores_path.exists()


class TestSmooth:
    def test_alpha_zero_reproduces_input(self, tmp_path):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        rng = np.random.default_rng(0)
        data = rng.normal(size=(64, 2))
        np.savetxt(src, data, delimiter=",")
        assert main(
            ["smooth", "--input", str(src), "--output", str(dst), "--mix-alpha", "0"]
        ) == 0
        out = np.loadtxt(dst, delimiter=",")
        assert np.max(np.abs(out - data)) < 1e-9

    def test_constant_column_unchanged(self, tmp_path):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        np.savetxt(src, np.full(32, 1.25), delimiter=",")
        assert main(["smooth", "--input", str(src), "--output", str(dst)]) == 0
        out = np.loadtxt(dst, delimiter=",")
        assert np.max(np.abs(out - 1.25)) < 1e-9

    def test_spike_plateau_column_matches_library_pipeline(self, tmp_path):
        from audiokv.spectral import SssConfig, smooth_rows

        signal = np.full(100, 0.01)
        signal[10:15] = 0.4
        signal[40:81] = 0.3
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        np.savetxt(src, signal, delimiter=",")
        assert main(["smooth", "--input", str(src), "--output", str(dst)]) == 0
        out = np.loadtxt(dst, delimiter=",")
        expected = smooth_rows(signal, SssConfig(cutoff_ratio=0.7, mix_alpha=0.5))
        assert np.max(np.abs(out - expected)) < 1e-9

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    @pytest.mark.parametrize("content", ["", "\n"], ids=["empty", "one-newline"])
    @pytest.mark.parametrize("alpha", ["0", "0.5"])
    def test_empty_input_exits_2(self, tmp_path, capsys, content, alpha):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text(content)
        code = main(["smooth", "--input", str(src), "--output", str(dst), "--mix-alpha", alpha])
        assert code == 2
        assert "no values to smooth" in capsys.readouterr().err
        assert not dst.exists()

    def test_parse_error_exits_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("1.0\nnot-a-number\n")
        assert main(["smooth", "--input", str(src), "--output", str(tmp_path / "o.csv")]) == 2


class TestAllocateCmd:
    def test_plan_written(self, fixture_dir, tmp_path):
        code, scores_path = run_score(fixture_dir, tmp_path)
        plan_path = tmp_path / "plan.json"
        code = main(
            [
                "allocate",
                "--scores",
                str(scores_path),
                "--budget",
                "2000",
                "--window",
                "16",
                "--out",
                str(plan_path),
            ]
        )
        assert code == 0
        plan = json.loads(plan_path.read_text())
        assert np.asarray(plan["capacities"]).sum() == 2000

    def test_missing_budget_arguments_exit_2(self, fixture_dir, tmp_path):
        _, scores_path = run_score(fixture_dir, tmp_path)
        assert main(
            ["allocate", "--scores", str(scores_path), "--out", str(tmp_path / "p.json")]
        ) == 2

    @pytest.mark.parametrize(
        "sizing",
        [
            ["--ratio", "0.5"],
            ["--context-length", "549"],
            ["--ratio", "0.5", "--context-length", "549"],
        ],
        ids=["ratio", "context-length", "both"],
    )
    def test_budget_with_ratio_or_context_length_exits_2(
        self, fixture_dir, tmp_path, capsys, sizing
    ):
        _, scores_path = run_score(fixture_dir, tmp_path)
        out = tmp_path / "p.json"
        argv = ["allocate", "--scores", str(scores_path), "--budget", "5000", *sizing]
        assert main([*argv, "--out", str(out)]) == 2
        assert "not both" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["uniform", "pyramid"])
    def test_base_fraction_exits_2_where_the_mode_spends_no_base(
        self, fixture_dir, tmp_path, capsys, mode
    ):
        _, scores_path = run_score(fixture_dir, tmp_path)
        out = tmp_path / "p.json"
        argv = ["allocate", "--scores", str(scores_path), "--budget", "1600", "--mode", mode]
        assert main([*argv, "--base-fraction", "0.9", "--out", str(out)]) == 2
        assert f"mode {mode} does not read --base-fraction: drop it" in capsys.readouterr().err
        assert not out.exists()
        assert main([*argv, "--base-fraction", "0.5", "--mode", "combined", "--out", str(out)]) == 0

    @pytest.mark.parametrize("mode", ["uniform", "pyramid"])
    def test_a_config_may_set_base_fraction_in_any_mode(self, fixture_dir, tmp_path, mode):
        _, scores_path = run_score(fixture_dir, tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"base_fraction": 0.9}))
        argv = ["allocate", "--scores", str(scores_path), "--budget", "1600", "--mode", mode]
        with_config, without = tmp_path / "c.json", tmp_path / "p.json"
        assert main([*argv, "--config", str(config), "--out", str(with_config)]) == 0
        assert main([*argv, "--out", str(without)]) == 0
        assert with_config.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize(
        "payload",
        [
            {"num_layers": 1, "num_heads": 2, "num_samples": 3},
            {"num_layers": 1, "num_heads": 2, "num_samples": 3, "scores": "high"},
            {"num_layers": "one", "num_heads": 2, "num_samples": 3, "scores": [[0.1, 0.2]]},
            [[0.1, 0.2]],
            {"num_layers": 1, "num_heads": 2, "num_samples": float("inf"), "scores": [[0.1, 0.2]]},
            {"num_layers": 2.9, "num_heads": 2, "num_samples": 3, "scores": [[0.1, 0.2]] * 2},
            {"num_layers": 1, "num_heads": 2, "num_samples": -4.5, "scores": [[0.1, 0.2]]},
            {"num_layers": 1, "num_heads": 2, "num_samples": -4, "scores": [[0.1, 0.2]]},
            {"num_layers": True, "num_heads": 2, "num_samples": 3, "scores": [[0.1, 0.2]]},
            {"num_layers": 1, "num_heads": 0, "num_samples": 0, "scores": [[]]},
        ],
        ids=[
            "missing-scores",
            "scores-not-numbers",
            "layers-not-int",
            "not-an-object",
            "samples-infinite",
            "layers-fractional",
            "samples-fractional",
            "samples-negative",
            "layers-bool",
            "no-heads",
        ],
    )
    def test_malformed_scores_file_exits_2(self, tmp_path, capsys, payload):
        scores_path = tmp_path / "scores.json"
        scores_path.write_text(json.dumps(payload))
        code = main(
            [
                "allocate",
                "--scores",
                str(scores_path),
                "--budget",
                "100",
                "--window",
                "4",
                "--out",
                str(tmp_path / "p.json"),
            ]
        )
        assert code == 2
        assert "scores.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "score", [-5.0, -1e-9, 1.5, 1e308, float("nan"), float("inf"), float("-inf")]
    )
    def test_score_outside_unit_interval_exits_2(self, tmp_path, capsys, score):
        scores_path, out = tmp_path / "scores.json", tmp_path / "p.json"
        scores = [[0.1, 1.0], [score, 0.0]]
        scores_path.write_text(
            json.dumps({"num_layers": 2, "num_heads": 2, "num_samples": 3, "scores": scores})
        )
        argv = ["allocate", "--scores", scores_path, "--budget", "5000", "--out", out]
        code = main(list(map(str, argv)))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{scores_path}: score [1][0] is " in err and "not a number in [0, 1]" in err
        assert not out.exists()

    @pytest.mark.parametrize("length", ["-10", "0"])
    def test_context_length_below_one_exits_2(self, fixture_dir, tmp_path, capsys, length):
        _, scores_path = run_score(fixture_dir, tmp_path)
        out = tmp_path / "p.json"
        code = main(
            [
                "allocate",
                "--scores",
                str(scores_path),
                "--ratio",
                "0.5",
                "--context-length",
                length,
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "context length must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()


def simulate(fixture_dir, out, policy, *extra):
    return main(
        [
            "simulate",
            "--trace",
            str(fixture_dir / "trace.akvt"),
            "--policy",
            policy,
            "--out",
            str(out),
            *extra,
        ]
    )


# `simulate --ratio 0.5` on `gen-fixture spike-plateau --seed 7`, heads scored
# by `score-heads` with its defaults, as the per-policy branches of `simulate`
# wrote them before the policy table replaced them.
SEED_7_SIMULATE_SHA256 = {
    "adakv": "16c04c6847b0a2ebc18ba20d2826797af016be23fe29d353e45634be56469117",
    "audiokv": "ca129da3b8af7d592c17cbc796a479294dde58bb866671fef0f76560c16d16ed",
    "audiokv-nosss": "936a6cad1ff80195e049476500ce43ff78c83b8cedbd28a90179f1c1df4eef65",
    "h2o": "f0b95c87ce5b5cf26bc019808efab099aa66e8191c9b965e74992151a4560005",
    "pyramid": "9156c87dbc313dcfa2badee300ca1a18bf24f5990703dc2794c909df9afcc538",
    "snapkv": "5e8f11bc0232abb17c648757248abf5a500b3d0f5a3ba10cc60422a2c6387f9c",
}


class TestSimulateCmd:
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_policies_run(self, fixture_dir, tmp_path, policy):
        _, scores_path = run_score(fixture_dir, tmp_path)
        out = tmp_path / f"{policy}.json"
        code = simulate(fixture_dir, out, policy, "--ratio", "0.5", "--scores", str(scores_path))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["policy"] == policy
        assert len(payload["retained"]) == 2

    def test_head_score_file_without_heads_exits_2(self, fixture_dir, tmp_path, capsys):
        scores_path, out = tmp_path / "scores.json", tmp_path / "r.json"
        scores_path.write_text(
            json.dumps({"num_layers": 1, "num_heads": 0, "num_samples": 0, "scores": [[]]})
        )
        assert simulate(fixture_dir, out, "audiokv", "--scores", str(scores_path)) == 2
        assert "scores.json: num_layers and num_heads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_7_result_bytes_are_pinned(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(["gen-fixture", "--profile", "spike-plateau", "--seed", "7", "--out", str(fx)]) == 0
        _, scores_path = run_score(fx, tmp_path)
        digests = {}
        for policy in SEED_7_SIMULATE_SHA256:
            out = tmp_path / f"{policy}.json"
            assert simulate(fx, out, policy, "--ratio", "0.5", "--scores", str(scores_path)) == 0
            digests[policy] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == SEED_7_SIMULATE_SHA256

    @pytest.mark.parametrize("policy", ["audiokv", "audiokv-nosss"])
    def test_combined_plan_needs_scores_or_plan(self, fixture_dir, tmp_path, capsys, policy):
        assert simulate(fixture_dir, tmp_path / "r.json", policy) == 2
        err = capsys.readouterr().err
        assert "--scores" in err and "--plan" in err

    def test_score_agnostic_plans_need_no_scores(self, fixture_dir, tmp_path):
        _, scores_path = run_score(fixture_dir, tmp_path)
        names = [name for name, p in POLICIES.items() if p.mode is not AllocationMode.COMBINED]
        assert names == ["snapkv", "snapkv+sss", "h2o", "adakv", "pyramid"]
        for policy in names:
            with_scores, without = tmp_path / f"{policy}-s.json", tmp_path / f"{policy}.json"
            assert simulate(fixture_dir, with_scores, policy, "--scores", str(scores_path)) == 0
            assert simulate(fixture_dir, without, policy) == 0, policy
            assert without.read_bytes() == with_scores.read_bytes(), policy

    @pytest.mark.parametrize("policy", ["snapkv", "h2o", "adakv"])
    def test_plan_applies_to_every_policy(self, fixture_dir, tmp_path, policy):
        _, scores_path = run_score(fixture_dir, tmp_path)
        plan_path = tmp_path / "plan.json"
        assert main(
            ["allocate", "--scores", str(scores_path), "--budget", "1600", "--out", str(plan_path)]
        ) == 0
        capacities = np.asarray(json.loads(plan_path.read_text())["capacities"])
        out = tmp_path / "r.json"
        assert simulate(fixture_dir, out, policy, "--plan", str(plan_path)) == 0
        retained = json.loads(out.read_text())["retained"]
        kept = np.array([[len(head) for head in layer] for layer in retained])
        if policy == "adakv":
            assert kept.sum(axis=1).tolist() == capacities.sum(axis=1).tolist()
        else:
            assert kept.tolist() == capacities.tolist()

    @pytest.mark.parametrize("ratio", ["0.05", "0.001"])
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_budget_below_window_exits_2(self, fixture_dir, tmp_path, capsys, policy, ratio):
        _, scores_path = run_score(fixture_dir, tmp_path)
        out = tmp_path / "r.json"
        code = simulate(fixture_dir, out, policy, "--ratio", ratio, "--scores", str(scores_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    # A plan `simulate --plan` runs on the 2x4-head fixture; each malformed
    # case below breaks one field of it.
    PLAN = {"window": 32, "base": 0, "budget": 400, "mode": "uniform", "capacities": [[50] * 4] * 2}
    # PLAN's capacities with one head at -100 and another raised by 150, so the sum still matches.
    NEGATIVE_CAPACITY = [[-100, 200, 50, 50], [50] * 4]

    @pytest.mark.parametrize("width", ["0", "-1", "2", "10000"])
    def test_bad_pool_width_exits_2(self, fixture_dir, tmp_path, capsys, width):
        out = tmp_path / "r.json"
        assert simulate(fixture_dir, out, "snapkv", "--pool-width", width) == 2
        assert "pool width must be an odd integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"window": 32, "base": 0, "budget": 8, "mode": "uniform"},
            {"window": 32, "base": 0, "budget": 8, "mode": "uniform", "capacities": [["x"]]},
            {"window": None, "base": 0, "budget": 8, "mode": "uniform", "capacities": [[1]]},
            {"window": float("inf"), "base": 0, "budget": 8, "mode": "uniform", "capacities": [[1]]},
            {"window": 32, "base": 0, "budget": 8, "mode": "uniform", "capacities": [[1e308]]},
            {
                "window": 32,
                "base": 0,
                "budget": 400,
                "mode": "uniform",
                "capacities": [[100.5, 40, 40, 40], [40, 40, 40, 40]],
            },
            {**PLAN, "window": 2.5},
            {**PLAN, "base": 0.9},
            {**PLAN, "budget": 4e2},
            {**PLAN, "window": True},
            {**PLAN, "budget": 401},
            {**PLAN, "mode": 5},
            {**PLAN, "capacities": NEGATIVE_CAPACITY},
            {**PLAN, "window": -1},
            {**PLAN, "base": -1},
        ],
        ids=[
            "missing-capacities",
            "capacities-not-ints",
            "window-not-int",
            "window-infinite",
            "capacity-overflows",
            "capacity-fractional",
            "window-fractional",
            "base-fractional",
            "budget-float",
            "window-bool",
            "budget-not-the-capacities-sum",
            "mode-unknown",
            "capacity-negative",
            "window-negative",
            "base-negative",
        ],
    )
    def test_malformed_plan_file_exits_2(self, fixture_dir, tmp_path, capsys, payload):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(payload))
        code = main(
            [
                "simulate",
                "--trace",
                str(fixture_dir / "trace.akvt"),
                "--policy",
                "audiokv",
                "--plan",
                str(plan_path),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "plan.json" in capsys.readouterr().err

    def test_negative_capacity_plan_exits_2_under_adakv(self, fixture_dir, tmp_path, capsys):
        # adakv checks only each layer's total, which the negative head leaves at 200.
        plan_path, out = tmp_path / "plan.json", tmp_path / "r.json"
        plan_path.write_text(json.dumps({**self.PLAN, "capacities": self.NEGATIVE_CAPACITY}))
        assert simulate(fixture_dir, out, "adakv", "--plan", str(plan_path)) == 2
        assert "plan.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra", [("--scores", None), ("--ratio", "0.9"), ("--ratio", "0.4")],
        ids=["scores", "ratio", "default-ratio"],
    )
    def test_plan_with_scores_or_ratio_exits_2(self, fixture_dir, tmp_path, capsys, extra):
        _, scores_path = run_score(fixture_dir, tmp_path)
        plan_path, out = tmp_path / "plan.json", tmp_path / "r.json"
        plan_path.write_text(json.dumps(self.PLAN))
        flag, value = extra
        argv = ["--plan", str(plan_path), flag, value or str(scores_path)]
        assert simulate(fixture_dir, out, "audiokv", *argv) == 2
        assert "--plan" in capsys.readouterr().err
        assert not out.exists()

    def test_plan_window_must_be_the_run_window(self, fixture_dir, tmp_path, capsys):
        _, scores_path = run_score(fixture_dir, tmp_path)
        plan_path, out = tmp_path / "plan.json", tmp_path / "r.json"
        assert main(
            ["allocate", "--scores", str(scores_path), "--budget", "1600", "--mode", "uniform",
             "--window", "8", "--out", str(plan_path)]
        ) == 0
        assert simulate(fixture_dir, out, "audiokv", "--plan", str(plan_path)) == 2
        err = capsys.readouterr().err
        assert "plan.json" in err and "window 8" in err and "window 32" in err
        assert not out.exists()
        assert simulate(fixture_dir, out, "audiokv", "--plan", str(plan_path), "--window", "8") == 0
        assert json.loads(out.read_text())["plan"]["window"] == 8

    def test_ratio_defaults_to_0_4(self, fixture_dir, tmp_path):
        _, scores_path = run_score(fixture_dir, tmp_path)
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert simulate(fixture_dir, default, "audiokv", "--scores", str(scores_path)) == 0
        assert simulate(
            fixture_dir, explicit, "audiokv", "--scores", str(scores_path), "--ratio", "0.4"
        ) == 0
        assert default.read_bytes() == explicit.read_bytes()

    # The setting flags each policy reads without `--plan`; with one, no
    # policy reads `--base-fraction`.
    READS = {
        "audiokv": {"base_fraction", "cutoff_ratio", "mix_alpha"},
        "audiokv-nosss": {"base_fraction"},
        "snapkv": {"pool_width"},
        "snapkv+sss": {"cutoff_ratio", "mix_alpha"},
        "h2o": set(),
        "adakv": set(),
        "pyramid": set(),
    }
    SETTINGS = {"pool_width": "3", "base_fraction": "0.3", "cutoff_ratio": "0.2", "mix_alpha": "0.1"}

    @pytest.mark.parametrize("planned", [False, True], ids=["ratio", "plan"])
    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_a_setting_flag_runs_only_where_the_policy_reads_it(
        self, fixture_dir, tmp_path, capsys, policy, setting, planned
    ):
        assert sorted(self.READS) == sorted(POLICIES)
        if planned:
            plan_path = tmp_path / "plan.json"
            plan_path.write_text(json.dumps(self.PLAN))
            inputs = ["--plan", str(plan_path)]
        else:
            inputs = ["--scores", str(run_score(fixture_dir, tmp_path)[1])]
        flag = "--" + setting.replace("_", "-")
        out = tmp_path / "r.json"
        code = simulate(fixture_dir, out, policy, *inputs, flag, self.SETTINGS[setting])
        reads = setting in self.READS[policy] and not (planned and setting == "base_fraction")
        err = capsys.readouterr().err
        assert (code, out.exists()) == ((0, True) if reads else (2, False)), err
        if not reads:
            assert f"policy {policy}" in err and f"does not read {flag}" in err

    def test_a_config_may_set_what_the_policy_does_not_read(self, fixture_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"base_fraction": 0.9, "cutoff_ratio": 0.2, "mix_alpha": 0.1}))
        with_config, without = tmp_path / "with.json", tmp_path / "without.json"
        assert simulate(fixture_dir, with_config, "snapkv", "--config", str(cfg)) == 0
        assert simulate(fixture_dir, without, "snapkv") == 0
        assert with_config.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize(
        "policy, extra, message",
        [
            ("audiokv", [], "needs head scores"),
            ("audiokv-nosss", ["--scores", "missing.json", "--mix-alpha", "0.1"], "--mix-alpha"),
            ("adakv", ["--plan", "missing.json", "--base-fraction", "0.9"], "--base-fraction"),
        ],
    )
    def test_usage_errors_come_before_any_file_is_read(
        self, tmp_path, capsys, policy, extra, message
    ):
        out = tmp_path / "r.json"
        argv = ["simulate", "--trace", str(tmp_path / "missing.akvt"), "--policy", policy]
        assert main([*argv, *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "missing" not in err
        assert not out.exists()

    @pytest.mark.parametrize("budget, code", [(100000, 2), (4392, 0), (4393, 2)])
    def test_plan_budget_is_bounded_by_the_cache(
        self, seed_7_with_scores, tmp_path, capsys, budget, code
    ):
        # The seed-7 window ends at context 549, so its 8 heads hold 4392 entries.
        fx, scores_path = seed_7_with_scores
        plan_path, out = tmp_path / "plan.json", tmp_path / "r.json"
        assert main(
            ["allocate", "--scores", str(scores_path), "--budget", str(budget), "--mode",
             "uniform", "--out", str(plan_path)]
        ) == 0
        capsys.readouterr()
        assert simulate(fx, out, "audiokv", "--plan", str(plan_path)) == code
        assert out.exists() == (code == 0)
        if code:
            err = capsys.readouterr().err
            assert "plan.json" in err and f"budget {budget}" in err and "4392" in err
        else:
            assert json.loads(out.read_text())["plan"]["budget"] == budget

    def test_plan_for_other_heads_fails_the_dimension_check(self, fixture_dir, tmp_path, capsys):
        plan_path, out = tmp_path / "plan.json", tmp_path / "r.json"
        plan = {**self.PLAN, "budget": 100000, "capacities": [[100000]]}
        plan_path.write_text(json.dumps(plan))
        assert simulate(fixture_dir, out, "audiokv", "--plan", str(plan_path)) == 2
        assert "window heads (2, 4) != plan heads (1, 1)" in capsys.readouterr().err
        assert not out.exists()


class TestCompareCmd:
    def test_byte_identical_reruns(self, fixture_dir, tmp_path):
        outputs = []
        for name in ("one.csv", "two.csv"):
            path = tmp_path / name
            code = main(
                [
                    "compare",
                    "--trace",
                    str(fixture_dir / "trace.akvt"),
                    "--alignment",
                    str(fixture_dir / "alignment.json"),
                    "--out",
                    str(path),
                    "--ratios",
                    "0.4,0.6",
                ]
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_report_rows_cover_the_grid(self, fixture_dir, tmp_path):
        path = tmp_path / "grid.csv"
        json_path = tmp_path / "grid.json"
        assert main(
            [
                "compare",
                "--trace",
                str(fixture_dir / "trace.akvt"),
                "--alignment",
                str(fixture_dir / "alignment.json"),
                "--out",
                str(path),
                "--json",
                str(json_path),
                "--ratios",
                "0.5",
            ]
        ) == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "policy,ratio,overlap,mass,entropy,bytes"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["snapkv", "snapkv+sss", "audiokv-nosss", "audiokv"]
        assert len(json.loads(json_path.read_text())) == 4

    def test_empty_ratio_list_exits_2(self, fixture_dir, tmp_path):
        code = main(
            [
                "compare",
                "--trace",
                str(fixture_dir / "trace.akvt"),
                "--alignment",
                str(fixture_dir / "alignment.json"),
                "--out",
                str(tmp_path / "x.csv"),
                "--ratios",
                "",
            ]
        )
        assert code == 2

    def test_config_file_supplies_defaults_and_flags_override(self, fixture_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"retention_ratios": [0.5], "mix_alpha": 0.25}))
        path = tmp_path / "cfg_run.csv"
        assert main(
            [
                "compare",
                "--config",
                str(cfg),
                "--trace",
                str(fixture_dir / "trace.akvt"),
                "--alignment",
                str(fixture_dir / "alignment.json"),
                "--out",
                str(path),
            ]
        ) == 0
        assert len(path.read_text().strip().split("\n")) == 5

    def test_unknown_config_key_exits_2(self, fixture_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"definitely_not_a_field": 1}))
        assert main(
            [
                "compare",
                "--config",
                str(cfg),
                "--trace",
                str(fixture_dir / "trace.akvt"),
                "--alignment",
                str(fixture_dir / "alignment.json"),
                "--out",
                str(tmp_path / "y.csv"),
            ]
        ) == 2


    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"retention_ratios": [1.5]}, []),
            ({"retention_ratios": [0]}, []),
            ({"retention_ratios": 0.5}, []),
            ({"retention_ratios": []}, []),
            ({"retention_ratios": ["0.5"]}, []),
            ({"retention_ratios": [True]}, []),
            ({"window": "abc"}, []),
            ({"window": 0}, []),
            ({"top_k": 2.5}, []),
            ({"tau": True}, []),
            ({"mix_alpha": 1.5}, []),
            ({"base_fraction": -0.1}, []),
            (7, []),
            ([0.4], []),
            (None, ["--tau", "2"]),
            (None, ["--top-k", "0"]),
            (None, ["--window", "0"]),
            (None, ["--cutoff-ratio", "2"]),
            (None, ["--mix-alpha", "-1"]),
            (None, ["--base-fraction", "1.5"]),
            ({"retention_ratios": [10**400]}, []),
        ],
    )
    def test_bad_run_setting_exits_2(self, fixture_dir, tmp_path, capsys, config, flags):
        # Settings get the same checks whether a flag or `--config` gives them.
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", str(cfg), *flags]
        out = tmp_path / "z.csv"
        code = main(
            [
                "compare",
                *flags,
                "--trace",
                str(fixture_dir / "trace.akvt"),
                "--alignment",
                str(fixture_dir / "alignment.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--trace", "--config"])
    def test_directory_as_input_exits_2(self, fixture_dir, tmp_path, capsys, flag):
        args = {
            "--trace": str(fixture_dir / "trace.akvt"),
            "--alignment": str(fixture_dir / "alignment.json"),
            "--out": str(tmp_path / "d.csv"),
        }
        args[flag] = str(tmp_path)
        assert main(["compare", *(part for pair in args.items() for part in pair)]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()


# `compare` on `gen-fixture spike-plateau --seed 7` with the default ratios,
# as the per-head implementation wrote it; any change to selection, scoring
# or formatting shows up here byte for byte.
SEED_7_REPORT = """\
policy,ratio,overlap,mass,entropy,bytes
snapkv,0.3989071038,0.4543378995,0.5544168585,2.177851,448512
snapkv+sss,0.3989071038,0.4583333333,0.5660304818,2.072265761,448512
audiokv-nosss,0.3989071038,0.4804299669,0.5787699117,2.155330601,448512
audiokv,0.3989071038,0.4846875683,0.5890934599,2.06458281,448512
snapkv,0.5992714026,0.6519756839,0.7481545987,2.248154752,673792
snapkv+sss,0.5992714026,0.6542553191,0.7493596096,2.225496288,673792
audiokv-nosss,0.5992714026,0.6113325746,0.7265462303,2.264444891,673792
audiokv,0.5992714026,0.6029811441,0.7253242598,2.244490096,673792
snapkv,0.7996357013,0.8166287016,0.8760110038,2.287927065,899072
snapkv+sss,0.7996357013,0.7932801822,0.8724534244,2.286720894,899072
audiokv-nosss,0.7984972678,0.7886122025,0.8409209616,2.296908729,897792
audiokv,0.7984972678,0.7873528973,0.8409217043,2.297333282,897792
"""


def compare_fixture(tmp_path, profile, seed):
    fx, report = tmp_path / "fx", tmp_path / "report.csv"
    assert main(["gen-fixture", "--profile", profile, "--seed", str(seed), "--out", str(fx)]) == 0
    assert main(
        [
            "compare",
            "--trace",
            str(fx / "trace.akvt"),
            "--alignment",
            str(fx / "alignment.json"),
            "--out",
            str(report),
        ]
    ) == 0
    return report.read_text()


def test_seed_7_report_bytes_are_pinned(tmp_path):
    assert compare_fixture(tmp_path, "spike-plateau", 7) == SEED_7_REPORT


# `compare` on `gen-fixture uniform --seed 3`: rows of 390-405 tokens hold
# only 8-23 distinct attention values, so nearly every top-k in scoring,
# selection and the oracle overlap is decided by the tie rule.
UNIFORM_SEED_3_REPORT = """\
policy,ratio,overlap,mass,entropy,bytes
snapkv,0.3985148515,0.4608695652,0.8202159588,1.910169888,824320
snapkv+sss,0.3985148515,0.5776397516,0.8666272897,2.09611573,824320
audiokv-nosss,0.3985148515,0.4609641707,0.8202158262,1.910148081,824320
audiokv,0.3985148515,0.5773294801,0.8666271571,2.096030435,824320
snapkv,0.599009901,0.6161157025,0.8492030853,2.156950766,1239040
snapkv+sss,0.599009901,0.6303719008,0.8956144162,2.28478534,1239040
audiokv-nosss,0.599009901,0.6163498079,0.8492029526,2.15692248,1239040
audiokv,0.599009901,0.6303712658,0.8956142835,2.284779347,1239040
snapkv,0.7995049505,0.7815789474,0.8781902117,2.245972285,1653760
snapkv+sss,0.7995049505,0.8544891641,0.9246015426,2.272504942,1653760
audiokv-nosss,0.7995049505,0.7817450465,0.8781900791,2.245939395,1653760
audiokv,0.7995049505,0.8544880661,0.92460141,2.272501196,1653760
"""


def test_tie_heavy_uniform_report_bytes_are_pinned(tmp_path):
    assert compare_fixture(tmp_path, "uniform", 3) == UNIFORM_SEED_3_REPORT


def test_readme_number_table_is_the_number_table():
    # The backticked names outside parentheses in the first column, a flag
    # read as its dest; each `_NUMBERS` key and `retention_ratios` once.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = readme[readme.index("| flag or config field | must be |") :].splitlines()
    listed = []
    for line in lines[2:]:
        if not line.strip().startswith("|"):
            break
        names = re.sub(r"\(.*?\)", "", line.strip().strip("|").split("|")[0])
        listed += [name.lstrip("-").replace("-", "_") for name in re.findall(r"`([^`]+)`", names)]
    assert sorted(listed) == sorted([*_NUMBERS, "retention_ratios"])


def test_nan_attention_exits_2(tmp_path, capsys):
    fx = tmp_path / "fx"
    assert main(["gen-fixture", "--profile", "spike-plateau", "--seed", "7", "--out", str(fx)]) == 0
    trace = load_trace(fx / "trace.akvt")
    steps = list(trace.steps)
    attention = steps[5].attention.copy()
    attention[0, 0, 3] = np.nan
    steps[5] = dataclasses.replace(steps[5], attention=attention)
    write_trace(dataclasses.replace(trace, steps=tuple(steps)), fx / "trace.akvt")
    code = main(
        [
            "compare",
            "--trace",
            str(fx / "trace.akvt"),
            "--alignment",
            str(fx / "alignment.json"),
            "--out",
            str(tmp_path / "report.csv"),
        ]
    )
    assert code == 2
    assert "step 5 attention row sums" in capsys.readouterr().err


def test_empty_trace_exits_2(tmp_path, capsys):
    trace, out = tmp_path / "empty.akvt", tmp_path / "r.json"
    trace.write_bytes(b"")
    assert main(["simulate", "--trace", str(trace), "--policy", "snapkv", "--out", str(out)]) == 2
    assert "truncated header" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["config", "alignment", "scores", "plan", "sidecar"])
def test_undecodable_input_file_exits_2(fixture_dir, tmp_path, capsys, kind):
    undecodable = b"\xff\xfe{}"
    bad, trace, out = tmp_path / "bad.json", fixture_dir / "trace.akvt", tmp_path / "out"
    bad.write_bytes(undecodable)
    if kind == "sidecar":
        trace = tmp_path / "trace.akvt"
        shutil.copy(fixture_dir / "trace.akvt", trace)
        (tmp_path / "trace.akvt.tokens.json").write_bytes(undecodable)
    argv = {
        "config": ["compare", "--config", bad, "--alignment", fixture_dir / "alignment.json"],
        "alignment": ["score-heads", "--alignment", bad],
        "scores": ["simulate", "--policy", "audiokv", "--scores", bad],
        "plan": ["simulate", "--policy", "audiokv", "--plan", bad],
        "sidecar": ["simulate", "--policy", "snapkv"],
    }[kind]
    assert main([*map(str, argv), "--trace", str(trace), "--out", str(out)]) == 2
    assert "can't decode byte 0xff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [b'{"x": ', b"\xff\xfe"], ids=["truncated", "undecodable"])
@pytest.mark.parametrize("kind", ["config", "alignment", "scores", "plan", "result", "sidecar"])
def test_bad_json_file_is_named_in_the_error(fixture_dir, tmp_path, capsys, kind, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if kind == "config":
        out = tmp_path / "report.csv"
        argv = ["compare", "--config", bad, "--trace", fixture_dir / "trace.akvt",
                "--alignment", fixture_dir / "alignment.json", "--out", out]
        assert main(list(map(str, argv))) == 2
        assert f"error: {bad}: not a JSON file" in capsys.readouterr().err
        assert not out.exists()
        return
    if kind == "sidecar":
        trace = tmp_path / "trace.akvt"
        shutil.copy(fixture_dir / "trace.akvt", trace)
        bad.rename(tmp_path / "trace.akvt.tokens.json")
        bad, read = tmp_path / "trace.akvt.tokens.json", lambda _: load_trace(trace)
    else:
        read = {"alignment": load_alignment, "scores": load_scores, "plan": load_plan,
                "result": load_result}[kind]
    with pytest.raises(FormatError) as caught:
        read(bad)
    assert str(caught.value).startswith(f"{bad}: not a JSON file")


class TestUsageErrors:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    @pytest.mark.parametrize("ratio", ["1.5", "0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "allocate"])
    def test_ratio_outside_unit_interval_exits_2(
        self, fixture_dir, tmp_path, capsys, command, ratio
    ):
        _, scores_path = run_score(fixture_dir, tmp_path)
        inputs = {
            "simulate": ["--trace", str(fixture_dir / "trace.akvt"), "--policy", "snapkv"],
            "allocate": ["--context-length", "549"],
        }[command]
        out = tmp_path / "out.json"
        code = main(
            [command, *inputs, "--scores", str(scores_path), "--ratio", ratio, "--out", str(out)]
        )
        assert code == 2
        assert "ratio must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_consecutive_calls_share_no_state(self, fixture_dir, tmp_path, capsys):
        # A flag one call sets does not carry into the next, and a usage
        # error does not fail the call after it.
        pooled, default, again = (tmp_path / f"{name}.json" for name in ("p3", "p7", "again"))
        assert simulate(fixture_dir, default, "snapkv") == 0
        assert simulate(fixture_dir, pooled, "snapkv", "--pool-width", "3") == 0
        assert simulate(fixture_dir, again, "snapkv") == 0
        assert again.read_bytes() == default.read_bytes() != pooled.read_bytes()
        assert simulate(fixture_dir, tmp_path / "bad.json", "snapkv", "--pool-width") == 2
        assert simulate(fixture_dir, again, "snapkv") == 0
        assert again.read_bytes() == default.read_bytes()
        capsys.readouterr()

    def test_setting_the_command_does_not_read_exits_2(self, fixture_dir, tmp_path, capsys):
        # score-heads reads only tau and top_k; an SSS flag is a usage error.
        code, scores_path = run_score(fixture_dir, tmp_path, extra=("--mix-alpha", "0.3"))
        assert code == 2
        assert "unrecognized arguments: --mix-alpha 0.3" in capsys.readouterr().err
        assert not scores_path.exists()


@pytest.mark.parametrize("value", [10**400, 2**32])
@pytest.mark.parametrize("name", ["top_k", "window"])
@pytest.mark.parametrize("command", ["compare", "score-heads", "simulate"])
def test_integer_setting_no_trace_can_use_exits_2(
    fixture_dir, tmp_path, capsys, command, name, value
):
    # A trace stores its step count and context lengths as u32; 10**400
    # would overflow a float inside head scoring.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value}))
    out = tmp_path / "out"
    inputs = {
        "compare": ["--alignment", str(fixture_dir / "alignment.json")],
        "score-heads": ["--alignment", str(fixture_dir / "alignment.json")],
        "simulate": ["--policy", "snapkv"],
    }[command]
    code = main(
        [command, "--config", str(cfg), "--trace", str(fixture_dir / "trace.akvt"), *inputs,
         "--out", str(out)]
    )
    assert code == 2
    assert f"{name} must be an integer in [1, 4294967295]" in capsys.readouterr().err
    assert not out.exists()


def test_largest_top_k_is_accepted(fixture_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"top_k": 2**32 - 1}))
    code, scores_path = run_score(fixture_dir, tmp_path, extra=("--config", str(cfg)))
    assert code == 0
    assert load_scores(scores_path).num_samples > 0


@pytest.fixture(scope="module")
def seed_7_with_scores(tmp_path_factory):
    fx = tmp_path_factory.mktemp("fx7")
    assert main(["gen-fixture", "--profile", "spike-plateau", "--seed", "7", "--out", str(fx)]) == 0
    code, scores_path = run_score(fx, fx)
    assert code == 0
    return fx, scores_path


def corrupt_step(fx, tmp_path, position, defect):
    """A copy of fixture `fx` whose step `position` has a NaN or a negative entry."""
    trace = load_trace(fx / "trace.akvt")
    assert trace.num_steps == 192 and 32 < position
    steps = list(trace.steps)
    attention = steps[position].attention.copy()
    if defect == "nan":
        attention[1, 2, 40] = np.nan
    else:  # the row keeps its sum, so only the sign check can catch it
        attention[1, 2, 41] += attention[1, 2, 40] + 1e-5
        attention[1, 2, 40] = -1e-5
    steps[position] = dataclasses.replace(steps[position], attention=attention)
    out = tmp_path / "bad"
    out.mkdir()
    write_trace(dataclasses.replace(trace, steps=tuple(steps)), out / "trace.akvt")
    shutil.copy(fx / "alignment.json", out / "alignment.json")
    return out


BAD_STEP_150 = {
    "nan": "step 150 attention row sums off by nan",
    "negative": "step 150 has negative attention values",
}


@pytest.mark.parametrize("defect", sorted(BAD_STEP_150))
def test_a_bad_step_after_the_window_fails_simulate(seed_7_with_scores, tmp_path, capsys, defect):
    # simulate sums only the first 32 steps, but validates all 192 in that pass.
    fx, scores_path = seed_7_with_scores
    bad = corrupt_step(fx, tmp_path, 150, defect)
    for policy in POLICIES:
        out = tmp_path / f"{policy}.json"
        assert simulate(bad, out, policy, "--scores", str(scores_path)) == 2
        assert BAD_STEP_150[defect] in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("defect", sorted(BAD_STEP_150))
def test_a_bad_step_after_the_window_fails_compare(seed_7_with_scores, tmp_path, capsys, defect):
    fx, _ = seed_7_with_scores
    bad = corrupt_step(fx, tmp_path, 150, defect)
    out, mirror = tmp_path / "report.csv", tmp_path / "report.json"
    code = main(
        ["compare", "--trace", str(bad / "trace.akvt"), "--alignment", str(bad / "alignment.json"),
         "--out", str(out), "--json", str(mirror)]
    )
    assert code == 2
    assert BAD_STEP_150[defect] in capsys.readouterr().err
    assert not out.exists() and not mirror.exists()


@pytest.mark.parametrize(
    "defect, message",
    [(True, "step 0 attention row sums off by nan"),
     (False, "trace too short to split into observation and future")],
    ids=["nan", "valid"],
)
def test_a_one_step_trace_fails_compare_on_its_first_fault(
    seed_7_with_scores, tmp_path, capsys, defect, message
):
    # compare validates in the pass that sums the window and the future, which
    # a 1-step trace cannot be split into: its bad value is reported all the same.
    fx, _ = seed_7_with_scores
    trace = load_trace(fx / "trace.akvt").prefix(1)
    if defect:
        attention = trace.steps[0].attention.copy()
        attention[0, 1, 2] = np.nan
        trace = dataclasses.replace(
            trace, steps=(dataclasses.replace(trace.steps[0], attention=attention),)
        )
    write_trace(trace, tmp_path / "trace.akvt")
    out = tmp_path / "report.csv"
    argv = ["compare", "--trace", str(tmp_path / "trace.akvt"), "--out", str(out)]
    assert main([*argv, "--alignment", str(fx / "alignment.json")]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # A bad alignment comes after a bad step, and before the trace is found too short.
    (tmp_path / "bad.json").write_text("{}")
    assert main([*argv, "--alignment", str(tmp_path / "bad.json")]) == 2
    err = capsys.readouterr().err
    assert (message in err) == defect and ("expected a JSON array" in err) != defect
    assert not out.exists()


def test_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["gen-fixture", "--profile", "uniform", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# The most a 2x4-head scores file can take: 8 heads x (2^32 - 1), the largest
# context a trace records.
LARGEST_2X4_BUDGET = 8 * (2**32 - 1)


@pytest.mark.parametrize(
    "mode, flags, message",
    [
        (mode, ["--budget", str(10**28)], f"budget must be at most {LARGEST_2X4_BUDGET}")
        for mode in ("combined", "uniform", "pyramid")
    ]
    + [
        # Past 2^53 the pyramid split loses slots to rounding: its plan summed
        # to 250 more than this budget, and `load_plan` rejected it.
        ("pyramid", ["--budget", "4611686018427387911"], "budget must be at most"),
        ("pyramid", ["--budget", str(LARGEST_2X4_BUDGET + 1)], "budget must be at most"),
        (
            "combined",
            ["--ratio", "0.5", "--context-length", "99999999999999999999999"],
            "context length must be an integer >= 1 and <= 4294967295",
        ),
    ],
)
def test_budget_the_heads_cannot_hold_exits_2(
    seed_7_with_scores, tmp_path, capsys, mode, flags, message
):
    _, scores_path = seed_7_with_scores
    out = tmp_path / "p.json"
    argv = ["allocate", "--scores", str(scores_path), "--mode", mode, *flags, "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["combined", "uniform", "pyramid"])
def test_largest_budget_writes_a_plan_that_loads(seed_7_with_scores, tmp_path, mode):
    _, scores_path = seed_7_with_scores
    out = tmp_path / "p.json"
    argv = ["allocate", "--scores", str(scores_path), "--mode", mode,
            "--budget", str(LARGEST_2X4_BUDGET), "--out", str(out)]
    assert main(argv) == 0
    assert load_plan(out).total == LARGEST_2X4_BUDGET


# Runs `audiokv.cli.main(argv[2:])` with RLIMIT_DATA set argv[1] bytes above
# what the process already holds, and exits with its code.
MAIN_UNDER_DATA_LIMIT = """
import resource, sys
from audiokv.cli import main

with open("/proc/self/status") as fh:
    held = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmData:"))
_, hard = resource.getrlimit(resource.RLIMIT_DATA)
resource.setrlimit(resource.RLIMIT_DATA, (held + int(sys.argv[1]), hard))
sys.exit(main(sys.argv[2:]))
"""


def test_pool_wider_than_the_context_averages_the_whole_row(seed_7_with_scores, tmp_path):
    # A width of 2·context+1 or more puts every position's window over the
    # whole row, so any such width keeps the same entries; none may allocate
    # a width-sized kernel.
    fx, _ = seed_7_with_scores
    outs = []
    for width in [2**32 - 1, None]:
        if width is None:
            width = 2 * json.loads(outs[0].read_text())["context_length"] + 1
        out = tmp_path / f"pool-{width}.json"
        run = subprocess.run(
            [sys.executable, "-c", MAIN_UNDER_DATA_LIMIT, str(512 * 2**20), "simulate",
             "--trace", str(fx / "trace.akvt"), "--policy", "snapkv", "--pool-width", str(width),
             "--out", str(out)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            timeout=120,
        )
        assert run.returncode == 0, run.stderr.decode()
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()


# Flag text as a user might type it: integers of either sign and of every
# size up to 10^30, and floats, NaN and infinities included.
NUMERAL = st.one_of(
    st.integers(0, 30).flatmap(lambda e: st.integers(-(10**e), 10**e)), st.floats(), st.floats(0, 1)
).map(str)
# 2·549 + 1, the widest pool the seed-7 window's context needs; wider ones
# are covered under a memory limit above.
POOL_WIDTH = st.one_of(
    st.integers(0, 30).flatmap(lambda e: st.integers(-(10**e), min(10**e, 1099))), st.floats()
).map(str)


def numeric_flags(**accepted):
    """`--flag=text` arguments: one flag's text drawn from `NUMERAL` (from
    `POOL_WIDTH` for the pool width), and each other flag left out or given
    one of its `accepted` values, so the drawn text decides the exit."""

    def around(drawn):
        text = POOL_WIDTH if drawn == "pool_width" else NUMERAL
        rest = {f: st.none() | st.sampled_from(v) for f, v in accepted.items() if f != drawn}
        return st.fixed_dictionaries({drawn: text, **rest})

    return st.sampled_from(sorted(accepted)).flatmap(around).map(
        lambda given: [f"--{f.replace('_', '-')}={v}" for f, v in given.items() if v is not None]
    )


FUZZED_FLAGS = {
    "allocate": numeric_flags(
        budget=[5000], ratio=[0.5], context_length=[549], window=[1, 32], base_fraction=[0, 0.5]
    ),
    "simulate": numeric_flags(
        ratio=[0.5],
        pool_width=[1, 7],
        window=[1, 32],
        base_fraction=[0.5],
        cutoff_ratio=[0.7],
        mix_alpha=[0.5],
    ),
    "smooth": numeric_flags(cutoff_ratio=[0.7], mix_alpha=[0.5]),
    "gen-fixture": numeric_flags(seed=[0]),
}


@pytest.fixture(scope="module")
def signals_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("signals") / "signals.csv"
    np.savetxt(path, np.random.default_rng(0).random((16, 2)), delimiter=",")
    return path


@pytest.mark.parametrize("command", sorted(FUZZED_FLAGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_numeric_flags_exit_0_or_2(seed_7_with_scores, signals_csv, command, data):
    fx, scores_path = seed_7_with_scores
    out = fx / f"fuzzed-{command}"
    shutil.rmtree(out, ignore_errors=True)
    out.unlink(missing_ok=True)
    if command == "allocate":
        modes = [m.value for m in AllocationMode]
        inputs = ["--scores", scores_path, "--mode", data.draw(st.sampled_from(modes)), "--out"]
    elif command == "simulate":
        policy = data.draw(st.sampled_from(list(POLICIES)))
        inputs = ["--trace", fx / "trace.akvt", "--scores", scores_path, "--policy", policy,
                  "--out"]
    elif command == "smooth":
        inputs = ["--input", signals_csv, "--output"]
    else:
        inputs = ["--profile", "uniform", "--out"]
    code = main([command, *map(str, inputs), str(out), *data.draw(FUZZED_FLAGS[command])])
    assert code in (0, 2)
    assert out.exists() == (code == 0)
