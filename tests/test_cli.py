import dataclasses
import json
import os
import platform
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rlvrlab
from rlvrlab import cli, config, trainer
from rlvrlab.cli import dispatch
from rlvrlab.config import StagePlan, TrainConfig
from rlvrlab.curation import ProblemRecord, write_records
from rlvrlab.policy import PolicyParams, Vocab, load_checkpoint, save_checkpoint
from rlvrlab.tasks import TaskSpec
from rlvrlab.trainer import init_policy


def micro_train_config(seed=5):
    return TrainConfig(
        stages=(StagePlan(max_response_len=10, max_steps=4),),
        task=TaskSpec("modular-add", 10),
        group_size=4,
        batch_groups=3,
        learning_rate=10.0,
        seed=seed,
    )


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)


class TestVerifyCommand:
    def test_equivalent_pair_exits_zero(self, capsys):
        assert dispatch(["verify", "--gold", "42", "--pred", "42"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"outcome": "equivalent", "stage": 1}

    def test_not_equivalent_exits_one(self, capsys):
        assert dispatch(["verify", "--gold", "42", "--pred", "41"]) == 1
        assert json.loads(capsys.readouterr().out)["outcome"] == "not_equivalent"

    def test_batch_mode(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps({"gold": "1/2", "pred": "0.5"})
            + "\n"
            + json.dumps({"gold": "3", "pred": "4"})
            + "\n"
        )
        assert dispatch(["verify", "--pairs", str(pairs)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [l["outcome"] for l in lines] == ["equivalent", "not_equivalent"]
        assert all("stage" in l for l in lines)

    def test_missing_pairs_file_exits_two(self):
        assert dispatch(["verify", "--pairs", "/nonexistent/p.jsonl"]) == 2

    @pytest.mark.parametrize(
        "bad_line,reason",
        [
            (json.dumps({"gold": "1"}), 'expected an object with "pred" and "gold"'),
            ("not json", "invalid JSON"),
            ("[1, 2]", 'expected an object with "pred" and "gold"'),
        ],
        ids=["missing_pred", "not_json", "not_object"],
    )
    def test_bad_pairs_row_exits_two(self, tmp_path, capsys, bad_line, reason):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"gold": "1", "pred": "1"}) + "\n" + bad_line + "\n")
        assert dispatch(["verify", "--pairs", str(pairs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pairs} line 2: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "row,reason",
        [
            ({"pred": None, "gold": "None"}, '"pred" must be a string or a number, got null'),
            ({"pred": True, "gold": "True"}, '"pred" must be a string or a number, got true'),
            ({"pred": "1", "gold": False}, '"gold" must be a string or a number, got false'),
            ({"pred": "1", "gold": [1]}, '"gold" must be a string or a number, got [1]'),
            ({"pred": {}, "gold": "1"}, '"pred" must be a string or a number, got {}'),
        ],
        ids=["null_pred", "bool_pred", "bool_gold", "list_gold", "object_pred"],
    )
    def test_pairs_answer_of_another_type_exits_two(self, tmp_path, capsys, row, reason):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"gold": "1", "pred": "1"}) + "\n" + json.dumps(row) + "\n")
        assert dispatch(["verify", "--pairs", str(pairs)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {pairs} line 2: {reason}\n"
        assert out == ""

    def test_pairs_numbers_keep_their_string_form(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = [{"pred": 2, "gold": "2"}, {"pred": 0.5, "gold": "1/2"}, {"pred": 1e100, "gold": 3}]
        pairs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert dispatch(["verify", "--pairs", str(pairs)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [l["outcome"] for l in lines] == ["equivalent", "equivalent", "not_equivalent"]
        assert [l["pred"] for l in lines] == [2, 0.5, 1e100]

    def test_manifest_records_no_seed(self, tmp_path):
        manifest = tmp_path / "m.json"
        assert dispatch(["verify", "--gold", "1", "--pred", "1", "--manifest", str(manifest)]) == 0
        assert json.loads(manifest.read_text())["seed"] is None
        assert dispatch(["verify", "--gold", "1", "--pred", "1", "--seed", "3"]) == 2

    def test_manifest_records_the_machine(self, tmp_path):
        manifest = tmp_path / "m.json"
        assert dispatch(["verify", "--gold", "1", "--pred", "1", "--manifest", str(manifest)]) == 0
        got = json.loads(manifest.read_text())
        assert got["python_version"] == platform.python_version()
        assert got["numpy_version"] == np.__version__
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert got["numpy_simd"] == {"baseline": simd["baseline"], "found": simd["found"]}
        assert got["platform"] == platform.platform()
        assert got["cpu_count"] == os.cpu_count()

    @pytest.mark.parametrize(
        "args,flag",
        [
            ("--pairs {pairs} --manifest {tmp}/m.json", "--manifest"),
            ("--gold 1 --pred 1 --out {tmp}/o.jsonl", "--out"),
            ("--pairs {pairs} --gold 1 --pred 1", "--gold"),
        ],
        ids=["pairs_manifest", "single_out", "pairs_gold_pred"],
    )
    def test_flag_of_the_other_mode_exits_two(self, tmp_path, capsys, args, flag):
        # A flag the chosen mode does not use would do nothing: it is named
        # and nothing is written.
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"gold": "1", "pred": "1"}) + "\n")
        argv = ["verify"] + args.format(pairs=pairs, tmp=tmp_path).split()
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")
        assert captured.err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["pairs.jsonl"]


class TestUsageErrors:
    def test_unknown_flag_exits_two(self):
        assert dispatch(["verify", "--gold", "1", "--pred", "1", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--gold", "1"], ["verify", "--pairs", ""], ["train"], ["eval", "--k", "x"]],
        ids=["verify_without_pred", "verify_empty_pairs", "train_without_flags", "eval_bad_k"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        # No usage block: the message alone, on one line.
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_unknown_command_exits_two(self):
        assert dispatch(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert dispatch(["--version"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint format v2" in out
        assert "jsonl schema v1" in out

    def test_version_is_the_package_version(self, capsys, monkeypatch):
        assert dispatch(["--version"]) == 0
        assert capsys.readouterr().out.startswith(f"rlvrlab {rlvrlab.__version__} (")
        # Read when the parser is built, not written out a second time.
        monkeypatch.setattr(cli, "__version__", "9.8.7", raising=False)
        assert dispatch(["--version"]) == 0
        assert capsys.readouterr().out.startswith("rlvrlab 9.8.7 (")


class TestRunAsModule:
    """``python -m rlvrlab`` and ``python -m rlvrlab.cli`` run the command
    and exit with its code."""

    @staticmethod
    def run(module, *argv, cwd):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(rlvrlab.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    @pytest.mark.parametrize("module", ["rlvrlab", "rlvrlab.cli"])
    def test_not_equivalent_pair_exits_one(self, module, tmp_path):
        done = self.run(module, "verify", "--gold", "1", "--pred", "2", cwd=tmp_path)
        assert done.returncode == 1
        assert json.loads(done.stdout)["outcome"] == "not_equivalent"

    @pytest.mark.parametrize("module", ["rlvrlab", "rlvrlab.cli"])
    def test_missing_config_exits_two_with_one_line(self, module, tmp_path):
        done = self.run(
            module, "train", "--config", "/nonexistent", "--out-dir", "x", cwd=tmp_path
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "x").exists()


class TestCurateCommand:
    def test_end_to_end(self, tmp_path, capsys):
        records = [
            ProblemRecord(id="a", question="compute one " + "w1 " * 12, answer="1"),
            ProblemRecord(id="b", question="compute one " + "w1 " * 12, answer="1"),
            ProblemRecord(id="c", question="prove that things are true", answer="2"),
            ProblemRecord(id="d", question="compute another " + "w2 " * 12, answer="3"),
        ]
        src = tmp_path / "in.jsonl"
        write_records(records, str(src))
        out = tmp_path / "out.jsonl"
        report = tmp_path / "report.json"
        code = dispatch(
            [
                "curate",
                "--in",
                str(src),
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        kept = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in kept] == ["a", "d"]
        doc = json.loads(report.read_text())
        assert doc["final_count"] == 2
        by_name = {s["name"]: s["excluded"] for s in doc["stages"]}
        assert by_name["style"] == 1
        assert by_name["exact_dedup"] == 1
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["command"] == "curate"
        assert manifest["seed"] is None
        assert str(out) in manifest["artifacts"]
        assert "style" in capsys.readouterr().out

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = dispatch(
            ["curate", "--in", "/missing.jsonl", "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == 2
        assert "/missing.jsonl" in capsys.readouterr().err

    def test_directory_input_exits_two(self, tmp_path, capsys):
        code = dispatch(["curate", "--in", str(tmp_path), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == f"error: file not found: {tmp_path}\n"
        assert dispatch(["eval", "--ckpt", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "bad_line,reason",
        [
            ("not json", "invalid JSON"),
            (json.dumps({"id": "x", "answer": "1"}), 'expected an object with a string "question"'),
            ('["question"]', 'expected an object with a string "question"'),
            (
                json.dumps({"question": "What is 4+4?", "answer": ["8"]}),
                "answer must be a string or a number, got list",
            ),
            (
                json.dumps({"question": "q", "response_len": True, "response": "7"}),
                "response_len must be an integer >= 0, got bool",
            ),
            (json.dumps({"question": "q", "response": 7}), "response must be a string, got int"),
        ],
        ids=["not_json", "missing_question", "not_object", "list_answer", "bool_length", "int_response"],
    )
    @pytest.mark.parametrize("role", ["in", "eval_set"])
    def test_bad_record_exits_two(self, tmp_path, capsys, bad_line, reason, role):
        good = tmp_path / "good.jsonl"
        write_records([ProblemRecord(id="a", question="what is one", answer="1")], str(good))
        bad = tmp_path / "bad.jsonl"
        bad.write_text(good.read_text() + bad_line + "\n")
        out = tmp_path / "out.jsonl"
        args = ["curate", "--in", str(good), "--out", str(out), "--eval-set", str(bad)]
        if role == "in":
            args = ["curate", "--in", str(bad), "--out", str(out)]
        assert dispatch(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} line 2: {reason}")
        assert err.count("\n") == 1
        assert not out.exists()


class TestTrainEvalReport:
    def test_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        write_config(cfg_path, micro_train_config())
        out_dir = tmp_path / "run"
        assert dispatch(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0

        metrics_path = out_dir / "metrics.jsonl"
        rows = [json.loads(l) for l in metrics_path.read_text().splitlines()]
        assert [r["step"] for r in rows] == [1, 2, 3, 4]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 5
        # Pinned: a change to how configs serialize would change the
        # config_hash of every existing run.
        assert manifest["config_hash"] == (
            "f830ea9ba469a1e2df8b530baa15ea5fd2b4c13f8eff02764f4d94732ea117df"
        )

        final = out_dir / "final.ckpt"
        assert final.exists() and (out_dir / "stage1.ckpt").exists()
        load_checkpoint(str(final))

        assert (
            dispatch(
                [
                    "eval",
                    "--ckpt",
                    str(final),
                    "--config",
                    str(cfg_path),
                    "--k",
                    "4",
                    "--n-tasks",
                    "20",
                    "--max-len",
                    "10",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        eval_out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert 0.0 <= eval_out["avg_at_k"] <= 1.0

        csv_path = tmp_path / "curves.csv"
        assert dispatch(["report", "--metrics", str(metrics_path), "--out", str(csv_path)]) == 0
        header, *data = csv_path.read_text().splitlines()
        assert header.startswith("step,stage,mean_response_len,mean_reward")
        assert len(data) == 4

    def test_seed_override_changes_hash(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        write_config(cfg_path, micro_train_config())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        dispatch(["train", "--config", str(cfg_path), "--out-dir", str(d1)])
        dispatch(["train", "--config", str(cfg_path), "--out-dir", str(d2), "--seed", "6"])
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert m1["config_hash"] != m2["config_hash"]
        assert m2["seed"] == 6

    def test_missing_config_exits_two(self, tmp_path):
        assert (
            dispatch(["train", "--config", "/nope.json", "--out-dir", str(tmp_path)])
            == 2
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"learning_rat": 0.1}', "unknown TrainConfig key(s): learning_rat"),
            ('{"stages": [{"max_response_len": 4, "max_step": 2}]}',
             "unknown StagePlan key(s): max_step"),
            ('{"task": {"modulus": 7, "digits": 2}}', "unknown TaskSpec key(s): digits"),
            ('{"group_size": 4,', "Expecting property name"),
            ('{"group_size": 1}', "group_size must be >= 2"),
            ("[]", "TrainConfig must be an object"),
            ('{"min_repeats": 0}', "min_period and min_repeats must be >= 1"),
            ('{"inner_iterations": 0}', "inner_iterations must be >= 1"),
            ('{"temperature": 0}', "temperature must be positive"),
            ('{"temperature": NaN}', "temperature must be a finite number, got nan"),
            ('{"learning_rate": NaN}', "learning_rate must be a finite number, got nan"),
            ('{"learning_rate": Infinity}', "learning_rate must be a finite number, got inf"),
            ('{"learning_rate": 1%s}' % ("0" * 400), "int too large to convert to float"),
            ('{"format_bias": NaN}', "unknown TrainConfig key(s): format_bias"),
            ('{"format_bias": 5.0}', "unknown TrainConfig key(s): format_bias"),
            ('{"eos_floor": 2.0}', "unknown TrainConfig key(s): eos_floor"),
            ('{"init": "uniform"}', "unknown TrainConfig key(s): init"),
            ('{"task": {"num_digits": 2}}', "unknown TaskSpec key(s): num_digits"),
            ('{"task": {"family": "digit-sum"}}', "unknown task family 'digit-sum'"),
            ('{"buckets": -5}', "buckets must be >= 1"),
            ('{"buckets": 0}', "buckets must be >= 1"),
            ('{"buckets": 100000000000000, "stages": [{"max_response_len": 4, "max_steps": 1}],'
             ' "group_size": 4, "batch_groups": 2}',
             "buckets must be <= 1048576, got 100000000000000"),
            ('{"buckets": 1048577}', "buckets must be <= 1048576, got 1048577"),
            ('{"context_order": 7, "loop_boost": 1}', "context_order must be <= 6, got 7"),
            ('{"stages": [{"max_response_len": 257}], "group_size": 32, "batch_groups": 32}',
             "8 * batch_groups * group_size * max_response_len must be <= 2097152 "
             "sampler positions, got 2105344"),
            ('{"stages": [{"max_response_len": 0}]}', "max_response_len must be >= 1"),
            ('{"stages": [{"max_response_len": 4, "clip_high": 1.5}]}',
             "clip value 1.5 outside (0, 1)"),
            ('{"stages": [{"max_response_len": 4, "max_steps": 1, "clip_high": [0.3, 0.1]}],'
             ' "group_size": 4, "batch_groups": 2}',
             "clip interval (0.3, 0.1) has low end above high end"),
            ('{"stages": [{"max_response_len": 4, "saturation_window": 1}]}',
             "saturation_window must be 0 (off) or >= 2"),
            ('{"eval_every": 1, "eval_k": 0}',
             "eval_every must be >= 0, and eval_k and eval_tasks >= 1"),
            ('{"eval_every": 1, "eval_tasks": 0}',
             "eval_every must be >= 0, and eval_k and eval_tasks >= 1"),
            ('{"seed": -1}', "seed must be >= 0"),
            ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
            ('{"repetition_penalty": "no"}', "repetition_penalty must be true or false"),
            ('{"stages": [{"max_response_len": 12.7}]}',
             "max_response_len must be an integer, got 12.7"),
            ('{"stages": [{"max_response_len": 4, "max_steps": 2.9}]}',
             "max_steps must be an integer, got 2.9"),
            ('{"task": {"modulus": 7.9}}', "modulus must be an integer, got 7.9"),
            ('{"stages": [{"max_response_len": 4, "max_steps": true}]}',
             "max_steps must be an integer, got True"),
            ('{"task": {"num_digits": true}}', "unknown TaskSpec key(s): num_digits"),
            ('{"task": {"modulus": true}}', "modulus must be an integer, got True"),
            ('{"stages": [{"max_response_len": 4, "saturation_threshold": true}]}',
             "saturation_threshold must be a finite number, got True"),
            ('{"stages": [{"max_response_len": "12"}]}',
             "max_response_len must be an integer, got '12'"),
            ('{"stages": 5}', "stages must be a list, got int"),
            ('{"stages": {"max_response_len": 8}}', "stages must be a list, got dict"),
            ('{"task": {"family": ["modular-add"]}}',
             "family must be a string, got ['modular-add']"),
        ],
        ids=[
            "unknown_key",
            "unknown_stage_key",
            "unknown_task_key",
            "invalid_json",
            "failed_check",
            "not_object",
            "nonpositive_min_repeats",
            "zero_inner_iterations",
            "zero_temperature",
            "nan_temperature",
            "nan_learning_rate",
            "infinite_learning_rate",
            "huge_learning_rate",
            "nan_format_bias",
            "default_format_bias",
            "default_eos_floor",
            "uniform_init",
            "num_digits",
            "digit_sum_family",
            "negative_buckets",
            "zero_buckets",
            "huge_buckets",
            "buckets_past_cap",
            "context_order_past_cap",
            "sampler_positions_past_cap",
            "zero_max_response_len",
            "clip_high_above_one",
            "reversed_clip_interval",
            "one_entry_saturation_window",
            "zero_eval_k",
            "zero_eval_tasks",
            "negative_seed",
            "fractional_seed",
            "string_repetition_penalty",
            "fractional_max_response_len",
            "fractional_max_steps",
            "fractional_modulus",
            "bool_max_steps",
            "bool_num_digits",
            "bool_modulus",
            "bool_saturation_threshold",
            "string_max_response_len",
            "number_stages",
            "object_stages",
            "list_family",
        ],
    )
    def test_bad_config_exits_two(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        out_dir = tmp_path / "run"
        assert dispatch(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: {message}")
        assert err.count("\n") == 1
        assert not out_dir.exists()
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(init_policy(micro_train_config()), str(ckpt))
        assert dispatch(["eval", "--ckpt", str(ckpt), "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {message}")

    def test_table_past_float32_range_trains_and_evaluates(self, tmp_path, capsys):
        # At this learning rate the float64 table outgrows float32 within
        # two steps; the checkpoints hold it as trained and load again.
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "stages": [{"max_response_len": 8, "max_steps": 2}],
                    "group_size": 4,
                    "batch_groups": 4,
                    "learning_rate": 1e40,
                    "seed": 1,
                }
            )
        )
        out_dir = tmp_path / "run"
        final = out_dir / "final.ckpt"
        eval_args = ["eval", "--ckpt", str(final), "--k", "4", "--n-tasks", "5", "--max-len", "8"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)])
            assert code == 0
            assert sorted(os.listdir(out_dir)) == [
                "final.ckpt",
                "manifest.json",
                "metrics.jsonl",
                "stage1.ckpt",
            ]
            assert np.abs(load_checkpoint(str(final)).logits).max() > np.finfo(np.float32).max
            capsys.readouterr()
            assert dispatch(eval_args) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["k"] == 4

    def test_collapsed_run_exits_one(self, tmp_path, capsys):
        # A 1-token cap truncates everything, so every group is all-incorrect
        # and batch collection aborts.
        cfg = TrainConfig(
            stages=(StagePlan(max_response_len=1, max_steps=3),),
            task=TaskSpec("modular-add", 10),
            group_size=2,
            batch_groups=2,
            learning_rate=1.0,
            seed=0,
        )
        cfg_path = tmp_path / "config.json"
        write_config(cfg_path, cfg)
        code = dispatch(
            ["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]
        )
        assert code == 1
        assert "aborted" in capsys.readouterr().err

    def test_aborted_run_keeps_its_finished_stages(self, tmp_path, capsys, monkeypatch):
        cfg = dataclasses.replace(
            micro_train_config(),
            stages=(StagePlan(10, max_steps=2), StagePlan(12, max_steps=2)),
        )
        stage1 = trainer.train(dataclasses.replace(cfg, stages=cfg.stages[:1])).policy
        real_collect = trainer.collect_batch

        def collect(policy, stage, *args):
            if stage.max_response_len == cfg.stages[1].max_response_len:
                raise trainer.CollectAbort("stage 2 found no mixed groups")
            return real_collect(policy, stage, *args)

        monkeypatch.setattr(trainer, "collect_batch", collect)
        cfg_path = tmp_path / "config.json"
        write_config(cfg_path, cfg)
        out_dir = tmp_path / "run"
        code = dispatch(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "training aborted: stage 2 found no mixed groups\n"
        assert sorted(os.listdir(out_dir)) == ["metrics.jsonl", "stage1.ckpt"]
        loaded = load_checkpoint(str(out_dir / "stage1.ckpt"))
        assert loaded.logits.tobytes() == stage1.logits.tobytes()

    @pytest.mark.parametrize(
        "bad_line,reason",
        [("not json", "invalid JSON"), ("[1, 2]", "expected an object")],
        ids=["not_json", "not_object"],
    )
    def test_bad_metrics_line_exits_two(self, tmp_path, capsys, bad_line, reason):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(json.dumps({"step": 1, "stage": 0}) + "\n" + bad_line + "\n")
        csv_path = tmp_path / "curves.csv"
        assert dispatch(["report", "--metrics", str(metrics), "--out", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {metrics} line 2: {reason}")
        assert err.count("\n") == 1
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "blob,reason",
        [
            (b"not a checkpoint", "checkpoint too short"),
            (b"\x07" * 24, "unsupported checkpoint version"),
            # A valid header over an empty table: no bucket to sample from.
            (struct.pack("<5I", 1, 3, 0, 14, 13), "logits table must hold at least"),
            # A context order no config can train: sampling at it would
            # allocate a 16 TiB history.
            (
                struct.pack("<5I", 1, 2**32 - 1, 1, 14, 13) + bytes(4 * 14),
                "context order 4294967295 is above",
            ),
        ],
        ids=["too_short", "bad_version", "zero_buckets", "huge_context_order"],
    )
    def test_bad_checkpoint_exits_two(self, tmp_path, capsys, blob, reason):
        ckpt = tmp_path / "p.ckpt"
        ckpt.write_bytes(blob)
        assert dispatch(["eval", "--ckpt", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "vocab", [Vocab(20, 19), Vocab(14, 2)], ids=["20_ids", "eos_2"]
    )
    def test_checkpoint_of_another_vocabulary_exits_two(self, tmp_path, capsys, vocab):
        # A well-formed checkpoint whose token ids are not the tasks': 20 ids
        # cannot be decoded into answers, and with eos 2 every response
        # would be scored as truncated.
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(PolicyParams.uniform(vocab, 4, 64), str(ckpt))
        args = ["eval", "--ckpt", str(ckpt), "--k", "4", "--n-tasks", "5", "--max-len", "6"]
        assert dispatch(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {ckpt}: vocabulary of {vocab.size} ids with eos {vocab.eos} "
            "is not the tasks' 14 ids with eos 13\n"
        )


@pytest.fixture
def inputs(tmp_path):
    """One valid input file of each kind the commands read."""
    paths = {
        "records": tmp_path / "in.jsonl",
        "pairs": tmp_path / "pairs.jsonl",
        "metrics": tmp_path / "metrics.jsonl",
        "ckpt": tmp_path / "p.ckpt",
        "config": tmp_path / "config.json",
        "out": tmp_path / "out.jsonl",
    }
    write_records(
        [ProblemRecord(id="a", question="what is one", answer="1")], str(paths["records"])
    )
    paths["pairs"].write_text(json.dumps({"gold": "1", "pred": "1"}) + "\n")
    paths["metrics"].write_text(json.dumps({"step": 1, "stage": 0}) + "\n")
    save_checkpoint(init_policy(micro_train_config()), str(paths["ckpt"]))
    write_config(paths["config"], micro_train_config())
    return {name: str(path) for name, path in paths.items()}


def command(template, **paths):
    return [part.format(**paths) for part in template.split()]


class TestRecordedInputs:
    def test_report_columns_are_the_metrics_record_fields(self, inputs, monkeypatch):
        # The CSV's columns come from ``MetricsRecord``, so a field added
        # there is a column without another edit.
        names = [f.name for f in dataclasses.fields(trainer.MetricsRecord)]
        assert dispatch(command("report --metrics {metrics} --out {out}", **inputs)) == 0
        with open(inputs["out"]) as fh:
            assert fh.readline().rstrip("\n").split(",") == names

        @dataclasses.dataclass(frozen=True)
        class Wider(trainer.MetricsRecord):
            clip_low: float = 0.0

        monkeypatch.setattr(trainer, "MetricsRecord", Wider)
        assert dispatch(command("report --metrics {metrics} --out {out}", **inputs)) == 0
        with open(inputs["out"]) as fh:
            assert fh.readline().rstrip("\n").split(",") == names + ["clip_low"]

    @pytest.mark.parametrize(
        "change",
        ["--max-len 5", "--n-tasks 3", "--config {config}", "--seed 1", "--k 3"],
        ids=["max_len", "n_tasks", "config", "seed", "k"],
    )
    def test_eval_manifest_hashes_every_score_input(self, tmp_path, inputs, change):
        # Two evaluations whose scores may differ never share a config_hash.
        other = TrainConfig(task=TaskSpec("modular-mul", 7))
        write_config(inputs["config"], other)
        base = "eval --ckpt {ckpt} --k 2 --n-tasks 2 --max-len 4 --seed 0 --manifest {out}"
        hashes = []
        for template in (base, f"{base} {change}"):
            assert dispatch(command(template, **inputs)) == 0
            with open(inputs["out"]) as fh:
                hashes.append(json.load(fh)["config_hash"])
        assert hashes[0] != hashes[1]


class TestOutputsAndNumbers:
    @pytest.mark.parametrize(
        "template",
        [
            "curate --in {records} --out {bad}",
            "curate --in {records} --out {out} --report {bad}",
            "verify --pairs {pairs} --out {bad}",
            "verify --gold 1 --pred 1 --manifest {bad}",
            "report --metrics {metrics} --out {bad}",
            "eval --ckpt {ckpt} --k 2 --n-tasks 2 --max-len 4 --manifest {bad}",
            "train --config {config} --out-dir {bad}",
        ],
        ids=[
            "curate_out",
            "curate_report",
            "verify_out",
            "verify_manifest",
            "report_out",
            "eval_manifest",
            "train_out_dir",
        ],
    )
    def test_unwritable_output_exits_two(self, tmp_path, capsys, inputs, template):
        # A missing directory, or for train (which creates missing
        # directories) a directory path through a regular file.
        bad = tmp_path / "nodir" / "x"
        if template.startswith("train"):
            (tmp_path / "file").write_text("")
            bad = tmp_path / "file" / "run"
        assert dispatch(command(template, bad=bad, **inputs)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "template,message",
        [
            ("curate --in {records} --out {out} --ngram 0", "--ngram must be positive, got 0"),
            # A jaccard of nan, inf or 2 turned near-dedup off, and a negative
            # answer cap excluded every record; both exited 0.
            (
                "curate --in {records} --out {out} --jaccard nan",
                "--jaccard must be in [0, 1], got nan",
            ),
            (
                "curate --in {records} --out {out} --jaccard inf",
                "--jaccard must be in [0, 1], got inf",
            ),
            (
                "curate --in {records} --out {out} --jaccard 2",
                "--jaccard must be in [0, 1], got 2.0",
            ),
            (
                "curate --in {records} --out {out} --max-answer-chars -5",
                "--max-answer-chars must be >= 0, got -5",
            ),
            ("eval --ckpt {ckpt} --k 0", "--k must be positive, got 0"),
            ("eval --ckpt {ckpt} --temperature 0", "--temperature must be positive, got 0.0"),
            ("eval --ckpt {ckpt} --temperature nan", "--temperature must be positive, got nan"),
            ("eval --ckpt {ckpt} --temperature inf", "--temperature must be finite, got inf"),
            ("eval --ckpt {ckpt} --max-len 0", "--max-len must be positive, got 0"),
            ("eval --ckpt {ckpt} --n-tasks 0", "--n-tasks must be positive, got 0"),
            ("eval --ckpt {ckpt} --seed -1", "--seed must be >= 0, got -1"),
            ("train --config {config} --out-dir {out} --seed -1", "--seed must be >= 0, got -1"),
        ],
        ids=[
            "ngram",
            "jaccard_nan",
            "jaccard_inf",
            "jaccard_two",
            "max_answer_chars",
            "k",
            "temperature",
            "temperature_nan",
            "temperature_inf",
            "max_len",
            "n_tasks",
            "eval_negative_seed",
            "train_negative_seed",
        ],
    )
    def test_nonpositive_number_exits_two(self, capsys, inputs, template, message):
        assert dispatch(command(template, **inputs)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(inputs["out"])

    @pytest.mark.parametrize(
        "flag,name,cap",
        [
            ("--k", "k", config.MAX_EVAL_K),
            ("--max-len", "max_len", config.MAX_EVAL_LEN),
            ("--n-tasks", "n_tasks", config.MAX_EVAL_TASKS),
        ],
    )
    def test_eval_size_past_cap_exits_two(
        self, monkeypatch, capsys, inputs, flag, name, cap
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated sizes past a cap")

        monkeypatch.setattr(trainer, "evaluate", refuse)
        template = f"eval --ckpt {{ckpt}} --manifest {{out}} {flag} {cap + 1}"
        assert dispatch(command(template, **inputs)) == 2
        assert capsys.readouterr().err == f"error: {name} must be <= {cap}, got {cap + 1}\n"
        assert not os.path.exists(inputs["out"])
