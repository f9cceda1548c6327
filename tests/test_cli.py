import json
import os
import re
import subprocess
import sys

import pytest

from restorect import checks, cli
from restorect import distill_harness as dh


def small_config_file(tmp_path, **overrides):
    cfg = dict(seed=7, phase1_iters=25, phase2_iters=20, dataset_size=10,
               holdout_size=4, batch_size=4, log_interval=10, compare_count=24,
               ddim_iters=25, image_size=8, channels=8)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_help_lists_flags(capsys):
    """Each command takes exactly the flags its handler reads."""
    config = {"--config", "--seed", "--out"}
    for command, flags in (("check", {"--out", "--format"}), ("grad-check", {"--out", "--format"}),
                           ("train-phase1", config), ("train-phase2", config),
                           ("distill", config), ("compare-samplers", config | {"--steps"}),
                           ("demo-hvi", {"--out"}), ("demo-diffusion", config)):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z]+", out)) - {"--help"} == flags, command


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--bogus"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_train_commands_require_config(capsys):
    for command in ("train-phase1", "train-phase2", "distill"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


def test_demo_hvi_writes_sweep(tmp_path):
    assert cli.main(["demo-hvi", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "hvi_hue_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "hue,h_polar,v_polar,i_polar"
    assert len(lines) > 100


def test_demo_diffusion_writes_response(tmp_path):
    assert cli.main(["demo-diffusion", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "diffusion_edge_response.csv").read_text().splitlines()[0]
    assert header.startswith("x,input,response_")


@pytest.fixture
def small_registry(monkeypatch):
    """Three stand-in checks, so the check commands run in milliseconds."""
    monkeypatch.setattr(checks, "CHECKS", [
        ("fd_stub", lambda: (True, "exact")),
        ("inv_stub", lambda: (True, "exact")),
        ("inv_broken", lambda: (False, "wrong on purpose")),
    ])


def test_check_exits_1_and_lists_the_failing_check(tmp_path, small_registry):
    assert cli.main(["check", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["total"] == 3 and report["failed"] == ["inv_broken"]


def test_grad_check_passes_and_writes_report(tmp_path, small_registry):
    assert cli.main(["grad-check", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "grad_check_report.json").read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["fd_stub"]


def test_check_csv_format(tmp_path, small_registry):
    assert cli.main(["check", "--out", str(tmp_path), "--format", "csv"]) == 1
    lines = (tmp_path / "check_report.csv").read_text().splitlines()
    assert lines[0] == "name,passed,detail,ms"
    assert len(lines) == 4


def test_distill_then_compare_and_reproducibility(tmp_path, capsys, monkeypatch):
    config = small_config_file(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["distill", "--config", config, "--out", out_a]) == 0
    assert cli.main(["distill", "--config", config, "--out", out_b]) == 0
    for fname in ("phase1_metrics.csv", "phase2_metrics.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    # phase-2 alone reuses the phase-1 checkpoints
    assert cli.main(["train-phase2", "--config", config, "--out", out_a]) == 0

    # the per-phase commands share distill's set-up and writers: same bytes
    phases, whole = tmp_path / "phases", tmp_path / "b"
    for command in ("train-phase1", "train-phase2"):
        assert cli.main([command, "--config", config, "--out", str(phases)]) == 0
    names = [p.relative_to(whole) for p in sorted(whole.rglob("*"))
             if p.is_file() and p.name != "summary.json"]
    assert {n.parts[0] for n in names} == {"phase1_metrics.csv", "phase2_metrics.csv",
                                           "ckpt_vel_rex", "ckpt_vel_img", "ckpt_student"}
    for name in names:
        assert (phases / name).read_bytes() == (whole / name).read_bytes(), name

    # sampler table rows: |steps| x 2, reusing checkpoints from the distill run
    capsys.readouterr()
    assert cli.main(["compare-samplers", "--config", config, "--out", out_a,
                     "--steps", "1,2"]) == 0
    lines = (tmp_path / "a" / "samplers.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert (tmp_path / "a" / "samplers_timing.csv").exists()


def test_non_default_feature_dim_runs(tmp_path):
    config = small_config_file(tmp_path, feature_dim=32, phase1_iters=5, phase2_iters=5)
    for command in ("distill", "compare-samplers"):
        assert cli.main([command, "--config", config, "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("command,bad", [("distill", {"holdout_size": -2}),
                                         ("distill", {"phase1_iters": 0}),
                                         ("train-phase1", {"phase1_iters": 0}),
                                         ("compare-samplers", {"phase1_iters": 0}),
                                         ("compare-samplers", {"ddim_iters": 0}),
                                         ("compare-samplers", {"sampler_steps": []}),
                                         ("distill", {"phase2_iters": 0}),
                                         ("train-phase2", {"phase2_iters": 0}),
                                         ("distill", {"holdout_size": 0}),
                                         ("train-phase1", {"phase1_iters": 2.5}),
                                         ("train-phase1", {"batch_size": 2.5}),
                                         ("train-phase1", {"image_size": 8.0}),
                                         ("train-phase1", {"lr_rex": "0.1"}),
                                         ("train-phase1", {"sampler_steps": 3}),
                                         ("train-phase1", {"seed": 1.5}),
                                         ("train-phase1", {"seed": True}),
                                         ("compare-samplers", {"sampler_steps": [2.0]})])
def test_unusable_config_exits_1_before_training(tmp_path, capsys, monkeypatch, command, bad):
    # the config rejects these values when it is built, before any training
    monkeypatch.setattr(dh, "train_phase1", lambda exp: pytest.fail("phase 1 ran"))
    config = small_config_file(tmp_path, **bad)
    assert cli.main([command, "--config", config, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    (field,) = bad
    assert err.startswith(f"restorect {command}: ") and err.count("\n") == 1, err
    assert field in err
    assert not list(tmp_path.glob("run/*.csv"))


def test_diverging_adam_exits_1_naming_the_param(tmp_path, capsys):
    config = small_config_file(tmp_path, phase1_iters=5, phase2_iters=2, lr_rex=1e2, lr_img=1e2)
    assert cli.main(["distill", "--config", config, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "restorect distill: adam: second moment of vel_" in err


def test_op_level_floating_point_error_exits_1_without_traceback(tmp_path, capsys):
    config = small_config_file(tmp_path, phase1_iters=5, phase2_iters=2, lr_rex=1e4, lr_img=1e4)
    assert cli.main(["distill", "--config", config, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("restorect distill: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("lr", [1e2, 1e4])
def test_diverging_run_prints_one_stderr_line_in_a_fresh_process(tmp_path, lr):
    """Outside pytest nothing captures numpy's RuntimeWarnings, so only a
    fresh interpreter shows what a user sees on stderr."""
    config = small_config_file(tmp_path, phase1_iters=5, phase2_iters=2, lr_rex=lr, lr_img=lr)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "restorect.cli", "distill", "--config", config,
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("restorect distill: "), proc.stderr


def test_same_bytes_at_any_blas_thread_count(tmp_path):
    """The package pins BLAS to one thread, so the thread count the
    environment asks for cannot reach a matmul's low-order bits."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phase1_iters": 30, "phase2_iters": 30, "log_interval": 10}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "restorect.cli", "distill", "--config", str(config),
                        "--out", str(out)], check=True, capture_output=True, env=env, timeout=300)
        outputs.append({str(f.relative_to(out)): f.read_bytes()
                        for f in sorted(out.rglob("*")) if f.is_file()})
    assert "phase1_metrics.csv" in outputs[0] and "ckpt_student/param_0000.bin" in outputs[0]
    assert outputs[0] == outputs[1]


def test_train_phase2_without_checkpoints_fails(tmp_path, capsys):
    config = small_config_file(tmp_path)
    code = cli.main(["train-phase2", "--config", config, "--out", str(tmp_path / "empty")])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err.lower()


def test_compare_samplers_bad_steps(tmp_path, capsys):
    assert cli.main(["compare-samplers", "--out", str(tmp_path), "--steps", "1,9"]) == 2
    assert cli.main(["compare-samplers", "--out", str(tmp_path), "--steps", "x"]) == 2


def test_seed_precedence_env_and_flag(tmp_path, monkeypatch):
    config = small_config_file(tmp_path, seed=7)

    class Args:
        pass

    args = Args()
    args.config = config
    args.seed = None
    monkeypatch.delenv("RESTORECT_SEED", raising=False)
    assert cli.resolve_config(args).seed == 7
    monkeypatch.setenv("RESTORECT_SEED", "11")
    assert cli.resolve_config(args).seed == 11  # env overrides config
    args.seed = 13
    assert cli.resolve_config(args).seed == 13  # flag wins over env
