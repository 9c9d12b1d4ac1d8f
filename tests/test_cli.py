import shutil
from dataclasses import replace

import pytest
from test_network import BENCH_PARAMS, HEADER_FAULTS, append_to_payload, rewrite_header

from argsynth import cli, trainer
from argsynth.config import _file_keys
from argsynth.network import checkpoint_save, dims_for_library, init_params
from argsynth.programs import build_library

# A run small enough for a test: one short iteration, a two-length grid.
TINY = """\
iterations = 1
episodes_per_iteration = 2
simulations = 8
nested_simulations = 4
train_length_max = 3
batch_size = 4
eval_lengths = 5,6
eval_trials = 2
"""


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def tiny_file(tmp_path):
    return write(tmp_path / "tiny.cfg", TINY)


def saved_params(path, mode="args"):
    lib = build_library(mode)
    checkpoint_save(init_params(0, dims_for_library(lib)), None, lib.manifest(), path)
    return str(path)


def test_train_writes_its_four_files(tmp_path, tiny_file, capsys):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", tiny_file, "--output-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint.ckpt", "failed_envs.txt", "metrics.csv", "search_stats.csv"]
    assert len((out / "metrics.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("weight,message", [("value_w", "non-finite leaf value"),
                                            ("prog_w", "non-finite prior mass")])
def test_a_network_that_outputs_nan_is_a_runtime_failure(
        tmp_path, tiny_file, capsys, monkeypatch, weight, message):
    real = trainer.init_params

    def nan_params(seed, dims):
        params = real(seed, dims)
        params.arrays[weight][...] = float("nan")
        return params

    monkeypatch.setattr(trainer, "init_params", nan_params)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", tiny_file, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_eval_of_a_network_that_outputs_nan_is_a_runtime_failure(tmp_path, tiny_file, capsys):
    lib = build_library("args")
    params = init_params(0, dims_for_library(lib))
    params.arrays["prog_w"][...] = float("nan")
    checkpoint_save(params, None, lib.manifest(), tmp_path / "nan.ckpt")
    assert cli.main(["eval", "--config", tiny_file, "--checkpoint", str(tmp_path / "nan.ckpt"),
                     "--out", str(tmp_path / "acc.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite greedy choice" in err
    assert "Traceback" not in err


def test_eval_on_a_saved_checkpoint(tmp_path, tiny_file, capsys):
    ckpt = saved_params(tmp_path / "p.ckpt")
    out = tmp_path / "acc.csv"
    assert cli.main(["eval", "--config", tiny_file, "--checkpoint", ckpt,
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "program,length,accuracy" and len(lines) == 1 + 4 * 2


def test_eval_without_out_writes_the_table_to_stdout(tmp_path, tiny_file, capsys):
    ckpt = saved_params(tmp_path / "p.ckpt")
    assert cli.main(["eval", "--config", tiny_file, "--checkpoint", ckpt]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "program,length,accuracy" and len(lines) == 1 + 4 * 2
    assert not list(tmp_path.glob("*.csv"))


def test_run_on_a_saved_checkpoint(tmp_path, capsys):
    ckpt = saved_params(tmp_path / "p.ckpt")
    assert cli.main(["run", "--program", "partition", "--list", "3,1,2",
                     "--checkpoint", ckpt]) == 0
    assert "reward:" in capsys.readouterr().out


def test_oracle_check_passes(capsys):
    assert cli.main(["oracle-check", "--trials", "5"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_missing_checkpoint_is_a_runtime_failure(tmp_path, capsys):
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt")]) == 1
    assert "checkpoint not found" in capsys.readouterr().err


def test_checkpoint_of_the_other_library_is_a_runtime_failure(tmp_path, capsys):
    ckpt = saved_params(tmp_path / "noargs.ckpt", mode="noargs")
    assert cli.main(["eval", "--checkpoint", ckpt]) == 1
    assert "does not match" in capsys.readouterr().err


def test_bad_config_is_a_usage_error(tmp_path, capsys):
    bad = write(tmp_path / "bad.cfg", "simulations = 0\n")
    assert cli.main(["train", "--config", bad, "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: line 1")


def test_a_removed_switch_in_a_file_is_a_usage_error(tmp_path, capsys):
    bad = write(tmp_path / "bad.cfg", TINY + "value_from_failures = yes\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", bad, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: line 9: unknown key 'value_from_failures'")
    assert not out.exists()


def test_a_key_set_twice_in_a_file_is_a_usage_error(tmp_path, capsys):
    bad = write(tmp_path / "bad.cfg", TINY + "simulations = 20\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", bad, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: line 9: key 'simulations' already set on line 3")
    assert not out.exists()


def test_unknown_program_is_a_usage_error(tmp_path, capsys):
    ckpt = saved_params(tmp_path / "p.ckpt")
    assert cli.main(["run", "--program", "bubblesort", "--list", "3,1,2",
                     "--checkpoint", ckpt]) == 2
    assert "unknown program" in capsys.readouterr().err


def test_negative_seed_in_a_file_is_a_usage_error(tmp_path, capsys):
    bad = write(tmp_path / "bad.cfg", TINY + "seed = -1\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", bad, "--output-dir", str(out)]) == 2
    assert "seed" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("text", ["inf", "-inf", "1e400"])
@pytest.mark.parametrize(
    "key", sorted(k for k, (_, _, kind) in _file_keys().items() if kind is float))
def test_non_finite_float_in_a_file_is_a_usage_error(tmp_path, capsys, key, text):
    bad = write(tmp_path / "bad.cfg", TINY + f"{key} = {text}\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", bad, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 9") and key in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--iterations", "0")])
def test_bad_override_is_a_usage_error(tmp_path, tiny_file, capsys, flag, value):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", tiny_file, flag, value,
                     "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag[2:] in err
    assert not out.exists()


@pytest.mark.parametrize("values", ["42,1", "5", "3,-1,2"])
def test_bad_list_is_a_usage_error_before_the_checkpoint_loads(tmp_path, capsys, values):
    absent = str(tmp_path / "absent.ckpt")
    assert cli.main(["run", "--program", "partition", "--list", values,
                     "--checkpoint", absent]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid list") and "not found" not in err


def test_a_list_that_is_not_integers_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["run", "--program", "partition", "--list", "1,x",
                     "--checkpoint", str(tmp_path / "absent.ckpt")]) == 2
    assert capsys.readouterr().err == "config error: invalid list literal '1,x'\n"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_oracle_check_without_trials_is_a_usage_error(capsys, trials):
    assert cli.main(["oracle-check", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "trials" in captured.err


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\n\xff\xfe bad\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(bad), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {bad}: not UTF-8 text (byte 0xff at offset 9)\n"
    assert not out.exists()


@pytest.mark.parametrize("fault", ["extra_dims_key", "missing_arrays_key", "list_header",
                                   "transposed_array", "hidden_64"])
def test_a_checkpoint_header_that_lies_is_a_runtime_failure(tmp_path, capsys, fault):
    ckpt = tmp_path / "params.ckpt"
    shutil.copyfile(BENCH_PARAMS, ckpt)
    rewrite_header(ckpt, HEADER_FAULTS[fault][0])
    assert cli.main(["run", "--program", "partition", "--list", "3,1,2",
                     "--checkpoint", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {ckpt}: ") and captured.err.count("\n") == 1


def test_a_checkpoint_whose_dims_this_build_cannot_run_is_a_runtime_failure(tmp_path, capsys):
    lib = build_library("args")
    ckpt = tmp_path / "p.ckpt"
    dims = replace(dims_for_library(lib), args=32)
    checkpoint_save(init_params(0, dims), None, lib.manifest(), ckpt)
    assert cli.main(["run", "--program", "quicksort", "--list", "3,1,2",
                     "--checkpoint", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {ckpt}: network dims {{'args': 32}} do not fit")


def test_a_checkpoint_with_bytes_beyond_its_arrays_is_a_runtime_failure(tmp_path, capsys):
    ckpt = tmp_path / "params.ckpt"
    shutil.copyfile(BENCH_PARAMS, ckpt)
    append_to_payload(ckpt, b"\0" * 16)
    assert cli.main(["eval", "--checkpoint", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt}: 16 payload bytes beyond the arrays the header lists\n"


@pytest.mark.parametrize("line,message", [
    ("checkpoint =", "'checkpoint' out of range"),
    ("checkpoint = sub/", "'checkpoint' out of range"),
    ("output_dir =", "'output_dir' out of range"),
    ("checkpoint = sub", "is a directory"),
])
def test_a_checkpoint_path_that_cannot_be_written_is_a_usage_error(
        tmp_path, capsys, line, message):
    bad = write(tmp_path / "bad.cfg", TINY + line + "\n")
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    assert cli.main(["train", "--config", bad, "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err
    assert not (out / "metrics.csv").exists()


def test_a_checkpoint_in_a_subdirectory_is_written_there(tmp_path, capsys):
    run = write(tmp_path / "run.cfg", TINY + "checkpoint = sub/x.ckpt\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", run, "--output-dir", str(out)]) == 0
    assert (out / "sub" / "x.ckpt").is_file() and (out / "metrics.csv").is_file()


@pytest.mark.parametrize("program", ["quicksort", "quicksort_update"])
def test_run_a_trained_quicksort_program(capsys, program):
    assert cli.main(["run", "--program", program, "--list", "3,1,2",
                     "--checkpoint", str(BENCH_PARAMS)]) == 0
    assert capsys.readouterr().out.endswith("reward: 1\n")


def test_oracle_check_skips_the_quicksorts_without_arguments(tmp_path, capsys):
    noargs = write(tmp_path / "noargs.cfg", "library = noargs\n")
    assert cli.main(["oracle-check", "--config", noargs, "--trials", "5"]) == 0
    out = capsys.readouterr().out
    for program in ("quicksort", "quicksort_update"):
        assert f"{program}: SKIP" in out
    assert "FAIL" not in out
