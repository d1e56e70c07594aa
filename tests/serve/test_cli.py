"""``python -m repro serve`` flag handling, short of binding a socket."""

import pytest

from repro.serve.cli import build_parser, main

#: Every option ``repro serve`` accepts.  Admission knobs beyond the
#: queue depth were removed on purpose; re-adding one must change this
#: set.
SERVE_OPTIONS = {
    "-h", "--help", "--host", "--port", "--workers", "--queue-depth",
    "--drain-grace", "--ready-file", "--summary-out", "--verbose",
    "--cache-dir", "--task-timeout", "--max-retries", "--inject",
    "--resume",
}


def test_option_strings_are_pinned():
    options = {option for action in build_parser()._actions
               for option in action.option_strings}
    assert options == SERVE_OPTIONS


@pytest.mark.parametrize("flags", [["--rate", "5"],
                                   ["--breaker-threshold", "2"]])
def test_removed_knobs_are_usage_errors(flags, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--port", "0", "--cache-dir", str(tmp_path / "cache"), *flags])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--task-timeout", "0"], "task_timeout"),
    (["--max-retries", "-1"], "max_retries"),
    (["--inject", "sweep:figure7/*=explode"], "inject"),
    (["--workers", "0"], "workers"),
])
def test_bad_flags_exit_2_before_serving(flags, message, tmp_path, capsys):
    ready = tmp_path / "addr"
    status = main(["--port", "0", "--ready-file", str(ready),
                   "--cache-dir", str(tmp_path / "cache"), *flags])
    assert status == 2
    assert message in capsys.readouterr().err
    assert not ready.exists()
