"""``python -m repro serve`` flag handling, short of binding a socket."""

import pytest

from repro.serve.cli import main


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
