"""Sweeping commands take no worker-count option."""

import pytest


@pytest.mark.parametrize("command", ["tune"])
def test_cli_sweeps_take_no_workers_option(command, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main([command, "--workers", "2"])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err
