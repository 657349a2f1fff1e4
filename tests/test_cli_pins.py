"""The command-line contract, pinned byte for byte.

Each record of ``cli_pins.json`` holds an argv, its exit code, its exact
stdout, and, for a refusal, the prefix of its stderr (a run that succeeds
writes nothing there), with the reason it is pinned. Every record runs
in-process through ``run``, and again as ``python -m wittkit.cli`` in a fresh
interpreter, within its ``timeout`` (60 s unless the record sets one).
"""

import json
import pathlib

import pytest
from test_cli import go, run_child

PINS = json.loads((pathlib.Path(__file__).parent / "cli_pins.json").read_text(encoding="utf-8"))
IDS = [" ".join(pin["argv"]) for pin in PINS]


def assert_pinned(pin, code, out, err):
    assert (code, out) == (pin["exit"], pin["stdout"]), (pin["reason"], err)
    assert err.startswith(pin["stderr_prefix"]) if "stderr_prefix" in pin else err == "", err


def test_pins_are_well_formed():
    assert len(PINS) == len(set(IDS)) == 37
    for pin in PINS:
        assert set(pin) <= {"argv", "exit", "stdout", "stderr_prefix", "timeout", "reason"}, pin
        assert pin["reason"] and pin["exit"] in (0, 1, 2), pin
        assert (pin["exit"] == 1) == ("stderr_prefix" in pin) == (pin["stdout"] == ""), pin


@pytest.mark.parametrize("pin", PINS, ids=IDS)
def test_pinned_run(pin):
    assert_pinned(pin, *go(*pin["argv"]))


@pytest.mark.parametrize("pin", PINS, ids=IDS)
def test_pinned_run_in_a_fresh_interpreter(pin):
    done = run_child("-m", "wittkit.cli", *pin["argv"], timeout=pin.get("timeout", 60))
    assert_pinned(pin, done.returncode, done.stdout, done.stderr)


def test_a_one_byte_edit_to_a_pinned_output_fails():
    pin = next(p for p in PINS if p["exit"] == 0)
    code, out, err = go(*pin["argv"])
    for edited in (dict(pin, stdout=pin["stdout"][:-1]),
                   dict(pin, stdout=pin["stdout"].replace("Z", "X", 1)),
                   dict(pin, exit=2)):
        with pytest.raises(AssertionError):
            assert_pinned(edited, code, out, err)
