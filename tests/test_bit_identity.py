"""Every run of ``bit_reference.py`` keeps the bits stored in
``bit_reference.json``: the returned iterate's bytes, the SHA-256 of
``repr(records)`` and the last record.  Under a NumPy or BLAS other than the
reference's, the iterate and the last record are compared to 1e-12 relative
instead, and the test says so on the terminal."""

import json
import math

import numpy as np
import pytest

from bit_reference import CASES, REFERENCE, environment, main, run_case, summarize

REF = json.loads(REFERENCE.read_text())
SAME_ENVIRONMENT = REF["environment"] == environment()
_announced = []


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return got == want or (math.isnan(got) and math.isnan(want)) or (
        abs(got - want) <= 1e-12 * abs(want))


def _differences(got: dict, want: dict, exact: bool) -> list:
    """What differs between two run summaries; bytes and hashes when
    ``exact``, otherwise values to 1e-12 relative."""
    if exact:
        return [key for key in want if got[key] != want[key]]
    x_got, x_want = (np.frombuffer(bytes.fromhex(s["x"]), "<f8") for s in (got, want))
    out = [] if got["n_records"] == want["n_records"] else ["n_records"]
    if x_got.shape != x_want.shape or not all(map(_close, x_got, x_want)):
        out.append("x")
    return out + [f"last_record.{k}" for k, v in want["last_record"].items()
                  if not _close(got["last_record"][k], v)]


def test_reference_covers_every_case():
    assert list(REF["runs"]) == list(CASES)
    assert REF["reason"].strip()


@pytest.mark.parametrize("name", list(CASES))
def test_run_keeps_its_bits(name, capsys):
    if not SAME_ENVIRONMENT and not _announced:
        _announced.append(name)
        with capsys.disabled():
            print(f"\nbit reference made under {REF['environment']}, running under "
                  f"{environment()}: the looser 1e-12 relative check runs, not bytes")
    got = summarize(*run_case(name))
    assert _differences(got, REF["runs"][name], SAME_ENVIRONMENT) == []


def test_looser_check_sees_a_change_beyond_1e_12():
    want = REF["runs"]["quadratic/practical/sustain"]
    got = summarize(*run_case("quadratic/practical/sustain"))
    assert _differences(got, want, exact=False) == []
    x = np.frombuffer(bytes.fromhex(got["x"]), "<f8") * (1 + 1e-11)
    moved = dict(got, x=x.astype("<f8").tobytes().hex(),
                 last_record=dict(got["last_record"], alpha=got["last_record"]["alpha"] * 2))
    assert _differences(moved, want, exact=False) == ["x", "last_record.alpha"]
    assert _differences(moved, want, exact=True) == ["x", "last_record"]


@pytest.mark.parametrize("argv", [[], ["--reason", " "]])
def test_regeneration_refuses_without_a_reason(argv, capsys):
    before = REFERENCE.read_bytes()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "--reason" in capsys.readouterr().err
    assert REFERENCE.read_bytes() == before
