"""Property-based fuzz of the CLI's exit-code contract.

Every subcommand, given any mix of flags and any state-file contents,
must end with exit code 0 (success), 1 (invalid input or I/O failure) or
2 (numerical failure) and must never let an exception escape as a
traceback. Each example starts from a valid invocation and may break it:
drop a token, swap a value for junk, or add a stray token. Sizes (d, n,
grid) stay small so each run is quick; the fuzz is about malformed input,
not large input.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dimcert.cli import main
from dimcert.states import random_mixed

JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "1.5", "0x10",
                        "--", "-1", "0", "٣", "--d", "--bogus", "2,,3"])
FILE, OUT = "<state file>", "<output>"


def num(draw, lo, hi):
    return str(draw(st.integers(lo, hi)))


def real(draw, lo, hi):
    return repr(draw(st.floats(lo, hi)))


def opt(draw, *tokens):
    return list(tokens) if draw(st.booleans()) else []


def state_flags(draw):
    """Flags naming one valid state, of equal local dimensions."""
    name = draw(st.sampled_from([
        "file", "max-entangled", "isotropic", "rho-w", "family-a",
        "family-b", "family-c", "family-d", "random-pure", "random-mixed"]))
    if name == "file":
        return ["--state-file", FILE]
    argv = ["--state", name]
    d = draw(st.integers(2, 5))
    if name in ("max-entangled", "isotropic", "random-pure", "random-mixed"):
        argv += ["--d", str(d)]
    if name in ("isotropic", "family-a", "family-d"):
        argv += ["--p", real(draw, 0.0, 1.0)]
    if name == "family-b":
        argv += ["--lambda", real(draw, 0.5, 1.0)]
    if name == "family-c":
        argv += ["--lambda", real(draw, 0.34, 0.5)]
    if name in ("max-entangled", "random-pure"):
        argv += opt(draw, "--r", num(draw, 1, d))
    if name == "random-mixed":
        argv += ["--r", num(draw, 1, d * d)]
    return argv


def path_flags(draw):
    # the Haar path needs odd d, which not every drawn state has
    return opt(draw, "--k", real(draw, 0.0, 6.0)) + [
        "--path", draw(st.sampled_from(["haar", "bloch"]))]


def valid_argv(draw):
    command = draw(st.sampled_from(
        ["boundary", "certify", "simulate", "scatter", "noise-tolerance"]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    seed = opt(draw, "--seed", num(draw, 0, 2 ** 32))
    if command == "boundary":
        d = draw(st.integers(2, 5))
        r = ",".join(map(str, draw(st.lists(st.integers(1, d), min_size=1))))
        return (["boundary", "--d", str(d)] + opt(draw, "--r", r)
                + opt(draw, "--grid", num(draw, 2, 30)) + opt(draw, "--format", fmt))
    if command == "certify":
        return ["certify"] + state_flags(draw) + seed
    if command == "simulate":
        return (["simulate"] + state_flags(draw) + ["--n", num(draw, 100, 300)]
                + seed + path_flags(draw) + opt(draw, "--samples-out", OUT))
    if command == "scatter":
        return (["scatter", "--d", num(draw, 2, 4), "--n", num(draw, 1, 20)]
                + seed + opt(draw, "--format", fmt))
    d = draw(st.integers(3, 5))
    return (["noise-tolerance", "--d", str(d), "--r", num(draw, 2, d),
             "--n", num(draw, 100, 200)] + seed + path_flags(draw))


@st.composite
def invocations(draw):
    argv = valid_argv(draw) + opt(draw, "--out", OUT)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(1, len(argv)))
        how = draw(st.sampled_from(["drop", "junk", "insert"]))
        if how == "insert" or i == len(argv):
            argv.insert(i, draw(JUNK))
        elif how == "drop":
            del argv[i]
        else:
            argv[i] = draw(JUNK)
    return argv


NUMBER = st.one_of(st.floats(-1.0, 1.0), st.integers(-2, 2),
                   st.sampled_from([float("nan"), float("inf"), 1e308]))
MATRIX = st.one_of(
    st.lists(st.lists(NUMBER, min_size=1, max_size=5), max_size=5),
    NUMBER, st.text(max_size=5), st.none())
STATE_OBJECT = st.fixed_dictionaries({}, optional={
    "dim_a": st.one_of(st.integers(-1, 4), st.booleans(), st.floats(1.5, 2.5)),
    "dim_b": st.one_of(st.integers(-1, 4), st.text(max_size=2)),
    "re": MATRIX, "im": MATRIX})


def valid_state(seed):
    m = random_mixed(2, 2, 1 + seed % 4, seed).matrix
    return {"dim_a": 2, "dim_b": 2, "re": m.real.tolist(), "im": m.imag.tolist()}


STATE_FILE = st.one_of(
    st.integers(0, 50).map(valid_state),
    STATE_OBJECT,
    st.lists(st.integers(), max_size=3),
).map(lambda obj: json.dumps(obj).encode()) | st.binary(max_size=40)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations(), STATE_FILE,
       st.sampled_from(["out.txt", os.path.join("missing", "out.txt"), "."]))
def test_cli_exit_codes_and_no_traceback(argv, state_bytes, out_name):
    with tempfile.TemporaryDirectory() as tmp:
        state_path = os.path.join(tmp, "state.json")
        with open(state_path, "wb") as fh:
            fh.write(state_bytes)
        paths = {FILE: state_path, OUT: os.path.join(tmp, out_name)}
        argv = [paths.get(tok, tok) for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    assert (code == 0) != bool(err.getvalue().strip()), (argv, code)
