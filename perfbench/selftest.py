"""Self-test of the benchmark, at tiny run lengths.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, runs through the real command
   line for one second and prints every metric BENCHMARK.json names, with
   its unit, and no operation fails.
2. A planted wrong answer (a bound above the known Schmidt number) in each
   workload is counted as a failed operation, so the oracles catch errors.

Exits 0 when every check passes and 1 otherwise.
"""

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SEED = 3
problems = []


def check(cond, message):
    if not cond:
        problems.append(message)
        print(f"FAIL {message}")


def check_cli_run(spec, workload, trace):
    listed = spec["per_layer" if trace else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    tag = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{tag}: exit code {proc.returncode}: "
                                f"{proc.stderr.strip()}")
    if proc.returncode != 0:
        return
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result["failed"] == 0 and result["correct"],
          f"{tag}: {result['failed']} of {result['attempted']} ops failed")
    check(set(result["metrics"]) == {m["name"] for m in listed},
          f"{tag}: metrics differ from BENCHMARK.json")
    table = {ln.split()[0]: ln.split()[1:] for ln in lines[:-1]
             if not ln.startswith("#")}
    for m in listed:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"], f"{tag}: unit of {m['name']}")
        row = table.get(m["name"])
        check(row is not None and row[1] == m["unit"],
              f"{tag}: {m['name']} not printed with its unit")
    fail_row = table.get("fail_frac")
    check(fail_row is not None and float(fail_row[0]) == 0.0,
          f"{tag}: fail_frac not printed as 0")
    print(f"ok   {tag}: {result['attempted']} ops")


@contextlib.contextmanager
def planted(obj, attr, fake):
    original = getattr(obj, attr)
    setattr(obj, attr, fake)
    try:
        yield
    finally:
        setattr(obj, attr, original)


def check_planted(dc):
    def too_high(criterion, d):
        return dc.SchmidtCertificate(criterion, d, 1.0)

    plants = {
        # compare_all looks sn_ccnr up in the criteria module
        "certify_exact": (dc.criteria, "sn_ccnr",
                          lambda rho: too_high("ccnr", rho.dim_a)),
        # detect_with_confidence uses randsim's own binding
        "detect_haar": (dc.randsim, "classify_point",
                        lambda s2, s4, d, **kw: too_high("moments", d)),
    }
    for name, (obj, attr, fake) in plants.items():
        wl = run.workloads.make(name, dc)
        inputs = wl.make_inputs(SEED)
        with planted(obj, attr, fake):
            tally = run.measure(wl, inputs, 1.0, min_ops=8)
        check(tally.failed > 0,
              f"{name}: planted wrong bound not caught in "
              f"{tally.attempted} ops")
        print(f"ok   {name}: planted wrong bound failed {tally.failed} of "
              f"{tally.attempted} ops")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())["layers"]
    for trace in (0, 1):
        for w in spec["workloads"]:
            check_cli_run(spec, w["name"], trace)
    check_planted(run.load_dimcert())
    missing = {m["name"] for m in spec["per_layer"]} - set(layer_map)
    check(not missing, f"layers.json does not map {sorted(missing)}")
    if problems:
        print(f"{len(problems)} self-test check(s) failed")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
