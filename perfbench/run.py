"""The repository benchmark: whole simulation runs, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hadoop --seed 1 --seconds 20 --trace 0

Each workload (see ``perfbench/catalog.json`` for why each was chosen)
derives a fixed number of inputs from ``--seed`` and simulates them as
batch jobs, one fresh single-threaded process per run
(``perfbench/workloads.py``), one run after another.  The simulator
receives only the generated inputs; the run cache is bypassed.

``--trace 0`` runs every input once, repeats the first, and keeps
cycling through the inputs until ``--seconds`` have passed.  It reports
the end-to-end metrics named in ``BENCHMARK.json``:

* host time, what the simulator costs: ``setup_s`` (trace generation,
  network build, VM placement and flow registration; median over
  runs), ``pkts_per_s`` (data packets the hosts sent, including packets
  the hybrid engine advanced analytically, per host second of the event
  loop, pooled over the inputs) and ``peak_rss_mb`` (median per-run
  process high-water mark);
* simulated time, what the modelled datacenter sees, pooled over the
  inputs: ``hit_rate`` (share of packets that never reached a gateway),
  ``fct_p50_us`` and ``fct_tail_us`` (the workload's tail percentile of
  flow completion times).

``--trace 1`` alternates untraced and traced runs of the first input
and reports the per-layer metrics: work counts read from public state
after the untraced run, and per-layer self time and calls from the
traced run, whose spans are written to ``perfbench/out/`` as Chrome
trace JSON.

Every invocation runs the correctness gate: completion and engine
checks per workload, a simulated-result digest that must repeat across
every run of one input (traced or not), the layer-separation check, and
on ``k32-hybrid`` the hybrid engine's error against a packet-fidelity
run of the first input.  The last stdout line is the JSON result; the
exit code is 0 only when the gate passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
#: Per-run wall-clock limit; the whole invocation must end within 180 s.
RUN_TIMEOUT_S = 150
#: No optional run starts when it could end past this point (the k32
#: packet-fidelity reference runs still follow the timed runs).
INVOCATION_BUDGET_S = 120
#: Share of a traced run's event-loop phase the traced spans may leave
#: uncovered: the phase also folds node counters into the collector
#: and, in service mode, drains flows and runs the horizon oracles.
LOOP_SLACK = 0.05
#: End-to-end metrics in simulated time; the others are host costs.
SIMULATED = {"hit_rate", "fct_p50_us", "fct_tail_us"}


def input_seeds(seed: int, count: int) -> list[int]:
    """The seeds of the inputs one invocation simulates."""
    return [seed * 1000 + index for index in range(count)]


def percentile(sorted_values: list[int], pct: float) -> float:
    """Nearest-rank percentile, the definition the collector uses."""
    index = min(len(sorted_values) - 1, int(pct / 100 * len(sorted_values)))
    return float(sorted_values[index])


def median_estimate(sorted_values: list[int]) -> float:
    """Mean of the central 1% of the values.

    Many flows share the median FCT to the nanosecond (single-packet
    flows on same-length paths), so the nearest-rank median of pooled
    inputs repeats exactly across seeds; this estimate resolves below
    the simulator's 1 ns clock.
    """
    n = len(sorted_values)
    low = int(0.495 * n)
    high = max(low + 1, int(0.505 * n))
    return statistics.fmean(sorted_values[low:high])


class Runner:
    """Starts one worker process per run and collects its outcome."""

    def __init__(self, workload: str, small: bool) -> None:
        self.workload = workload
        self.small = small
        self.started = time.perf_counter()
        self.env = dict(os.environ, REPRO_RUNCACHE="0")

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def run(self, seed: int, fidelity: str, trace: bool = False,
            trace_out: Path | None = None) -> dict:
        request = {"workload": self.workload, "seed": seed,
                   "fidelity": fidelity, "trace": trace,
                   "small": self.small,
                   "trace_out": str(trace_out) if trace_out else None}
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(request)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            env=self.env, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker failed on {request}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
class Gate:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def outcome_checks(self, outcome: dict, label: str) -> None:
        for name, ok in outcome["checks"].items():
            self.check(ok, f"{label}: {name}")

    def same_digest(self, outcomes: list[dict], label: str) -> None:
        digests = {outcome["digest"] for outcome in outcomes}
        self.check(len(digests) == 1,
                   f"{label}: simulated results differ between runs "
                   f"of one input ({sorted(digests)})")

    def separation(self, metrics: dict[str, float], spec: dict,
                   traced: bool) -> None:
        """Fail when a workload stops exercising the layers it was chosen
        for, or starts exercising the ones it was chosen to leave idle.

        ``exercises`` lists counts, measured in both modes; traced runs
        also check ``exercises_traced`` (self times and calls)."""
        names = spec["exercises"] + (spec["exercises_traced"] if traced
                                     else [])
        for name in names:
            if name not in metrics:
                self.check(False, f"layer metric not measured: {name}")
            else:
                self.check(metrics[name] > 0, f"layer idle: {name} == 0")
        for prefix in spec["idle"]:
            for name, value in metrics.items():
                if name.startswith(prefix):
                    self.check(value == 0,
                               f"layer should be idle: {name} = {value}")


# ----------------------------------------------------------------------
# run metadata (printed, never gated)
# ----------------------------------------------------------------------
def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop, for comparing hosts."""
    def loop() -> int:
        table = {key: key for key in range(1024)}
        total = 0
        for i in range(300_000):
            table[i & 1023] = i
            total += table[(i * 7) & 1023] ^ i
        return total

    times = []
    for _ in range(5):
        start = time.perf_counter()
        loop()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "commit": git_commit(),
            "calibration_ms": round(calibration_ms(), 3)}


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
def fidelity_errors(hybrid: list[dict],
                    packet: list[dict]) -> dict[str, float]:
    """Relative errors of hybrid against packet fidelity, same inputs."""
    def summary(outcomes):
        packets = sum(outcome["packets"] for outcome in outcomes)
        misses = sum(outcome["gateway_arrivals"] for outcome in outcomes)
        fcts = pooled_fcts(outcomes)
        return misses / packets, median_estimate(fcts), percentile(fcts, 90)

    def rel(got, want):
        return abs(got - want) / want if want else float(got != want)

    h_miss, h_p50, h_p90 = summary(hybrid)
    p_miss, p_p50, p_p90 = summary(packet)
    errors = {"sim.fluid.err_miss": rel(h_miss, p_miss),
              "sim.fluid.err_p50": rel(h_p50, p_p50),
              "sim.fluid.err_p90": rel(h_p90, p_p90)}
    errors["sim.fluid.fidelity_err"] = max(errors.values())
    # Not part of fidelity_err: the slowest flow, where hybrid is known
    # to be least accurate.
    errors["sim.fluid.err_tail"] = rel(pooled_fcts(hybrid)[-1],
                                       pooled_fcts(packet)[-1])
    return errors


def pooled_fcts(outcomes: list[dict]) -> list[int]:
    return sorted(fct for outcome in outcomes
                  for _, fct, _ in outcome["flows"] if fct is not None)


def reference_errors(runner: Runner, spec: dict, seed: int, hybrid: dict,
                     gate: Gate) -> dict[str, float]:
    """One packet-fidelity run of the first input, outside the timed runs."""
    packet = runner.run(seed, "packet")
    gate.outcome_checks(packet, f"packet reference {seed}")
    errors = fidelity_errors([hybrid], [packet])
    gate.check(errors["sim.fluid.fidelity_err"] <= spec["fidelity_tolerance"],
               f"hybrid fidelity error {errors['sim.fluid.fidelity_err']:.4f}"
               f" above {spec['fidelity_tolerance']}")
    return errors


def measure(runner: Runner, spec: dict, seeds: list[int], seconds: float,
            gate: Gate) -> tuple[dict, list[dict], list[str]]:
    """Timed runs (--trace 0): every input, the first one twice, then
    round-robin until ``seconds`` have passed."""
    runs: dict[int, list[dict]] = {seed: [] for seed in seeds}
    order = seeds + seeds[:1]
    index = 0
    last = 0.0
    while True:
        if index >= len(order):
            if (runner.elapsed() >= seconds
                    or runner.elapsed() + last > INVOCATION_BUDGET_S):
                break
            seed = seeds[index % len(seeds)]
        else:
            seed = order[index]
        start = time.perf_counter()
        runs[seed].append(runner.run(seed, spec["fidelity"]))
        last = time.perf_counter() - start
        index += 1
    everything = [outcome for outcomes in runs.values() for outcome in outcomes]
    for seed, outcomes in runs.items():
        gate.same_digest(outcomes, f"input {seed}")
        for outcome in outcomes:
            gate.outcome_checks(outcome, f"input {seed}")
    firsts = [runs[seed][0] for seed in seeds]
    packets = sum(outcome["packets"] for outcome in firsts)
    loop_s = sum(statistics.median(o["loop_s"] for o in runs[seed])
                 for seed in seeds)
    misses = sum(outcome["gateway_arrivals"] for outcome in firsts)
    fcts = pooled_fcts(firsts)
    gate.check(bool(fcts), "no flow completed")
    metrics = {
        "setup_s": statistics.median(o["setup_s"] for o in everything),
        "pkts_per_s": packets / loop_s,
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in everything),
        "hit_rate": 1.0 - misses / packets if packets else 0.0,
        "fct_p50_us": median_estimate(fcts) / 1e3 if fcts else 0.0,
        "fct_tail_us": (percentile(fcts, spec["tail_percentile"]) / 1e3
                        if fcts else 0.0),
    }
    beyond = len(fcts) * (100 - spec["tail_percentile"]) / 100
    notes = [f"runs: {len(everything)} over {len(seeds)} input(s)",
             f"FCT samples: {len(fcts)}; tail = p{spec['tail_percentile']}"
             f" with {beyond:.1f} samples beyond it"]
    return metrics, firsts, notes


def trace_layers(runner: Runner, spec: dict, seeds: list[int],
                 seconds: float, gate: Gate,
                 trace_out: Path) -> tuple[dict, list[dict], list[str]]:
    """Per-layer split (--trace 1): untraced/traced pairs on input 0."""
    seed = seeds[0]
    plain: list[dict] = []
    traced: list[dict] = []
    last = 0.0
    while not plain or (runner.elapsed() < seconds
                        and runner.elapsed() + last < INVOCATION_BUDGET_S):
        start = time.perf_counter()
        plain.append(runner.run(seed, spec["fidelity"]))
        traced.append(runner.run(
            seed, spec["fidelity"], trace=True,
            trace_out=trace_out if len(traced) == 0 else None))
        last = time.perf_counter() - start
    for outcome in plain + traced:
        gate.outcome_checks(outcome, f"input {seed}")
    gate.same_digest(plain + traced, f"input {seed} traced vs untraced")
    for outcome in traced:
        covered = sum(layer["self_s"] for layer in outcome["layers"].values())
        gate.check(outcome["loop_s"] * (1 - LOOP_SLACK) <= covered
                   <= outcome["loop_s"],
                   f"per-layer self times ({covered:.4f} s) do not cover "
                   f"the traced event loop ({outcome['loop_s']:.4f} s)")
    calls = {json.dumps({name: layer["calls"] for name, layer
                         in outcome["layers"].items()}, sort_keys=True)
             for outcome in traced}
    gate.check(len(calls) == 1, "per-layer calls differ between traced runs")
    base = plain[0]
    metrics: dict[str, float] = dict(base["counts"])
    untraced_loop = statistics.median(o["loop_s"] for o in plain)
    metrics["sim.engine.ns_per_event"] = (
        untraced_loop * 1e9 / base["counts"]["sim.engine.events"])
    metrics["net.build_s"] = statistics.median(o["build_s"] for o in plain)
    metrics["traces.gen_s"] = statistics.median(o["gen_s"] for o in plain)
    # Every layer figure comes from one traced run, the median one, so
    # the per-layer self times add up to its event-loop time.
    median_run = sorted(traced, key=lambda o: o["loop_s"])[
        (len(traced) - 1) // 2]
    layers = median_run["layers"]
    for layer, totals in layers.items():
        metrics[f"{layer}.self_s"] = totals["self_s"]
    metrics["trace.loop_s"] = median_run["loop_s"]
    metrics["sim.engine.self_share"] = (
        layers["sim.engine"]["self_s"] / median_run["loop_s"])
    metrics["net.switch.calls"] = layers["net.switch"]["calls"]
    metrics["core.on_switch.calls"] = layers["core"]["calls"]
    metrics["cache.calls"] = layers["cache"]["calls"]
    metrics["transport.calls"] = layers["transport"]["calls"]
    metrics["trace.overhead_s"] = median_run["loop_s"] - untraced_loop
    covered = sum(totals["self_s"] for totals in layers.values())
    notes = [f"traced/untraced pairs: {len(traced)} on input {seed}",
             f"spans cover {covered / median_run['loop_s']:.2%} of the "
             f"traced event-loop phase (unattributed engine share "
             f"{metrics['sim.engine.self_share']:.1%})",
             f"chrome trace: {trace_out.relative_to(ROOT)}"]
    notes += [f"layer {name}: self {totals['self_s']:.4f} s "
              f"({totals['self_s'] / metrics['trace.loop_s']:.1%}), "
              f"{totals['calls']} calls"
              for name, totals in layers.items() if totals["calls"]]
    return metrics, [base], notes


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced input sizes, for the self-tests")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through subprocess.run, which kills and reaps
    # the running worker before re-raising.
    sys.exit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "catalog.json").read_text())
    spec = catalog["workloads"].get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              + ", ".join(sorted(catalog["workloads"])), file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    meta = metadata(args.seed)
    runner = Runner(args.workload, args.small)
    gate = Gate()
    seeds = input_seeds(args.seed, spec["inputs"])
    if args.trace:
        trace_out = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        metrics, counted, notes = trace_layers(runner, spec, seeds,
                                               args.seconds, gate, trace_out)
    else:
        metrics, counted, notes = measure(runner, spec, seeds, args.seconds,
                                          gate)
    errors = {}
    if "fidelity_tolerance" in spec:
        errors = reference_errors(runner, spec, seeds[0], counted[0], gate)
    if args.trace:
        metrics.update({name: 0.0 for name in
                        ("sim.fluid.err_miss", "sim.fluid.err_p50",
                         "sim.fluid.err_p90", "sim.fluid.fidelity_err",
                         "sim.fluid.err_tail")})
        metrics.update(errors)
        gate.separation(metrics, spec, traced=True)
    else:
        gate.separation(counted[0]["counts"], spec, traced=False)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    gate.check(not missing, f"metrics not measured: {missing}")
    digest = hashlib.sha256("".join(o["digest"] for o in counted)
                            .encode()).hexdigest()[:16]
    for key, value in meta.items():
        print(f"meta {key}: {value}")
    for note in notes:
        print(f"note {note}")
    for name, value in errors.items():
        print(f"fidelity {name}: {value:.6f}")
    if not args.trace:
        for m in declared:
            kind = "simulated" if m["name"] in SIMULATED else "host"
            print(f"metric {m['name']}: {metrics[m['name']]:.6g} {m['unit']}"
                  f" ({kind})")
    print(f"digest {digest} (inputs {', '.join(o['digest'] for o in counted)})")
    for failure in gate.failures:
        print(f"GATE FAILED: {failure}")
    attempted = sum(outcome["started"] for outcome in counted)
    failed = sum(outcome["failed"] for outcome in counted)
    result = {
        "correct": not gate.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
