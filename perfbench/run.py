"""Benchmark of `ado compute` and `ado verify` on seeded algebra files.

    python3 perfbench/run.py --workload module --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --self-check

One run builds a workload's algebra files from the seed in fresh child
interpreters (the set-up, timed), then runs passes over the files in a
closed loop with one caller: `ado compute FILE -o OUT` and then
`ado verify OUT`, each through `ado.cli.main` in this process.  Passes
repeat until the next one would overrun --seconds; the time left then
goes to further rounds of `ado verify` over the outputs.  Each file's
compute and verify times are the medians of its samples.  A compute
that exits 0 counts as verified only when `ado verify` exits 0, the
recomputed verification block equals the stated one, `dim_v` equals the
matrix size and the echoed algebra equals the input.  Every nonzero
exit counts as failed; nothing is retried or skipped.  Outputs must be
byte-identical from pass to pass.

With --trace 1 each untraced pass is followed by a traced one, which
must write the same bytes and verdicts; the per-layer metrics come from
the traced passes' spans and from counters read out of the output files.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files go under
.perfbench-work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 5
EXIT_KINDS = {1: "InputError", 2: "TripwireError", 3: "FaithfulnessError"}

try:
    from inputs import WORKLOADS  # importing inputs puts the checkout's src/ first on sys.path
    from ado import cli
    from tracer import ROOT_COMPUTE, ROOT_VERIFY, Tracer
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the ado package from {ROOT / 'src'}: {exc}")
if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: ado was imported from {cli.__file__}, not from {ROOT / 'src'}")


@dataclass
class Outcome:
    """One input file through compute and, when that exits 0, verify."""

    name: str
    code: int
    compute_s: float
    verify_s: float = 0.0
    verified: bool = False
    problem: str | None = None
    digest: str = ""
    counters: dict = field(default_factory=dict)


def call(argv: list[str], tracer: Tracer | None, root: str) -> tuple[int, float, str, str]:
    """Run the ado command line in process; exit code, wall time, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(root) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends the real command with code 1
            traceback.print_exc()
            code = 1
        wall = perf_counter() - start
    return code, wall, out.getvalue(), err.getvalue()


def entry_bits(raw: str) -> int:
    num, _, den = raw.lstrip("-").partition("/")
    return max(int(num).bit_length(), int(den or "1").bit_length())


def read_counters(data: dict, size: int) -> dict:
    """Deterministic facts about one representation file."""
    entries = nonzero = bits = 0
    for matrix in data["matrices"]:
        for row in matrix:
            entries += len(row)
            for raw in row:
                if raw != "0":
                    nonzero += 1
                    bits = max(bits, entry_bits(raw))
    counters = {
        "dim_v": data["dim_v"],
        "bytes": size,
        "entries": entries,
        "nonzero": nonzero,
        "max_coeff_bits": bits,
        "retries": int(data["provenance"]["retried"]),
        "steps": sum(1 for r in data["provenance"]["saturation"] if r["stage"] != "initial"),
        "module_dim": 0,
        "cut_ideal_dim": 0,
        "ambient_monomials": 0,
    }
    for block in data["provenance"]["blocks"]:
        if block["kind"] == "enveloping":
            counters["module_dim"] = block["dimension"]
            counters["cut_ideal_dim"] = block["cut_ideal_dimension"]
            counters["ambient_monomials"] = block["ambient_monomials"]
    return counters


def output_problem(data: dict, code: int, stdout: str, source: dict) -> str | None:
    """Why a written representation fails the output checks, or None."""
    if code != 0:
        return f"ado verify exited {code}"
    try:
        recomputed = json.loads(stdout)
    except json.JSONDecodeError:
        return "ado verify printed no verification block"
    if recomputed != data["verification"]:
        return "recomputed verification block differs from the stated one"
    dim_v = data["dim_v"]
    for matrix in data["matrices"]:
        if len(matrix) != dim_v or any(len(row) != dim_v for row in matrix):
            return "dim_v differs from the matrix size"
    if data["algebra"] != source:
        return "the echoed algebra differs from the input"
    return None


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or "_s_per_" in metric:
        return "s"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    if metric.endswith("_mb"):
        return "MiB"
    for unit in ("bytes", "bits"):
        if unit in metric:
            return unit
    return "count"


def verify_output(
    path: Path, data: dict, source: dict, tracer: Tracer | None
) -> tuple[bool, float, str | None]:
    """Run `ado verify` on a representation file and apply the output checks.

    data is the parsed file.  Returns the verdict, the wall time and the
    problem found, if any.
    """
    code, wall, stdout, _ = call(["verify", str(path)], tracer, ROOT_VERIFY)
    problem = output_problem(data, code, stdout, source)
    return problem is None, wall, problem


def error_problem(code: int, stderr: str) -> str | None:
    """A failed compute must end with a structured error matching its exit code."""
    lines = stderr.strip().splitlines()
    try:
        kind = json.loads(lines[-1])["error"]["kind"]
    except (IndexError, json.JSONDecodeError, KeyError, TypeError):
        return f"exit {code} without a structured error"
    if EXIT_KINDS.get(code) != kind:
        return f"exit {code} with error kind {kind}"
    return None


def output_path(outdir: Path, path: Path) -> Path:
    return outdir / f"{path.stem}.rep.json"


def run_pass(
    files: list[Path], sources: dict, outdir: Path, tracer: Tracer | None = None
) -> list[Outcome]:
    outcomes = []
    for path in files:
        out = output_path(outdir, path)
        out.unlink(missing_ok=True)
        code, wall, _, stderr = call(["compute", str(path), "-o", str(out)], tracer, ROOT_COMPUTE)
        outcome = Outcome(path.stem, code, wall)
        if code != 0:
            outcome.problem = error_problem(code, stderr)
        else:
            raw = out.read_bytes()
            data = json.loads(raw)
            outcome.verified, outcome.verify_s, outcome.problem = verify_output(
                out, data, sources[path.stem], tracer
            )
            outcome.digest = hashlib.sha256(raw).hexdigest()
            outcome.counters = read_counters(data, len(raw))
        outcomes.append(outcome)
    return outcomes


def run_metrics(passes: list[list[Outcome]], extra_verify: list[list[float]]) -> dict[str, float]:
    """End-to-end metrics from each file's median compute and verify times."""
    first = passes[0]
    verified = [i for i, o in enumerate(first) if o.verified]
    if not verified:
        raise RuntimeError("no representation was verified")
    compute = [statistics.median(p[i].compute_s for p in passes) for i in range(len(first))]
    verify = [
        statistics.median([p[i].verify_s for p in passes] + extra_verify[i])
        for i in range(len(first))
    ]
    written = [first[i].counters for i in verified]
    return {
        "compute_s_per_rep": sum(compute) / len(verified),
        "compute_max_s": max(compute[i] for i in verified),
        "verify_s_per_rep": sum(verify) / len(verified),
        "verified_frac": len(verified) / len(first),
        "dim_v_max": max(c["dim_v"] for c in written),
        "output_bytes_max": max(c["bytes"] for c in written),
    }


def output_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer counters read from the output files and the exit codes."""
    written = [o.counters for o in outcomes if o.counters]
    codes = [o.code for o in outcomes]
    return {
        "envelope.module_dim": max((c["module_dim"] for c in written), default=0),
        "envelope.cut_ideal_dim": max((c["cut_ideal_dim"] for c in written), default=0),
        "envelope.ambient_monomials": max((c["ambient_monomials"] for c in written), default=0),
        "pipeline.nonzero_frac": sum(c["nonzero"] for c in written)
        / max(1, sum(c["entries"] for c in written)),
        "pipeline.max_coeff_bits": max((c["max_coeff_bits"] for c in written), default=0),
        "pipeline.retries": sum(c["retries"] for c in written),
        "formats.bytes_written": sum(c["bytes"] for c in written),
        "expansion.steps": sum(c["steps"] for c in written),
        "errors.input": codes.count(1),
        "errors.tripwire": codes.count(2),
        "errors.faithfulness": codes.count(3),
    }


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.compute_s + o.verify_s for o in outcomes)


def verdicts(outcomes: list[Outcome]) -> list[tuple]:
    return [(o.name, o.code, o.verified, o.digest) for o in outcomes]


def set_up(workload: str, seed: int, quick: bool) -> tuple[float, list[Path]]:
    """Write the inputs in fresh interpreters; median wall time of the timed ones."""
    target = WORK / workload / "inputs"
    argv = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(target)] + (["--quick"] if quick else [])
    times = []
    # the first child also compiles the package's bytecode; it is not timed
    for rep in range(SETUP_REPS + 1):
        start = perf_counter()
        subprocess.run(argv, check=True, timeout=170)
        if rep:
            times.append(perf_counter() - start)
    return statistics.median(times), sorted(target.glob("*.json"))


def median_dict(rows: list[dict]) -> dict[str, float]:
    """Per-key medians; counts stay whole numbers."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        whole = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if whole else statistics.median)(values)
    return out


def verify_rounds(
    files: list[Path], sources: dict, outdir: Path, first: list[Outcome], until: float
) -> tuple[list[list[float]], list[str]]:
    """Verify every written output again, round after round, while a round fits.

    Returns each file's extra verify times and the problems found.
    """
    samples: list[list[float]] = [[] for _ in files]
    problems = []
    round_s = sum(o.verify_s for o in first)
    while round_s and perf_counter() + round_s <= until:
        for i, (path, outcome) in enumerate(zip(files, first)):
            if outcome.code != 0:
                continue
            out = output_path(outdir, path)
            _, wall, problem = verify_output(
                out, json.loads(out.read_bytes()), sources[path.stem], None
            )
            samples[i].append(wall)
            if problem:
                problems.append(f"{path.stem}: {problem}")
    return samples, problems


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    setup_s, files = set_up(workload, seed, quick)
    sources = {p.stem: json.loads(p.read_bytes()) for p in files}
    outdir = WORK / workload / "outputs"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    plain: list[list[Outcome]] = []
    traced: list[tuple[list[Outcome], Tracer]] = []
    start = perf_counter()
    while True:
        plain.append(run_pass(files, sources, outdir))
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append((run_pass(files, sources, outdir, tracer), tracer))
            finally:
                tracer.uninstall()
        elapsed = perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    extra_verify: list[list[float]] = [[] for _ in files]
    problems = []
    if not trace:
        # the time left over from whole passes goes to more verify samples
        extra_verify, problems = verify_rounds(files, sources, outdir, plain[0], start + seconds)
    problems += [f"{o.name}: {o.problem}" for p in plain for o in p if o.problem]
    reference = verdicts(plain[0])
    every = plain + [p for p, _ in traced]
    if any(verdicts(p) != reference for p in every):
        problems.append("outputs or verdicts differ between passes")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(len(p) for p in plain)
    failed = sum(1 for p in plain for o in p if not o.verified)

    if trace:
        spans_dir = WORK / workload / "spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        rows = []
        for k, (outcomes, tracer) in enumerate(traced):
            rows.append(tracer.summarize() | output_metrics(outcomes))
            tracer.write(spans_dir / f"pass{k}.tsv")
        values = median_dict(rows)
        values["trace.overhead_frac"] = (
            statistics.median(pass_wall(p) for p, _ in traced)
            / statistics.median(pass_wall(p) for p in plain)
            - 1
        )
    else:
        values = run_metrics(plain, extra_verify)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(values.items())}
    for name, metric in metrics.items():
        print(f"{workload:10s} {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    rounds = max(map(len, extra_verify), default=0)
    print(f"{workload:10s} passes {len(plain)}, extra verify rounds {rounds},"
          f" attempted {attempted}, failed {failed}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"perfbench: workload {workload} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        results[workload] = last_json(done.stdout)
    print(json.dumps(results, sort_keys=True))
    return 0


def tampered(data: dict) -> dict:
    """A copy of a representation with one matrix entry changed."""
    data = json.loads(json.dumps(data))
    row = data["matrices"][0][0]
    row[0] = "1" if row[0] == "0" else "0"
    return data


def self_check() -> int:
    """Quick runs of one small algebra per workload, then a negative control."""
    spec = benchmark_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--quick"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            if done.returncode != 0:
                failures.append(f"{workload} trace {trace}: exit {done.returncode}: {done.stderr}")
                continue
            result = last_json(done.stdout)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            elif not result["correct"]:
                failures.append(f"{workload} trace {trace}: outputs failed the checks")
            else:
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                if printed != expected[trace]:
                    failures.append(
                        f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed.items()) ^ set(expected[trace].items()))}"
                    )
    # negative control: one tampered entry must fail on the verify path
    outputs = sorted((WORK / "module" / "outputs").glob("*.rep.json"))
    inputs_dir = WORK / "module" / "inputs"
    sources = {p.stem: json.loads(p.read_bytes()) for p in inputs_dir.glob("*.json")}
    if not outputs:
        failures.append("negative control: no module output to tamper with")
    else:
        original = outputs[0]
        source = sources[original.name.removesuffix(".rep.json")]
        data = json.loads(original.read_bytes())
        verified, _, _ = verify_output(original, data, source, None)
        bad = tampered(data)
        path = WORK / "module" / "tampered.rep.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        still, _, problem = verify_output(path, bad, source, None)
        if not verified or still:
            failures.append("negative control: a tampered entry was not caught")
        else:
            print(f"negative control: tampered entry caught ({problem})")
    for failure in failures:
        print(f"self-check failed: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("self-check: metric names match BENCHMARK.json; all outputs verified")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one small algebra per workload (used by the self-check)")
    parser.add_argument("--self-check", action="store_true",
                        help="quick runs of every workload plus a negative control")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
