#!/usr/bin/env python3
"""The repository's sweep benchmark. Run it from the repository root.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload. Builds the benchmark binary (release,
      offline) if needed, runs it, prints every metric by name with its
      unit, and ends with one JSON line: correct, attempted, failed and
      the metrics BENCHMARK.json lists (end-to-end with --trace 0,
      per-layer with --trace 1). Exits nonzero if any sweep failed.

  python3 perfbench/run.py all [--seeds 1,2,3] [--seconds S] [--out DIR]
      Every workload once per seed, plus one traced run each, then the
      summary below.

  python3 perfbench/run.py summary DIR
      Per workload and end-to-end metric: median, quartiles, and the
      quartile spread as a share of the median next to the metric's bound.

  python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR
      Each side's median and quartiles per workload and end-to-end
      metric, and the verdict: improved, unchanged within the bound,
      worse, or unresolved (runs are paired by seed; fewer than ten
      pairs are always unresolved).

  python3 perfbench/run.py ab PARENT_ROOT CHANGE_ROOT [--seeds 1,...,10]
          [--seconds S] [--workloads a,b] [--out DIR]
      Runs the two checkouts' benchmarks seed by seed, alternating which
      side runs first, into DIR/parent and DIR/change (DIR defaults to
      .perfbench/ab), then compares them as above. Sets taken at
      different times can differ by the machine's drift alone; paired,
      alternating runs share it.

Every run also writes its full record, with the machine metadata, to
DIR/<workload>/trace<T>-seed<N>.json (DIR defaults to
.perfbench/results).
"""

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORK = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(WORK, "results")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target_dir(), "release", "perfbench")


def fs_type(path):
    """The filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def source_digest():
    """SHA-256 over the engine and benchmark sources, which names the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        base = os.path.join(ROOT, top)
        files = [base] if os.path.isfile(base) else []
        for d, dirs, names in os.walk(base):
            dirs[:] = sorted(x for x in dirs if not x.startswith(".") and x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(record):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]),
        "cache_dir_fs": fs_type(record.get("cache_dir") or WORK),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_binary(binary, workload, seed, seconds, trace):
    """One run of the benchmark binary; returns its record (or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK]
    # A session of its own, so a timeout also stops the shard workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if not lines or proc.returncode not in (0, 1):
        return None
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return None
    record["exit_code"] = proc.returncode
    record["meta"] = metadata(record)
    return record


def save(record, out_dir):
    d = os.path.join(out_dir, record["workload"])
    os.makedirs(d, exist_ok=True)
    name = f"trace{record['trace']}-seed{record['seed']}.json"
    with open(os.path.join(d, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def describe(record):
    """Human-readable lines: metadata, every metric with its unit, checks."""
    meta = record["meta"]
    yield (f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
           f"seconds={record['seconds']}")
    yield (f"  commit={meta['commit'] or 'none'} source={meta['source_digest']} "
           f"nproc={meta['nproc']} cpu={meta['cpu_model']!r} rustc={meta['rustc']!r}")
    yield (f"  threads={record['threads']} shards={record['shards']} "
           f"mode={record['outcome_mode']} tests={record['tests']} "
           f"verdicts/sweep={record['verdicts_per_sweep']} cache_dir_fs={meta['cache_dir_fs']}")
    yield (f"  setups={record['setups']} timed_sweeps={record['timed_sweeps']} "
           f"tail=p{record['tail_percentile']:.1f} attempted={record['attempted']} "
           f"failed={record['failed']}")
    for name, m in record["metrics"].items():
        yield f"  {name:<30} {m['value']:>16.6g} {m['unit']}"
    for check in record["checks"]:
        if not check["ok"] or "==" in check["name"]:
            yield f"  check {'ok ' if check['ok'] else 'FAILED'} {check['name']}: {check['detail']}"
    for failure in record["failures"]:
        yield f"  failure: {failure}"


def result_line(record, spec):
    """The final JSON line: the metrics BENCHMARK.json lists for this mode."""
    names = [m["name"] for m in spec["per_layer" if record["trace"] else "end_to_end"]]
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        fail(f"the run did not report {', '.join(missing)}")
    return json.dumps({
        "correct": bool(record["correct"]) and record["exit_code"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    })


def parse_flags(args, known):
    flags = {}
    it = iter(args)
    for flag in it:
        if flag not in known:
            fail(f"unknown option {flag} (expected {', '.join(known)})")
        flags[flag] = next(it, None)
        if flags[flag] is None:
            fail(f"{flag} needs a value")
    return flags


def main_run(args):
    flags = parse_flags(args, ["--workload", "--seed", "--seconds", "--trace", "--out"])
    for required in ["--workload", "--seed", "--seconds", "--trace"]:
        if required not in flags:
            fail(f"{required} is required")
    spec = load_spec()
    binary = build()
    record = run_binary(binary, flags["--workload"], flags["--seed"], flags["--seconds"],
                        flags["--trace"])
    if record is None:
        fail("the run produced no result")
    save(record, flags.get("--out", RESULTS))
    for line in describe(record):
        print(line)
    print(result_line(record, spec))
    sys.exit(0 if record["correct"] and record["exit_code"] == 0 else 1)


def main_all(args):
    flags = parse_flags(args, ["--seeds", "--seconds", "--out"])
    spec = load_spec()
    seeds = [int(s) for s in flags.get("--seeds", "1").split(",")]
    seconds = flags.get("--seconds", str(spec["run_seconds"]))
    out_dir = flags.get("--out", RESULTS)
    binary = build()
    ok = True
    for w in spec["workloads"]:
        for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
            record = run_binary(binary, w["name"], seed, seconds, trace)
            if record is None:
                ok = False
                continue
            save(record, out_dir)
            for line in describe(record):
                print(line, flush=True)
            ok = ok and record["correct"] and record["exit_code"] == 0
    summary(out_dir, spec)
    sys.exit(0 if ok else 1)


def load_runs(out_dir):
    """{workload: {seed: record}} of the untraced runs under `out_dir`."""
    runs = {}
    if not os.path.isdir(out_dir):
        fail(f"no results under {out_dir}")
    for workload in sorted(os.listdir(out_dir)):
        d = os.path.join(out_dir, workload)
        for name in sorted(os.listdir(d)) if os.path.isdir(d) else []:
            if name.startswith("trace0-") and name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    record = json.load(f)
                runs.setdefault(workload, {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(out_dir, spec=None):
    spec = spec or load_spec()
    print(f"{'workload':<16} {'metric':<16} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload, by_seed in load_runs(out_dir).items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in by_seed.values()
                      if m["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <- above a third of the bound"
            print(f"{workload:<16} {m['name']:<16} {len(values):>4} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.3f} {m['bound']:>6}{flag}")


MIN_PAIRS = 10


def verdict(parent, change, better, bound):
    """The choosing-metrics verdict for paired runs {seed: value}. Fewer
    than MIN_PAIRS pairs cannot support any verdict."""
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < MIN_PAIRS:
        return "unresolved"
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    if wins >= 0.9 * len(seeds) and abs(cm - pm) > p3 - p1:
        return "improved"
    if pm and (p3 - p1) / pm > bound:
        every_better = all(sign * (b - a) > 0 for a in p for b in c)
        return "improved" if every_better else "unresolved"
    worse_by = -sign * (cm - pm) / pm if pm else 0.0
    return "worse" if worse_by > bound else "unchanged within bound"


def compare(parent_dir, change_dir):
    spec = load_spec()
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    print(f"{'workload':<16} {'metric':<16} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36}  verdict")
    worse = False
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            side = {}
            for label, runs in [("parent", parent), ("change", change)]:
                side[label] = {s: runs[workload][s]["metrics"][m["name"]]["value"] for s in seeds}
            v = verdict(side["parent"], side["change"], m["better"], m["bound"])
            worse = worse or v == "worse"
            cells = []
            for label in ["parent", "change"]:
                q1, med, q3 = quartiles(list(side[label].values()))
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<16} {m['name']:<16} {cells[0]:>36} {cells[1]:>36}  {v}")
    sys.exit(1 if worse else 0)


def main_ab(args):
    """Runs parent and change seed by seed, alternating which side runs
    first, so a drift of the machine hits both sides alike; then compares."""
    if len(args) < 2:
        fail("ab needs PARENT_ROOT and CHANGE_ROOT")
    roots = {"parent": os.path.abspath(args[0]), "change": os.path.abspath(args[1])}
    flags = parse_flags(args[2:], ["--seeds", "--seconds", "--workloads", "--out"])
    spec = load_spec()
    seeds = [int(s) for s in flags.get("--seeds", "1,2,3,4,5,6,7,8,9,10").split(",")]
    seconds = flags.get("--seconds", str(spec["run_seconds"]))
    names = [w["name"] for w in spec["workloads"]]
    workloads = flags["--workloads"].split(",") if "--workloads" in flags else names
    out_dir = os.path.abspath(flags.get("--out", os.path.join(WORK, "ab")))
    for root in roots.values():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            fail(f"{root} has no perfbench/run.py")
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for label in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", seconds, "--trace", "0",
                       "--out", os.path.join(out_dir, label)]
                print(f"perfbench ab: {label} {workload} seed={seed}", file=sys.stderr, flush=True)
                done = subprocess.run(cmd, cwd=roots[label], stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    fail(f"{label} {workload} seed {seed} failed (exit {done.returncode})")
    compare(os.path.join(out_dir, "parent"), os.path.join(out_dir, "change"))


def main(argv):
    if argv[:1] == ["all"]:
        main_all(argv[1:])
    elif argv[:1] == ["ab"]:
        main_ab(argv[1:])
    elif argv[:1] == ["summary"] and len(argv) == 2:
        summary(argv[1])
    elif argv[:1] == ["compare"] and len(argv) == 3:
        compare(argv[1], argv[2])
    elif argv and argv[0].startswith("--"):
        main_run(argv)
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv[1:])
