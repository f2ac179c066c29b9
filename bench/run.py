"""stancekit benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload fnc-headline --seed 1 --seconds 60 --trace 0

The run writes seeded synthetic FNC-shaped inputs under .bench_work/, then

- --trace 0: measures set-up time in fresh processes, runs the workload's
  `train`, `evaluate` and `cv` commands through the real CLI for --seconds
  (at least once), checks every output, and reports the end-to-end metrics
  as medians over the repetitions, each timing calibrated against a fixed
  reference task run just before and just after it (class Reference);
- --trace 1: runs the CLI commands once, replays them in-process through
  the library API with a span around each layer call (bench/replay.py),
  checks that the replay wrote byte-identical artifacts, probes single
  layers, and reports the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Workloads and the meaning of every metric are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from gen import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
#: never start another repetition that could end past this many seconds
RUN_CAP_S = 150.0
NPROC = os.cpu_count() or 1

#: Single-threaded BLAS for every process the benchmark starts: the only
#: parallelism is the CLI's own --jobs, so no workload exceeds nproc threads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: The reference task: a fixed mix of interpreter start-up, numpy/scipy
#: import, sparse and dense products and Python-level tokenizing, the kinds
#: of work the CLI does, in a fresh process. It uses no stancekit code and no
#: input, so a change to the program never changes it; only the host's speed
#: does. See "Host-speed calibration" in NOTES.md.
REFERENCE_TASK = """
import re
import numpy as np
import scipy.sparse as sp
rng = np.random.default_rng(0)
m = sp.csr_matrix((np.ones(200_000), (rng.integers(0, 2000, 200_000),
                   rng.integers(0, 10_000, 200_000))), shape=(2000, 10_000))
w = rng.standard_normal((10_000, 100))
for _ in range(6):
    w -= 1e-6 * (m.T @ np.maximum(m @ w, 0.0))
counts = {}
for token in re.findall(r"[^\\W_]+", " ".join(f"w{i * 7919 % 5000}," for i in range(80_000))):
    counts[token] = counts.get(token, 0) + 1
"""
#: Wall time of the reference task that defines calibrated seconds: close to
#: its median on the 2-vCPU VM the benchmark was built on.
REFERENCE_NOMINAL_S = 1.0


class Checks:
    """Operations attempted and failed; an operation is a command or a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}")
        return ok


class Reference:
    """Runs the reference task between timed commands and calibrates them.

    A timed command is sandwiched between two runs of the reference task;
    its calibrated time is its wall time scaled by REFERENCE_NOMINAL_S over
    the mean of those two reference walls. A shared host that runs every
    process 30% slower for a minute moves calibrated times far less than
    wall times; a program that runs 30% slower moves both by 30%.
    """

    def __init__(self, env: dict, work: Path, checks: Checks):
        self.env, self.work, self.checks = env, work, checks
        self.walls: list[float] = []
        self.last = self._run()

    def _run(self) -> float:
        res = run_process([sys.executable, "-c", REFERENCE_TASK], self.env, self.work)
        self.checks.check(res["code"] == 0, f"reference task exited {res['code']}: "
                          f"{res['stderr'][-500:]}")
        self.walls.append(res["wall"])
        return res["wall"]

    def calibrate(self, wall: float) -> float:
        """Calibrated seconds of a command that ended just now."""
        before, self.last = self.last, self._run()
        return wall * REFERENCE_NOMINAL_S / ((before + self.last) / 2)


def run_process(argv: list[str], env: dict, cwd: Path) -> dict:
    """Run to completion; wall time from spawn to reap, peak RSS from wait4.

    Output goes to files rather than pipes, so the child never blocks on a
    full pipe while this process waits for it.
    """
    out_path, err_path = cwd / "tmp" / "stdout.txt", cwd / "tmp" / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
            "rss_mb": usage.ru_maxrss / 1024.0}


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def tree_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(d.rglob("*.py")) + sorted(d.rglob("*.yaml")):
            if "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def expected_artifacts(cfg, command: str, argv: tuple[str, ...], out: Path) -> list[str]:
    """Files the README names for this command and config."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if command == "train":
        models = opts["--models"].split(",") if "--models" in opts else list(cfg.models)
        names = []
        for m in models:
            names += [f"{m}.model.bin", f"{m}.train.log"]
        for pid in dict.fromkeys(cfg.models[m].pipeline for m in models):
            names.append(f"{pid}.pipeline.json")
            manifest = out / f"{pid}.pipeline.json"
            if manifest.is_file():
                names += json.loads(manifest.read_text(encoding="utf-8"))["files"].values()
        names += [f"{e}.combiner.json" for e, ec in cfg.ensembles.items()
                  if ec.rule == "concatenation" and set(ec.members) <= set(models)]
        return names
    targets = opts["--models"].split(",") if "--models" in opts else list(cfg.targets())
    if command == "evaluate":
        return [f"{t}.{ext}" for t in targets
                for ext in ("scores.txt", "report.txt", "heatmap.dat", "heatmap.gp")]
    return [f"{t}.cv.fold{i}.scores.txt" for t in targets
            for i in range(cfg.cv.folds)] + [f"{t}.cv.aggregate.txt" for t in targets]


def command_argv(workload) -> list[tuple[str, ...]]:
    return [tuple(a.replace("{nproc}", str(NPROC)) for a in cmd)
            for cmd in workload.commands]


def run_cli_sequence(workload, work: Path, env: dict, checks: Checks, cfg,
                     ref: Reference) -> dict:
    """One pass of the workload's CLI commands into a fresh output dir."""
    from stancekit.evaluation import parse_delimited

    start = time.perf_counter()
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    record = {"walls": {}, "calibrated": {}, "rss_mb": 0.0, "grade": None}
    for argv in command_argv(workload):
        command = argv[0]
        res = run_process([sys.executable, "-m", "stancekit.cli", command, "--config",
                           str(work / "config.yaml"), "--out", str(out), *argv[1:]],
                          env, work)
        record["walls"][command] = res["wall"]
        record["calibrated"][command] = ref.calibrate(res["wall"])
        record["rss_mb"] = max(record["rss_mb"], res["rss_mb"])
        if not checks.check(res["code"] == 0, f"{command} exited {res['code']}: "
                            f"{res['stderr'].strip()[-500:]}"):
            continue
        for name in expected_artifacts(cfg, command, argv, out):
            if not checks.check((out / name).is_file(), f"{command} wrote no {name}"):
                continue
            if name.endswith(".scores.txt"):
                try:
                    parse_delimited((out / name).read_text(encoding="utf-8"))
                    ok = True
                except Exception as exc:  # any parse failure is a failed check
                    ok = False
                    print(f"{name}: {exc!r}")
                checks.check(ok, f"{name} does not parse")
        if command == workload.graded_by:
            record["grade"] = _graded(workload, out, res["stdout"], checks)
    record["digests"] = digests(out) if out.is_dir() else {}
    record["total_wall"] = sum(record["walls"].values())
    record["total"] = sum(record["calibrated"].values())
    record["elapsed"] = time.perf_counter() - start
    return record


def _graded(workload, out: Path, stdout: str, checks: Checks) -> float | None:
    """Relative grade of the graded target, from its file and the CLI's line."""
    from stancekit.evaluation import parse_delimited

    target = workload.graded_target
    if workload.graded_by == "evaluate":
        path, key = out / f"{target}.scores.txt", "relative_grade"
    else:
        path, key = out / f"{target}.cv.aggregate.txt", "relative_mean"
    if not path.is_file():
        return None
    text = path.read_text(encoding="utf-8")
    if workload.graded_by == "evaluate":
        value = parse_delimited(text).relative_grade
    else:
        value = float(re.search(rf"^{key}=(.*)$", text, re.M).group(1))
    line = re.search(rf"target={re.escape(target)} .*{key}=(\S+)", stdout)
    checks.check(line is not None and float(line.group(1)) == value,
                 f"{key} of {target} on stdout does not match {path.name}")
    return value


def compare_digests(reference: dict, current: dict, label: str, checks: Checks) -> None:
    for name, digest in sorted(reference.items()):
        checks.check(current.get(name) == digest, f"{name} differs from {label}")


def ledger_check(key: str, current: dict, checks: Checks) -> None:
    """Reruns of one seed on one tree must be byte-identical across runs."""
    path = ROOT / ".bench_work" / "ledger.json"
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    if key in ledger:
        compare_digests(ledger[key], current, "an earlier run of this seed", checks)
    else:
        ledger[key] = current
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")


def tail(values):
    """The highest percentile with at least ten samples beyond it (the max
    when there are fewer than eleven samples), and its percentile rank."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0 * (n - 1) / n if n > 1 else 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine_record() -> dict:
    import numpy
    import scipy

    commit = None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"], "git_commit": commit,
            "platform": platform.platform()}


def measure_setup(workload, work: Path, env: dict, checks: Checks, ref: Reference,
                  with_import: bool) -> tuple[float, float]:
    """Median calibrated time of fresh set-up processes, and median wall of a
    bare CLI import."""
    setup, setup_walls, imports = [], [], []
    embed = "1" if workload.uses_embeddings else "0"
    for _ in range(SETUP_REPEATS):
        res = run_process([sys.executable, str(BENCH / "replay.py"), "setup",
                           str(work / "config.yaml"), embed], env, work)
        if checks.check(res["code"] == 0, f"setup exited {res['code']}: {res['stderr'][-500:]}"):
            setup.append(ref.calibrate(res["wall"]))
            setup_walls.append(res["wall"])
    if setup_walls:
        print(f"detail setup wall_s={median(setup_walls)!r} walls_s="
              + ",".join(f"{w:.4f}" for w in setup_walls))
    for _ in range(IMPORT_REPEATS if with_import else 0):
        res = run_process([sys.executable, "-c", "import stancekit.cli"], env, work)
        if checks.check(res["code"] == 0, "import stancekit.cli failed"):
            imports.append(res["wall"])
    return (median(setup) if setup else None, median(imports) if imports else None)


def spans_of(data: dict, name: str) -> list[dict]:
    return [s for s in data["spans"] if s["name"] == name]


def total(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def traced_run(workload, work: Path, env: dict, checks: Checks, cli: dict,
               import_s: float) -> dict:
    """Replay the commands through the library with spans; per-layer metrics."""
    traced_out = work / "traced"
    shutil.rmtree(traced_out, ignore_errors=True)
    traced: dict[str, dict] = {}
    traced_wall = 0.0
    for argv in command_argv(workload):
        spans_path = work / f"{argv[0]}.spans.json"
        res = run_process([sys.executable, str(BENCH / "replay.py"), argv[0],
                           str(work / "config.yaml"), str(traced_out), str(spans_path),
                           *argv[1:]], env, work)
        if not checks.check(res["code"] == 0,
                            f"traced {argv[0]} exited {res['code']}: {res['stderr'][-800:]}"):
            return {}
        traced[argv[0]] = json.loads(spans_path.read_text(encoding="utf-8"))
        traced_wall += res["wall"] - traced[argv[0]]["extra_s"]
    written = digests(traced_out)
    compare_digests(written, cli["digests"], "the CLI run's file", checks)
    models = {n for n in written if n.endswith(".model.bin")}
    checks.check(models == {n for n in cli["digests"] if n.endswith(".model.bin")},
                 "the traced run did not save every model file")
    print(f"traced artifacts compared={len(written)} model_files={len(models)}")

    spans_path = work / "probe.spans.json"
    samples = ",".join(str(n) for n in workload.similarity_samples)
    res = run_process([sys.executable, str(BENCH / "replay.py"), "probe",
                       str(work / "config.yaml"), str(spans_path), samples], env, work)
    if not checks.check(res["code"] == 0, f"probe exited {res['code']}: {res['stderr'][-800:]}"):
        return {}
    probe = json.loads(spans_path.read_text(encoding="utf-8"))
    return layer_metrics(traced, probe, import_s, traced_wall - cli["total_wall"])


def layer_metrics(traced: dict, probe: dict, import_s: float, overhead: float) -> dict:
    tr_train, tr_eval, tr_cv = traced["train"], traced["evaluate"], traced["cv"]
    m: dict[str, tuple[float, str]] = {}

    def timing(name, values, unit, scale=1.0):
        values = [v * scale for v in values]
        value, pct = tail(values)
        m[name] = (median(values), unit)
        m[name + ".tail"] = (value, unit)
        m[name + ".n"] = (len(values), "count")
        print(f"detail {name}.tail is p{pct:.1f} of {len(values)} samples")

    m["cli.import_s"] = (import_s, "s")
    m["corpus.load_s"] = (total(spans_of(tr_train, "corpus.load")), "s")
    # the validation split in train and the fold split in cv, where they run
    for command, data in (("train", tr_train), ("cv", tr_cv)):
        for s in spans_of(data, "corpus.split"):
            print(f"detail corpus.split command={command} seconds={s['end'] - s['start']!r}")
    m["corpus.split_s"] = (total(spans_of(tr_train, "corpus.split"))
                           + total(spans_of(tr_cv, "corpus.split")), "s")
    pairs, bodies = tr_train["counts"]["pairs"], tr_train["counts"]["bodies"]
    m["corpus.pairs"] = (pairs, "count")
    m["corpus.bodies"] = (bodies, "count")
    m["corpus.pairs_per_body"] = (pairs / bodies, "pairs/body")

    load = spans_of(probe, "embeddings.load")[0]
    m["embeddings.load_s"] = (load["end"] - load["start"], "s")
    m["embeddings.kept_ratio"] = (load["kept"] / load["parsed"], "ratio")

    m["text.fit_s"] = (total(spans_of(probe, "text.fit")), "s")
    featurize = spans_of(probe, "text.featurize")
    m["text.featurize_s"] = (total(featurize), "s")
    m["text.featurize_us_per_pair"] = (
        1e6 * total(featurize) / sum(s["pairs"] for s in featurize), "us")
    m["text.vocab_terms"] = (probe["counts"]["vocab_terms"], "count")
    m["text.nnz"] = (featurize[0]["nnz"], "count")
    m["keywords.micc_select_s"] = (total(spans_of(probe, "keywords.micc_select")), "s")
    m["keywords.mi_select_s"] = (total(spans_of(probe, "keywords.mi_select")), "s")
    m["keywords.featurize_s"] = (total(spans_of(probe, "keywords.featurize")), "s")

    for mode in ("centroid", "wmd-relaxed", "wmd-exact"):
        pair_spans = spans_of(probe, f"embeddings.{mode}_pair")
        timing(f"embeddings.{mode.replace('-', '_')}_ms_per_pair",
               [s["end"] - s["start"] for s in pair_spans], "ms", 1e3)
    cm = spans_of(probe, "embeddings.centroid_matrix")[0]
    m["embeddings.degenerate_ratio"] = (cm["zeros"] / cm["pairs"], "ratio")

    for s in spans_of(tr_train, "pipeline.fit") + spans_of(tr_train, "pipeline.matrix"):
        print(f"detail {s['name']} pipeline={s['pipeline']} seconds={s['end'] - s['start']!r}")
    m["pipeline.fit_s"] = (total(spans_of(tr_train, "pipeline.fit")), "s")
    m["pipeline.matrix_s"] = (total(spans_of(tr_train, "pipeline.matrix")), "s")
    member = {s["model"]: s["end"] - s["start"]
              for s in spans_of(tr_eval, "pipeline.member_probabilities")}
    ensemble = spans_of(tr_eval, "pipeline.ensemble_predictions")
    m["pipeline.member_probabilities_s"] = (sum(member.values()), "s")
    m["pipeline.ensemble_predictions_s"] = (total(ensemble), "s")
    m["ensemble.fuse_s"] = (sum(s["end"] - s["start"] - sum(member[x] for x in s["members"])
                                for s in ensemble), "s")
    print("detail ensemble.fuse_s is derived: ensemble_predictions minus its "
          "members' member_probabilities on the same corpus")
    combiner = spans_of(tr_train, "ensemble.combiner_fit") or spans_of(
        tr_eval, "ensemble.combiner_fit")
    m["ensemble.combiner_fit_s"] = (total(combiner), "s")

    trains = spans_of(tr_train, "mlp.train")
    epochs, batches = [], 0
    for s in trains:
        ends = [s["start"]] + s["epoch_ends"]
        epochs += [b - a for a, b in zip(ends, ends[1:])]
        batches += len(s["epoch_ends"]) * -(-s["rows"] // s["batch_size"])
        print(f"detail mlp.train model={s['model']} seconds={s['end'] - s['start']!r}")
    timing("mlp.epoch_s", epochs, "s")
    m["mlp.train_s"] = (total(trains), "s")
    m["mlp.predict_s"] = (median([s["end"] - s["start"]
                                  for s in spans_of(tr_eval, "mlp.predict")]), "s")
    m["mlp.input_dim"] = (max(s["input_dim"] for s in trains), "count")
    m["mlp.batches"] = (batches, "count")
    m["evaluation.score_s"] = (total(spans_of(tr_eval, "evaluation.score")), "s")

    cv = spans_of(tr_cv, "evaluation.cross_validate")[0]
    timing("evaluation.fold_s", cv["fold_seconds"], "s")
    cv_wall = cv["end"] - cv["start"]
    m["evaluation.parallel_efficiency"] = (sum(cv["fold_seconds"]) / (cv["jobs"] * cv_wall),
                                           "ratio")
    print(f"detail cv jobs={cv['jobs']} cross_validate_seconds={cv_wall!r}")
    m["bench.trace_overhead_s"] = (overhead, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few pairs per workload, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stancekit" / "cli.py").is_file():
        print(f"error: no stancekit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from stancekit.config import load_config

    workload = WORKLOADS[args.workload]
    shape = workload.tiny if args.scale == "tiny" else workload.shape
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src"),
           "TMPDIR": str(work / "tmp")}
    run_start = time.perf_counter()

    sizes = generate(work / "data", args.seed, shape,
                     embeddings=workload.uses_embeddings or bool(args.trace))
    shutil.copyfile(BENCH / "configs" / workload.config, work / "config.yaml")
    cfg = load_config(work / "config.yaml")
    print(f"workload={workload.name} seed={args.seed} scale={args.scale} trace={args.trace}")
    print("inputs " + json.dumps(sizes, sort_keys=True))
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print("commands " + json.dumps([" ".join(c) for c in command_argv(workload)]))

    checks = Checks()
    ref = Reference(env, work, checks)
    setup_s, import_s = measure_setup(workload, work, env, checks, ref,
                                      with_import=bool(args.trace))
    ledger_key = "|".join([workload.name, str(args.seed), args.scale,
                           tree_digest(ROOT / "src", BENCH)])
    reps: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        rep = run_cli_sequence(workload, work, env, checks, cfg, ref)
        if reps:
            compare_digests(reps[0]["digests"], rep["digests"], "repetition 1", checks)
        else:
            ledger_check(ledger_key, rep["digests"], checks)
        reps.append(rep)
        print(f"repetition {len(reps)} " + " ".join(
            f"{c}_wall_s={w!r}" for c, w in rep["walls"].items())
            + f" peak_rss_mb={rep['rss_mb']!r}")
        # stop before a repetition that would end past --seconds, so that a
        # run lasts set-up plus --seconds, not up to one sequence more
        now = time.perf_counter()
        if (args.trace or now - measure_start + rep["elapsed"] > args.seconds
                or now - run_start + rep["elapsed"] > RUN_CAP_S):
            break
    combined = hashlib.sha256(json.dumps(reps[0]["digests"], sort_keys=True).encode())
    print(f"artifacts files={len(reps[0]['digests'])} sha256_of_digests={combined.hexdigest()}")
    (work / "digests.json").write_text(json.dumps(reps[0]["digests"], indent=1), encoding="utf-8")

    if args.trace:
        metrics = traced_run(workload, work, env, checks, reps[0], import_s)
    else:
        grade = reps[0]["grade"]
        checks.check(all(r["grade"] == grade for r in reps), "relative grade differs between repetitions")
        for command in ("train", "evaluate", "cv"):
            print(f"detail {command} wall_s={median(r['walls'][command] for r in reps)!r}")
        print(f"detail total wall_s={median(r['total_wall'] for r in reps)!r}")
        print(f"detail reference wall_s={median(ref.walls)!r} runs={len(ref.walls)}")
        print("detail reference walls_s=" + ",".join(f"{w:.4f}" for w in ref.walls))

        def calibrated(command):
            return median(r["calibrated"][command] for r in reps)

        metrics = {
            "setup_s": (setup_s, "s"),
            "train_s": (calibrated("train"), "s"),
            "evaluate_s": (calibrated("evaluate"), "s"),
            "cv_s": (calibrated("cv"), "s"),
            "total_s": (median([r["total"] for r in reps]), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in reps), "MB"),
            "relative_grade": (grade, "%"),
        }
    for name, (value, unit) in list(metrics.items()):
        if not checks.check(value is not None and value == value, f"{name} not measured"):
            metrics[name] = (0.0, unit)
    failed = len(checks.failures)
    attempted = max(checks.attempted, 1)
    if not args.trace:
        metrics["pass_ratio"] = (1.0 - failed / attempted, "ratio")
    print(f"operations attempted={attempted} failed={failed} fail_ratio={failed / attempted!r} "
          f"repetitions={len(reps)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name}={value!r} unit={unit}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
