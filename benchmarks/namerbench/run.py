"""The repository benchmark: ``repro serve`` and ``repro mine`` end to end.

Usage::

    python benchmarks/namerbench/run.py [--seed 7] [--seconds 10]
    python benchmarks/namerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload, untraced and then traced, and prints
every metric.  The second runs one workload: ``--trace 0`` is the
untraced pass and reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the untraced pass and then the traced pass with the
same settings and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is nonzero when a correctness
gate fails.

The programs under test run as subprocesses started through
``launch.py``; this process only generates inputs from the seed, drives
load, reads clocks and checks outputs.  The serving artifacts are mined
once per source tree into ``.bench_build/namerbench/`` and reused.
See README.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "namerbench"
LAUNCH = HERE / "launch.py"
REFERENCE = HERE / "reference.py"

if not (SRC / "repro" / "__main__.py").is_file():
    # Run from a directory without the program: nothing to measure.
    print(f"namerbench: no repro sources under {SRC}", file=sys.stderr)
    raise SystemExit(2)

sys.path.insert(0, str(SRC))

from repro.corpus.generator import GeneratorConfig, generate_python_corpus  # noqa: E402
from repro.corpus.javagen import generate_java_corpus  # noqa: E402
from repro.evaluation.loadtest import latency_percentile, normalized_digest  # noqa: E402
from repro.mining.frozen import FrozenArtifact, FrozenError  # noqa: E402
from repro.resilience.retry import CircuitOpenError, RetryPolicy  # noqa: E402
from repro.service.client import HttpClient, ServiceError, load_paths  # noqa: E402

from traces import Attribution, attribute, load, requests_in_window  # noqa: E402

WORKLOADS = ["serve_cold", "serve_hot", "serve_batch_java", "mine"]
#: Closed-loop client threads.  ``repro analyze-remote`` is one client
#: waiting on one request, so the batch workload has one.  No caller in
#: the repository fixes how many single-file clients run at once; two,
#: the core count of the machine the bounds were measured on, is an
#: assumption.
SERVE_CLIENTS = {"serve_cold": 2, "serve_hot": 2, "serve_batch_java": 1}
CONSISTENCY_LIMIT = 0.05
MIB = 1024 * 1024

#: Layers whose self time is reported, in ms per file processed.
LAYERS = [
    "cli.startup", "cli.main", "service.analyze", "service.result_cache",
    "core.prepare", "lang.parse", "analysis.origins", "analysis.facts",
    "analysis.pointsto", "datalog.solve", "core.transform", "core.namepath",
    "core.detect", "mining.intern", "mining.match", "core.stats_index",
    "core.featurize", "ml.classify", "core.reports", "core.mine",
    "cache.get", "cache.put", "persistence.namer_to_document",
    "persistence.save_document", "resilience.checkpoint_save",
    "mining.freeze", "core.all_violations", "core.train",
]
COUNTED_CALLS = ["lang.parse", "datalog.solve", "mining.match", "cache.get"]
MINE_PHASES = ["pairs", "prepare", "intern", "frequency", "growth", "generate", "prune", "stats"]
#: Metrics of the whole program, read from outside it.  ``BENCHMARK.json``
#: bounds throughput, set-up and memory, and lists the two latencies among
#: the per-layer metrics: on ``mine`` they are the median and the slowest
#: of five runs, which spread by up to 25% and 31% over ten seeds on a
#: noisy host, more than any bound the benchmark may set.
END_TO_END = ["files_per_s", "latency_p50_ms", "latency_p95_ms", "setup_s", "rss_peak_mb"]


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``--smoke`` swaps in tiny ones for the smoke test."""

    python_artifact: tuple[str, ...]
    java_artifact: tuple[str, ...]
    mine_repos: int
    spawns: int
    cold_warmup: int
    batch_warmup_repos: int
    hot_payloads: int
    pool_files: int
    pool_repos: int
    cold_checked: int
    #: A timed phase lasts ``--seconds`` and, past that, until this many
    #: requests were sent: with 200, ten samples lie beyond the p95.
    min_requests: int


FULL = Sizes(
    python_artifact=("--repos", "60", "--min-support", "20", "--min-frequency", "8"),
    java_artifact=("--language", "java", "--repos", "30"),
    mine_repos=30,
    spawns=3,
    cold_warmup=100,
    batch_warmup_repos=10,
    hot_payloads=64,
    pool_files=4000,
    pool_repos=500,
    cold_checked=200,
    min_requests=200,
)
SMOKE = Sizes(
    python_artifact=("--repos", "10", "--min-support", "10", "--min-frequency", "5"),
    java_artifact=("--language", "java", "--repos", "10"),
    mine_repos=6,
    spawns=1,
    cold_warmup=4,
    batch_warmup_repos=2,
    hot_payloads=8,
    pool_files=1000,
    pool_repos=200,
    cold_checked=10,
    min_requests=5,
)


class BenchError(RuntimeError):
    """The benchmark could not run the workload (not a wrong output)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def launch_cmd(args, trace: Path | None = None, edit: str | None = None) -> list[str]:
    cmd = [sys.executable, str(LAUNCH)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if edit is not None:
        cmd += ["--edit", edit]
    return cmd + [str(a) for a in args]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def frozen_fingerprint(path: Path) -> str | None:
    """The artifact checksum stamped in a frozen blob's header, or None
    when the blob fails the layout and array checks opening it runs."""
    try:
        return FrozenArtifact.open(path).header["fingerprint"]
    except FrozenError:
        return None


# ---------------------------------------------------------------------------
# Serving artifacts: mined once per source tree, reused by later runs


def source_key(args) -> str:
    digest = hashlib.sha256(" ".join(args).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def artifact(args: tuple[str, ...]) -> Path:
    """``repro mine --freeze`` output for ``args``, built on first use."""
    mine_args = ["mine", *args, "--freeze", "--no-cache", "--workers", "1"]
    final = WORK / "artifacts" / source_key(mine_args)
    if (final / "namer.json.frozen").is_file():
        return final / "namer.json"
    building = final.with_name(final.name + f".building-{os.getpid()}")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    print(f"building serving artifact: repro {' '.join(mine_args)}", flush=True)
    with open(building / "mine.log", "w") as log:
        code = subprocess.call(
            launch_cmd([*mine_args, "--out", building / "namer.json"]),
            stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
    if code != 0:
        raise BenchError(f"artifact build failed ({code}); see {building / 'mine.log'}")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(building, final)
    return final / "namer.json"


# ---------------------------------------------------------------------------
# Inputs


def payloads(seed: int, count: int) -> list[dict]:
    """``count`` never-seen Python files, each under a path of its own:
    single-file ``/analyze`` bodies, as ``HttpClient.analyze`` sends them."""
    repos = count // 4 + 1
    while True:
        corpus = generate_python_corpus(
            GeneratorConfig(num_repos=repos, issue_rate=0.12, seed=seed))
        files = [source for _, source in corpus.files()]
        if len(files) >= count:
            break
        repos *= 2
    return [
        {"path": f"s{seed}/{i}/{source.path}", "source": source.source, "language": "python"}
        for i, source in enumerate(files[:count])
    ]


def repo_payloads(seed: int, repos: int, inputs: Path) -> list[dict]:
    """One ``/analyze`` body per generated Java repository, built the way
    ``repro analyze-remote <repo>`` builds it: the repository is written
    to disk, its files are listed in sorted order and read by
    ``load_paths``.  Paths are relative to ``inputs``, as they are when
    the command runs there."""
    corpus = generate_java_corpus(GeneratorConfig(num_repos=repos, issue_rate=0.12, seed=seed))
    base = inputs / f"java-s{seed}"
    for _, source in corpus.files():
        target = base / source.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.source)
    out = []
    for repo in corpus.repositories:
        entries = load_paths(sorted(p for p in (base / repo.name).rglob("*") if p.is_file()))
        for entry in entries:
            entry["path"] = str(Path(entry["path"]).relative_to(inputs))
        out.append({"files": entries})
    return out


@dataclass
class ServeInputs:
    artifact: Path
    warmup: list[dict]
    timed: list[dict]
    cycle: bool


def serve_inputs(workload: str, seed: int, sizes: Sizes, run_dir: Path) -> ServeInputs:
    if workload == "serve_cold":
        return ServeInputs(
            artifact(sizes.python_artifact),
            payloads(seed + 1, sizes.cold_warmup),
            payloads(seed + 2, sizes.pool_files),
            cycle=False,
        )
    if workload == "serve_hot":
        hot = payloads(seed + 3, sizes.hot_payloads)
        return ServeInputs(artifact(sizes.python_artifact), hot, hot, cycle=True)
    inputs = run_dir / "inputs"
    return ServeInputs(
        artifact(sizes.java_artifact),
        repo_payloads(seed + 4, sizes.batch_warmup_repos, inputs),
        repo_payloads(seed + 5, sizes.pool_repos, inputs),
        cycle=False,
    )


# ---------------------------------------------------------------------------
# Serving: the server subprocess and a closed-loop load generator


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, artifact_path: Path, log: Path, trace: Path | None) -> None:
        self.trace = trace
        started = time.monotonic()
        self._log = open(log, "a")
        self.proc = subprocess.Popen(
            launch_cmd(["serve", "--artifacts", artifact_path, "--port", "0"], trace),
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(), cwd=ROOT,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r" on (http://[0-9.]+:[0-9]+) ", line)
            if match is None:
                raise BenchError(f"repro serve did not start: {line!r}; see {log}")
            self.url = match.group(1)
            client = HttpClient(self.url, timeout=60, retry=RetryPolicy(max_attempts=1))
            client.health(ready=True)
            client.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        """SIGTERM drains the server; its trace is written on the way out."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("repro serve did not drain within 60 s of SIGTERM")
        finally:
            self._log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"repro serve exited with {self.proc.returncode}")


@dataclass
class Sample:
    """One ``/analyze`` request as the client saw it."""

    index: int
    start: float
    end: float
    files: int
    body: dict | None
    error: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def results(self) -> list[dict]:
        return self.body["results"] if "results" in self.body else [self.body]

    @property
    def failed(self) -> bool:
        return self.body is None or any(r.get("error") for r in self.results())


class Feed:
    """Hands payloads to client threads: each once, or round robin."""

    def __init__(self, items: list[dict], cycle: bool) -> None:
        self.items = items
        self.cycle = cycle
        self.exhausted = False
        self.taken = 0
        self._lock = threading.Lock()

    def take(self) -> tuple[int, dict] | None:
        with self._lock:
            i = self.taken
            self.taken += 1
        if i >= len(self.items):
            if not self.cycle:
                self.exhausted = True
                return None
            i %= len(self.items)
        return i, self.items[i]


def send(client: HttpClient, feed: Feed, deadline: float | None,
         at_least: int = 0) -> list[Sample]:
    """Send the feed's payloads one after another until it runs out, or
    until ``deadline`` has passed and ``at_least`` of them were sent."""
    out = []
    while deadline is None or time.monotonic() < deadline or feed.taken < at_least:
        item = feed.take()
        if item is None:
            break
        index, payload = item
        files = len(payload["files"]) if "files" in payload else 1
        start = time.monotonic()
        try:
            body, error = client.request("POST", "/analyze", payload), None
        except (ServiceError, CircuitOpenError) as exc:
            body, error = None, str(exc)
        out.append(Sample(index, start, time.monotonic(), files, body, error))
    return out


def closed_loop(url: str, warmup: Feed, timed: Feed, clients: int, seconds: float,
                at_least: int) -> tuple[list[Sample], float]:
    """Each client sends its next request when the previous one returns.
    The timed phase lasts ``seconds``, or longer until ``at_least``
    requests were sent.
    A client keeps one connection through the untimed warm-up and the
    timed phase, as a real caller would; new connections would start new
    server threads and change the server's memory from run to run.  The
    first client sends the whole warm-up while the others only open
    their connections: the server sets up state lazily on the first
    request that reaches detection, and when two such requests overlap
    its peak memory ends about 19 MiB higher; whether they overlap
    depends on timing.  Returns the timed samples and the time the timed
    phase started."""
    samples: list[Sample] = []
    lock = threading.Lock()
    started: list[float] = []
    warmed = threading.Barrier(clients, action=lambda: started.append(time.monotonic()),
                               timeout=120)
    errors: list[Exception] = []

    def client_loop(k: int) -> None:
        client = HttpClient(url, timeout=120, retry=RetryPolicy(max_attempts=1))
        try:
            if k == 0:
                send(client, warmup, None)
            else:
                client.health()
            warmed.wait()
            local = send(client, timed, started[0] + seconds, at_least)
            with lock:
                samples.extend(local)
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)
            warmed.abort()
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(k,)) for k in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"a load client failed: {errors[0]!r}")
    return samples, started[0]


@dataclass
class ServePass:
    setups: list[float]
    samples: list[Sample]
    window: tuple[float, float]
    rss_mb: float
    trace: Path | None


def serve_pass(workload: str, inputs: ServeInputs, seconds: float, sizes: Sizes,
               run_dir: Path, traced: bool) -> ServePass:
    tag = "traced" if traced else "untraced"
    setups = []

    def spawn(k: int) -> Server:
        trace = run_dir / f"{tag}-serve-{k}.trace.json" if traced else None
        server = Server(inputs.artifact, run_dir / f"{tag}-serve.log", trace)
        setups.append(server.setup_s)
        return server

    # Set-up is timed on servers started before and after the timed
    # phase, not back to back: on a shared host CPU speed drifts over
    # seconds, and spread-out starts give the median more than one
    # stretch of it.
    before = (sizes.spawns - 1) // 2
    for k in range(before):
        spawn(k).stop()
    server = spawn(before)
    try:
        feed = Feed(inputs.timed, inputs.cycle)
        samples, start = closed_loop(server.url, Feed(inputs.warmup, cycle=False), feed,
                                     SERVE_CLIENTS[workload], seconds, sizes.min_requests)
        if feed.exhausted:
            raise BenchError(
                f"{workload}: the pool of {len(inputs.timed)} payloads ran out "
                "within the timed phase; raise its size in Sizes"
            )
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    for k in range(before + 1, sizes.spawns):
        spawn(k).stop()
    end = max(s.end for s in samples)
    return ServePass(setups, samples, (start, end), rss, server.trace)


def serve_end_to_end(p: ServePass) -> dict[str, tuple[float, int]]:
    ok = [s for s in p.samples if not s.failed]
    latencies = [s.seconds for s in ok]
    files = sum(s.files for s in ok)
    return {
        "files_per_s": (files / (p.window[1] - p.window[0]), files),
        "latency_p50_ms": (statistics.median(latencies) * 1000, len(latencies)),
        "latency_p95_ms": (latency_percentile(latencies, 95) * 1000, len(latencies)),
        "setup_s": (statistics.median(p.setups), len(p.setups)),
        "rss_peak_mb": (p.rss_mb, 1),
    }


def serve_wire(p: ServePass) -> dict[str, tuple[float, int]]:
    """Layer numbers readable from untraced responses: the engine's own
    ``elapsed_ms`` and which cache answered."""
    ok = [s for s in p.samples if not s.failed]
    engine_ms = [s.results()[0]["elapsed_ms"] for s in ok]
    wire_ms = [s.seconds * 1000 - e for s, e in zip(ok, engine_ms)]
    results = [r for s in ok for r in s.results()]
    hits = sum(1 for r in results if r["cache_level"] in ("memory", "disk"))
    return {
        "http.wire_ms": (statistics.median(wire_ms), len(ok)),
        "service.engine_ms": (statistics.median(engine_ms), len(ok)),
        "service.cache_hit_ratio": (hits / len(results), len(results)),
    }


def layer_metrics(total: Attribution, files: int, runs: int) -> dict[str, tuple[float, int]]:
    """Self time per file, counts per file, and ratios from summed spans."""
    per_file = 1000.0 / files
    out = {name: (total.self_seconds.get(name, 0.0) * per_file, total.calls.get(name, 0))
           for name in LAYERS}
    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = (total.calls.get(name, 0) / files, total.calls.get(name, 0))
    out["datalog.tuples"] = (total.values.get("datalog.solve", 0) / files,
                             total.calls.get("datalog.solve", 0))
    out["core.paths"] = (total.values.get("core.namepath", 0) / files,
                         total.calls.get("core.namepath", 0))
    out["analysis.pointsto_fallback_ratio"] = ratio(
        total.values.get("analysis.pointsto", 0), total.calls.get("analysis.pointsto", 0))
    out["cache.hit_ratio"] = ratio(total.values.get("cache.get", 0),
                                   total.calls.get("cache.get", 0))
    out["cache.bytes_written"] = (total.values.get("cache.put", 0) / MIB / runs,
                                  total.calls.get("cache.put", 0))
    return out


def ratio(part: int, whole: int) -> tuple[float, int]:
    return (part / whole if whole else 0.0, whole)


def serve_layers(p: ServePass) -> tuple[dict[str, tuple[float, int]], float]:
    """Per-layer metrics of the traced pass's timed window, plus the
    self-time consistency error (worst request, or the share of window
    time spent in spans no request owns)."""
    requests, orphan_seconds = requests_in_window(load(p.trace), *p.window)
    if not requests:
        raise BenchError("the traced server recorded no request in the timed window")
    total = Attribution()
    for request in requests:
        total.add(request.attribution)
    files = sum(len(r.paths) for r in requests)
    roots = sum(r.root_seconds for r in requests)
    error = max(max(r.error for r in requests), orphan_seconds / roots)
    return layer_metrics(total, files, 1), error


def reference_digests(artifact_path: Path, items: dict[int, dict],
                      run_dir: Path) -> dict[int, str]:
    """What an in-process engine on the same artifact answers, from
    ``reference.py`` processes that each take a share of the payloads:
    one per core, at most two, which halves the wait on a 2-core box."""
    keys = sorted(items)
    workers = min(2, len(os.sched_getaffinity(0)), len(keys))
    shares = [keys[k::workers] for k in range(workers)]
    procs = []
    try:
        for k, share in enumerate(shares):
            path = run_dir / f"reference-{k}.json"
            path.write_text(json.dumps([items[i] for i in share]))
            procs.append(subprocess.Popen(
                [sys.executable, str(REFERENCE), str(artifact_path), str(path)],
                stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
            ))
        out = {}
        for share, proc in zip(shares, procs):
            stdout, _ = proc.communicate(timeout=170)
            if proc.returncode != 0:
                raise BenchError(f"reference.py exited with {proc.returncode}")
            out.update(zip(share, json.loads(stdout.splitlines()[-1])))
        return out
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def check_serve(workload: str, inputs: ServeInputs, passes: list[ServePass], seed: int,
                sizes: Sizes, run_dir: Path) -> tuple[list[str], dict]:
    """Compare served reports with an in-process reference: every
    payload on serve_hot / serve_batch_java, a seeded sample of the
    untraced pass's payloads on serve_cold."""
    failures = []
    sent = sorted({s.index for s in passes[0].samples})
    if workload == "serve_cold":
        checked = set(random.Random(seed).sample(sent, min(sizes.cold_checked, len(sent))))
    else:
        checked = {s.index for p in passes for s in p.samples}
    reference = reference_digests(inputs.artifact, {i: inputs.timed[i] for i in checked},
                                  run_dir)
    compared = 0
    for p in passes:
        for s in p.samples:
            if s.index not in reference or s.body is None:
                continue
            compared += 1
            if normalized_digest(s.body) != reference[s.index]:
                failures.append(f"{workload}: payload {s.index} differs from the reference")
    required = {"serve_hot": 1.0, "serve_cold": 0.0}.get(workload)
    hit_ratio = serve_wire(passes[0])["service.cache_hit_ratio"][0]
    if required is not None and hit_ratio != required:
        failures.append(f"{workload}: cache hit ratio {hit_ratio} (must be {required})")
    output = hashlib.sha256(
        json.dumps([reference[k] for k in sorted(reference)]).encode()
    ).hexdigest()
    return failures, {"responses_checked": compared, "payloads_checked": len(reference),
                      "output_digest": output}


# ---------------------------------------------------------------------------
# Mining: a sequence of ``repro mine`` runs


@dataclass
class MineRun:
    kind: str
    seconds: float
    rss_mb: float
    code: int
    artifact_sha256: str | None
    frozen_fingerprint: str | None
    trace: Path | None


def mine_run(kind: str, args: list, out: Path, log: Path, trace: Path | None,
             edit: str | None = None) -> MineRun:
    with open(log, "a") as handle:
        started = time.monotonic()
        proc = subprocess.Popen(launch_cmd(args, trace, edit), stdout=handle,
                                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(170, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.monotonic() - started
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    ok = code == 0
    return MineRun(
        kind, seconds, usage.ru_maxrss / 1024, code,
        sha256_file(out) if ok else None,
        frozen_fingerprint(out.with_name(out.name + ".frozen")) if ok else None,
        trace,
    )


def mine_files(sizes: Sizes) -> int:
    """Files in the corpus ``repro mine`` generates with its default seed."""
    return generate_python_corpus(
        GeneratorConfig(num_repos=sizes.mine_repos, issue_rate=0.12, seed=7)
    ).file_count()


def mine_pass(seed: int, sizes: Sizes, files: int, run_dir: Path,
              traced: bool) -> list[MineRun]:
    """A no-cache run, a run that fills a fresh cache, a re-run with
    nothing changed, a re-run after a one-line edit that the seed picks,
    and a second cache fill, so that set-up has a median of two."""
    tag = "traced" if traced else "untraced"
    out = run_dir / "mine" / "namer.json"
    caches = [run_dir / "mine" / f"{tag}-cache-{k}" for k in range(2)]
    out.parent.mkdir(parents=True, exist_ok=True)
    for cache in caches:
        shutil.rmtree(cache, ignore_errors=True)
    log = run_dir / f"{tag}-mine.log"
    base = ["mine", "--repos", sizes.mine_repos, "--freeze", "--workers", "1", "--out", out]
    edit = f"{random.Random(seed).randrange(files)}:namerbench edit {seed}"
    plan = [
        ("nocache", [*base, "--no-cache"], None),
        ("fill", [*base, "--cache-dir", caches[0]], None),
        ("zero_edit", [*base, "--cache-dir", caches[0]], None),
        ("one_edit", [*base, "--cache-dir", caches[0]], edit),
        ("fill", [*base, "--cache-dir", caches[1]], None),
    ]
    runs = []
    for step, (kind, args, edit_spec) in enumerate(plan):
        trace = run_dir / f"{tag}-mine-{step}.trace.json" if traced else None
        runs.append(mine_run(kind, args, out, log, trace, edit_spec))
    for cache in caches:
        shutil.rmtree(cache, ignore_errors=True)
    return runs


def of_kind(runs: list[MineRun], *kinds: str) -> list[float]:
    return [r.seconds for r in runs if r.kind in kinds]


def mine_end_to_end(runs: list[MineRun], files: int) -> dict[str, tuple[float, int]]:
    """Throughput and latency over the whole sequence of runs: every run
    reads the full corpus, and a figure over all of them is steadier
    than one over the single run of each kind."""
    walls = [r.seconds for r in runs]
    return {
        "files_per_s": (files * len(runs) / sum(walls), len(runs)),
        "latency_p50_ms": (statistics.median(walls) * 1000, len(walls)),
        "latency_p95_ms": (latency_percentile(walls, 95) * 1000, len(walls)),
        "setup_s": (statistics.median(of_kind(runs, "fill")), len(of_kind(runs, "fill"))),
        "rss_peak_mb": (statistics.median(r.rss_mb for r in runs), len(runs)),
    }


def mine_runs_metrics(runs: list[MineRun]) -> dict[str, tuple[float, int]]:
    out = {}
    for name, kind in (("mine.nocache_s", "nocache"), ("mine.remine_s", "zero_edit"),
                       ("mine.remine_edit_s", "one_edit")):
        values = of_kind(runs, kind)
        out[name] = (statistics.median(values), len(values))
    return out


def mine_layers(runs: list[MineRun], files: int) -> tuple[dict[str, tuple[float, int]], float]:
    """Per-layer metrics summed over every traced run, per corpus file per
    run, plus the worst share of a run's wall time no span covers."""
    total = Attribution()
    phases: dict[str, float] = {}
    error = 0.0
    for run in runs:
        trace = load(run.trace)
        attribution = attribute(trace["spans"])
        total.add(attribution)
        error = max(error, abs(run.seconds - attribution.covered) / run.seconds)
        for rows in trace["phases"]:
            for row in rows:
                phases[row["phase"]] = phases.get(row["phase"], 0.0) + row["seconds"]
    out = layer_metrics(total, files * len(runs), len(runs))
    for phase in MINE_PHASES:
        out[f"mine.phase.{phase}"] = (phases.get(phase, 0.0) * 1000 / (files * len(runs)),
                                      len(runs))
    return out, error


def check_mine(runs: list[MineRun]) -> tuple[list[str], dict]:
    failures = [f"mine: {r.kind} run exited with {r.code}" for r in runs if r.code != 0]
    failures += [f"mine: {r.kind} run wrote a frozen blob that does not verify"
                 for r in runs if r.code == 0 and r.frozen_fingerprint is None]
    shas = {r.artifact_sha256 for r in runs if r.code == 0}
    fingerprints = {r.frozen_fingerprint for r in runs if r.code == 0}
    if len(shas) > 1:
        failures.append(f"mine: {len(shas)} different artifacts across cache states")
    if len(fingerprints) > 1:
        failures.append(f"mine: {len(fingerprints)} different frozen fingerprints")
    return failures, {
        "runs_checked": len(runs),
        "output_digest": next(iter(shas)) if len(shas) == 1 else None,
        "frozen_fingerprint": next(iter(fingerprints)) if len(fingerprints) == 1 else None,
    }


# ---------------------------------------------------------------------------
# One workload, both passes


@dataclass
class Outcome:
    workload: str
    end_to_end: dict[str, tuple[float, int]]
    per_layer: dict[str, tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def overhead(untraced: dict, traced: dict) -> dict[str, tuple[float, int]]:
    """How many times worse each end-to-end metric reads with tracing on."""
    out = {}
    for name in END_TO_END:
        base, with_trace = untraced[name][0], traced[name][0]
        factor = base / with_trace if name == "files_per_s" else with_trace / base
        out[f"trace.overhead.{name}"] = (factor, traced[name][1])
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes) -> Outcome:
    run_dir = WORK / "runs" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if workload == "mine":
        return run_mine(seed, trace, sizes, run_dir)
    return run_serve(workload, seed, seconds, trace, sizes, run_dir)


def run_mine(seed: int, trace: bool, sizes: Sizes, run_dir: Path) -> Outcome:
    files = mine_files(sizes)
    runs = mine_pass(seed, sizes, files, run_dir, traced=False)
    outcome = Outcome("mine", mine_end_to_end(runs, files), attempted=len(runs),
                      failed=sum(1 for r in runs if r.code != 0))
    layers = {name: (0.0, 0) for name in ("http.wire_ms", "service.engine_ms",
                                          "service.cache_hit_ratio")}
    layers.update(mine_runs_metrics(runs))
    if trace and not outcome.failed:
        traced = mine_pass(seed, sizes, files, run_dir, traced=True)
        runs += traced
        traced_layers, error = mine_layers(traced, files)
        layers.update(traced_layers)
        layers.update(overhead(outcome.end_to_end, mine_end_to_end(traced, files)))
        layers["trace.consistency_error"] = (error, len(traced))
    outcome.per_layer = layers
    outcome.failures, outcome.digests = check_mine(runs)
    outcome.detail = {"corpus_files": files,
                      "runs": [[r.kind, r.seconds, r.rss_mb] for r in runs]}
    return outcome


def run_serve(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
              run_dir: Path) -> Outcome:
    inputs = serve_inputs(workload, seed, sizes, run_dir)
    passes = [serve_pass(workload, inputs, seconds, sizes, run_dir, traced=False)]
    untraced = passes[0]
    outcome = Outcome(workload, serve_end_to_end(untraced),
                      attempted=len(untraced.samples),
                      failed=sum(1 for s in untraced.samples if s.failed))
    outcome.per_layer = serve_wire(untraced)
    if trace:
        passes.append(serve_pass(workload, inputs, seconds, sizes, run_dir, traced=True))
        layers, error = serve_layers(passes[1])
        outcome.per_layer.update(layers)
        outcome.per_layer.update({name: (0.0, 0) for name in (
            "mine.nocache_s", "mine.remine_s", "mine.remine_edit_s")})
        outcome.per_layer.update({f"mine.phase.{phase}": (0.0, 0) for phase in MINE_PHASES})
        outcome.per_layer.update(overhead(outcome.end_to_end, serve_end_to_end(passes[1])))
        outcome.per_layer["trace.consistency_error"] = (error, len(passes[1].samples))
        if error > CONSISTENCY_LIMIT:
            outcome.failures.append(
                f"{workload}: layer self times miss the request span by {error:.1%} "
                f"(limit {CONSISTENCY_LIMIT:.0%})")
    failures, outcome.digests = check_serve(workload, inputs, passes, seed, sizes, run_dir)
    outcome.failures += failures
    errors = [s.error or str([r["error"] for r in s.results()])
              for p in passes for s in p.samples if s.failed]
    outcome.detail = {"setup_s": [p.setups for p in passes],
                      "requests": [len(p.samples) for p in passes],
                      "first_errors": errors[:5]}
    return outcome


# ---------------------------------------------------------------------------
# Output


def provenance() -> dict:
    """Which commit and which machine produced a record."""
    import numpy

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    toplevel = git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel.strip()).resolve() == ROOT
    commit = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain") if in_repo else None
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(outcome: Outcome, names: list[dict], prefix: str = "") -> dict:
    """Metrics in ``BENCHMARK.json`` order, each with its unit."""
    measured = {**outcome.end_to_end, **outcome.per_layer}
    out = {}
    for spec in names:
        if spec["name"] not in measured:
            raise BenchError(f"{outcome.workload}: metric {spec['name']} was not measured")
        value, n = measured[spec["name"]]
        out[prefix + spec["name"]] = {"value": value, "unit": spec["unit"], "n": n}
    return out


def print_table(outcome: Outcome, metrics: dict) -> None:
    print(f"== {outcome.workload}: {outcome.attempted} attempted, {outcome.failed} failed, "
          f"error_ratio {outcome.failed / max(1, outcome.attempted):.4f}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.4f} {m['unit']:<12} n={m['n']}")
    for failure in outcome.failures:
        print(f"  GATE FAILED: {failure}")


def record(outcome: Outcome, seed: int, seconds: float, trace: bool, stamp: dict) -> Path:
    path = WORK / "results" / f"{outcome.workload}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if not outcome.digests.get("output_digest"):
        outcome.failures.append(f"{outcome.workload}: no output digest in the results")
    path.write_text(json.dumps({
        "workload": outcome.workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": stamp,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "end_to_end": outcome.end_to_end, "per_layer": outcome.per_layer,
        "digests": outcome.digests, "failures": outcome.failures, "detail": outcome.detail,
    }, indent=1))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase of each serve workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the ``finally`` blocks that stop every
    # server and ``repro mine`` run this process started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = contract()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sizes = SMOKE if args.smoke else FULL
    stamp = provenance()
    print(f"namerbench seed {args.seed}, {seconds:g} s per serve pass; "
          f"provenance {json.dumps(stamp)}", flush=True)

    if args.workload is not None:
        trace = bool(args.trace)
        plan = [(args.workload, trace)]
    else:
        plan = [(workload, True) for workload in WORKLOADS]
    outcomes, metrics = [], {}
    for workload, trace in plan:
        try:
            outcome = run_workload(workload, args.seed, seconds, trace, sizes)
            path = record(outcome, args.seed, seconds, trace, stamp)
            if args.workload is not None:
                shown = emit(outcome, spec["per_layer"] if trace else spec["end_to_end"])
            else:
                shown = emit(outcome, spec["end_to_end"] + spec["per_layer"], f"{workload}.")
        except BenchError as exc:
            print(f"namerbench: {exc}", file=sys.stderr)
            return 1
        print_table(outcome, shown)
        print(f"  results: {path}", flush=True)
        outcomes.append(outcome)
        metrics.update(shown)
    correct = not any(o.failures for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
