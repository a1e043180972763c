#!/usr/bin/env python3
"""The node's benchmark: one command, four workloads, a per-layer ledger.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds `demaqd` and the
benchmark's own executable with dune, runs the workload, checks that the
outputs are correct, prints every metric by name and unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end metrics; with `--trace 1` the
run records spans and reports the per-layer metrics instead. It exits 1
when a correctness gate fails and 2 when it cannot run at all. The full
record of a run (seed, corpus hash, nproc, versions, validity, sample
counts) is written to _ledger_run/<workload>/result.json. See README.md.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("edge_fanout", "engine_etl", "paper_procurement", "restart_lowmatch")

END_TO_END = [
    ("setup_s", "s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("ceiling_rps", "req/s"),
    ("cascade_drain_ms", "ms"),
    ("node_cpu_ms_per_kreq", "ms"),
    ("docs_per_s", "doc/s"),
    ("alloc_words_per_doc", "words"),
    ("wal_bytes_per_doc", "B"),
    ("fsyncs_per_doc", "count"),
    ("mem_peak_mb", "MiB"),
]

# Layers only edge_fanout exercises. edge_fanout is not among the gated
# workloads (README.md), so these are printed on its runs only.
EDGE_LAYERS = [
    ("http.connect_us.p50", "us"),
    ("http.connect_us.p99", "us"),
    ("http.pre_handler_us.p50", "us"),
    ("http.pre_handler_us.p99", "us"),
    ("http.post_handler_us.p50", "us"),
    ("http.conns_per_req", "count"),
    ("ingress.handler_us.p50", "us"),
    ("ingress.handler_us.p99", "us"),
    ("ingress.gate_us.p50", "us"),
    ("ingress.shed", "count"),
    ("ctl.batch_target_end", "count"),
    ("ctl.increases", "count"),
    ("ctl.decreases", "count"),
    ("self.gen_wait_us_per_doc", "us"),
    ("self.http_us_per_doc", "us"),
    ("self.ingress_gate_us_per_doc", "us"),
    ("self.ingress_handler_us_per_doc", "us"),
]

# Layers only paper_procurement exercises (gateway transmits, echo timers,
# retention GC). paper_procurement is not gated either, so these too are
# printed on its runs only.
PROC_LAYERS = [
    ("ext.transmissions_per_doc", "count"),
    ("ext.retries", "count"),
    ("ext.dead_letters", "count"),
    ("timer.fired", "count"),
    ("timer.advance_us", "us"),
    ("gc.maintain_us", "us"),
    ("gc.collected_per_doc", "count"),
    ("self.timer_advance_us_per_doc", "us"),
    ("self.gc_maintain_us_per_doc", "us"),
]

PER_LAYER = [
    ("xml.parse_us_per_doc", "us"),
    ("xml.parse_words_per_doc", "words"),
    ("xml.decode_us_mean", "us"),
    ("xml.trees_per_msg", "count"),
    ("xml.decoded_bytes_per_msg", "B"),
    ("mq.inject_us_per_doc", "us"),
    ("mq.live_messages_end", "count"),
    ("dispatch.wait_us.p50", "us"),
    ("dispatch.wait_us.p99", "us"),
    ("dispatch.queued_max", "count"),
    ("exec.run_busy_frac", "ratio"),
    ("exec.run_us_per_msg", "us"),
    ("exec.lock_us_mean", "us"),
    ("exec.eval_us_mean", "us"),
    ("exec.apply_us_mean", "us"),
    ("exec.rule_evals_per_msg", "count"),
    ("exec.prefilter_skip_frac", "ratio"),
    ("exec.txn_aborts", "count"),
    ("store.wal_bytes_per_msg", "B"),
    ("store.fsyncs_per_msg", "count"),
    ("store.batch_fill", "count"),
    ("store.fsync_us.p50", "us"),
    ("store.fsync_us.p99", "us"),
    ("store.barrier_us.p99", "us"),
    ("store.open_s", "s"),
    ("store.replay_mb_per_s", "MB/s"),
    ("lang.deploy_s", "s"),
    ("self.glue_us_per_doc", "us"),
    ("self.setup_us_per_doc", "us"),
    ("self.store_open_us_per_doc", "us"),
    ("self.lang_deploy_us_per_doc", "us"),
    ("self.xml_parse_us_per_doc", "us"),
    ("self.mq_inject_us_per_doc", "us"),
    ("self.exec_run_us_per_doc", "us"),
    ("ledger.e2e_us_per_doc", "us"),
    ("ledger.self_sum_us_per_doc", "us"),
    ("ledger.gap_frac", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
]

# The benchmark's own wrapper spans. Their self time is the benchmark's
# code between layer calls: it is reported as a row of its own but kept out
# of the layers' sum, so time that no layer span covers shows as a gap.
GLUE = {"timed", "cycle", "request", "setup"}

# span name -> self-time metric it is booked under
SELF_METRIC = {
    "timed": "self.glue_us_per_doc",
    "cycle": "self.glue_us_per_doc",
    "request": "self.glue_us_per_doc",
    "gen.wait": "self.gen_wait_us_per_doc",
    "http.connect": "self.http_us_per_doc",
    "http.write": "self.http_us_per_doc",
    "http.first_byte": "self.http_us_per_doc",
    "http.close": "self.http_us_per_doc",
    "ingress.gate": "self.ingress_gate_us_per_doc",
    "ingress.handler": "self.ingress_handler_us_per_doc",
    "setup": "self.setup_us_per_doc",
    "store.open": "self.store_open_us_per_doc",
    "lang.deploy": "self.lang_deploy_us_per_doc",
    "xml.parse": "self.xml_parse_us_per_doc",
    "mq.inject": "self.mq_inject_us_per_doc",
    "exec.run": "self.exec_run_us_per_doc",
    "timer.advance": "self.timer_advance_us_per_doc",
    "gc.maintain": "self.gc_maintain_us_per_doc",
}

PROGRAMS = {
    "edge_fanout": "examples/order_fanout.demaq",
    "engine_etl": "examples/etl_pipeline.demaq",
    "paper_procurement": "ledger/procurement.qml",
    "restart_lowmatch": "",
}

# edge_fanout: the fixed-rate phase, the ceiling's latency limit and ladder
EDGE_FANOUT = 6  # an order plus its 5 derived messages
EDGE_RATE = 700.0  # req/s, well under the node's ceiling
EDGE_SEGMENT_S = 1.5  # segments of ~1050 arrivals, each followed by a drain
EDGE_WARMUP_S = 2.0  # unmeasured first segment: the controller settles
EDGE_FIXED_SHARE = 0.6  # of the run's seconds; the ladder takes the rest
EDGE_P99_LIMIT_MS = 50.0  # ceiling_rps: the p99 a ladder rung must meet
EDGE_LADDER = (700, 1000, 1400, 2000, 2800, 4000, 5600, 8000)  # req/s
EDGE_RUNG_SHARE = 0.05  # of the run's seconds, per ladder rung
EDGE_SETUPS = 5  # node start-ups per run; the last one serves the load
GEN_LATE_LIMIT_MS = 5.0  # generator lateness p99 above this marks a run invalid
NODE_FLAGS = ["--adaptive", "--ingress-port", "0"]

BUILD = ["dune", "build", "--root", ".", "./bin/demaqd.exe", "./ledger/ledger.exe"]
LEDGER_EXE = "_build/default/ledger/ledger.exe"
DEMAQD_EXE = "_build/default/bin/demaqd.exe"
WORK_ROOT = "_ledger_run"


class Unrunnable(Exception):
    pass


class GateFailed(Exception):
    """A correctness gate failed before the run's figures could be taken."""

    def __init__(self, failures, attempted, failed):
        super().__init__("; ".join(failures))
        self.failures, self.attempted, self.failed = failures, attempted, failed


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- checkout and build ----

def check_checkout():
    needed = ["dune-project", "bin/demaqd.ml", "lib", "examples/procurement.ml",
              "examples/order_fanout.demaq", "examples/etl_pipeline.demaq",
              "ledger/procurement.qml", "ledger/ledger.ml"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise Unrunnable("not a source checkout (missing %s)" % ", ".join(missing))
    # the benchmark's copy of the paper program must not drift from the example
    src = open("examples/procurement.ml", "rb").read()
    start = src.index(b"let program = {|") + len(b"let program = {|")
    example = src[start:src.index(b"|}", start)]
    if open("ledger/procurement.qml", "rb").read() != example:
        raise Unrunnable("ledger/procurement.qml differs from the program in examples/procurement.ml")


def build():
    # no shared dune cache: the build reads and writes inside the checkout only
    proc = subprocess.run(BUILD, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          env=child_env(DUNE_CACHE="disabled"))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        raise Unrunnable("build failed")


def child_env(**extra):
    env = dict(os.environ)
    env.pop("DEMAQ_WORKERS", None)  # one worker, as demaqd's default
    env.pop("OCAMLRUNPARAM", None)
    env.update(extra)
    return env


def versions():
    def out(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=10).stdout.decode().strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"
    return {"ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
            "commit": out(["git", "rev-parse", "HEAD"]),
            "nproc": os.cpu_count()}


# ---- in-process workloads ----

def run_inproc(workload, seed, seconds, trace, work):
    cmd = [LEDGER_EXE, "inproc", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work", work, "--program", PROGRAMS[workload]]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise Unrunnable("%s workload program exited %d" % (workload, proc.returncode))
    d = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    p = d["plain"]
    acks = [ms for ms, n in zip(p["ack_ms"], p["ack_docs"]) for _ in range(n)]
    pct, p99, beyond = stats.tail(acks)
    e2e = {
        "setup_s": stats.median(p["setup_s"]),
        "ack_p50_ms": stats.median(acks),
        "ack_p99_ms": p99,
        "ceiling_rps": p["enq_docs"] / p["enq_s"],
        "cascade_drain_ms": stats.median(p["drain_ms"]),
        # per-round medians: one disturbed round does not decide the run
        # (CPU seconds per document = ms per 1000 documents / 1e6)
        "node_cpu_ms_per_kreq": stats.median(p["cpu_per_doc_s"]) * 1e6,
        "docs_per_s": 1 / stats.median(p["per_doc_s"]),
        "alloc_words_per_doc": p["alloc_words"] / p["docs"],
        "wal_bytes_per_doc": p["wal_bytes"] / p["docs"],
        "fsyncs_per_doc": p["wal_syncs"] / p["docs"],
        "mem_peak_mb": d["top_heap_words"] * 8 / 2**20,
    }
    record = {
        "corpus_hash": d["corpus_hash"], "corpus_docs": d["corpus_docs"],
        "rounds": p["rounds"], "docs": p["docs"], "ack_samples": len(acks),
        "ack_tail_percentile": pct, "ack_samples_beyond_tail": beyond,
        "failures": d["failures"], "valid": True,
        "node_flags": "in-process: durable store, group commit batch 128, 1 worker",
    }
    layers = inproc_layers(workload, d, work) if trace else None
    return d["attempted"], d["failed"], e2e, layers, record


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_totals(spans, name):
    durs = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return sum(durs), len(durs)


def registry_layers(m, processed, docs):
    """Per-layer metrics read from the node's own registry (the same
    series /metrics exposes)."""
    evals = stats.counter(m, "demaq_rule_evaluations_total")
    skips = stats.counter(m, "demaq_prefilter_skips_total")
    group_syncs = stats.counter(m, "demaq_wal_group_syncs_total")
    wait = stats.histogram(m, "demaq_queue_wait_seconds")
    fsync = stats.histogram(m, "demaq_wal_fsync_seconds")
    return {
        "xml.decode_us_mean": stats.hist_mean(m, "demaq_phase_decode_seconds") * 1e6,
        "xml.trees_per_msg": stats.counter(m, "demaq_trees_materialized_total") / processed,
        "xml.decoded_bytes_per_msg": stats.counter(m, "demaq_payload_decoded_bytes_total") / processed,
        "dispatch.wait_us.p50": stats.hist_quantile(wait, 0.5) * 1e6,
        "dispatch.wait_us.p99": stats.hist_quantile(wait, 0.99) * 1e6,
        "exec.lock_us_mean": stats.hist_mean(m, "demaq_phase_lock_seconds") * 1e6,
        "exec.eval_us_mean": stats.hist_mean(m, "demaq_phase_eval_seconds") * 1e6,
        "exec.apply_us_mean": stats.hist_mean(m, "demaq_phase_apply_seconds") * 1e6,
        "exec.rule_evals_per_msg": evals / processed,
        "exec.prefilter_skip_frac": skips / (evals + skips) if evals + skips else 0.0,
        "exec.txn_aborts": stats.counter(m, "demaq_txn_aborts_total"),
        "store.wal_bytes_per_msg": stats.counter(m, "demaq_wal_bytes_total") / processed,
        "store.fsyncs_per_msg": stats.counter(m, "demaq_wal_syncs_total") / processed,
        "store.batch_fill": processed / group_syncs if group_syncs else 0.0,
        "store.fsync_us.p50": stats.hist_quantile(fsync, 0.5) * 1e6,
        "store.fsync_us.p99": stats.hist_quantile(fsync, 0.99) * 1e6,
        "store.barrier_us.p99": stats.hist_quantile(stats.histogram(m, "demaq_barrier_seconds"), 0.99) * 1e6,
        "ext.transmissions_per_doc": stats.counter(m, "demaq_transmissions_total") / docs,
        "ext.retries": stats.counter(m, "demaq_transmit_retries_total"),
        "ext.dead_letters": stats.counter(m, "demaq_dead_letters_total"),
        "timer.fired": stats.counter(m, "demaq_timers_fired_total"),
        "gc.collected_per_doc": stats.counter(m, "demaq_gc_collected_total") / docs,
    }


def ledger_metrics(layers, spans, roots, docs, e2e_us):
    """Book each span's self time under its layer and check that the
    layers' self times along the blocking path, the benchmark's own glue
    left out, add up to the end-to-end time."""
    totals = stats.self_by_name(spans, roots)
    booked = {}
    for name, secs in totals.items():
        metric = SELF_METRIC.get(name)
        if metric is None:
            raise Unrunnable("span %s has no ledger row" % name)
        booked[metric] = booked.get(metric, 0.0) + secs
    for metric, secs in booked.items():
        layers[metric] = secs * 1e6 / docs
    layer_sum = sum(secs for name, secs in totals.items() if name not in GLUE) * 1e6 / docs
    layers["ledger.e2e_us_per_doc"] = e2e_us
    layers["ledger.self_sum_us_per_doc"] = layer_sum
    layers["ledger.gap_frac"] = stats.ledger_gap(layer_sum, e2e_us)
    layers["trace.spans"] = len(spans)


def inproc_layers(workload, d, work):
    t = d["traced"]
    spans = load_spans(os.path.join(work, "spans.jsonl"))
    m = stats.merge([stats.parse_exposition(x) for x in t["expositions"]])
    docs, processed, rounds = t["docs"], t["processed"], t["rounds"]
    layers = registry_layers(m, processed, docs)
    run_s, _ = span_totals(spans, "exec.run")
    open_s, opens = span_totals(spans, "store.open")
    adv_s, advs = span_totals(spans, "timer.advance")
    gc_s, gcs = span_totals(spans, "gc.maintain")
    layers.update({
        "xml.parse_us_per_doc": t["parse_s"] * 1e6 / t["parse_docs"],
        "xml.parse_words_per_doc": t["parse_words"] / t["parse_docs"],
        "mq.inject_us_per_doc": t["enq_s"] * 1e6 / t["enq_docs"],
        "mq.live_messages_end": stats.counter(m, "demaq_store_live_messages") / rounds,
        "dispatch.queued_max": t["queued_max"],
        "exec.run_busy_frac": run_s / t["timed_s"],
        "exec.run_us_per_msg": run_s * 1e6 / processed,
        "store.open_s": open_s / opens,
        "store.replay_mb_per_s": t["replay_bytes"] / 1e6 / open_s,
        "timer.advance_us": adv_s * 1e6 / advs if advs else 0.0,
        "gc.maintain_us": gc_s * 1e6 / gcs if gcs else 0.0,
        "lang.deploy_s": stats.mean(d["deploy_empty_s"]),
    })
    # restart_lowmatch times its set-up (replay) as part of the work
    roots = {"timed", "setup"} if workload == "restart_lowmatch" else {"timed"}
    ledger_metrics(layers, spans, roots, docs, t["timed_s"] * 1e6 / docs)
    plain = stats.median(d["plain"]["per_doc_s"])
    layers["trace.overhead_pct"] = (stats.median(t["per_doc_s"]) / plain - 1) * 100
    return layers


# ---- edge_fanout ----

def http_get(port, path, timeout=5):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode(errors="replace")
    finally:
        conn.close()


class Node:
    """A node process serving the ingress on an ephemeral port."""

    def __init__(self, cmd, work, tag):
        self.err_path = os.path.join(work, tag + ".stderr")
        self.t0 = time.time()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=open(self.err_path, "wb"),
            env=child_env(OCAMLRUNPARAM="v=0x400"))
        self.port = None
        deadline = self.t0 + 30
        while time.time() < deadline:
            if self.proc.poll() is not None:
                raise Unrunnable("node exited at start-up: " + self.stderr()[-500:])
            if self.port is None:
                m = re.search(r"ingress: http://127\.0\.0\.1:(\d+)/", self.stderr())
                if m:
                    self.port = int(m.group(1))
            if self.port is not None:
                try:
                    if http_get(self.port, "/healthz", timeout=1)[0] == 200:
                        self.setup_s = time.time() - self.t0
                        return
                except OSError:
                    pass
            time.sleep(0.0005)
        self.kill()
        raise Unrunnable("node did not become healthy")

    def stderr(self):
        with open(self.err_path, "rb") as f:
            return f.read().decode(errors="replace")

    def metrics(self):
        return stats.parse_exposition(http_get(self.port, "/metrics")[1])

    def rss_peak_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise Unrunnable("no VmHWM for the node")

    def stop(self):
        """SIGTERM, wait, and return the GC statistics it prints at exit."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.kill()
            raise Unrunnable("node did not stop on SIGTERM")
        gc = dict(re.findall(r"^(\w+): ([\d.]+)$", self.stderr(), re.M))
        return {k: float(v) for k, v in gc.items()}

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def demaqd_cmd(store):
    return [DEMAQD_EXE, "run", PROGRAMS["edge_fanout"], "--store", store] + NODE_FLAGS


def host_cmd(store, spans):
    return [LEDGER_EXE, "host", "--program", PROGRAMS["edge_fanout"], "--store", store,
            "--spans", spans]


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def generate(node, seed, segments, work, tag, stop_p99_ms=0.0):
    records = os.path.join(work, tag + ".csv")
    cmd = [LEDGER_EXE, "gen", "--port", str(node.port), "--seed", str(seed),
           "--program", PROGRAMS["edge_fanout"],
           "--segments", ",".join("%g:%g" % s for s in segments),
           "--conns", str(os.cpu_count() or 1), "--fanout", str(EDGE_FANOUT),
           "--records", records, "--node-pid", str(node.proc.pid),
           "--stop-p99-ms", str(stop_p99_ms)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise Unrunnable("generator exited %d" % proc.returncode)
    summary = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    reqs = []
    with open(records) as f:
        for line in f:
            seq, seg, due, waited, t_start, t_conn, t_written, t_first, t_done, status = line.split(",")
            reqs.append({"seq": int(seq), "seg": int(seg), "due": float(due), "waited": waited == "1",
                         "t_start": float(t_start), "t_conn": float(t_conn),
                         "t_written": float(t_written), "t_first": float(t_first),
                         "t_done": float(t_done), "status": int(status)})
    return summary, reqs


def ok(r):
    return 200 <= r["status"] < 300


def fixed_phase(node, seed, seconds, work, tag):
    """The fixed-rate phase: arrivals at EDGE_RATE in segments, each
    followed by a timed drain of the whole cascade.
    The first segment is a warm-up that lets the group-commit controller
    settle; it is excluded from the figures. Returns the measured
    segments' summary and requests, every request (for the gate) and the
    registry delta over the phase."""
    n = max(2, int(round((seconds - EDGE_WARMUP_S) / EDGE_SEGMENT_S)))
    before = node.metrics()
    summary, reqs = generate(node, seed, [(EDGE_RATE, EDGE_WARMUP_S)] + [(EDGE_RATE, EDGE_SEGMENT_S)] * n,
                             work, tag)
    after = node.metrics()
    delta = stats.merge([before], sign=-1.0, into=after)
    summary["segments"] = summary["segments"][1:]
    measured = [dict(r, seg=r["seg"] - 1) for r in reqs if r["seg"] > 0]
    return summary, measured, reqs, delta


def phase_figures(summary, reqs):
    """End-to-end figures of a fixed-rate phase. Tail and per-request costs
    are taken per segment and reported as their median, so one stalled
    segment on a shared machine does not decide the run."""
    segs = summary["segments"]
    if any(s["drained"] < 0 for s in segs):
        raise Unrunnable("a fixed-rate segment did not drain")
    tick = os.sysconf("SC_CLK_TCK")
    accepted = [r for r in reqs if ok(r)]
    acks = [(r["t_done"] - r["due"]) * 1e3 for r in accepted]
    tails, cpu, syncs = [], [], []
    for i, s in enumerate(segs):
        mine = [(r["t_done"] - r["due"]) * 1e3 for r in accepted if r["seg"] == i]
        tails.append(stats.tail(mine))
        cpu.append(stats.cpu_ms_per_kreq(s["before"]["cpu_ticks"] / tick,
                                         s["after"]["cpu_ticks"] / tick, len(mine)))
        syncs.append((s["after"]["wal_syncs"] - s["before"]["wal_syncs"]) / len(mine))
    wal = segs[-1]["after"]["wal_bytes"] - segs[0]["before"]["wal_bytes"]
    late = [(r["t_start"] - r["due"]) * 1e3 for r in reqs if not r["waited"]]
    figures = {
        "ack_p50_ms": stats.median(acks),
        "ack_p99_ms": stats.median([v for _, v, _ in tails]),
        "cascade_drain_ms": stats.median([(s["drained"] - s["last_due"]) * 1e3 for s in segs]),
        "node_cpu_ms_per_kreq": stats.median(cpu),
        "docs_per_s": len(accepted) / sum(s["drained"] - s["t_start"] for s in segs),
        "wal_bytes_per_doc": wal / len(accepted),
        "fsyncs_per_doc": stats.median(syncs),
    }
    record = {
        "ack_samples": len(acks),
        "ack_tail_per_segment": [{"percentile": p, "ms": v, "beyond": n} for p, v, n in tails],
        "generator_late_p99_ms": stats.quantile(late, 0.99) if late else 0.0,
        "max_waiting_arrivals": summary["max_waiting"],
        "corpus_hash": summary["corpus_hash"],
    }
    return figures, record


def ladder(node, seed, seconds, work):
    """Rate ladder for ceiling_rps: rungs of EDGE_RUNG_SHARE of the run at
    the EDGE_LADDER rates, climbed until one misses the limit (the
    generator decides: p99 above it, a failed request or an undrained
    backlog). Returns the requests and [(rate, p99_ms, passed)]."""
    per = seconds * EDGE_RUNG_SHARE
    summary, reqs = generate(node, seed + 1, [(rate, per) for rate in EDGE_LADDER], work,
                             "ladder", stop_p99_ms=EDGE_P99_LIMIT_MS)
    rungs = []
    for i, seg in enumerate(summary["segments"]):
        lat = [(r["t_done"] - r["due"]) * 1e3 for r in reqs if r["seg"] == i]
        rungs.append((seg["rate"], stats.quantile(lat, 0.99) if lat else 0.0, seg["passed"]))
    return reqs, rungs


def ceiling(rungs):
    """The highest ladder rate that met the limit; 0 when none did."""
    return max((rate for rate, _, passed in rungs if passed), default=0.0)


def drain_gate(node, base, accepted, timeout=10.0):
    """Every accepted order's cascade committed: processed = 6 x accepted."""
    deadline = time.time() + timeout
    while True:
        processed = stats.counter(node.metrics(), "demaq_processed_total") - base
        if processed >= EDGE_FANOUT * accepted or time.time() > deadline:
            return processed
        time.sleep(0.01)


def edge_gate(node, base, reqs_all):
    accepted = sum(1 for r in reqs_all if ok(r))
    processed = drain_gate(node, base, accepted)
    failures = []
    if processed != EDGE_FANOUT * accepted:
        failures.append("processed %d messages for %d accepted orders (expected %d)"
                        % (processed, accepted, EDGE_FANOUT * accepted))
    fivexx = sum(1 for r in reqs_all if r["status"] >= 500)
    if fivexx:
        failures.append("%d requests answered 5xx" % fivexx)
    return failures


def run_edge(seed, seconds, trace, work):
    setups, node = [], None
    try:
        if trace:
            return run_edge_traced(seed, seconds, work)
        for i in range(EDGE_SETUPS):
            node = Node(demaqd_cmd(fresh(os.path.join(work, "store%d" % i))), work, "node%d" % i)
            setups.append(node.setup_s)
            if i < EDGE_SETUPS - 1:
                node.stop()
                node = None
        base = stats.counter(node.metrics(), "demaq_processed_total")
        summary, measured, reqs, _ = fixed_phase(node, seed, seconds * EDGE_FIXED_SHARE, work, "fixed")
        # peak RSS of the same work on every run, before the ladder's extent varies
        rss = node.rss_peak_mib()
        lreqs, rungs = ladder(node, seed, seconds, work)
        failures = edge_gate(node, base, reqs + lreqs)
        fixed_failed = sum(1 for r in reqs if not ok(r))
        gc = node.stop()
        node = None
        failed = fixed_failed + len(failures)
        if fixed_failed:
            failures.append("%d of %d fixed-rate requests failed" % (fixed_failed, len(reqs)))
        if failures:
            raise GateFailed(failures, len(reqs), failed)
        if "allocated_words" not in gc:
            raise Unrunnable("the node printed no GC statistics at exit")
        figures, record = phase_figures(summary, measured)
        e2e = dict(figures)
        e2e.update({
            "setup_s": stats.median(setups),
            "ceiling_rps": ceiling(rungs),
            "alloc_words_per_doc": gc["allocated_words"] / sum(1 for r in reqs + lreqs if ok(r)),
            "mem_peak_mb": rss,
        })
        record.update({
            "ladder": [{"rate": r, "p99_ms": p, "passed": c} for r, p, c in rungs],
            "p99_limit_ms": EDGE_P99_LIMIT_MS, "rate": EDGE_RATE,
            "fixed_requests": len(reqs), "failures": [],
            "node_flags": " ".join(NODE_FLAGS + ["--store DIR"]),
            "conns": os.cpu_count(),
        })
        record["valid"] = record["generator_late_p99_ms"] <= GEN_LATE_LIMIT_MS
        return len(reqs), 0, e2e, None, record
    finally:
        if node is not None:
            node.kill()


def run_edge_traced(seed, seconds, work):
    """Half the time against demaqd untraced, half against the traced
    host, same seed and rate: per-layer metrics come from the host, the
    difference between the halves is the tracing overhead."""
    plain = Node(demaqd_cmd(fresh(os.path.join(work, "store_plain"))), work, "plain")
    try:
        _, _, preqs, _ = fixed_phase(plain, seed, seconds / 2, work, "plain")
        failures = edge_gate(plain, 0, preqs)
    finally:
        plain.stop()
    spans_path = os.path.join(work, "node_spans.jsonl")
    host = Node(host_cmd(fresh(os.path.join(work, "store_traced")), spans_path), work, "traced")
    try:
        t_phase = time.time()
        summary, measured, reqs, delta = fixed_phase(host, seed, seconds / 2, work, "traced")
        wall = time.time() - t_phase
        failures += edge_gate(host, 0, reqs)
        live = stats.counter(host.metrics(), "demaq_store_live_messages")
        ctl_target = stats.counter(host.metrics(), "demaq_controller_batch_target")
    finally:
        host.stop()
    attempted = len(reqs) + len(preqs)
    not_ok = sum(1 for r in reqs + preqs if not ok(r))
    failed = not_ok + len(failures)
    if not_ok:
        failures.append("%d of %d requests failed" % (not_ok, attempted))
    if failures:
        raise GateFailed(failures, attempted, failed)
    node_spans = load_spans(spans_path)
    with open(spans_path + ".host.json") as f:
        host_info = json.load(f)
    accepted = [r for r in reqs if ok(r)]
    # generator-side spans, joined to the node's by request id
    spans, next_id = [], 1 + max((s["id"] for s in node_spans), default=0)
    by_rid = {}
    for s in node_spans:
        if s["rid"]:
            by_rid.setdefault(s["rid"], []).append(s)
    pre, post, conn_us = [], [], []
    for r in accepted:
        rid = "q%d" % r["seq"]
        root, first_byte = next_id, next_id + 4
        # request -> wait for a connection, connect, write, first byte (the
        # node's gate and handler run inside it), read to close
        for k, (name, t0, t1) in enumerate([
                ("request", r["due"], r["t_done"]),
                ("gen.wait", r["due"], r["t_start"]),
                ("http.connect", r["t_start"], r["t_conn"]),
                ("http.write", r["t_conn"], r["t_written"]),
                ("http.first_byte", r["t_written"], r["t_first"]),
                ("http.close", r["t_first"], r["t_done"])]):
            spans.append({"id": next_id + k, "name": name, "parent": -1 if k == 0 else root,
                          "rid": rid, "start": t0, "end": t1})
        next_id += 6
        conn_us.append((r["t_conn"] - r["t_start"]) * 1e6)
        for s in by_rid.get(rid, []):
            s["parent"] = first_byte
            if s["name"] == "ingress.handler":
                pre.append((s["start"] - r["t_start"]) * 1e6)
                post.append((r["t_done"] - s["end"]) * 1e6)
    spans += node_spans
    with open(os.path.join(work, "spans.jsonl"), "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
    processed = stats.counter(delta, "demaq_processed_total")
    layers = registry_layers(delta, processed, len(accepted))

    def durs(name):
        return [(s["end"] - s["start"]) * 1e6 for s in node_spans if s["name"] == name]
    handler, gate = durs("ingress.handler"), durs("ingress.gate")
    run_s = sum(durs("exec.run")) / 1e6
    layers.update({
        "http.connect_us.p50": stats.median(conn_us),
        "http.connect_us.p99": stats.tail(conn_us)[1],
        "http.pre_handler_us.p50": stats.median(pre),
        "http.pre_handler_us.p99": stats.tail(pre)[1],
        "http.post_handler_us.p50": stats.median(post),
        "http.conns_per_req": len([r for r in reqs if r["t_start"] > 0]) / len(reqs),
        "ingress.handler_us.p50": stats.median(handler),
        "ingress.handler_us.p99": stats.tail(handler)[1],
        "ingress.gate_us.p50": stats.median(gate),
        "xml.parse_us_per_doc": 0.0,
        "xml.parse_words_per_doc": 0.0,
        "mq.inject_us_per_doc": 0.0,
        "mq.live_messages_end": live,
        "dispatch.queued_max": host_info["queued_max"],
        "exec.run_busy_frac": run_s / wall,
        "exec.run_us_per_msg": run_s * 1e6 / processed,
        "store.open_s": stats.mean(durs("store.open")) / 1e6,
        "store.replay_mb_per_s": 0.0,
        "timer.advance_us": stats.mean(durs("timer.advance")),
        "gc.maintain_us": stats.mean(durs("gc.maintain")),
        "lang.deploy_s": stats.mean(durs("lang.deploy")) / 1e6,
        "ingress.shed": stats.counter(delta, "demaq_gate_shed_total"),
        "ctl.batch_target_end": ctl_target,
        "ctl.increases": stats.counter(delta, "demaq_controller_increases_total"),
        "ctl.decreases": stats.counter(delta, "demaq_controller_decreases_total"),
    })
    acks_us = [(r["t_done"] - r["due"]) * 1e6 for r in accepted]
    ledger_metrics(layers, spans, {"request"}, len(accepted), stats.mean(acks_us))
    plain_acks = [(r["t_done"] - r["due"]) * 1e6 for r in preqs if ok(r)]
    layers["trace.overhead_pct"] = (stats.mean(acks_us) / stats.mean(plain_acks) - 1) * 100
    _, record = phase_figures(summary, measured)
    record.update({"failures": [], "node_flags": "ledger host mirroring demaqd run "
                   + " ".join(NODE_FLAGS + ["--store DIR"])})
    record["valid"] = record["generator_late_p99_ms"] <= GEN_LATE_LIMIT_MS
    return attempted, 0, None, layers, record


# ---- main ----

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        check_checkout()
        build()
        work = os.path.join(WORK_ROOT, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        if args.workload == "edge_fanout":
            attempted, failed, e2e, layers, record = run_edge(
                args.seed, args.seconds, args.trace == 1, work)
        else:
            attempted, failed, e2e, layers, record = run_inproc(
                args.workload, args.seed, args.seconds, args.trace == 1, work)
    except GateFailed as e:
        for msg in e.failures:
            print("GATE FAILED: " + msg)
        print(json.dumps({"correct": False, "attempted": e.attempted, "failed": e.failed,
                          "metrics": {}}))
        return 1
    except (Unrunnable, OSError, subprocess.SubprocessError, ValueError, KeyError,
            ZeroDivisionError) as e:
        log("ledger: cannot run: %s" % e)
        return 2
    if layers is not None and not stats.ledger_ok(layers["ledger.self_sum_us_per_doc"],
                                                  layers["ledger.e2e_us_per_doc"]):
        # the ledger is this run's product: one that misses is a failed check
        record["failures"] = record.get("failures", []) + [
            "ledger: layer self times miss the end-to-end time by %.1f%% (limit %.0f%%)"
            % (100 * layers["ledger.gap_frac"], 100 * stats.LEDGER_TOLERANCE)]
        failed += 1
    correct = failed == 0
    metrics = {}
    if not args.trace:
        table, values = END_TO_END, e2e
    else:
        table = PER_LAYER + {"edge_fanout": EDGE_LAYERS,
                             "paper_procurement": PROC_LAYERS}.get(args.workload, [])
        values = layers
    for name, unit in table:
        v = values.get(name, 0.0)
        metrics[name] = {"value": v, "unit": unit}
        print("%-34s %14.6g %s" % (name, v, unit))
    record.update(versions())
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted, "metrics": metrics})
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(record, f, indent=1)
    print("%-34s %14.6g ratio" % ("failed_frac", failed / attempted))
    print("corpus %s  seed %d  nproc %s  ocaml %s  commit %s  valid %s"
          % (record["corpus_hash"], args.seed, record["nproc"], record["ocaml"],
             record["commit"][:12], record["valid"]))
    for msg in record.get("failures", []):
        print("GATE FAILED: " + msg)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
