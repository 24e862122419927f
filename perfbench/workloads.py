"""The three workloads, built from three kinds of unit.

  cold     `plan` of one session at budgets never asked before (every answer
           cached:false)
  browse   through phocus_coordinator, for one session: cache-hit `plan`s,
           `explain` of seeded photos, and `coverage`
  ingest   one step of a durable ingest episode on its own phocusd
           (--wal-dir): start the session and its streamer, one `ingest` of a
           bursty stream, or one crash cycle: SIGKILL with a trickle still
           queued, restart on the same WAL directory, session re-creation
           and `ingest_flush`

Every end-to-end metric is reported on every workload, so every round of a
workload's timed loop holds units of each kind; the workloads differ in
which unit carries the inputs they are named for (see FULL). Interleaving
spreads each metric's samples over the whole run, so a slow spell of the
machine weighs on all of them alike. One client thread drives everything in
a closed loop; each daemon runs one worker and a global pool of one thread;
no request carries a deadline and the ingest policy has no staleness
fallback, so replan and skip counts repeat exactly.
"""

import hashlib
import json
import os
import statistics
import subprocess
import time
from collections import defaultdict

import checks
from wire import Conn, Daemons, ServiceError

# photos: corpus size per session; fractions: budgets as shares of the
# session's bytes; hits, explains: cache-hit plans and explains per browse
# unit; steps: ingest steps per round.
FULL = {
    "plan": {"cold": {"sessions": 4, "photos": 800,
                      "fractions": [0.1, 0.25, 0.5]},
             "browse": {"hits": 12, "explains": 2}, "ingest": "small",
             "steps": 3},
    "ingest": {"cold": {"sessions": 2, "photos": 600, "fractions": [0.2]},
               "browse": {"hits": 8, "explains": 1}, "ingest": "large",
               "steps": 1},
    "browse": {"browse": {"shards": 2, "sessions": 4, "photos": 600,
                          "fraction": 0.25, "hits": 4, "explains": 1},
               "cold": {"fractions": [0.2]}, "ingest": "small", "steps": 3},
}

# Tiny sizes for the smoke test: every unit and check, in seconds.
SMOKE = {
    "plan": {"cold": {"sessions": 2, "photos": 250, "fractions": [0.2, 0.4]},
             "browse": {"hits": 2, "explains": 2}, "ingest": "tiny",
             "steps": 2},
    "ingest": {"cold": {"sessions": 1, "photos": 200, "fractions": [0.3]},
               "browse": {"hits": 2, "explains": 1}, "ingest": "tiny",
               "steps": 1},
    "browse": {"browse": {"shards": 2, "sessions": 2, "photos": 250,
                          "fraction": 0.25, "hits": 1, "explains": 1},
               "cold": {"fractions": [0.4]}, "ingest": "tiny", "steps": 2},
}

INGEST = {
    # photos is the base corpus, which every restart generates again; the
    # arrivals come back from the WAL. A small base keeps a crash cycle
    # cheap while the recovery still replans the grown corpus. On seeds 1-3
    # the dumps of 200 and more photos replanned at epsilon 8 and the
    # 40-photo trickle drains (and the 150-photo dump of "large") were
    # certified below_epsilon skips. The photos after the last drain stay
    # queued for the first crash; each further crash has a fresh trickle of
    # `trickle` photos queued (fewer than batch_photos, so none drains).
    "large": {"photos": 300, "fraction": 0.3,
              "pattern": [300, 10, 10, 10, 10, 350, 10, 10, 10, 150, 10, 10,
                          7],
              "recoveries": 3, "trickle": 27},
    "small": {"photos": 200, "fraction": 0.3,
              "pattern": [200, 10, 10, 10, 10, 300, 10, 10, 7],
              "recoveries": 4, "trickle": 27},
    "tiny": {"photos": 150, "fraction": 0.3, "pattern": [60, 10, 10, 5],
             "recoveries": 2, "trickle": 5},
}
# The budget follows the corpus (30% of its bytes), so the plan's quality
# does not sink as the collection grows.
INGEST_POLICY = {"epsilon": 8.0, "batch_photos": 32, "queue_photos": 1024,
                 "max_staleness_ms": 0, "budget_fraction": 0.3}

# Verbs whose server-side handling time the traced run reports.
TRACED_VERBS = ["create_session", "plan", "explain", "coverage", "set_budget",
                "ingest", "ingest_flush"]
RESPONSE_VERBS = ["plan", "explain", "coverage", "ingest", "ingest_flush"]

median = statistics.median
mean = statistics.fmean


def rebalanced(total_bytes):
    """The budget phocusd derives from budget_fraction (streaming.cc)."""
    return int(INGEST_POLICY["budget_fraction"] * total_bytes)


class Bench:
    """One run: the daemons, the client, the samples and the counts."""

    def __init__(self, bins, run_dir, seed, seconds, trace):
        self.bins = bins
        self.run_dir = run_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.daemons = Daemons(run_dir)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PHOCUS_")}
        self.env["PHOCUS_NUM_THREADS"] = "1"
        self.attempted = 0
        self.failed = 0
        self.response_bytes = defaultdict(list)
        self.server_ns = defaultdict(lambda: [0.0, 0])
        self.cache_counts = [0, 0]
        self.cold_latency = []
        self.cold_fraction = []
        self.hit_latency = []
        self.relayed_hit_latency = []
        self.direct_hit_latency = []
        self.explain_latency = []
        self.episodes = []
        self.score_check = None
        self.notes = []

    # -- plumbing ---------------------------------------------------------

    def derive(self, *labels):
        """A corpus, batch or photo seed for `labels`, fixed by --seed."""
        text = "/".join(str(x) for x in (self.seed,) + labels)
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                              "big") + 1

    def call(self, conn, endpoint, params):
        self.attempted += 1
        try:
            result = conn.call(endpoint, params)
        except (ServiceError, OSError) as error:
            self.failed += 1
            raise checks.CheckError(f"{endpoint} failed: {error}") from error
        self.response_bytes[endpoint].append(conn.last_response_bytes)
        return result

    def phocusd(self, name, wal_dir=None):
        argv = [self.bins["phocusd"], "--host=127.0.0.1", "--port=0",
                "--workers=1", "--queue=8", "--cache=256",
                f"--flight-dump={name}-flight.json"]
        if wal_dir:
            argv.append(f"--wal-dir={wal_dir}")
        return self.daemons.start(argv, self.env, name)

    def coordinator(self, ports):
        shards = ",".join(f"127.0.0.1:{p}" for p in ports)
        return self.daemons.start(
            [self.bins["coordinator"], "--host=127.0.0.1", "--port=0",
             f"--shards={shards}", "--flight-dump=coordinator-flight.json"],
            self.env, "coordinator")

    def collect_server_metrics(self, conn):
        """Traced runs: adds up a phocusd's handling-time histograms."""
        if not self.trace:
            return
        snapshot = conn.call("metrics", {})
        histograms = snapshot["metrics"].get("histograms", {})
        for verb in TRACED_VERBS + ["queue_wait"]:
            key = ("service.queue_wait_ns" if verb == "queue_wait"
                   else f"service.endpoint.{verb}_ns")
            if key in histograms:
                self.server_ns[verb][0] += histograms[key]["sum"]
                self.server_ns[verb][1] += histograms[key]["count"]
        cache = snapshot["server"]["plan_cache"]
        self.cache_counts[0] += cache["hits"]
        self.cache_counts[1] += cache["misses"]

    def stop(self, proc, conn):
        """SIGKILL after reading the daemon's metrics (traced runs)."""
        self.collect_server_metrics(conn)
        conn.close()
        self.daemons.kill(proc)

    def probe(self, request):
        done = subprocess.run([self.bins["probe"]], input=json.dumps(request),
                              capture_output=True, text=True, env=self.env,
                              cwd=self.run_dir, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"perfbench_probe failed: {done.stderr}")
        return json.loads(done.stdout)

    def create_sessions(self, conn, count, photos, label, routing=None):
        sessions = []
        for i in range(count):
            seed = self.derive(label, i)
            params = {"corpus": {"kind": "openimages", "num_photos": photos,
                                 "seed": seed}}
            if routing is not None:
                params["routing_key"] = routing[i]
            info = self.call(conn, "create_session", params)
            checks.require(info["num_photos"] == photos,
                           "session has the wrong photo count")
            sessions.append({"id": info["session"], "local": info["session"],
                             "seed": seed, "photos": photos,
                             "total": info["total_bytes"], "explained": []})
        return sessions

    def plan(self, conn, session, budget, via="id"):
        """A checked plan at `budget`; it becomes the session's plan.
        `via` names the session id the connection knows: "id" through the
        coordinator, "local" on the owning phocusd."""
        result = self.call(conn, "plan", {"session": session[via],
                                          "budget": budget})
        checks.check_plan(result["plan"], session["photos"], session["total"],
                          budget)
        session["plan"], session["budget"] = result["plan"], budget
        return result

    # -- units ------------------------------------------------------------

    def cold_unit(self, conn, session, fractions, offset, via="id"):
        """Plans at each budget share, offset by `offset` bytes so that no
        budget was asked before and none is a cache hit."""
        for fraction in fractions:
            budget = int(fraction * session["total"]) + offset
            result = self.plan(conn, session, budget, via)
            self.cold_latency.append(conn.last_latency_s)
            checks.require(result["cached"] is False,
                           "a plan at a new budget was served from cache")
            self.cold_fraction.append(result["plan"]["score_fraction"])
            if self.score_check is None:
                self.score_check = {"num_photos": session["photos"],
                                    "seed": session["seed"],
                                    "budget": budget, "plan": result["plan"]}

    def browse_unit(self, conn, session, hits, explains, direct):
        """Reads through the coordinator. `direct`, when given, is a
        connection to the owning shard, for the traced run's hop."""
        params = {"session": session["id"], "budget": session["budget"]}
        for _ in range(hits):
            result = self.call(conn, "plan", params)
            self.hit_latency.append(conn.last_latency_s)
            checks.require(result["cached"] is True,
                           "a repeated plan missed the cache")
            checks.check_same_retained(result["plan"], session["plan"],
                                       "cache hit vs cold plan")
            if self.trace and direct is not None:
                self.relayed_hit_latency.append(conn.last_latency_s)
                self.call(direct, "plan", {"session": session["local"],
                                           "budget": session["budget"]})
                self.direct_hit_latency.append(direct.last_latency_s)
        for _ in range(explains):
            photo = self.derive("explain", session["id"],
                                len(session["explained"])) % session["photos"]
            session["explained"].append(photo)
            explained = self.call(conn, "explain",
                                  {"session": session["id"], "photo": photo})
            self.explain_latency.append(conn.last_latency_s)
            checks.require(explained["photo"] == photo,
                           "explain answered another photo")
            checks.require(
                explained["retained"]
                == (photo in session["plan"]["retained"]),
                "explain disagrees with the plan on retention")
        rows = self.call(conn, "coverage", {"session": session["id"],
                                            "top_k": 0})["rows"]
        checks.check_coverage(rows, session["plan"]["score"],
                              session["plan"]["max_score"])

    def check_coordinator_matches_shard(self, conn, session, direct):
        """A plan through the coordinator equals the plan fetched directly
        from the owning shard."""
        via = self.call(conn, "plan", {"session": session["id"],
                                       "budget": session["budget"]})
        own = self.call(direct, "plan", {"session": session["local"],
                                         "budget": session["budget"]})
        checks.require(via["plan"] == own["plan"],
                       "coordinator plan differs from the shard's")

    def ingest_steps(self, size_name):
        """Endless ingest episodes, one request (or crash) per step."""
        index = 0
        while True:
            yield from self.ingest_episode(INGEST[size_name], index)
            index += 1

    def ingest_episode(self, size, index):
        """Start, stream, SIGKILL with a trickle queued, restart, recover;
        then further crash cycles, each with a fresh trickle queued. Only a
        whole episode is kept, so every run weighs first and later
        recoveries alike."""
        wal_dir = os.path.join(self.run_dir, f"wal-{index}")
        proc, port = self.phocusd(f"ingest-{index}", wal_dir)
        conn = Conn(port)
        seed = self.derive("ingest", index)
        spec = {"corpus": {"kind": "openimages", "num_photos": size["photos"],
                           "seed": seed}}
        info = self.call(conn, "create_session", spec)
        session, total = info["session"], info["total_bytes"]
        budget = int(size["fraction"] * total)
        started = self.call(conn, "set_budget",
                            {"session": session, "budget": budget})
        checks.check_plan(started["plan"], size["photos"], total, budget,
                          coverage=False)
        wal = WalBytes(wal_dir)
        wal.update()
        wal.written = 0
        episode = {"acked": 0, "ingest_s": 0.0, "arrivals": [], "reasons": []}
        yield

        for k, count in enumerate(size["pattern"]):
            batch_seed = self.derive("ingest", index, "batch", k)
            result = self.call(conn, "ingest", dict(
                INGEST_POLICY, session=session, count=count, seed=batch_seed))
            episode["ingest_s"] += conn.last_latency_s
            wal.update()
            episode["acked"] += result["enqueued_photos"]
            episode["arrivals"].append([count, batch_seed])
            episode["reasons"].append(result["reason"])
            if result["replanned"]:
                plan = result["plan"]
                grown = plan["retained_bytes"] + plan["archived_bytes"]
                checks.check_plan(plan, result["num_photos"], None,
                                  rebalanced(grown), coverage=False)
            yield
        queued = result["pending_photos"]
        expected_queued = 0
        for count in size["pattern"]:
            expected_queued += count
            if expected_queued >= INGEST_POLICY["batch_photos"]:
                expected_queued = 0
        checks.require(queued == expected_queued and queued > 0,
                       f"{queued} photos queued at the kill, expected the "
                       f"{expected_queued} since the last drain")
        episode.update(
            queued=queued, trickled=0, recover_s=[], score_fraction=[],
            replay={"num_photos": size["photos"], "seed": seed,
                    "budget": budget, "pattern": episode["arrivals"]})

        for cycle in range(size["recoveries"]):
            if cycle > 0:
                trickle = self.call(conn, "ingest", dict(
                    INGEST_POLICY, session=session, count=size["trickle"],
                    seed=self.derive("ingest", index, "trickle", cycle)))
                wal.update()
                episode["trickled"] += trickle["enqueued_photos"]
                checks.require(
                    trickle["pending_photos"] == size["trickle"],
                    f"{trickle['pending_photos']} photos queued at the kill, "
                    f"expected the {size['trickle']} of the trickle")
                yield
            self.stop(proc, conn)  # SIGKILL, with a trickle still queued

            proc, port = self.phocusd(f"ingest-{index}-restart-{cycle}",
                                      wal_dir)
            conn = Conn(port)
            again = self.call(conn, "create_session", spec)
            checks.require(again["session"] == session,
                           "re-created session got another id")
            flush = self.call(conn, "ingest_flush", {"session": session})
            recover_s = conn.last_latency_s
            wal.update()
            checks.check_recovered(
                flush, size["photos"] + episode["acked"] + episode["trickled"])
            described = self.call(conn, "session_info", {"session": session})
            plan = flush["plan"]
            checks.check_plan(plan, flush["num_photos"],
                              described["total_bytes"],
                              rebalanced(described["total_bytes"]),
                              coverage=False)
            episode["recover_s"].append(recover_s)
            episode["score_fraction"].append(plan["score_fraction"])
            if cycle == 0:
                episode["score_check"] = {
                    "num_photos": size["photos"], "seed": seed,
                    "budget": budget, "arrivals": episode["arrivals"],
                    "plan": plan}
            if cycle + 1 < size["recoveries"]:
                yield
        self.stop(proc, conn)
        episode["wal_bytes"] = wal.written
        self.episodes.append(episode)
        yield

    # -- results ----------------------------------------------------------

    def verify_score(self):
        """G(retained) from the formula, for the first plan of the unit the
        workload is named for."""
        item = self.score_check
        request = {"cmd": "score", "num_photos": item["num_photos"],
                   "seed": item["seed"], "budget": item["budget"],
                   "retained": item["plan"]["retained"],
                   "arrivals": item.get("arrivals", [])}
        checks.check_direct_score(item["plan"], self.probe(request))

    def end_to_end(self, setup_s):
        episodes = self.episodes
        acked = sum(e["acked"] for e in episodes)
        # Every whole episode holds the same mix of first and later
        # recoveries, which differ in work: their mean moves with the
        # program, where a median would jump between the two.
        recoveries = [r for e in episodes for r in e["recover_s"]]
        return {
            "setup_s": setup_s,
            "plan_cold_s": median(self.cold_latency),
            "plan_score_fraction": mean(self.cold_fraction),
            "ingest_photos_per_s":
                acked / sum(e["ingest_s"] for e in episodes),
            "recover_s": mean(recoveries),
            "wal_bytes_per_photo":
                sum(e["wal_bytes"] for e in episodes)
                / sum(e["acked"] + e["trickled"] for e in episodes),
            "ingest_score_fraction":
                mean([f for e in episodes for f in e["score_fraction"]]),
            "explain_s": median(self.explain_latency),
            "plan_hit_ms": median(self.hit_latency) * 1e3,
        }

    def per_layer(self, replay):
        """The probe's replay figures plus the service-side ones."""
        metrics = dict(replay)
        for verb in TRACED_VERBS:
            total, count = self.server_ns[verb]
            metrics[f"service.handle_ms.{verb}"] = (
                total / count / 1e6 if count else 0.0)
        total, count = self.server_ns["queue_wait"]
        metrics["service.queue_wait_ms"] = total / count / 1e6 if count else 0.0
        for verb in RESPONSE_VERBS:
            sizes = self.response_bytes[verb]
            metrics[f"service.response_bytes.{verb}"] = (
                mean(sizes) if sizes else 0.0)
        lookups = sum(self.cache_counts)
        metrics["plan_cache.lookups"] = float(lookups)
        metrics["plan_cache.hit_ratio"] = (
            self.cache_counts[0] / lookups if lookups else 0.0)
        metrics["coordinator.hop_ms"] = (
            median(self.relayed_hit_latency)
            - median(self.direct_hit_latency)) * 1e3
        return metrics

    def summary(self):
        """Sample counts, medians and tails, for stderr."""
        lines = []
        for name, samples in (("plan_cold_s", self.cold_latency),
                              ("explain_s", self.explain_latency),
                              ("plan_hit_s", self.hit_latency)):
            line = (f"{name}: n={len(samples)} mean={mean(samples):.6g} "
                    f"median={median(samples):.6g}")
            if len(samples) >= 100:
                line += (" p90="
                         f"{statistics.quantiles(samples, n=10)[-1]:.6g}")
            lines.append(line)
        for e in self.episodes:
            lines.append(
                f"ingest episode: acked={e['acked']} "
                f"ingest_s={e['ingest_s']:.4g} recover_s="
                f"{','.join(f'{r:.4g}' for r in e['recover_s'])} "
                f"replans={e['reasons'].count('drift_exceeded')} "
                f"skips={e['reasons'].count('below_epsilon')} "
                f"queued_at_kill={e['queued']} wal_bytes={e['wal_bytes']}")
        return "\n".join(lines + self.notes)


class WalBytes:
    """Bytes written under a WAL directory, seen from outside the program.

    After each response every file is stat'ed. A checkpoint is only ever
    replaced whole, so a checkpoint whose (inode, mtime, size) changed
    counts whole. A log grows by appends and is replaced by a fresh one
    whenever its session's checkpoint rotates (docs/SERVICE.md), so it
    counts whole after a rotation or a new inode and by its growth
    otherwise. A checkpoint written and replaced again within one request
    (the recovery's compaction, then the flush's replan) is not seen.
    """

    def __init__(self, directory):
        self.directory = directory
        self.seen = {}
        self.written = 0

    def update(self):
        stats = {name: os.stat(os.path.join(self.directory, name))
                 for name in os.listdir(self.directory)}
        rotated = set()
        for name, st in stats.items():
            stem, ext = os.path.splitext(name)
            identity = (st.st_ino, st.st_mtime_ns, st.st_size)
            if ext == ".ckpt" and self.seen.get(name) != identity:
                self.written += st.st_size
                rotated.add(stem)
            self.seen[name] = identity
        for name, st in stats.items():
            stem, ext = os.path.splitext(name)
            if ext != ".log":
                continue
            previous = self.seen.get(name + "#size")
            if stem in rotated or previous is None or previous[0] != st.st_ino:
                self.written += st.st_size
            else:
                self.written += max(0, st.st_size - previous[1])
            self.seen[name + "#size"] = (st.st_ino, st.st_size)


def routing_keys(bench, conn, shard_names, count):
    """Routing keys that spread `count` sessions round-robin over the
    shards. The hash ring depends on the shards' ephemeral ports, so each
    candidate key is tried with a one-photo session that is closed again."""
    by_shard = {name: [] for name in shard_names}
    per_shard = -(-count // len(shard_names))
    k = 0
    while any(len(keys) < per_shard for keys in by_shard.values()):
        key = f"perfbench-{bench.seed}-{k}"
        k += 1
        info = bench.call(conn, "create_session", {
            "routing_key": key,
            "corpus": {"kind": "openimages", "num_photos": 1, "seed": 1}})
        bench.call(conn, "close_session", {"session": info["session"]})
        by_shard[info["session"].rsplit("/", 1)[0]].append(key)
    return [by_shard[shard_names[i % len(shard_names)]].pop(0)
            for i in range(count)]


def run_rounds(bench, round_body):
    """Whole rounds for `seconds`, and on until one ingest episode is whole.
    The episode still open then is dropped; its daemon is killed with the
    rest."""
    start = time.perf_counter()
    rounds = 0
    while (not bench.episodes
           or time.perf_counter() - start < bench.seconds):
        round_body(rounds)
        rounds += 1
    bench.notes.append(f"timed rounds: {rounds}, "
                       f"{time.perf_counter() - start:.1f} s")


def plan_daemon_with_coordinator(bench, cold):
    """A phocusd holding the cold-plan sessions, fronted by a coordinator
    for the browse units; the sessions' "id" becomes the scoped id."""
    proc, port = bench.phocusd("plan")
    direct = Conn(port)
    sessions = bench.create_sessions(direct, cold["sessions"], cold["photos"],
                                     "plan")
    _, coordinator_port = bench.coordinator([port])
    for session in sessions:
        session["id"] = f"127.0.0.1:{port}/{session['local']}"
    return proc, direct, Conn(coordinator_port), sessions


def workload_plan(bench, cfg, setup_start):
    """Cold plans of four 800-photo corpora over a three-budget sweep; each
    round also browses the session it planned and takes ingest steps."""
    cold = cfg["cold"]
    proc, direct, front, sessions = plan_daemon_with_coordinator(bench, cold)
    ingest = bench.ingest_steps(cfg["ingest"])
    next(ingest)
    setup_s = time.perf_counter() - setup_start

    def round_body(r):
        session = sessions[r % len(sessions)]
        bench.cold_unit(direct, session, cold["fractions"],
                        r // len(sessions), via="local")
        bench.browse_unit(front, session, cfg["browse"]["hits"],
                          cfg["browse"]["explains"], direct)
        for _ in range(cfg["steps"]):
            next(ingest)

    run_rounds(bench, round_body)
    bench.check_coordinator_matches_shard(front, sessions[0], direct)
    front.close()
    bench.stop(proc, direct)
    return setup_s, replay_request(bench, sessions, cold["fractions"])


def workload_ingest(bench, cfg, setup_start):
    """Durable ingest episodes of 887 photos onto 300 and three crash
    cycles; each step also plans one small session cold and browses it."""
    cold = cfg["cold"]
    proc, direct, front, sessions = plan_daemon_with_coordinator(bench, cold)
    ingest = bench.ingest_steps(cfg["ingest"])
    next(ingest)
    setup_s = time.perf_counter() - setup_start

    def round_body(r):
        for _ in range(cfg["steps"]):
            next(ingest)
        session = sessions[r % len(sessions)]
        bench.cold_unit(direct, session, cold["fractions"],
                        r // len(sessions), via="local")
        bench.browse_unit(front, session, cfg["browse"]["hits"],
                          cfg["browse"]["explains"], direct)

    run_rounds(bench, round_body)
    bench.check_coordinator_matches_shard(front, sessions[0], direct)
    bench.score_check = bench.episodes[0]["score_check"]
    front.close()
    bench.stop(proc, direct)
    return setup_s, replay_request(bench, sessions, cold["fractions"])


def workload_browse(bench, cfg, setup_start):
    """Reads of four 600-photo sessions spread over two shards; each round
    also plans one session cold and takes ingest steps."""
    browse = cfg["browse"]
    shards = [bench.phocusd(f"shard-{i}") for i in range(browse["shards"])]
    names = [f"127.0.0.1:{port}" for _, port in shards]
    _, coordinator_port = bench.coordinator([port for _, port in shards])
    front = Conn(coordinator_port)
    keys = routing_keys(bench, front, names, browse["sessions"])
    sessions = bench.create_sessions(front, browse["sessions"],
                                     browse["photos"], "browse", routing=keys)
    for s in sessions:
        bench.plan(front, s, int(browse["fraction"] * s["total"]))
        s["shard"], s["local"] = s["id"].rsplit("/", 1)
    bench.score_check = {"num_photos": sessions[0]["photos"],
                         "seed": sessions[0]["seed"],
                         "budget": sessions[0]["budget"],
                         "plan": sessions[0]["plan"]}
    ingest = bench.ingest_steps(cfg["ingest"])
    next(ingest)
    setup_s = time.perf_counter() - setup_start

    # At most three connections: the coordinator, the ingest daemon and, in
    # the traced run, the first shard (the coordinator hop is measured on
    # the sessions it owns).
    first_shard = Conn(shards[0][1]) if bench.trace else None

    def round_body(r):
        for s in sessions:
            bench.browse_unit(front, s, browse["hits"], browse["explains"],
                              first_shard if s["shard"] == names[0] else None)
        bench.cold_unit(front, sessions[r % len(sessions)],
                        cfg["cold"]["fractions"], r // len(sessions))
        for _ in range(cfg["steps"]):
            next(ingest)

    run_rounds(bench, round_body)
    if first_shard is not None:
        first_shard.close()
    for name, (proc, port) in zip(names, shards):
        direct = Conn(port)
        for s in sessions:
            if s["shard"] == name:
                bench.check_coordinator_matches_shard(front, s, direct)
        bench.stop(proc, direct)
    front.close()
    return setup_s, replay_request(bench, sessions, cfg["cold"]["fractions"])


def replay_request(bench, sessions, fractions):
    """What perfbench_probe replays in-process for the traced run: each
    session's first cold budgets, every explain call, and the first ingest
    episode."""
    return {
        "plan": [{"num_photos": s["photos"], "seed": s["seed"],
                  "budgets": [int(f * s["total"]) for f in fractions]}
                 for s in sessions],
        "browse": [{"num_photos": s["photos"], "seed": s["seed"],
                    "budget": s["budget"], "retained": s["plan"]["retained"],
                    "photos": s["explained"]} for s in sessions],
        "ingest": bench.episodes[0]["replay"],
    }


WORKLOADS = {"plan": workload_plan, "ingest": workload_ingest,
             "browse": workload_browse}
