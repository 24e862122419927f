/// \file probe.cc
/// In-process helper of the service benchmark (perfbench/run.py). Reads one
/// JSON request on stdin and writes one JSON object on stdout.
///
///   {"cmd": "score", ...}  G(retained) from the objective's formula
///   {"cmd": "trace", ...}  per-layer replay of one run's cold plans, explain
///                          calls and ingest episode
///
/// The replay regenerates the run's corpora from the same seeds and times the
/// public call into each layer with the benchmark's own spans. Where a
/// layer only runs inside another public call (local search and CELF inside
/// IncrementalArchiver::ReplanNow), the spans and counters the program
/// already records are read instead.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/celf.h"
#include "core/online_bound.h"
#include "datagen/corpus_io.h"
#include "datagen/openimages.h"
#include "phocus/explain.h"
#include "phocus/incremental.h"
#include "phocus/ingest_wal.h"
#include "phocus/representation.h"
#include "phocus/system.h"
#include "service/protocol.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/json.h"
#include "util/strings.h"

namespace phocus {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call: `seconds` accumulates the span, `calls` counts it.
struct Span {
  double seconds = 0.0;
  std::size_t calls = 0;

  template <typename F>
  auto Time(F&& body) {
    const Clock::time_point start = Clock::now();
    struct Stop {
      Span* span;
      Clock::time_point start;
      ~Stop() {
        span->seconds += SecondsSince(start);
        ++span->calls;
      }
    } stop{this, start};
    return body();
  }

  double Mean() const { return calls == 0 ? 0.0 : seconds / calls; }
};

std::uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Current().GetCounter(name).value();
}

/// Total duration (s) of every span named `name` in the given trees.
double SpanSeconds(const std::vector<telemetry::SpanRecord>& roots,
                   const std::string& name) {
  double total = 0.0;
  for (const telemetry::SpanRecord& record : roots) {
    if (record.name == name) {
      total += static_cast<double>(record.duration_ns) * 1e-9;
    } else {
      total += SpanSeconds(record.children, name);
    }
  }
  return total;
}

Corpus GenerateBase(std::size_t num_photos, std::uint64_t seed) {
  OpenImagesOptions options;
  options.num_photos = num_photos;
  options.seed = seed;
  return GenerateOpenImagesCorpus(options);
}

/// The arrivals phocusd generates for `ingest {count, seed}` when `offset`
/// photos precede the batch (service/session.cc, GenerateArrivals).
Corpus GenerateArrivals(std::size_t count, std::uint64_t seed,
                        PhotoId offset) {
  Corpus arrivals = GenerateBase(count, seed);
  for (SubsetSpec& spec : arrivals.subsets) {
    spec.name = StrFormat("%s@%u", spec.name.c_str(), offset);
    for (PhotoId& member : spec.members) member += offset;
  }
  return arrivals;
}

std::uint64_t Fingerprint(const Corpus& corpus) {
  return service::Fnv64(EncodeCorpus(corpus));
}

/// G(S) = Σ_q w_q Σ_{i∈q} r_i · max_{p ∈ S∩q} SIM_q(p, i), evaluated from the
/// instance's stored similarities without ObjectiveEvaluator.
double ObjectiveFromFormula(const ParInstance& instance,
                            const std::vector<PhotoId>& selection) {
  std::vector<bool> selected(instance.num_photos(), false);
  for (PhotoId p : selection) selected.at(p) = true;
  double total = 0.0;
  for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
    const Subset& subset = instance.subset(q);
    std::vector<double> best(subset.size(), 0.0);
    for (std::uint32_t a = 0; a < subset.size(); ++a) {
      if (!selected[subset.members[a]]) continue;
      best[a] = 1.0;
      if (subset.sim_mode == Subset::SimMode::kSparse) {
        const SparseSimRow row = subset.sparse_row(a);
        for (std::uint32_t k = 0; k < row.size; ++k) {
          best[row.indices[k]] =
              std::max(best[row.indices[k]],
                       static_cast<double>(row.values[k]));
        }
      } else {
        for (std::uint32_t b = 0; b < subset.size(); ++b) {
          best[b] = std::max(best[b], subset.Similarity(a, b));
        }
      }
    }
    double covered = 0.0;
    for (std::uint32_t i = 0; i < subset.size(); ++i) {
      covered += subset.relevance[i] * best[i];
    }
    total += subset.weight * covered;
  }
  return total;
}

std::vector<PhotoId> PhotoList(const Json& array) {
  std::vector<PhotoId> out;
  for (const Json& item : array.items()) {
    out.push_back(static_cast<PhotoId>(item.AsInt()));
  }
  return out;
}

Json Score(const Json& request) {
  Corpus corpus = GenerateBase(request.Get("num_photos").AsInt(),
                               request.Get("seed").AsInt());
  const Json arrivals = request.GetOr("arrivals", Json::Array());
  for (const Json& arrival : arrivals.items()) {
    Corpus batch = GenerateArrivals(
        arrival[0].AsInt(), arrival[1].AsInt(),
        static_cast<PhotoId>(corpus.num_photos()));
    for (CorpusPhoto& photo : batch.photos) {
      corpus.photos.push_back(std::move(photo));
    }
    for (SubsetSpec& spec : batch.subsets) {
      corpus.subsets.push_back(std::move(spec));
    }
  }
  const ParInstance instance =
      BuildInstance(corpus, static_cast<Cost>(request.Get("budget").AsInt()),
                    ArchiveOptions::DefaultPhocusRepresentation());
  double max_score = 0.0;
  for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
    double relevance = 0.0;
    for (double r : instance.subset(q).relevance) relevance += r;
    max_score += instance.subset(q).weight * relevance;
  }
  Json out = Json::Object();
  out.Set("score", ObjectiveFromFormula(instance,
                                        PhotoList(request.Get("retained"))));
  out.Set("max_score", max_score);
  out.Set("num_photos", corpus.num_photos());
  out.Set("total_bytes", corpus.TotalBytes());
  return out;
}

/// Layer figures shared by the replays.
struct LayerFigures {
  Span datagen;
  std::size_t datagen_photos = 0;
  Span fingerprint;
  Span representation;
  std::uint64_t lsh_candidates = 0;
  std::uint64_t lsh_verified = 0;

  std::map<std::pair<std::size_t, std::uint64_t>, Corpus> corpora;

  /// Each corpus is generated (and timed) once per replay.
  const Corpus& Generate(std::size_t num_photos, std::uint64_t seed) {
    auto [it, fresh] = corpora.try_emplace({num_photos, seed});
    if (fresh) {
      datagen_photos += num_photos;
      it->second =
          datagen.Time([&] { return GenerateBase(num_photos, seed); });
      fingerprint.Time([&] { return Fingerprint(it->second); });
    }
    return it->second;
  }

  ParInstance Build(const Corpus& corpus, Cost budget) {
    const std::uint64_t candidates = CounterValue("lsh.candidate_pairs");
    const std::uint64_t verified = CounterValue("lsh.output_pairs");
    ParInstance instance = representation.Time([&] {
      return BuildInstance(corpus, budget,
                           ArchiveOptions::DefaultPhocusRepresentation());
    });
    lsh_candidates += CounterValue("lsh.candidate_pairs") - candidates;
    lsh_verified += CounterValue("lsh.output_pairs") - verified;
    return instance;
  }

  void Emit(Json* out) const {
    out->Set("datagen.s_per_kphoto",
             datagen_photos == 0 ? 0.0
                                 : datagen.seconds / (datagen_photos / 1000.0));
    out->Set("session.fingerprint_s", fingerprint.Mean());
    out->Set("representation.build_s", representation.Mean());
    const double builds =
        static_cast<double>(std::max<std::size_t>(representation.calls, 1));
    out->Set("lsh.candidate_pairs", lsh_candidates / builds);
    out->Set("lsh.verified_pairs", lsh_verified / builds);
    out->Set("lsh.verified_per_candidate",
             lsh_candidates == 0
                 ? 0.0
                 : static_cast<double>(lsh_verified) / lsh_candidates);
  }
};

/// Cold plans: BuildInstance, CelfSolver::Solve and ComputeOnlineBound at
/// each budget the run planned.
void TracePlans(const Json& sessions, LayerFigures* layers, Json* out) {
  Span celf;
  Span bound;
  std::uint64_t gain_evals = 0;
  for (const Json& session : sessions.items()) {
    const Corpus& corpus = layers->Generate(
        session.Get("num_photos").AsInt(), session.Get("seed").AsInt());
    for (const Json& budget : session.Get("budgets").items()) {
      const ParInstance instance =
          layers->Build(corpus, static_cast<Cost>(budget.AsInt()));
      instance.BuildMembershipIndex();
      CelfSolver solver;
      const SolverResult result =
          celf.Time([&] { return solver.Solve(instance); });
      gain_evals += result.gain_evaluations;
      bound.Time([&] { return ComputeOnlineBound(instance, result.selected); });
    }
  }
  out->Set("celf.solve_s", celf.Mean());
  out->Set("celf.gain_evals",
           static_cast<double>(gain_evals) /
               std::max<std::size_t>(celf.calls, 1));
  out->Set("online_bound.s", bound.Mean());
}

/// Replays the ingest stream the way phocusd's StreamingArchiver runs it —
/// WAL append before enqueue, drain at `batch_photos`, budget rebalance,
/// drift check, replan and checkpoint rotation above ε — calling
/// IncrementalArchiver and IngestWal directly so each public call gets its
/// own span.
void TraceIngest(const Json& request, LayerFigures* layers, Json* out) {
  const Cost budget = static_cast<Cost>(request.Get("budget").AsInt());
  const double epsilon = request.Get("epsilon").AsDouble();
  const double budget_fraction = request.Get("budget_fraction").AsDouble();
  const std::size_t batch_photos = request.Get("batch_photos").AsInt();
  const std::string wal_dir = request.Get("wal_dir").AsString();

  const Corpus& base = layers->Generate(request.Get("num_photos").AsInt(),
                                       request.Get("seed").AsInt());
  const std::uint64_t base_fingerprint = WalChecksum(EncodeCorpus(base));
  IncrementalOptions options;
  options.archive.budget = budget;
  IncrementalArchiver archiver(options);
  archiver.Initialize(base);

  WalPolicy policy;
  policy.epsilon = epsilon;
  policy.batch_photos = batch_photos;
  policy.budget_fraction = budget_fraction;
  std::vector<IngestBatch> queue;
  auto checkpoint = [&] {
    WalCheckpoint state;
    state.base_fingerprint = base_fingerprint;
    state.incremental = archiver.options();
    state.policy = policy;
    state.corpus = archiver.corpus();
    state.retained = archiver.plan().retained;
    state.deferred_photos = archiver.deferred_photos();
    state.queued = queue;
    return state;
  };
  IngestWal wal(wal_dir, "replay");
  wal.Start(checkpoint());

  Span append, drift, replan, rotate;
  double checkpoint_bytes = 0.0;
  double local_search_s = 0.0;
  const std::uint64_t moves_tried =
      CounterValue("solver.local_search.moves_tried");
  const std::uint64_t moves_accepted =
      CounterValue("solver.local_search.moves_accepted");
  std::size_t pending = 0;
  for (const Json& call : request.Get("pattern").items()) {
    const std::size_t count = call[0].AsInt();
    const PhotoId offset =
        static_cast<PhotoId>(archiver.corpus().num_photos() + pending);
    Corpus arrivals = GenerateArrivals(count, call[1].AsInt(), offset);
    IngestBatch batch;
    batch.photos = std::move(arrivals.photos);
    batch.subsets = std::move(arrivals.subsets);
    append.Time([&] { return wal.AppendBatch(batch); });
    pending += count;
    queue.push_back(std::move(batch));
    if (pending < batch_photos) continue;

    for (IngestBatch& queued : queue) {
      archiver.AddPhotosDeferred(std::move(queued.photos),
                                 std::move(queued.subsets));
    }
    wal.AppendAbsorb(queue.size());
    queue.clear();
    pending = 0;
    const Cost target = static_cast<Cost>(
        budget_fraction * static_cast<double>(archiver.corpus().TotalBytes()));
    if (target > 0 && target != archiver.budget()) {
      archiver.SetBudgetDeferred(target);
    }
    const DriftEstimate estimate =
        drift.Time([&] { return archiver.EstimateDrift(); });
    if (estimate.relative_drift <= epsilon) continue;

    telemetry::TraceCollector collector;
    {
      telemetry::ScopedTraceSink sink(&collector);
      telemetry::TraceSpan span("perfbench.replan");
      replan.Time([&] { return archiver.ReplanNow(); });
    }
    const std::vector<telemetry::SpanRecord> spans = collector.Drain();
    local_search_s += SpanSeconds(spans, "solver.local_search");
    wal.AppendReplanCommit(archiver.budget());
    rotate.Time([&] { return wal.Rotate(checkpoint()); });
    checkpoint_bytes +=
        static_cast<double>(std::filesystem::file_size(wal.checkpoint_path()));
  }

  // What a restarted phocusd reads back: the last checkpoint plus the log
  // tail holding the still-queued trickle.
  IngestWal reopened(wal_dir, "replay");
  Span load;
  const IngestWal::LoadResult loaded =
      load.Time([&] { return reopened.Load(); });
  std::vector<std::size_t> still_queued;
  for (const IngestBatch& batch : loaded.checkpoint.queued) {
    still_queued.push_back(batch.photos.size());
  }
  for (const WalRecord& record : loaded.records) {
    if (record.type == WalRecord::Type::kBatch) {
      still_queued.push_back(record.batch.photos.size());
    } else if (record.type == WalRecord::Type::kAbsorb) {
      still_queued.erase(still_queued.begin(),
                         still_queued.begin() + record.absorb_batches);
    }
  }
  std::size_t queued_photos = 0;
  for (std::size_t photos : still_queued) queued_photos += photos;

  const double replans = static_cast<double>(replan.calls);
  out->Set("incremental.drift_s", drift.Mean());
  out->Set("incremental.replan_s", replan.Mean());
  out->Set("incremental.replans", replans);
  out->Set("incremental.drift_evals", static_cast<double>(drift.calls));
  out->Set("local_search.s",
           replan.calls == 0 ? 0.0 : local_search_s / replans);
  out->Set("local_search.moves_tried",
           static_cast<double>(
               CounterValue("solver.local_search.moves_tried") - moves_tried));
  out->Set("local_search.moves_accepted",
           static_cast<double>(
               CounterValue("solver.local_search.moves_accepted") -
               moves_accepted));
  out->Set("wal.append_ms", append.Mean() * 1e3);
  out->Set("wal.rotate_ms", rotate.Mean() * 1e3);
  out->Set("wal.checkpoint_bytes",
           rotate.calls == 0 ? 0.0 : checkpoint_bytes / rotate.calls);
  out->Set("wal.load_s", load.Mean());
  out->Set("wal.recovered_queued_photos", static_cast<double>(queued_photos));
}

/// Explain calls: ExplainRetained / ExplainArchived on a prebuilt instance,
/// for each photo the run explained.
void TraceExplains(const Json& sessions, LayerFigures* layers, Json* out) {
  Span explain;
  for (const Json& session : sessions.items()) {
    const Corpus& corpus = layers->Generate(
        session.Get("num_photos").AsInt(), session.Get("seed").AsInt());
    const ParInstance instance = layers->Build(
        corpus, static_cast<Cost>(session.Get("budget").AsInt()));
    const std::vector<PhotoId> retained = PhotoList(session.Get("retained"));
    for (PhotoId photo : PhotoList(session.Get("photos"))) {
      explain.Time([&] {
        if (std::binary_search(retained.begin(), retained.end(), photo)) {
          return DescribeRetained(ExplainRetained(instance, retained, photo));
        }
        return DescribeArchived(ExplainArchived(instance, retained, photo));
      });
    }
  }
  out->Set("explain.s", explain.Mean());
}

Json Trace(const Json& request) {
  LayerFigures layers;
  Json out = Json::Object();
  TracePlans(request.Get("plan"), &layers, &out);
  TraceExplains(request.Get("browse"), &layers, &out);
  TraceIngest(request.Get("ingest"), &layers, &out);
  layers.Emit(&out);
  return out;
}

}  // namespace
}  // namespace phocus

int main() {
  using namespace phocus;
  try {
    const std::string input((std::istreambuf_iterator<char>(std::cin)),
                            std::istreambuf_iterator<char>());
    const Json request = Json::Parse(input);
    const std::string cmd = request.Get("cmd").AsString();
    Json out;
    if (cmd == "score") {
      out = Score(request);
    } else if (cmd == "trace") {
      out = Trace(request);
    } else {
      std::fprintf(stderr, "perfbench_probe: unknown cmd %s\n", cmd.c_str());
      return 2;
    }
    std::printf("%s\n", out.Dump().c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_probe: %s\n", error.what());
    return 1;
  }
  return 0;
}
