#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_set>

#include "catalog.h"
#include "core/engine.h"
#include "core/optimizer.h"
#include "core/request.h"
#include "corpus.h"
#include "http_client.h"
#include "index/block_cache.h"
#include "index/index_io.h"
#include "loadgen.h"
#include "mcalc/parser.h"
#include "procs.h"
#include "router/router_service.h"
#include "router/scatter_gather.h"
#include "router/shard_client.h"
#include "server/http.h"
#include "server/search_service.h"
#include "spans.h"

namespace perfbench {

namespace {

using graft::StatusOr;
using graft::core::Engine;
using graft::core::SearchOptions;
using graft::core::SearchResult;
using graft::index::BlockCache;
using graft::index::InvertedIndex;
using graft::ma::ScoredDoc;
using graft::server::SearchService;

// ---- fixed settings (see perfbench/README.md for why) ----

// Serving workloads: a block cache above the decoded working set of the
// serving catalog, so it almost always hits.
constexpr size_t kServingCacheMb = 512;
// engine_pressure: about a quarter of the decoded working set of its
// catalog (measured at ~77 MB on the 200k-doc corpus).
constexpr size_t kPressureCacheBytes = size_t{20} << 20;
// Open-loop offered rates of the traced runs, well below what the system
// sustains, so the latency metrics measure service time rather than
// queueing.
constexpr double kHttpRate = 400.0;
constexpr double kRoutedRate = 100.0;
// Requests replayed before measuring: warms the block cache.
constexpr size_t kWarmupRequests = 2000;
// Distinct queries checked against the in-process reference per run.
constexpr size_t kGateSample = 200;
// Documents of the small ingest every workload runs: one repetition for
// index_bytes_per_word in an untraced run; in a traced run
// kProbeIngestReps at the start, the middle and the end, for the index
// layer's metrics (medians over the repetitions).
constexpr uint64_t kProbeIngestDocs = 4000;
constexpr size_t kProbeIngestReps = 2;
// Times a run sets its serving processes or mapped index up; setup_s is
// the median.
constexpr int kSetupReps = 5;
// Pieces a measured phase is cut into, each after a host-speed reading
// (0.5 s each in an untraced HTTP run of 20 s).
constexpr int kSpeedChunks = 40;
// k the router asks for the full-ranking class (the router needs k > 0;
// these rare-term disjunctions match far fewer documents).
constexpr size_t kRoutedFullRankK = 1000;

size_t Threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 4 : n;
}

void Put(Metrics* metrics, const std::string& name, double value,
         const char* unit) {
  (*metrics)[name] = Metric{value, unit};
}

// Positional queries get many distinct entries: their costs differ by an
// order of magnitude, so a small set makes the class's p50 hinge on which
// few queries a seed makes popular.
CatalogSpec HttpSpec() {
  CatalogSpec spec;
  spec.queries[0] = 2000;
  spec.queries[1] = 600;
  spec.queries[2] = 200;
  spec.share[0] = 0.88;
  spec.share[1] = 0.10;
  spec.share[2] = 0.02;
  return spec;
}

CatalogSpec PressureSpec() {
  CatalogSpec spec;
  spec.queries[0] = 6000;
  spec.queries[1] = 1500;
  spec.queries[2] = 600;
  spec.share[0] = 0.70;
  spec.share[1] = 0.20;
  spec.share[2] = 0.10;
  return spec;
}

bool SameBits(const std::vector<ScoredDoc>& a,
              const std::vector<ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// The deliberately wrong reference of the gate's self-test.
void Perturb(std::vector<ScoredDoc>* results) {
  if (results->empty()) {
    results->push_back(ScoredDoc{0, 1.0});
  } else {
    (*results)[0].score = std::nextafter((*results)[0].score, 1e300);
  }
}

StatusOr<SearchResult> SearchCatalog(const Engine& engine,
                                     const CatalogQuery& query) {
  SearchOptions options;
  options.top_k = query.k;
  return engine.Search(query.text, query.scheme, options);
}

// The end-to-end request cost: the median normalized CPU time of a
// request, summed over the calling thread and every process that served
// it (see MeasuredPhase). Wall-clock
// latencies are reported by the traced run instead (WallMetrics): on a
// shared host they moved with the host's load by more than any bound
// allows.
void CostMetrics(const PhaseStats& stats, Metrics* metrics) {
  Put(metrics, "p50_cpu_ms", Median(stats.CpuCosts()), "ms");
}

// Runs a measured phase as kSpeedChunks pieces of `duration_s` in all,
// reading the host's speed before each and scaling the piece's CPU costs
// by it (see HostSpeed). On a shared 4-vCPU host this cut the spread of
// p50_cpu_ms between runs (five seeds per workload) by about a quarter.
PhaseStats MeasuredPhase(double duration_s,
                         const std::function<PhaseStats(double)>& phase) {
  PhaseStats all;
  std::vector<double> speeds;
  for (int i = 0; i < kSpeedChunks; ++i) {
    speeds.push_back(HostSpeed());
    PhaseStats part = phase(duration_s / kSpeedChunks);
    for (Sample& sample : part.samples) sample.cpu_ms *= speeds.back();
    all.samples.insert(all.samples.end(), part.samples.begin(),
                       part.samples.end());
    all.failed += part.failed;
    all.connections += part.connections;
    all.elapsed_s += part.elapsed_s;
  }
  Log("host speed over the phase: median %.3f, range %.3f-%.3f",
      Median(speeds), Percentile(speeds, 0.0), Percentile(speeds, 1.0));
  return all;
}

// Wall-clock latencies of an untraced phase of a traced run.
void WallMetrics(const PhaseStats& stats, Metrics* metrics) {
  Put(metrics, "loadgen.p50_ms", Median(stats.Latencies()), "ms");
  Put(metrics, "loadgen.p99_ms", Percentile(stats.Latencies(), 0.99), "ms");
  for (size_t c = 0; c < kNumClasses; ++c) {
    Put(metrics, std::string("loadgen.p50_ms.") + kClassNames[c],
        Median(stats.Latencies(c)), "ms");
  }
}

// ---- ingest ----

// The small ingest's probe set: every probe asked once by the gate.
CatalogSpec ProbeSpec() {
  CatalogSpec spec;
  spec.queries[0] = 120;
  spec.queries[1] = 60;
  spec.queries[2] = 20;
  return spec;
}

// Timed ingests of `docs` documents generated (untimed) from the run's
// seed. Repetitions can be spread over a run so that their medians do not
// hinge on one stretch of a noisy host; Report fills the ingest metrics.
// Each repetition is gated: a probe set must be bit-identical between the
// built (materialized) and the mapped index.
class IngestRuns {
 public:
  IngestRuns(const RunArgs& args, uint64_t docs)
      : config_(graft::text::WikipediaLikeConfig(docs, args.seed)),
        corpus_(GenerateTokens(config_)),
        path_(args.work_dir + "/ingest.v5"),
        seed_(args.seed),
        break_reference_(args.break_reference) {}

  // Runs `reps` ingests; the first one of the run records spans into `log`.
  bool Run(size_t reps, SpanLog* log, Outcome* out) {
    for (size_t i = 0; i < reps; ++i) {
      IngestResult result;
      std::string error;
      if (!Ingest(corpus_, path_, "free software", "MeanSum",
                  add_us_.empty() ? log : nullptr, &result, &error)) {
        out->error = error;
        return false;
      }
      bytes_per_word_.push_back(static_cast<double>(result.file_bytes) /
                                static_cast<double>(result.words));
      build_.push_back(result.build_s);
      save_.push_back(result.save_s);
      add_us_.push_back(result.add_s * 1e6 / static_cast<double>(result.docs));
      file_bytes_ = result.file_bytes;
      Gate(result, out);
    }
    return true;
  }

  // The end-to-end metric, or with `traced` the index-layer ones.
  void Report(bool traced, Metrics* m) const {
    if (!traced) {
      Put(m, "index_bytes_per_word", Median(bytes_per_word_), "B/word");
    } else {
      Put(m, "index.add_us_per_doc", Median(add_us_), "us");
      Put(m, "index.build_s", Median(build_), "s");
      Put(m, "index.save_v5_s", Median(save_), "s");
      Put(m, "index.file_bytes", static_cast<double>(file_bytes_), "B");
    }
    Log("ingest: %llu docs, %llu words, %zu rep(s): AddDocument %.1f us/doc, "
        "%.3f bytes/word; gate: %zu probe queries built vs mapped, %zu "
        "mismatches",
        static_cast<unsigned long long>(corpus_.docs()),
        static_cast<unsigned long long>(corpus_.words()), add_us_.size(),
        Median(add_us_), Median(bytes_per_word_), gated_, mismatches_);
  }

 private:
  void Gate(const IngestResult& result, Outcome* out) {
    if (catalog_.queries.empty()) {
      catalog_ = BuildCatalog(*result.built, config_, ProbeSpec(), seed_);
    }
    const Engine built(result.built.get());
    for (size_t q = 0; q < catalog_.queries.size(); ++q) {
      auto got = SearchCatalog(*result.mapped_engine, catalog_.queries[q]);
      auto want = SearchCatalog(built, catalog_.queries[q]);
      ++gated_;
      if (!got.ok() || !want.ok()) {
        ++mismatches_;
        continue;
      }
      if (break_reference_ && q == 0) Perturb(&want->results);
      if (!SameBits(got->results, want->results)) ++mismatches_;
    }
    if (mismatches_ > 0) out->correct = false;
  }

  const graft::text::CorpusConfig config_;
  const TokenCorpus corpus_;
  const std::string path_;
  const uint64_t seed_;
  const bool break_reference_;
  Catalog catalog_;
  size_t gated_ = 0, mismatches_ = 0;
  std::vector<double> bytes_per_word_, build_, save_, add_us_;
  uint64_t file_bytes_ = 0;
};

// ---- serving ----

struct Serving {
  ServingIndex paths;
  std::unique_ptr<InvertedIndex> index;  // mapped full index (reference)
  std::unique_ptr<Engine> engine;
  double load_s = 0.0;
  Catalog catalog;
  RequestStream stream;
};

bool PrepareServing(const RunArgs& args, const CatalogSpec& spec,
                    size_t cache_bytes, Serving* s, Outcome* out) {
  std::string error;
  if (!EnsureServingIndex(args.cache_dir, &s->paths, &error)) {
    out->error = error;
    return false;
  }
  const Clock::time_point start = Clock::now();
  graft::index::MappedLoadOptions load;
  load.cache = std::make_shared<BlockCache>(cache_bytes);
  auto mapped = graft::index::LoadIndexMapped(s->paths.full_path, load);
  if (!mapped.ok()) {
    out->error = "LoadIndexMapped: " + mapped.status().ToString();
    return false;
  }
  s->index = std::make_unique<InvertedIndex>(std::move(mapped).value());
  s->engine = std::make_unique<Engine>(s->index.get());
  s->load_s = SecondsSince(start);
  s->catalog = BuildCatalog(*s->index,
                            graft::text::WikipediaLikeConfig(kServingDocs),
                            spec, args.seed);
  s->stream.catalog = &s->catalog;
  for (const CatalogQuery& query : s->catalog.queries) {
    s->stream.targets.push_back(SearchTarget(query));
  }
  s->stream.sequence =
      RequestSequence(s->catalog, spec, 1 << 20, SubSeed(args.seed, 1));
  Log("catalog %s", CatalogShapeJson(s->catalog).c_str());
  return true;
}

// A seeded sample of distinct queries: each response's results fragment
// must equal the in-process reference byte for byte.
// Returns the sampled catalog indexes in `*gated`.
bool GateServing(uint16_t port, const Serving& s, const RunArgs& args,
                 Outcome* out, double* empty_frac,
                 std::vector<uint32_t>* gated) {
  std::vector<uint32_t> all(s.catalog.queries.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  Rng rng(SubSeed(args.seed, 2));
  for (size_t i = all.size(); i > 1; --i) std::swap(all[i - 1], all[rng.Below(i)]);
  all.resize(std::min(all.size(), kGateSample));
  HttpClient client(port);
  size_t mismatches = 0, empty = 0;
  for (uint32_t q : all) {
    const CatalogQuery& query = s.catalog.queries[q];
    const HttpReply reply = client.Get(s.stream.targets[q]);
    auto reference = SearchCatalog(*s.engine, query);
    if (reply.status != 200 || !reference.ok()) {
      Log("gate: query failed (%d %s%s): %s", reply.status,
          reply.error.c_str(),
          reference.ok() ? "" : reference.status().ToString().c_str(),
          query.text.c_str());
      ++mismatches;
      continue;
    }
    if (reference->results.empty()) ++empty;
    if (args.break_reference) Perturb(&reference->results);
    if (ResultsFragment(reply.body) !=
        SearchService::FormatResultsFragment(reference->results)) {
      if (mismatches < 3) {
        Log("gate: mismatch for [%s] %s", query.scheme.c_str(),
            query.text.c_str());
      }
      ++mismatches;
    }
  }
  *empty_frac = static_cast<double>(empty) / static_cast<double>(all.size());
  Log("gate: %zu queries, %zu mismatches, %.3f empty", all.size(),
      mismatches, *empty_frac);
  if (mismatches > 0) out->correct = false;
  *gated = all;
  return mismatches == 0;
}

// Closed loop over HTTP: `threads` keep-alive clients send the next
// requests back to back, for `duration_s` or `max_calls`. With one thread
// and `server_cpu_ns`, each sample's CPU time includes the servers'.
PhaseStats HttpClosedLoop(uint16_t port, RequestStream* stream,
                          double duration_s, size_t max_calls,
                          size_t threads,
                          const std::function<int64_t()>& server_cpu_ns = nullptr) {
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (size_t t = 0; t < threads; ++t) {
    clients.push_back(std::make_unique<HttpClient>(port));
  }
  return ClosedLoop(threads, stream, duration_s, max_calls,
                    [&](size_t caller, size_t position) {
                      return clients[caller]
                                 ->Get(stream->targets[stream->At(position)])
                                 .status == 200;
                    },
                    server_cpu_ns);
}

// The summed CPU clocks of the serving processes.
std::function<int64_t()> ServerCpu(
    const std::vector<std::unique_ptr<ServerProcess>>& procs) {
  return [&procs] {
    int64_t total = 0;
    for (const auto& proc : procs) total += proc->CpuNanos();
    return total;
  };
}
using SpawnFn = std::function<bool(std::vector<std::unique_ptr<ServerProcess>>*,
                                   std::string*)>;

// Spawns the serving processes `times` times; setup_s is the median of
// spawn-until-/healthz. Keeps the last set running.
bool TimedSetup(const SpawnFn& spawn, size_t times,
                std::vector<std::unique_ptr<ServerProcess>>* procs,
                double* setup_s, Outcome* out) {
  std::vector<double> samples;
  for (size_t i = 0; i < times; ++i) {
    for (auto& proc : *procs) proc->Stop();
    procs->clear();
    const Clock::time_point start = Clock::now();
    std::string error;
    if (!spawn(procs, &error)) {
      out->error = error;
      return false;
    }
    samples.push_back(SecondsSince(start));
  }
  *setup_s = Median(samples);
  return true;
}

bool SpawnServer(const RunArgs& args, const std::string& index_path,
                 size_t cache_mb, ServerProcess* proc, std::string* error) {
  return proc->Start({args.bin_dir + "/graft_server", "--index", index_path,
                      "--mmap-index", "--block-cache-mb",
                      std::to_string(cache_mb), "--port", "0"},
                     60.0, error);
}

std::string StatsJson(uint16_t port) {
  HttpClient client(port);
  return client.Get("/stats").body;
}

void BlockCacheLayer(double hits, double misses, double evictions,
                     double payload, double resident_bytes, double requests,
                     Metrics* m) {
  Put(m, "index.block_cache_hit_ratio",
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  Put(m, "index.block_cache_hits", hits / requests, "count");
  Put(m, "index.block_cache_misses", misses / requests, "count");
  Put(m, "index.block_cache_evictions", evictions / requests, "count");
  Put(m, "index.payload_decodes", payload / requests, "count");
  Put(m, "index.block_cache_resident_mb", resident_bytes / (1 << 20), "MB");
}

// Mean per request of every layer's self time, plus the operator shares
// and ExecStats means gathered during a traced replay.
struct ExecTally {
  double requests = 0;
  std::map<std::string, double> ops;
  graft::exec::ExecStats sum;

  void Merge(const ExecTally& other) {
    requests += other.requests;
    for (const auto& [op, count] : other.ops) ops[op] += count;
    sum.Accumulate(other.sum);
  }
  void Add(const SearchResult& result) {
    ++requests;
    ++ops[result.topk_operator.empty() ? "full" : result.topk_operator];
    sum.Accumulate(result.exec_stats);
  }
  void Report(Metrics* m) const {
    const double n = std::max(requests, 1.0);
    for (const char* op : {"maxscore", "hrjn", "ta", "nra", "full"}) {
      const auto it = ops.find(op);
      Put(m, std::string("core.topk_operator.") + op,
          it == ops.end() ? 0.0 : it->second / n, "share");
    }
    const struct {
      const char* name;
      uint64_t value;
    } counters[] = {
        {"exec.docs_scored", sum.docs_scored},
        {"exec.docs_pruned", sum.docs_pruned},
        {"exec.topk_blocks_skipped", sum.topk_blocks_skipped},
        {"exec.topk_blocks_decoded", sum.topk_blocks_decoded},
        {"exec.topk_sorted_accesses", sum.topk_sorted_accesses},
        {"exec.topk_random_accesses", sum.topk_random_accesses},
        {"exec.topk_bound_refinements", sum.topk_bound_refinements},
        {"exec.positions_scanned", sum.positions_scanned},
        {"exec.skip_hits", sum.skip_hits},
        {"exec.skip_calls", sum.skip_calls},
    };
    for (const auto& counter : counters) {
      Put(m, counter.name, static_cast<double>(counter.value) / n, "count");
    }
  }
};

// Layers reported by self time: span name, metric.
constexpr const char* kLayerSpans[][2] = {
    {"mcalc.parse", "mcalc.parse_us"},
    {"core.resolve", "core.resolve_us"},
    {"core.optimize", "core.optimize_us"},
    {"exec.search", "exec.execute_us"},
    {"server.format", "server.format_us"},
    {"router.collect_stats", "router.collect_stats_us"},
};

// Reports every layer metric from a trace summary. `root` names the root
// span (client call); its self time is the transport on HTTP workloads.
// `unattributed` names the spans whose self time no layer below explains.
void ReportTrace(const TraceSummary& t, const char* root,
                 const std::set<std::string>& unattributed,
                 double untraced_p50_ms, Metrics* m) {
  const double n = std::max<double>(static_cast<double>(t.requests), 1.0);
  const auto self = [&](const char* name) {
    const auto it = t.layers.find(name);
    return it == t.layers.end() ? 0.0 : it->second.self_us_total / n;
  };
  const auto total = [&](const char* name) {
    const auto it = t.layers.find(name);
    return it == t.layers.end() ? 0.0 : it->second.total_us / n;
  };
  for (const auto& [span, metric] : kLayerSpans) {
    Put(m, metric, self(span), "us");
  }
  // Per call: a fan-out makes one shard leg per shard.
  const auto shard = t.layers.find("router.shard_get");
  Put(m, "router.shard_get_us",
      shard == t.layers.end() || shard->second.calls == 0
          ? 0.0
          : shard->second.total_us / static_cast<double>(shard->second.calls),
      "us");
  // Layers reported by whole-call time (exec.search_us includes optimize
  // on the full-ranking path; exec.execute_us above excludes it).
  Put(m, "exec.search_us", total("exec.search"), "us");
  Put(m, "server.handle_us", total("server.handle"), "us");
  Put(m, "router.handle_us", total("router.handle"), "us");
  Put(m, "router.gather_us", total("router.gather"), "us");
  Put(m, "server.transport_us",
      std::string(root) == "client.http_get" ? self(root) : 0.0, "us");
  double attributed = 0.0;
  for (const auto& [name, layer] : t.layers) {
    if (unattributed.count(name) == 0) attributed += layer.path_self_us_total;
  }
  const double client_us = t.root_us_total / n;
  Put(m, "trace.client_us", client_us, "us");
  Put(m, "trace.attributed_frac",
      t.root_us_total > 0 ? attributed / t.root_us_total : 0.0, "ratio");
  Put(m, "trace.overhead_ms", Median(t.root_us) / 1000.0 - untraced_p50_ms,
      "ms");
  Put(m, "trace.requests", static_cast<double>(t.requests), "count");
}

void ZeroMetrics(Metrics* m, std::initializer_list<const char*> names,
                 const char* unit) {
  for (const char* name : names) {
    if (m->count(name) == 0) Put(m, name, 0.0, unit);
  }
}

// Every per-layer metric appears in every traced run; layers a workload
// does not touch report 0.
void FillAbsentLayers(Metrics* m) {
  ZeroMetrics(m, {"server.connections_per_request", "server.rejected_503",
                  "server.deadline_504", "router.shard_stats_requests",
                  "router.shard_attempts", "router.shard_retries",
                  "router.stats_refreshes"},
              "count");
  ZeroMetrics(m, {"server.queue_ms", "loadgen.lag_p99_ms"}, "ms");
  for (const char* op : {"maxscore", "hrjn", "ta", "nra", "full"}) {
    ZeroMetrics(m, {(std::string("core.topk_operator.") + op).c_str()},
                "share");
  }
}

bool WriteTrace(const RunArgs& args, const std::vector<const SpanLog*>& logs) {
  const std::string path =
      args.work_dir + "/" + args.workload + ".spans.jsonl";
  if (!WriteSpans(logs, path)) return false;
  Log("spans written to %s", path.c_str());
  return true;
}

// One traced replay of an HTTP request against `port`, decomposed into
// the in-process calls SearchService::Handle makes.
struct HttpReplay {
  const Serving* s = nullptr;
  SearchService* service = nullptr;
  std::vector<graft::server::HttpRequest> requests;  // per catalog query
  ExecTally tally;
  std::vector<double> queue_ms;

  void Prepare() {
    for (const std::string& target : s->stream.targets) {
      auto parsed = graft::server::ParseRequestHead(
          "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
      requests.push_back(parsed.ok() ? *parsed : graft::server::HttpRequest{});
    }
  }

  bool Run(HttpClient* client, uint32_t q, uint64_t id, SpanLog* log) {
    const CatalogQuery& query = s->catalog.queries[q];
    auto [root, reply] = log->Time("client.http_get", -1, id, [&] {
      return client->Get(s->stream.targets[q]);
    });
    if (reply.status != 200) return false;
    queue_ms.push_back(JsonNumber(reply.body, "queue_ms"));
    // The server process has just run this query; run it once in process
    // too, so the timed in-process calls see the same block-cache state.
    service->Handle(requests[q], 0);
    const int32_t handle =
        log->Time("server.handle", root, id, [&] {
             return service->Handle(requests[q], 0).status_code;
           }).first;
    graft::core::SearchRequestParams params;
    params.query = query.text;
    params.scheme = query.scheme;
    params.top_k = query.k;
    auto [resolve, resolved] = log->Time("core.resolve", handle, id, [&] {
      return graft::core::ResolveRequest(*s->engine, params);
    });
    log->Time("mcalc.parse", resolve, id,
              [&] { return graft::mcalc::ParseQuery(query.text).ok(); });
    if (!resolved.ok()) return false;
    auto [search, result] = log->Time("exec.search", handle, id, [&] {
      return s->engine->SearchQuery(resolved->query, *resolved->scheme,
                                    resolved->options);
    });
    if (!result.ok()) return false;
    if (result->topk_operator.empty()) {
      // Only the full-ranking path runs the optimizer.
      log->Time("core.optimize", search, id, [&] {
        return graft::core::Optimizer(resolved->scheme)
            .Optimize(resolved->query, s->engine->index())
            .ok();
      });
    }
    log->Time("server.format", handle, id, [&] {
      return SearchService::FormatResultsFragment(result->results).size();
    });
    tally.Add(*result);
    return true;
  }
};

}  // namespace

// ---------------------------------------------------------------------
// http_longtail: one graft_server --mmap-index. Untraced, one keep-alive
// client in a closed loop; traced, the open loop at a fixed rate, a
// saturated closed loop and the alternating replay.
// ---------------------------------------------------------------------
Outcome RunHttpLongtail(const RunArgs& args) {
  Outcome out;
  SpanLog ingest_log;
  IngestRuns ingest(args, kProbeIngestDocs);
  if (!ingest.Run(args.trace ? kProbeIngestReps : 1,
                  args.trace ? &ingest_log : nullptr, &out)) {
    return out;
  }
  Serving s;
  if (!PrepareServing(args, HttpSpec(), kServingCacheMb << 20, &s, &out)) {
    return out;
  }
  std::vector<std::unique_ptr<ServerProcess>> procs;
  const SpawnFn spawn = [&](auto* ps, std::string* error) {
    ps->push_back(std::make_unique<ServerProcess>());
    return SpawnServer(args, s.paths.full_path, kServingCacheMb,
                       ps->back().get(), error);
  };
  double setup_s = 0.0;
  if (!TimedSetup(spawn, args.trace ? 1 : kSetupReps, &procs, &setup_s, &out)) {
    return out;
  }
  const uint16_t port = procs[0]->port();
  const size_t threads = Threads();
  HttpClosedLoop(port, &s.stream, 1e9, kWarmupRequests, threads);
  double empty_frac = 0.0;
  std::vector<uint32_t> gated;
  GateServing(port, s, args, &out, &empty_frac, &gated);
  if (!ingest.Run(args.trace ? kProbeIngestReps : 0, nullptr, &out)) return out;
  Metrics* m = &out.metrics;

  if (!args.trace) {
    const PhaseStats run = MeasuredPhase(args.seconds, [&](double seconds) {
      return HttpClosedLoop(port, &s.stream, seconds, SIZE_MAX, 1,
                            ServerCpu(procs));
    });
    out.attempted = run.samples.size();
    out.failed = run.failed;
    Put(m, "setup_s", setup_s, "s");
    CostMetrics(run, m);
    Put(m, "rss_mb", procs[0]->PeakRssMb(), "MB");
    Log("http_longtail: %zu requests, p50 %.3f ms (CPU %.3f ms), p99 %.3f ms",
        run.samples.size(), Median(run.Latencies()), Median(run.CpuCosts()),
        Percentile(run.Latencies(), 0.99));
    if (!ingest.Run(args.trace ? kProbeIngestReps : 0, nullptr, &out)) return out;
    ingest.Report(args.trace, m);
    return out;
  }

  // Traced: alternate an untraced request with a traced replay.
  SearchService service(s.engine.get(), graft::server::ServiceOptions{});
  HttpReplay replay;
  replay.s = &s;
  replay.service = &service;
  replay.Prepare();
  const PhaseStats open =
      OpenLoop(port, &s.stream, kHttpRate, 0.25 * args.seconds, threads);
  Put(m, "loadgen.lag_p99_ms", open.LagP99(), "ms");
  WallMetrics(open, m);
  Put(m, "loadgen.capacity_qps",
      HttpClosedLoop(port, &s.stream, 0.1 * args.seconds, SIZE_MAX, threads)
          .CompletedPerSecond(),
      "1/s");
  SpanLog log;
  HttpClient client(port);
  std::vector<double> untraced_ms;
  const std::string before = StatsJson(port);
  const Clock::time_point start = Clock::now();
  uint64_t requests = 0;
  while (SecondsSince(start) < 0.45 * args.seconds) {
    const size_t position = s.stream.Take(2);
    const Clock::time_point t0 = Clock::now();
    const HttpReply reply = client.Get(s.stream.targets[s.stream.At(position)]);
    untraced_ms.push_back(NanosBetween(t0, Clock::now()) / 1e6);
    ++requests;
    out.attempted += 2;
    if (reply.status != 200) ++out.failed;
    if (!replay.Run(&client, s.stream.At(position + 1), position + 1, &log)) {
      ++out.failed;
    }
    ++requests;
  }
  const std::string after = StatsJson(port);
  const TraceSummary t = Summarize({&log});
  ReportTrace(t, "client.http_get", {"server.handle"}, Median(untraced_ms), m);
  replay.tally.Report(m);
  Put(m, "server.connections_per_request",
      static_cast<double>(client.connections_opened()) /
          static_cast<double>(requests),
      "count");
  Put(m, "server.queue_ms", Mean(replay.queue_ms), "ms");
  Put(m, "server.rejected_503", JsonNumber(after, "rejected_overload"), "count");
  Put(m, "server.deadline_504", JsonNumber(after, "deadline_exceeded"), "count");
  const size_t cache_at = after.find("\"block_cache\"");
  const size_t cache_before = before.find("\"block_cache\"");
  const auto diff = [&](const char* key) {
    return JsonNumber(after, key, 0, cache_at) -
           JsonNumber(before, key, 0, cache_before);
  };
  BlockCacheLayer(diff("hits"), diff("misses"), diff("evictions"),
                  diff("payload_decodes"),
                  JsonNumber(after, "bytes", 0, cache_at),
                  static_cast<double>(requests), m);
  Put(m, "index.load_s", s.load_s, "s");
  Put(m, "catalog.distinct_queries",
      static_cast<double>(s.catalog.queries.size()), "count");
  Put(m, "catalog.distinct_terms", static_cast<double>(DistinctTerms(s.catalog)),
      "count");
  Put(m, "catalog.empty_frac", empty_frac, "ratio");
  if (!ingest.Run(args.trace ? kProbeIngestReps : 0, nullptr, &out)) return out;
  ingest.Report(args.trace, m);
  FillAbsentLayers(m);
  WriteTrace(args, {&log, &ingest_log});
  return out;
}

// ---------------------------------------------------------------------
// engine_pressure: nproc in-process callers on Engine::Search over the
// mapped index with a small block cache.
// ---------------------------------------------------------------------
Outcome RunEnginePressure(const RunArgs& args) {
  Outcome out;
  SpanLog ingest_log;
  IngestRuns ingest(args, kProbeIngestDocs);
  if (!ingest.Run(args.trace ? kProbeIngestReps : 1,
                  args.trace ? &ingest_log : nullptr, &out)) {
    return out;
  }
  ServingIndex paths;
  std::string error;
  if (!EnsureServingIndex(args.cache_dir, &paths, &error)) {
    out.error = error;
    return out;
  }
  const double rss0 = ProcStatusMb("self", "VmRSS");
  std::vector<double> setups;
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<BlockCache> cache;
  for (int i = 0; i < (args.trace ? 1 : kSetupReps); ++i) {
    engine.reset();
    index.reset();
    const Clock::time_point start = Clock::now();
    cache = std::make_shared<BlockCache>(kPressureCacheBytes);
    graft::index::MappedLoadOptions load;
    load.cache = cache;
    auto mapped = graft::index::LoadIndexMapped(paths.full_path, load);
    if (!mapped.ok()) {
      out.error = "LoadIndexMapped: " + mapped.status().ToString();
      return out;
    }
    index = std::make_unique<InvertedIndex>(std::move(mapped).value());
    engine = std::make_unique<Engine>(index.get());
    setups.push_back(SecondsSince(start));
  }
  const CatalogSpec spec = PressureSpec();
  Catalog catalog = BuildCatalog(
      *index, graft::text::WikipediaLikeConfig(kServingDocs), spec, args.seed);
  Log("catalog %s", CatalogShapeJson(catalog).c_str());
  RequestStream stream;
  stream.catalog = &catalog;
  stream.sequence = RequestSequence(catalog, spec, 1 << 20, SubSeed(args.seed, 1));
  const size_t callers = Threads();
  const auto call = [&](size_t, size_t position) {
    return SearchCatalog(*engine, catalog.queries[stream.At(position)]).ok();
  };
  ClosedLoop(callers, &stream, 1e9, kWarmupRequests, call);
  if (!ingest.Run(args.trace ? kProbeIngestReps : 0, nullptr, &out)) return out;
  Metrics* m = &out.metrics;

  if (!args.trace) {
    const PhaseStats run =
        MeasuredPhase(0.75 * args.seconds, [&](double seconds) {
          return ClosedLoop(callers, &stream, seconds, SIZE_MAX, call);
        });
    out.attempted = run.samples.size();
    out.failed = run.failed;
    Put(m, "setup_s", Median(setups), "s");
    CostMetrics(run, m);
    Put(m, "rss_mb", ProcStatusMb("self", "VmRSS") - rss0, "MB");
    const BlockCache::Snapshot snap = cache->snapshot();
    Log("engine_pressure: %zu calls by %zu callers, %.0f/s, p50 %.3f ms "
        "(CPU %.3f ms), cache hit ratio %.4f, resident %.1f MB",
        run.samples.size(), callers, run.CompletedPerSecond(),
        Median(run.Latencies()), Median(run.CpuCosts()),
        static_cast<double>(snap.hits) /
            static_cast<double>(std::max<uint64_t>(snap.hits + snap.misses, 1)),
        static_cast<double>(snap.bytes) / (1 << 20));
  } else {
    const PhaseStats untraced =
        ClosedLoop(callers, &stream, 0.3 * args.seconds, SIZE_MAX, call);
    std::vector<SpanLog> logs(callers);
    std::vector<ExecTally> tallies(callers);
    const BlockCache::Snapshot before = cache->snapshot();
    const PhaseStats traced = ClosedLoop(
        callers, &stream, 0.5 * args.seconds, SIZE_MAX,
        [&](size_t caller, size_t position) {
          const CatalogQuery& query = catalog.queries[stream.At(position)];
          SpanLog& log = logs[caller];
          // Engine::Search is parse + scheme lookup + SearchQuery: the
          // traced request makes the same steps as ResolveRequest and
          // SearchQuery, each under its own span.
          const int32_t root = log.Begin("engine.request", -1, position);
          graft::core::SearchRequestParams params;
          params.query = query.text;
          params.scheme = query.scheme;
          params.top_k = query.k;
          auto [resolve, resolved] = log.Time("core.resolve", root, position, [&] {
            return graft::core::ResolveRequest(*engine, params);
          });
          if (!resolved.ok()) return false;
          auto [search, result] = log.Time("exec.search", root, position, [&] {
            return engine->SearchQuery(resolved->query, *resolved->scheme,
                                       resolved->options);
          });
          log.End(root);
          log.Time("mcalc.parse", resolve, position,
                   [&] { return graft::mcalc::ParseQuery(query.text).ok(); });
          if (!result.ok()) return false;
          if (result->topk_operator.empty()) {
            log.Time("core.optimize", search, position, [&] {
              return graft::core::Optimizer(resolved->scheme)
                  .Optimize(resolved->query, *index)
                  .ok();
            });
          }
          tallies[caller].Add(*result);
          return true;
        });
    const BlockCache::Snapshot after = cache->snapshot();
    out.attempted = untraced.samples.size() + traced.samples.size();
    out.failed = untraced.failed + traced.failed;
    std::vector<const SpanLog*> views;
    for (const SpanLog& log : logs) views.push_back(&log);
    const TraceSummary t = Summarize(views);
    ReportTrace(t, "engine.request", {"engine.request"},
                Median(untraced.Latencies()), m);
    WallMetrics(untraced, m);
    Put(m, "loadgen.capacity_qps", untraced.CompletedPerSecond(), "1/s");
    ExecTally tally;
    for (const ExecTally& part : tallies) tally.Merge(part);
    tally.Report(m);
    BlockCacheLayer(static_cast<double>(after.hits - before.hits),
                    static_cast<double>(after.misses - before.misses),
                    static_cast<double>(after.evictions - before.evictions),
                    static_cast<double>(after.payload_decodes -
                                        before.payload_decodes),
                    static_cast<double>(after.bytes),
                    static_cast<double>(t.requests), m);
    Put(m, "index.load_s", Median(setups), "s");
    Put(m, "catalog.distinct_queries",
        static_cast<double>(catalog.queries.size()), "count");
    Put(m, "catalog.distinct_terms",
        static_cast<double>(DistinctTerms(catalog)), "count");
    views.push_back(&ingest_log);
    WriteTrace(args, views);
  }

  // Gate: every distinct query bit-identical against the materialized
  // index (LoadIndex) of the same file.
  auto eager = graft::index::LoadIndex(paths.full_path);
  if (!eager.ok()) {
    out.error = "LoadIndex: " + eager.status().ToString();
    return out;
  }
  const Engine reference(&*eager);
  std::atomic<size_t> next{0}, mismatches{0}, empty{0};
  std::vector<std::thread> workers;
  for (size_t c = 0; c < callers; ++c) {
    workers.emplace_back([&] {
      for (size_t q = next.fetch_add(1); q < catalog.queries.size();
           q = next.fetch_add(1)) {
        auto got = SearchCatalog(*engine, catalog.queries[q]);
        auto want = SearchCatalog(reference, catalog.queries[q]);
        if (!got.ok() || !want.ok()) {
          ++mismatches;
          continue;
        }
        if (want->results.empty()) ++empty;
        if (args.break_reference && q == 0) Perturb(&want->results);
        if (!SameBits(got->results, want->results)) ++mismatches;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double empty_frac =
      static_cast<double>(empty.load()) / static_cast<double>(catalog.queries.size());
  Log("gate: %zu distinct queries vs materialized index, %zu mismatches, "
      "%.3f empty",
      catalog.queries.size(), mismatches.load(), empty_frac);
  if (mismatches.load() > 0) out.correct = false;
  if (args.trace) Put(m, "catalog.empty_frac", empty_frac, "ratio");
  if (!ingest.Run(args.trace ? kProbeIngestReps : 0, nullptr, &out)) return out;
  ingest.Report(args.trace, m);

  if (args.trace) FillAbsentLayers(m);
  return out;
}

// ---------------------------------------------------------------------
// routed_http: graft_router over two graft_server shards.
// ---------------------------------------------------------------------
Outcome RunRoutedHttp(const RunArgs& args) {
  Outcome out;
  SpanLog ingest_log;
  IngestRuns ingest(args, kProbeIngestDocs);
  if (!ingest.Run(args.trace ? kProbeIngestReps : 1,
                  args.trace ? &ingest_log : nullptr, &out)) {
    return out;
  }
  Serving s;
  CatalogSpec spec = HttpSpec();
  if (!PrepareServing(args, spec, kServingCacheMb << 20, &s, &out)) {
    return out;
  }
  for (uint32_t q : s.catalog.by_class[static_cast<int>(QueryClass::kFullRank)]) {
    s.catalog.queries[q].k = kRoutedFullRankK;
    s.stream.targets[q] = SearchTarget(s.catalog.queries[q]);
  }
  std::vector<std::unique_ptr<ServerProcess>> procs;
  const SpawnFn spawn = [&](auto* ps, std::string* error) {
    std::vector<std::string> argv = {args.bin_dir + "/graft_router"};
    for (size_t shard = 0; shard < kShards; ++shard) {
      ps->push_back(std::make_unique<ServerProcess>());
      if (!SpawnServer(args, s.paths.shard_paths[shard], kServingCacheMb / 2,
                       ps->back().get(), error)) {
        return false;
      }
      argv.push_back("--shard");
      argv.push_back(std::to_string(ps->back()->port()));
    }
    argv.push_back("--port");
    argv.push_back("0");
    ps->push_back(std::make_unique<ServerProcess>());
    return ps->back()->Start(argv, 60.0, error);
  };
  double setup_s = 0.0;
  if (!TimedSetup(spawn, args.trace ? 1 : kSetupReps, &procs, &setup_s, &out)) {
    return out;
  }
  const uint16_t port = procs.back()->port();
  const size_t threads = Threads();
  // Warm-up: every distinct catalog query once, so the router's term
  // statistics cache holds every term the measured phase can bring. The
  // measured phase then runs fully warm whatever the seed; with a partial
  // warm-up the seed-dependent share of cold stats exchanges moved the
  // per-request cost by more than the bound.
  RequestStream warm = s.stream;
  warm.sequence.resize(s.catalog.queries.size());
  std::iota(warm.sequence.begin(), warm.sequence.end(), 0u);
  warm.next = 0;
  HttpClosedLoop(port, &warm, 1e9, warm.sequence.size(), threads);
  double empty_frac = 0.0;
  std::vector<uint32_t> gated;
  GateServing(port, s, args, &out, &empty_frac, &gated);
  if (!ingest.Run(args.trace ? kProbeIngestReps : 0, nullptr, &out)) return out;
  std::vector<std::vector<std::string>> terms(s.catalog.queries.size());
  for (size_t q = 0; q < terms.size(); ++q) {
    auto parsed = graft::mcalc::ParseQuery(s.catalog.queries[q].text);
    if (parsed.ok()) {
      for (const auto& variable : parsed->variables) {
        terms[q].push_back(variable.keyword);
      }
    }
  }
  std::unordered_set<std::string> seen;
  for (const auto& query_terms : terms) {
    seen.insert(query_terms.begin(), query_terms.end());
  }
  Metrics* m = &out.metrics;

  if (!args.trace) {
    const PhaseStats run = MeasuredPhase(args.seconds, [&](double seconds) {
      return HttpClosedLoop(port, &s.stream, seconds, SIZE_MAX, 1,
                            ServerCpu(procs));
    });
    out.attempted = run.samples.size();
    out.failed = run.failed;
    Put(m, "setup_s", setup_s, "s");
    CostMetrics(run, m);
    double rss = 0.0;
    for (const auto& proc : procs) rss += proc->PeakRssMb();
    Put(m, "rss_mb", rss, "MB");
    Log("routed_http: %zu requests, p50 %.3f ms (CPU %.3f ms), p99 %.3f ms",
        run.samples.size(), Median(run.Latencies()), Median(run.CpuCosts()),
        Percentile(run.Latencies(), 0.99));
    if (!ingest.Run(args.trace ? kProbeIngestReps : 0, nullptr, &out)) return out;
    ingest.Report(args.trace, m);
    return out;
  }

  // Traced: in-process router pieces against the same shard processes,
  // with their term caches primed by the warm-up's terms.
  std::vector<std::vector<uint16_t>> replicas;
  for (size_t shard = 0; shard < kShards; ++shard) {
    replicas.push_back({procs[shard]->port()});
  }
  graft::router::RouterService router(replicas, graft::router::RouterOptions{});
  graft::router::ScatterGather gather(replicas, {});
  graft::router::ScatterGather collect(replicas, {});
  std::vector<std::unique_ptr<graft::router::ShardClient>> shard_clients;
  for (size_t shard = 0; shard < kShards; ++shard) {
    shard_clients.push_back(std::make_unique<graft::router::ShardClient>(
        shard, replicas[shard], graft::router::ShardClientOptions{}, shard + 1));
  }
  {
    std::vector<std::string> warm(seen.begin(), seen.end());
    std::sort(warm.begin(), warm.end());
    std::vector<uint64_t> bases, gens;
    for (size_t i = 0; i < warm.size(); i += 200) {
      const std::vector<std::string> batch(
          warm.begin() + i, warm.begin() + std::min(warm.size(), i + 200));
      for (graft::router::ScatterGather* g :
           {&router.gather(), &gather, &collect}) {
        g->CollectStats(batch, 5000, &bases, &gens);
      }
    }
  }
  std::vector<graft::server::HttpRequest> requests;
  for (const std::string& target : s.stream.targets) {
    auto parsed = graft::server::ParseRequestHead(
        "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
    requests.push_back(parsed.ok() ? *parsed : graft::server::HttpRequest{});
  }
  const PhaseStats open =
      OpenLoop(port, &s.stream, kRoutedRate, 0.25 * args.seconds, threads);
  Put(m, "loadgen.lag_p99_ms", open.LagP99(), "ms");
  WallMetrics(open, m);
  Put(m, "loadgen.capacity_qps",
      HttpClosedLoop(port, &s.stream, 0.1 * args.seconds, SIZE_MAX, threads)
          .CompletedPerSecond(),
      "1/s");
  std::string shard_before[kShards];
  for (size_t shard = 0; shard < kShards; ++shard) {
    shard_before[shard] = StatsJson(procs[shard]->port());
  }
  SpanLog log;
  HttpClient client(port);
  std::vector<double> untraced_ms, queue_ms;
  const Clock::time_point start = Clock::now();
  uint64_t requests_sent = 0;
  while (SecondsSince(start) < 0.45 * args.seconds) {
    const size_t position = s.stream.Take(2);
    const Clock::time_point t0 = Clock::now();
    const HttpReply plain = client.Get(s.stream.targets[s.stream.At(position)]);
    untraced_ms.push_back(NanosBetween(t0, Clock::now()) / 1e6);
    out.attempted += 2;
    requests_sent += 2;
    if (plain.status != 200) ++out.failed;
    const uint64_t id = position + 1;
    const uint32_t q = s.stream.At(id);
    const CatalogQuery& query = s.catalog.queries[q];
    auto [root, reply] = log.Time("client.http_get", -1, id, [&] {
      return client.Get(s.stream.targets[q]);
    });
    if (reply.status != 200) {
      ++out.failed;
      continue;
    }
    queue_ms.push_back(JsonNumber(reply.body, "queue_ms"));
    const int32_t handle = log.Time("router.handle", root, id, [&] {
                                return router.Handle(requests[q], 0).status_code;
                              }).first;
    const std::string tail = "q=" + graft::server::UrlEncode(query.text) +
                             "&scheme=" + graft::server::UrlEncode(query.scheme);
    const int32_t fan = log.Time("router.gather", handle, id, [&] {
                             return gather.Search(terms[q], tail, query.k, 5000).ok();
                           }).first;
    log.Time("router.collect_stats", fan, id, [&] {
      std::vector<uint64_t> bases, gens;
      return collect.CollectStats(terms[q], 5000, &bases, &gens).ok();
    });
    for (auto& shard : shard_clients) {
      const Clock::time_point t1 = Clock::now();
      shard->Get(s.stream.targets[q], 5000);
      log.Add("router.shard_get", fan, id, t1, Clock::now(), /*parallel=*/true);
    }
  }
  const TraceSummary t = Summarize({&log});
  ReportTrace(t, "client.http_get", {"router.handle"}, Median(untraced_ms), m);
  Put(m, "server.connections_per_request",
      static_cast<double>(client.connections_opened()) /
          static_cast<double>(std::max<uint64_t>(requests_sent, 1)),
      "count");
  Put(m, "server.queue_ms", Mean(queue_ms), "ms");
  const std::string router_stats = StatsJson(port);
  double shard_stats_requests = 0.0, rejected = 0.0, deadline = 0.0;
  double cache[5] = {0, 0, 0, 0, 0};
  const char* cache_keys[5] = {"hits", "misses", "evictions",
                               "payload_decodes", "bytes"};
  for (size_t shard = 0; shard < kShards; ++shard) {
    const std::string stats = StatsJson(procs[shard]->port());
    shard_stats_requests += JsonNumber(stats, "shard_stats_requests");
    rejected += JsonNumber(stats, "rejected_overload");
    deadline += JsonNumber(stats, "deadline_exceeded");
    const size_t at = stats.find("\"block_cache\"");
    const size_t was = shard_before[shard].find("\"block_cache\"");
    for (size_t k = 0; k < 5; ++k) {
      cache[k] += JsonNumber(stats, cache_keys[k], 0, at) -
                  (k == 4 ? 0 : JsonNumber(shard_before[shard], cache_keys[k],
                                           0, was));
    }
  }
  // Both shards see every query (and the in-process legs a second time).
  BlockCacheLayer(cache[0], cache[1], cache[2], cache[3], cache[4],
                  static_cast<double>(requests_sent), m);
  Put(m, "server.rejected_503",
      rejected + JsonNumber(router_stats, "rejected_overload"), "count");
  Put(m, "server.deadline_504",
      deadline + JsonNumber(router_stats, "deadline_exceeded"), "count");
  Put(m, "router.shard_stats_requests", shard_stats_requests, "count");
  const size_t shards_at = router_stats.find("\"shards\":[");
  const std::string shard_part =
      shards_at == std::string::npos ? "" : router_stats.substr(shards_at);
  Put(m, "router.shard_attempts", JsonNumberSum(shard_part, "attempts"), "count");
  Put(m, "router.shard_retries", JsonNumberSum(shard_part, "retries"), "count");
  Put(m, "router.stats_refreshes", JsonNumber(router_stats, "stats_refreshes"),
      "count");
  Put(m, "index.load_s", s.load_s, "s");
  Put(m, "catalog.distinct_queries",
      static_cast<double>(s.catalog.queries.size()), "count");
  Put(m, "catalog.distinct_terms", static_cast<double>(DistinctTerms(s.catalog)),
      "count");
  Put(m, "catalog.empty_frac", empty_frac, "ratio");
  ExecTally().Report(m);
  if (!ingest.Run(args.trace ? kProbeIngestReps : 0, nullptr, &out)) return out;
  ingest.Report(args.trace, m);
  FillAbsentLayers(m);
  WriteTrace(args, {&log, &ingest_log});
  return out;
}

}  // namespace perfbench
