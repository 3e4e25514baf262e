#include "server/search_service.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/failpoint.h"
#include "core/rewrite_rules.h"
#include "index/block_cache.h"
#include "server/pinned_stats.h"

namespace graft::server {

namespace {

// Injectable between the successful load and the generation swap, so tests
// can hold a reload failure at the last possible moment.
GRAFT_DEFINE_FAILPOINT(g_fp_reload_swap, "service.reload.swap");

// The full per-operator counter object (the base "exec" block keeps its
// original three fields for compatibility; explain gets everything).
void AppendFullExecJson(std::string* out, const exec::ExecStats& s) {
  *out += "{\"docs_visited\":" + std::to_string(s.docs_visited) +
          ",\"rows_built\":" + std::to_string(s.rows_built) +
          ",\"positions_scanned\":" + std::to_string(s.positions_scanned) +
          ",\"count_entries_scanned\":" +
          std::to_string(s.count_entries_scanned) +
          ",\"blocks_decoded\":" + std::to_string(s.blocks_decoded) +
          ",\"gallop_probes\":" + std::to_string(s.gallop_probes) +
          ",\"skip_calls\":" + std::to_string(s.skip_calls) +
          ",\"skip_hits\":" + std::to_string(s.skip_hits) +
          ",\"rank_heap_ops\":" + std::to_string(s.rank_heap_ops) +
          ",\"rank_stopping_depth\":" +
          std::to_string(s.rank_stopping_depth) +
          ",\"docs_scored\":" + std::to_string(s.docs_scored) +
          ",\"docs_pruned\":" + std::to_string(s.docs_pruned) +
          ",\"topk_blocks_skipped\":" +
          std::to_string(s.topk_blocks_skipped) +
          ",\"topk_blocks_decoded\":" +
          std::to_string(s.topk_blocks_decoded) +
          ",\"topk_ceiling_probes\":" +
          std::to_string(s.topk_ceiling_probes) +
          ",\"topk_threshold_updates\":" +
          std::to_string(s.topk_threshold_updates) +
          ",\"block_cache_hits\":" + std::to_string(s.block_cache_hits) +
          ",\"block_cache_misses\":" + std::to_string(s.block_cache_misses) +
          ",\"block_cache_evictions\":" +
          std::to_string(s.block_cache_evictions) +
          ",\"packed_payload_decodes\":" +
          std::to_string(s.packed_payload_decodes) + "}";
}

// "explain":{...} block: pinned generation, plan, top-k operator, rewrite
// table, counters, trace.
void AppendExplainBlock(std::string* out, const core::SearchResult& result,
                        const common::QueryTrace& trace,
                        uint64_t pinned_generation) {
  *out += "\"explain\":{\"generation\":";
  *out += std::to_string(pinned_generation);
  *out += ",\"plan\":\"";
  JsonAppendEscaped(out, result.plan_text);
  // The top-k operator that ran; "full" for full ranking (+ truncate).
  *out += "\",\"topk_operator\":\"";
  *out += result.topk_operator.empty() ? "full" : result.topk_operator;
  *out += "\",\"rewrites\":[";
  bool first = true;
  for (const core::RewriteAttempt& attempt : result.rewrite_attempts) {
    if (!first) *out += ",";
    first = false;
    *out += "{\"name\":\"";
    JsonAppendEscaped(out, core::OptimizationName(attempt.opt));
    *out += "\",\"fired\":";
    *out += attempt.fired ? "true" : "false";
    *out += ",\"verdict\":\"";
    JsonAppendEscaped(out, attempt.verdict);
    *out += "\"}";
  }
  *out += "],\"exec\":";
  AppendFullExecJson(out, result.exec_stats);
  *out += ",\"trace\":[";
  first = true;
  for (const common::TraceSpan& span : trace.spans()) {
    if (!first) *out += ",";
    first = false;
    char buf[96];
    *out += "{\"name\":\"";
    JsonAppendEscaped(out, span.name);
    std::snprintf(buf, sizeof(buf), "\",\"us\":%.1f,\"depth\":%u",
                  static_cast<double>(span.DurationNanos()) / 1000.0,
                  span.depth);
    *out += buf;
    if (!span.detail.empty()) {
      *out += ",\"detail\":\"";
      JsonAppendEscaped(out, span.detail);
      *out += "\"";
    }
    *out += "}";
  }
  *out += "]}";
}

// One server-side slot per exec-side slot: StampRuleCounters writes by
// registry index, so the two arrays must stay width-matched.
static_assert(ServerStats::kMaxRules == exec::ExecStats::kMaxRules,
              "per-rule counter widths diverged");

constexpr OutcomeNames kOutcomeNames{"graft_", "server_errors",
                                     "scheme_counts"};

// The counters ServerStats adds to the shared outcomes: /stats key,
// metric name, help text.
const struct {
  const char* key;
  const char* metric;
  const char* help;
  std::atomic<uint64_t> ServerStats::*field;
} kServerCounters[] = {
    {"reloads_ok", "graft_reloads_ok_total", "Successful hot reloads.",
     &ServerStats::reloads_ok},
    {"reloads_failed", "graft_reloads_failed_total", "Failed hot reloads.",
     &ServerStats::reloads_failed},
    {"slow_queries", "graft_slow_queries_total",
     "Searches over the slow-query threshold.", &ServerStats::slow_queries},
    {"generation_conflicts", "graft_generation_conflicts_total",
     "409s: router expect_gen stale after a reload.",
     &ServerStats::generation_conflicts},
    {"shard_stats_requests", "graft_shard_stats_requests_total",
     "/shard/stats requests (router stats exchange phase 1).",
     &ServerStats::shard_stats_requests},
    {"pruned_searches", "graft_pruned_searches_total",
     "Searches served by the block-max pruned top-k operator.",
     &ServerStats::pruned_searches},
    {"topk_blocks_skipped", "graft_topk_blocks_skipped_total",
     "Posting blocks skipped via block-max ceilings.",
     &ServerStats::topk_blocks_skipped},
};

}  // namespace

std::string ServerStats::ToJson() const {
  std::string out = "{" + ToJsonFields(kOutcomeNames);
  for (const auto& row : kServerCounters) {
    out += ",\"";
    out += row.key;
    out += "\":";
    out += std::to_string((this->*row.field).load(std::memory_order_relaxed));
  }
  out += ",\"rule_fired\":{";
  const auto& rules = core::RewriteRuleRegistry::Global().All();
  bool first = true;
  for (size_t i = 0; i < rules.size() && i < kMaxRules; ++i) {
    const uint64_t n = rule_fired[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + rules[i].id + "\":" + std::to_string(n);
  }
  out += "}}";
  return out;
}

std::string ServerStats::ToPrometheus() const {
  std::string out = RequestOutcomes::ToPrometheus(kOutcomeNames);
  for (const auto& row : kServerCounters) {
    AppendMetric(&out, row.metric, row.help, "counter",
                 (this->*row.field).load(std::memory_order_relaxed));
  }
  const auto& rules = core::RewriteRuleRegistry::Global().All();
  bool any = false;
  for (size_t i = 0; i < rules.size() && i < kMaxRules; ++i) {
    any = any || rule_fired[i].load(std::memory_order_relaxed) != 0;
  }
  if (any) {
    out +=
        "# HELP graft_rewrite_rule_fired_total Rewrite-rule applications "
        "per catalog rule across served searches.\n"
        "# TYPE graft_rewrite_rule_fired_total counter\n";
    for (size_t i = 0; i < rules.size() && i < kMaxRules; ++i) {
      const uint64_t n = rule_fired[i].load(std::memory_order_relaxed);
      if (n == 0) continue;
      // Rule ids are stable lowercase identifiers — no label escaping
      // needed beyond quoting.
      out += "graft_rewrite_rule_fired_total{rule=\"" + rules[i].id +
             "\"} " + std::to_string(n) + "\n";
    }
  }
  return out;
}

std::string SearchService::FormatResultsFragment(
    const std::vector<ma::ScoredDoc>& results) {
  std::string out = "\"results\":[";
  char buf[64];
  bool first = true;
  for (const ma::ScoredDoc& hit : results) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"doc\":%u,\"score\":%.17g}", hit.doc,
                  hit.score);
    out += buf;
  }
  out += "]";
  return out;
}

SearchService::SearchService(const core::Engine* engine,
                             ServiceOptions options)
    : options_(std::move(options)),
      // Non-owning: the caller guarantees lifetime, so the deleter is a
      // no-op. Reload would drop that guarantee, hence reloadable_ = false.
      engine_(std::shared_ptr<const core::Engine>(engine,
                                                  [](const core::Engine*) {})),
      reloadable_(false) {
  // A packed (mmap-loaded) index brings its own decoded-block cache; adopt
  // it so /stats and /metrics can report on it. Set once here, never
  // reassigned — handlers read block_cache_ without a lock.
  block_cache_ = engine->index().block_cache();
}

SearchService::SearchService(std::shared_ptr<const core::EngineBundle> bundle,
                             ServiceOptions options)
    : options_(std::move(options)),
      // Alias into the bundle: the snapshot's control block owns the whole
      // bundle, so index + segments + engine die together, after the last
      // in-flight request lets go.
      engine_(std::shared_ptr<const core::Engine>(bundle,
                                                  bundle->engine.get())),
      reloadable_(!options_.index_path.empty()) {
  // One decoded-block cache for the service's whole lifetime: adopt the
  // initial bundle's cache when it was mmap-loaded, otherwise create one
  // up front when mmap reloads are configured. Set once here, never
  // reassigned — handlers read block_cache_ without a lock; Reload() feeds
  // the same cache to every future generation.
  if (bundle->index != nullptr && bundle->index->block_cache() != nullptr) {
    block_cache_ = bundle->index->block_cache();
  } else if (options_.mmap_index) {
    block_cache_ =
        std::make_shared<index::BlockCache>(options_.block_cache_bytes);
  }
}

SearchService::~SearchService() { Shutdown(); }

Status SearchService::Start() { return http_.Start(); }

void SearchService::Shutdown() { http_.Shutdown(); }

Status SearchService::Reload() {
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (!reloadable_) {
    return Status::InvalidArgument(
        "reload unsupported: service was built without an index_path");
  }
  // Everything up to the store is fallible and leaves no trace: the old
  // generation keeps serving until the one atomic swap below.
  const auto fail = [this](const Status& status) {
    degraded_.store(true, std::memory_order_release);
    last_reload_error_ = std::string(StatusCodeName(status.code())) + ": " +
                         std::string(status.message());
    stats_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
    return status;
  };
  core::BundleLoadOptions load;
  load.mmap_index = options_.mmap_index;
  load.block_cache = block_cache_;  // shared across generations (may be null)
  load.block_cache_bytes = options_.block_cache_bytes;
  StatusOr<core::EngineBundle> loaded = core::LoadEngineBundle(
      options_.index_path, options_.segments, options_.engine_threads, load);
  if (!loaded.ok()) return fail(loaded.status());
#ifdef GRAFT_FAILPOINTS_ENABLED
  {
    const Status injected = g_fp_reload_swap.Check();
    if (!injected.ok()) return fail(injected);
  }
#endif
  auto bundle =
      std::make_shared<const core::EngineBundle>(std::move(loaded).value());
  std::shared_ptr<const core::Engine> snapshot(bundle, bundle->engine.get());
  uint64_t old_cache_generation = 0;
  {
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    old_cache_generation = engine_->index().cache_generation();
    engine_ = std::move(snapshot);
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  // Drop the replaced generation's decoded blocks from the shared cache:
  // they can never be looked up again (cache keys carry the generation),
  // so leaving them in would squat on capacity until LRU pressure evicts
  // them. In-flight requests still pinning the old engine keep their
  // blocks alive via shared_ptr — this only removes cache references.
  if (block_cache_ != nullptr && old_cache_generation != 0) {
    block_cache_->EraseGeneration(old_cache_generation);
  }
  degraded_.store(false, std::memory_order_release);
  last_reload_error_.clear();
  stats_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Response SearchService::Handle(const HttpRequest& request,
                               uint64_t queued_micros) {
  if (request.path == "/healthz") return HandleHealthz();
  if (request.path == "/shard/stats") return HandleShardStats(request);
  if (request.path == "/stats") return HandleStats();
  if (request.path == "/metrics") return HandleMetrics();
  if (request.path == "/admin/reload") return HandleReload();
  if (request.path == "/search") return HandleSearch(request, queued_micros);
  return ErrorResponse(Status::NotFound("no such endpoint: " + request.path));
}

Response SearchService::HandleShardStats(const HttpRequest& request) {
  stats_.shard_stats_requests.fetch_add(1, std::memory_order_relaxed);
  // Pin engine + generation together: the generation in this response is
  // the one the reported statistics came from, which is what the router's
  // expect_gen check on the subsequent /search validates against.
  const std::shared_ptr<const core::Engine> engine = SnapshotEngine();
  const uint64_t pinned_generation = generation();
  const index::InvertedIndex& index = engine->index();

  Response response;
  std::string body = "{\"generation\":";
  body += std::to_string(pinned_generation);
  body += ",\"doc_count\":";
  body += std::to_string(index.doc_count());
  body += ",\"total_words\":";
  body += std::to_string(index.total_words());
  body += ",\"terms\":[";
  const auto it = request.params.find("terms");
  std::string_view terms = it == request.params.end()
                               ? std::string_view()
                               : std::string_view(it->second);
  bool first = true;
  while (!terms.empty()) {
    const size_t comma = terms.find(',');
    const std::string_view term = terms.substr(0, comma);
    terms = comma == std::string_view::npos ? std::string_view()
                                            : terms.substr(comma + 1);
    if (term.empty()) continue;
    // Terms this shard has never seen are a normal outcome of corpus
    // partitioning, not an error: df=0/cf=0 sums correctly at the router.
    const TermId id = index.LookupTerm(term);
    const uint64_t df = id == kInvalidTerm ? 0 : index.DocFreq(id);
    const uint64_t cf = id == kInvalidTerm ? 0 : index.CollectionFreq(id);
    if (!first) body += ",";
    first = false;
    body += "{\"term\":\"";
    JsonAppendEscaped(&body, term);
    body += "\",\"df\":";
    body += std::to_string(df);
    body += ",\"cf\":";
    body += std::to_string(cf);
    body += "}";
  }
  body += "]}";
  response.body = std::move(body);
  return response;
}

Response SearchService::HandleHealthz() const {
  const std::shared_ptr<const core::Engine> engine = SnapshotEngine();
  Response response;
  response.body = "{\"status\":\"";
  response.body += degraded() ? "degraded" : "ok";
  response.body += "\",\"docs\":";
  response.body += std::to_string(engine->index().doc_count());
  response.body += ",\"segments\":";
  response.body += std::to_string(engine->segmented() == nullptr
                                      ? 1
                                      : engine->segmented()->segment_count());
  response.body += ",\"generation\":";
  response.body += std::to_string(generation());
  response.body += "}";
  return response;
}

Response SearchService::HandleStats() const {
  Response response;
  std::string body = stats_.ToJson();
  // Splice uptime + reload state into the stats object.
  body.pop_back();  // trailing '}'
  body += ",\"uptime_s\":";
  body += std::to_string(http_.uptime_s());
  body += ",\"index_generation\":";
  body += std::to_string(generation());
  body += ",\"degraded\":";
  body += degraded() ? "true" : "false";
  body += ",\"last_reload_error\":\"";
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    JsonAppendEscaped(&body, last_reload_error_);
  }
  body += "\"";
  if (block_cache_ != nullptr) {
    const index::BlockCache::Snapshot cache = block_cache_->snapshot();
    body += ",\"block_cache\":{\"hits\":" + std::to_string(cache.hits) +
            ",\"misses\":" + std::to_string(cache.misses) +
            ",\"evictions\":" + std::to_string(cache.evictions) +
            ",\"inserts\":" + std::to_string(cache.inserts) +
            ",\"payload_decodes\":" + std::to_string(cache.payload_decodes) +
            ",\"bytes\":" + std::to_string(cache.bytes) +
            ",\"capacity_bytes\":" + std::to_string(cache.capacity_bytes) +
            ",\"entries\":" + std::to_string(cache.entries) + "}";
  }
  body += "}";
  response.body = std::move(body);
  return response;
}

Response SearchService::HandleMetrics() const {
  Response response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body = stats_.ToPrometheus();
  // Service-level gauges live here, next to the counters ServerStats owns.
  AppendMetric(&body, "graft_inflight_requests",
               "Admitted but unanswered requests.", "gauge", http_.inflight());
  AppendMetric(&body, "graft_index_generation",
               "Engine generation (1 + reloads).", "gauge", generation());
  AppendMetric(&body, "graft_degraded",
               "1 while the last reload attempt failed.", "gauge",
               degraded() ? 1 : 0);
  AppendMetric(&body, "graft_uptime_seconds", "Seconds since Start().",
               "gauge", http_.uptime_s());
  if (block_cache_ != nullptr) {
    const index::BlockCache::Snapshot cache = block_cache_->snapshot();
    const struct {
      const char* name;
      const char* help;
      const char* type;
      uint64_t value;
    } rows[] = {
        {"graft_block_cache_hits_total",
         "Decoded-block cache lookups served from cache.", "counter",
         cache.hits},
        {"graft_block_cache_misses_total",
         "Decoded-block cache lookups that decoded from the mapped file.",
         "counter", cache.misses},
        {"graft_block_cache_evictions_total",
         "Decoded blocks evicted by LRU capacity pressure.", "counter",
         cache.evictions},
        {"graft_block_cache_inserts_total",
         "Decoded blocks inserted into the cache.", "counter", cache.inserts},
        {"graft_block_cache_payload_decodes_total",
         "Full-payload (docs+tfs+offsets) block decodes.", "counter",
         cache.payload_decodes},
        {"graft_block_cache_bytes", "Resident decoded bytes in the cache.",
         "gauge", cache.bytes},
        {"graft_block_cache_capacity_bytes",
         "Configured decoded-block cache capacity.", "gauge",
         cache.capacity_bytes},
        {"graft_block_cache_entries", "Decoded blocks resident in the cache.",
         "gauge", cache.entries},
    };
    for (const auto& row : rows) {
      AppendMetric(&body, row.name, row.help, row.type, row.value);
    }
  }
  response.body = std::move(body);
  return response;
}

Response SearchService::HandleReload() {
  Response response;
  const Status status = Reload();
  std::string body = "{\"reloaded\":";
  body += status.ok() ? "true" : "false";
  body += ",\"generation\":";
  body += std::to_string(generation());
  body += ",\"degraded\":";
  body += degraded() ? "true" : "false";
  if (!status.ok()) {
    response.status_code = HttpCodeForStatus(status) == 400 ? 400 : 500;
    body += ",\"error\":\"";
    JsonAppendEscaped(&body, StatusCodeName(status.code()));
    body += "\",\"message\":\"";
    JsonAppendEscaped(&body, status.message());
    body += "\"";
  }
  body += "}";
  response.body = std::move(body);
  return response;
}

Response SearchService::HandleSearch(const HttpRequest& request,
                                     uint64_t queued_micros) {
  // The single exit point for the latency record: every /search response
  // is counted, whatever code it carries.
  const LatencyScope latency(&stats_.search_latency, queued_micros);
  Response response;

  // ---- parameter parsing: every failure is a 4xx, never a crash ----
  core::SearchRequestParams params;
  uint64_t deadline_ms = options_.default_deadline_ms;
  const auto get = [&request](const char* name) -> const std::string* {
    const auto it = request.params.find(name);
    return it == request.params.end() ? nullptr : &it->second;
  };
  const std::string* q = get("q");
  if (q == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("missing required parameter: q"));
  }
  params.query = *q;
  params.top_k = options_.default_top_k;
  if (const std::string* scheme = get("scheme")) params.scheme = *scheme;
  const struct {
    const char* name;
    size_t* out;
  } counts[] = {
      {"k", &params.top_k},
      {"threads", &params.num_threads},
      {"segments", &params.segments},
  };
  for (const auto& field : counts) {
    if (const std::string* text = get(field.name)) {
      StatusOr<size_t> value = core::ParseCount(*text, field.name);
      if (!value.ok()) {
        return ErrorResponse(value.status());
      }
      *field.out = *value;
    }
  }
  if (const std::string* text = get("deadline_ms")) {
    StatusOr<size_t> value = core::ParseCount(*text, "deadline_ms");
    if (!value.ok() || *value == 0) {
      const Status status =
          value.ok() ? Status::InvalidArgument("deadline_ms must be > 0")
                     : value.status();
      return ErrorResponse(status);
    }
    deadline_ms = std::min<uint64_t>(*value, options_.max_deadline_ms);
  }
  if (params.top_k > options_.max_top_k) {
    return ErrorResponse(Status::InvalidArgument(
        "k exceeds the server limit of " +
        std::to_string(options_.max_top_k)));
  }
  bool explain = false;
  if (const std::string* text = get("explain")) {
    explain = *text == "1" || *text == "true";
  }

  // Pin the engine generation once: a reload that lands mid-request swaps
  // the service's pointer but cannot touch this snapshot, and the control
  // block keeps the whole old bundle alive until we return. The explain
  // block reports this pinned generation, not the live one — an EXPLAIN
  // that overlaps a reload describes the engine it actually ran on.
  const std::shared_ptr<const core::Engine> engine = SnapshotEngine();
  const uint64_t pinned_generation = generation();

  // Router generation fence: the pinned statistics in gstats were summed
  // from /shard/stats responses at a specific generation; if a reload
  // landed since, scoring would silently mix new postings with old global
  // statistics. 409 tells the router to re-collect and retry.
  if (const std::string* text = get("expect_gen")) {
    StatusOr<size_t> expected = core::ParseCount(*text, "expect_gen");
    if (!expected.ok()) {
      return ErrorResponse(expected.status());
    }
    if (*expected != pinned_generation) {
      stats_.generation_conflicts.fetch_add(1, std::memory_order_relaxed);
      response.status_code = 409;
      response.body = "{\"error\":\"generation_conflict\",\"expected\":" +
                      std::to_string(*expected) + ",\"generation\":" +
                      std::to_string(pinned_generation) + "}";
      return response;
    }
  }

  StatusOr<core::ResolvedRequest> resolved =
      core::ResolveRequest(*engine, params);
  if (!resolved.ok()) {
    return ErrorResponse(resolved.status());
  }
  common::QueryTrace trace;  // outlives the engine call
  if (explain) {
    resolved->options.trace = &trace;
  }

  // Pinned global statistics from the router (phase 2 of the stats
  // exchange). Installed as a per-request overlay; execution is forced
  // monolithic because the per-request overlay is rejected on the
  // segmented fan-out path (scores are identical either way).
  index::StatsOverlay pinned_overlay;  // outlives the engine call
  if (const std::string* text = get("gstats")) {
    StatusOr<PinnedStats> pinned = DecodePinnedStats(*text);
    if (!pinned.ok()) {
      return ErrorResponse(pinned.status());
    }
    pinned_overlay = ToOverlay(*pinned);
    resolved->options.stats_overlay = &pinned_overlay;
    resolved->options.use_segmented = false;
  }

  if (options_.test_search_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.test_search_delay_ms));
  }

  // ---- deadline: queued time counts against the budget ----
  if (latency.elapsed_micros() / 1000 >= deadline_ms) {
    response.status_code = 504;
    response.body = ErrorBody(Status::FailedPrecondition(
        "deadline of " + std::to_string(deadline_ms) +
        "ms elapsed before execution"));
    return response;
  }

  const Clock::time_point engine_start = Clock::now();
  StatusOr<core::SearchResult> result = engine->SearchQuery(
      resolved->query, *resolved->scheme, resolved->options);
  const uint64_t engine_micros = MicrosSince(engine_start);

  stats_.scheme_counts.Record(params.scheme);
  if (result.ok() && result->used_block_max_pruning) {
    stats_.pruned_searches.fetch_add(1, std::memory_order_relaxed);
    stats_.topk_blocks_skipped.fetch_add(
        result->exec_stats.topk_blocks_skipped, std::memory_order_relaxed);
  }
  if (result.ok()) {
    // Per-rule fire counts, slot-aligned with the rewrite-rule registry
    // (exported as graft_rewrite_rule_fired_total{rule=...}).
    const size_t rules = std::min(core::RewriteRuleRegistry::Global().All().size(),
                                  ServerStats::kMaxRules);
    for (size_t i = 0; i < rules; ++i) {
      const uint64_t fired = result->exec_stats.rule_fired[i];
      if (fired != 0) {
        stats_.rule_fired[i].fetch_add(fired, std::memory_order_relaxed);
      }
    }
  }
  // Slow-query log: threshold on the full latency the client saw
  // (queue + handling), which is what a tail-latency alert fires on.
  if (options_.slow_query_ms > 0 &&
      latency.elapsed_micros() >= options_.slow_query_ms * 1000) {
    stats_.slow_queries.fetch_add(1, std::memory_order_relaxed);
    std::string counters;
    if (result.ok()) {
      counters = " docs_visited=" +
                 std::to_string(result->exec_stats.docs_visited) +
                 " rows_built=" +
                 std::to_string(result->exec_stats.rows_built) +
                 " gallop_probes=" +
                 std::to_string(result->exec_stats.gallop_probes);
    }
    std::fprintf(stderr,
                 "[slow-query] total=%.1fms queue=%.1fms engine=%.1fms "
                 "scheme=%s%s query=%s\n",
                 static_cast<double>(latency.elapsed_micros()) / 1000.0,
                 static_cast<double>(queued_micros) / 1000.0,
                 static_cast<double>(engine_micros) / 1000.0,
                 params.scheme.c_str(), counters.c_str(),
                 params.query.c_str());
  }
  if (!result.ok()) {
    return ErrorResponse(result.status());
  }
  if (latency.elapsed_micros() / 1000 >= deadline_ms) {
    // The engine is not preemptible; the honest answer is a late 504.
    response.status_code = 504;
    response.body = ErrorBody(Status::FailedPrecondition(
        "deadline of " + std::to_string(deadline_ms) +
        "ms exceeded during execution"));
    return response;
  }

  // ---- 200 body ----
  std::string body = "{\"query\":\"";
  JsonAppendEscaped(&body, params.query);
  body += "\",\"scheme\":\"";
  JsonAppendEscaped(&body, params.scheme);
  body += "\",\"k\":";
  body += std::to_string(params.top_k);
  body += ",\"segments_searched\":";
  body += std::to_string(result->segments_searched);
  body += ",\"used_rank_processing\":";
  body += result->used_rank_processing ? "true" : "false";
  body += ",\"used_block_max_pruning\":";
  body += result->used_block_max_pruning ? "true" : "false";
  body += ",\"optimizations\":\"";
  JsonAppendEscaped(&body, result->applied_optimizations);
  body += "\",\"timings\":{";
  AppendMsField(&body, "queue_ms", static_cast<double>(queued_micros));
  body += ",";
  AppendMsField(&body, "engine_ms", static_cast<double>(engine_micros));
  body += ",";
  AppendMsField(&body, "total_ms",
                static_cast<double>(latency.elapsed_micros()));
  body += "},\"exec\":{\"docs_visited\":";
  body += std::to_string(result->exec_stats.docs_visited);
  body += ",\"rows_built\":";
  body += std::to_string(result->exec_stats.rows_built);
  body += ",\"positions_scanned\":";
  body += std::to_string(result->exec_stats.positions_scanned);
  body += "},";
  if (explain) {
    AppendExplainBlock(&body, *result, trace, pinned_generation);
    body += ",";
  }
  body += FormatResultsFragment(result->results);
  body += "}";
  response.body = std::move(body);
  return response;
}

}  // namespace graft::server
