#include "router/router_service.h"

#include <algorithm>
#include <cstdio>

#include "core/request.h"
#include "mcalc/parser.h"
#include "sa/scoring_scheme.h"
#include "server/search_service.h"

namespace graft::router {

namespace {

using server::AppendMetric;
using server::AppendMsField;
using server::ErrorBody;
using server::ErrorResponse;
using server::HttpRequest;
using server::JsonAppendEscaped;
using server::Response;

constexpr server::OutcomeNames kOutcomeNames{"graft_router_", "bad_gateway",
                                             "by_scheme"};

void AppendShardOutcomes(std::string* out,
                         const std::vector<ShardOutcome>& outcomes) {
  *out += "\"shards\":[";
  bool first = true;
  for (const ShardOutcome& shard : outcomes) {
    if (!first) *out += ",";
    first = false;
    *out += "{\"shard\":" + std::to_string(shard.shard);
    *out += ",\"port\":" + std::to_string(shard.port);
    *out += ",\"outcome\":\"";
    JsonAppendEscaped(out, shard.outcome);
    *out += "\",\"attempts\":" + std::to_string(shard.attempts);
    *out += ",\"hedged\":";
    *out += shard.hedged ? "true" : "false";
    *out += ",\"results\":" + std::to_string(shard.results);
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"latency_ms\":%.3f",
                  shard.latency_ms);
    *out += buf;
    if (!shard.error.empty()) {
      *out += ",\"error\":\"";
      JsonAppendEscaped(out, shard.error);
      *out += "\"";
    }
    *out += "}";
  }
  *out += "]";
}

}  // namespace

RouterService::RouterService(
    std::vector<std::vector<uint16_t>> shard_replicas, RouterOptions options)
    : options_(std::move(options)),
      gather_(std::make_unique<ScatterGather>(std::move(shard_replicas),
                                              options_.gather)) {}

RouterService::~RouterService() { Shutdown(); }

Status RouterService::Start() {
  GRAFT_RETURN_IF_ERROR(http_.Start());
  gather_->StartProbes();
  return Status::Ok();
}

void RouterService::Shutdown() {
  http_.Shutdown();
  gather_->StopProbes();
}

Response RouterService::Handle(const HttpRequest& request,
                               uint64_t queued_micros) {
  if (request.path == "/healthz") return HandleHealthz();
  if (request.path == "/stats") return HandleStats();
  if (request.path == "/metrics") return HandleMetrics();
  if (request.path == "/search") return HandleSearch(request, queued_micros);
  return ErrorResponse(Status::NotFound("no such endpoint: " + request.path));
}

Response RouterService::HandleSearch(const HttpRequest& request,
                                     uint64_t queued_micros) {
  // The single exit point for the latency record: every /search response
  // is counted, whatever code it carries.
  const server::LatencyScope latency(&stats_.search_latency, queued_micros);
  Response response;

  // ---- parameter parsing (every failure is a 4xx) ----
  const auto get = [&request](const char* name) -> const std::string* {
    const auto it = request.params.find(name);
    return it == request.params.end() ? nullptr : &it->second;
  };
  const std::string* q = get("q");
  if (q == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("missing required parameter: q"));
  }
  std::string scheme = "MeanSum";
  if (const std::string* text = get("scheme")) scheme = *text;
  size_t k = options_.default_top_k;
  if (const std::string* text = get("k")) {
    StatusOr<size_t> value = core::ParseCount(*text, "k");
    if (!value.ok()) return ErrorResponse(value.status());
    k = *value;
  }
  if (k == 0 || k > options_.max_top_k) {
    return ErrorResponse(Status::InvalidArgument(
        "k must be in [1, " + std::to_string(options_.max_top_k) +
        "] (distributed search cannot return unbounded result sets)"));
  }
  uint64_t deadline_ms = options_.default_deadline_ms;
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
  bool explain = false;
  if (const std::string* text = get("explain")) {
    explain = *text == "1" || *text == "true";
  }

  // The router validates the query and scheme itself (same parser and
  // registry as the shards), so malformed input burns zero shard budget
  // and the term list for the stats exchange falls out of the parse.
  StatusOr<mcalc::Query> parsed = mcalc::ParseQuery(*q);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  if (sa::SchemeRegistry::Global().Lookup(scheme) == nullptr) {
    return ErrorResponse(
        Status::NotFound("unknown scoring scheme: " + scheme));
  }
  std::vector<std::string> terms;
  terms.reserve(parsed->variables.size());
  for (const mcalc::Variable& variable : parsed->variables) {
    terms.push_back(variable.keyword);
  }

  stats_.scheme_counts.Record(scheme);

  // ---- fan out ----
  const uint64_t spent_ms = latency.elapsed_micros() / 1000;
  if (spent_ms >= deadline_ms) {
    response.status_code = 504;
    response.body = ErrorBody(Status::FailedPrecondition(
        "deadline of " + std::to_string(deadline_ms) +
        "ms elapsed before fan-out"));
    return response;
  }
  const std::string tail = "q=" + server::UrlEncode(*q) +
                           "&scheme=" + server::UrlEncode(scheme);
  StatusOr<GatherResult> gathered =
      gather_->Search(terms, tail, k, deadline_ms - spent_ms);
  if (!gathered.ok()) {
    // A client mistake stays 4xx; everything else is the gateway speaking
    // for unreachable/failed shards.
    response = ErrorResponse(gathered.status());
    if (response.status_code != 400 && response.status_code != 404) {
      response.status_code = 502;
    }
    return response;
  }
  if (latency.elapsed_micros() / 1000 >= deadline_ms) {
    response.status_code = 504;
    response.body = ErrorBody(Status::FailedPrecondition(
        "deadline of " + std::to_string(deadline_ms) +
        "ms exceeded during fan-out"));
    return response;
  }

  if (gathered->degraded) {
    stats_.partial_responses.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- 200 body: the degradation contract is always present ----
  std::string body = "{\"query\":\"";
  JsonAppendEscaped(&body, *q);
  body += "\",\"scheme\":\"";
  JsonAppendEscaped(&body, scheme);
  body += "\",\"k\":" + std::to_string(k);
  body += ",\"degraded\":";
  body += gathered->degraded ? "true" : "false";
  body += ",\"shards_total\":" + std::to_string(gathered->shards_total);
  body += ",\"shards_ok\":" + std::to_string(gathered->shards_ok);
  body += ",";
  AppendShardOutcomes(&body, gathered->outcomes);
  body += ",\"timings\":{";
  AppendMsField(&body, "queue_ms", static_cast<double>(queued_micros));
  body += ",";
  AppendMsField(&body, "total_ms",
                static_cast<double>(latency.elapsed_micros()));
  body += "},";
  if (explain) {
    body += "\"explain\":{\"stats_epoch\":";
    body += std::to_string(gathered->stats_epoch);
    body += ",\"terms\":[";
    bool first = true;
    for (const std::string& term : terms) {
      if (!first) body += ",";
      first = false;
      body += "\"";
      JsonAppendEscaped(&body, term);
      body += "\"";
    }
    body += "],\"policy\":\"";
    body += options_.gather.partial_policy == PartialPolicy::kFail
                ? "fail"
                : "partial";
    body += "\",\"hedge_ms\":";
    body += std::to_string(options_.gather.hedge_ms);
    body += "},";
  }
  body += server::SearchService::FormatResultsFragment(gathered->results);
  body += "}";
  response.body = std::move(body);
  return response;
}

Response RouterService::HandleHealthz() const {
  // The router is healthy while it can still reach some of the corpus;
  // per-shard replica health is the detail a prober wants next.
  size_t dark_shards = 0;
  std::string shard_list = "[";
  for (size_t i = 0; i < gather_->shard_count(); ++i) {
    const ShardClient& shard = gather_->shard(i);
    if (!shard.any_healthy()) ++dark_shards;
    if (i > 0) shard_list += ",";
    shard_list += "{\"shard\":" + std::to_string(i) +
                  ",\"replicas\":" + std::to_string(shard.replica_count()) +
                  ",\"healthy\":" + std::to_string(shard.healthy_count()) +
                  "}";
  }
  shard_list += "]";
  Response response;
  response.body = "{\"status\":\"";
  response.body += dark_shards == 0
                       ? "ok"
                       : (dark_shards < gather_->shard_count() ? "degraded"
                                                               : "down");
  response.body += "\",\"shards\":" + shard_list + "}";
  return response;
}

Response RouterService::HandleStats() const {
  const GatherCounters& gather = gather_->counters();
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return std::to_string(counter.load(std::memory_order_relaxed));
  };
  std::string body = "{" + stats_.ToJsonFields(kOutcomeNames);
  body += ",\"partial_responses\":" + load(stats_.partial_responses);
  body += ",\"gathers\":{\"total\":" + load(gather.gathers_total);
  body += ",\"ok\":" + load(gather.gathers_ok);
  body += ",\"partial\":" + load(gather.gathers_partial);
  body += ",\"failed\":" + load(gather.gathers_failed);
  body += ",\"hedges_launched\":" + load(gather.hedges_launched);
  body += ",\"hedges_won\":" + load(gather.hedges_won);
  body += ",\"stats_refreshes\":" + load(gather.stats_refreshes);
  body += ",\"gen_conflicts\":" + load(gather.gen_conflicts);
  body += "},\"stats_epoch\":" + std::to_string(gather_->stats_epoch());
  body += ",\"shards\":[";
  for (size_t i = 0; i < gather_->shard_count(); ++i) {
    const ShardClient& shard = gather_->shard(i);
    const ShardClientCounters& counters = shard.counters();
    if (i > 0) body += ",";
    body += "{\"shard\":" + std::to_string(i);
    body += ",\"replicas\":" + std::to_string(shard.replica_count());
    body += ",\"healthy\":" + std::to_string(shard.healthy_count());
    body += ",\"attempts\":" + load(counters.attempts);
    body += ",\"failures\":" + load(counters.failures);
    body += ",\"retries\":" + load(counters.retries);
    body += ",\"ejections\":" + load(counters.ejections);
    body += ",\"readmissions\":" + load(counters.readmissions);
    body += ",\"probes\":" + load(counters.probes);
    body += ",\"connections_opened\":" + load(counters.connections_opened);
    body += "}";
  }
  body += "],\"uptime_s\":" + std::to_string(http_.uptime_s()) + "}";
  Response response;
  response.body = std::move(body);
  return response;
}

Response RouterService::HandleMetrics() const {
  const GatherCounters& gather = gather_->counters();
  std::string body = stats_.ToPrometheus(kOutcomeNames);
  const struct {
    const char* name;
    const char* help;
    const std::atomic<uint64_t>& counter;
  } counters[] = {
      {"graft_router_partial_responses_total",
       "Degraded 200s: some shard did not contribute.",
       stats_.partial_responses},
      {"graft_router_gathers_total", "Scatter-gather rounds started.",
       gather.gathers_total},
      {"graft_router_gathers_partial_total",
       "Gathers merged from a strict subset of shards.",
       gather.gathers_partial},
      {"graft_router_gathers_failed_total",
       "Gathers that returned an error to the caller.", gather.gathers_failed},
      {"graft_router_hedges_launched_total",
       "Hedged second requests sent to straggler shards.",
       gather.hedges_launched},
      {"graft_router_hedges_won_total",
       "Hedged requests that beat the primary.", gather.hedges_won},
      {"graft_router_stats_refreshes_total",
       "Stats-epoch invalidations (generation moved).",
       gather.stats_refreshes},
      {"graft_router_gen_conflicts_total",
       "409 Conflict replies observed from shards.", gather.gen_conflicts},
  };
  for (const auto& row : counters) {
    AppendMetric(&body, row.name, row.help, "counter",
                 row.counter.load(std::memory_order_relaxed));
  }
  AppendMetric(&body, "graft_router_stats_epoch",
               "Current pinned-stats epoch.", "gauge", gather_->stats_epoch());

  // Per-shard wire counters + health gauges, labeled by shard index.
  const struct {
    const char* name;
    const char* help;
    const char* type;
    uint64_t (*value)(const ShardClient&);
  } shard_series[] = {
      {"graft_router_shard_attempts_total", "Wire attempts per shard.",
       "counter",
       [](const ShardClient& shard) -> uint64_t {
         return shard.counters().attempts.load(std::memory_order_relaxed);
       }},
      {"graft_router_shard_failures_total",
       "Failed attempts (transport or 5xx) per shard.", "counter",
       [](const ShardClient& shard) -> uint64_t {
         return shard.counters().failures.load(std::memory_order_relaxed);
       }},
      {"graft_router_shard_ejections_total", "Replica ejections per shard.",
       "counter",
       [](const ShardClient& shard) -> uint64_t {
         return shard.counters().ejections.load(std::memory_order_relaxed);
       }},
      {"graft_router_shard_connections_opened_total",
       "TCP connections opened per shard (pooled ones are reused).",
       "counter",
       [](const ShardClient& shard) -> uint64_t {
         return shard.counters().connections_opened.load(
             std::memory_order_relaxed);
       }},
      {"graft_router_shard_readmissions_total",
       "Probe-driven replica readmissions per shard.", "counter",
       [](const ShardClient& shard) -> uint64_t {
         return shard.counters().readmissions.load(std::memory_order_relaxed);
       }},
      {"graft_router_shard_healthy_replicas",
       "Non-ejected replicas per shard.", "gauge",
       [](const ShardClient& shard) -> uint64_t {
         return shard.healthy_count();
       }},
  };
  for (const auto& series : shard_series) {
    body += std::string("# HELP ") + series.name + " " + series.help +
            "\n# TYPE " + series.name + " " + series.type + "\n";
    for (size_t i = 0; i < gather_->shard_count(); ++i) {
      body += std::string(series.name) + "{shard=\"" + std::to_string(i) +
              "\"} " + std::to_string(series.value(gather_->shard(i))) + "\n";
    }
  }

  AppendMetric(&body, "graft_router_uptime_seconds", "Seconds since Start().",
               "gauge", http_.uptime_s());
  Response response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = std::move(body);
  return response;
}

}  // namespace graft::router
