// End-to-end SearchService tests over real sockets on an ephemeral port:
//
//   * concurrent correctness — responses are byte-identical (doc ids and
//     %.17g scores) to direct Engine calls, for all eight registered
//     schemes, under multi-threaded client load;
//   * malformed-request hardening — every bad input is a clean 4xx;
//   * admission control — load beyond max_inflight is answered with fast
//     503s, never queued unboundedly;
//   * deadline enforcement — queued-past-deadline and executed-past-
//     deadline requests answer 504;
//   * graceful shutdown — admitted requests drain to completion, new
//     connections are refused afterwards.

#include "server/search_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/request.h"
#include "index/inverted_index.h"
#include "server/http.h"
#include "server/pinned_stats.h"
#include "text/corpus.h"

namespace graft::server {
namespace {

constexpr const char* kSchemes[] = {
    "AnySum",         "AnyProd", "SumBest",    "Lucene",
    "JoinNormalized", "MeanSum", "EventModel", "BestSumMinDist"};

constexpr const char* kQueries[] = {
    "san francisco fault line",
    "(windows emulator)WINDOW[50] (foss | \"free software\")",
    "free software !windows",
    "software",
};

constexpr size_t kSegments = 4;

const core::EngineBundle& SharedBundle() {
  static const core::EngineBundle& bundle = *[] {
    text::CorpusConfig config = text::WikipediaLikeConfig(400, /*seed=*/29);
    index::IndexBuilder builder;
    text::CorpusGenerator generator(config);
    generator.Generate(
        [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
          builder.AddDocument(tokens);
        });
    auto made = core::MakeEngineBundle(builder.Build(), kSegments,
                                       /*pool_threads=*/3);
    EXPECT_TRUE(made.ok()) << made.status();
    return new core::EngineBundle(std::move(made).value());
  }();
  return bundle;
}

std::string SearchTarget(const std::string& query, const std::string& scheme,
                         size_t k) {
  return "/search?q=" + UrlEncode(query) + "&scheme=" + scheme +
         "&k=" + std::to_string(k);
}

// The ground truth a correct response must embed, computed by a direct
// engine call through the same request-resolution path the server uses.
std::string ExpectedFragment(const std::string& query,
                             const std::string& scheme, size_t k) {
  const core::EngineBundle& bundle = SharedBundle();
  core::SearchRequestParams params;
  params.query = query;
  params.scheme = scheme;
  params.top_k = k;
  auto resolved = core::ResolveRequest(*bundle.engine, params);
  EXPECT_TRUE(resolved.ok()) << resolved.status();
  auto result = bundle.engine->SearchQuery(resolved->query, *resolved->scheme,
                                           resolved->options);
  EXPECT_TRUE(result.ok()) << result.status();
  return SearchService::FormatResultsFragment(result->results);
}

// Extracts `"results":[...]` from a 200 body.
std::string ResultsFragment(const std::string& body) {
  const size_t start = body.find("\"results\":[");
  EXPECT_NE(start, std::string::npos) << body;
  if (start == std::string::npos) return "";
  EXPECT_EQ(body.back(), '}') << body;
  return body.substr(start, body.size() - start - 1);
}

// Default options for tests that are not about deadlines: a generous
// per-request deadline so sanitizer slowdown plus a loaded machine never
// turns a correctness test into a spurious 504.
ServiceOptions LenientOptions() {
  ServiceOptions options;
  options.default_deadline_ms = 120000;
  options.max_deadline_ms = 120000;
  return options;
}

TEST(SearchServiceTest, HealthzReportsServing) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  auto response = HttpGet(service.port(), "/healthz");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_NE(response->body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response->body.find("\"segments\":4"), std::string::npos)
      << response->body;
  service.Shutdown();
}

TEST(SearchServiceTest, ResponsesBitIdenticalToDirectEngineAllSchemes) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  for (const char* scheme : kSchemes) {
    for (const char* query : kQueries) {
      auto response =
          HttpGet(service.port(), SearchTarget(query, scheme, 10));
      ASSERT_TRUE(response.ok()) << response.status();
      ASSERT_EQ(response->status_code, 200)
          << scheme << " " << query << ": " << response->body;
      EXPECT_EQ(ResultsFragment(response->body),
                ExpectedFragment(query, scheme, 10))
          << scheme << " " << query;
    }
  }
  service.Shutdown();
}

TEST(SearchServiceTest, FullResultSetWithKZero) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  auto response =
      HttpGet(service.port(), SearchTarget("software", "MeanSum", 0));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status_code, 200) << response->body;
  EXPECT_EQ(ResultsFragment(response->body),
            ExpectedFragment("software", "MeanSum", 0));
  service.Shutdown();
}

TEST(SearchServiceTest, ConcurrentClientsStayBitIdentical) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());

  // Precompute ground truth serially (the engine is shared).
  struct Case {
    std::string target;
    std::string expected;
  };
  std::vector<Case> cases;
  for (const char* scheme : kSchemes) {
    for (const char* query : kQueries) {
      cases.push_back({SearchTarget(query, scheme, 10),
                       ExpectedFragment(query, scheme, 10)});
    }
  }

  constexpr size_t kClients = 6;
  constexpr size_t kRequestsPerClient = 24;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        const Case& test_case = cases[(c * 7 + r) % cases.size()];
        auto response = HttpGet(service.port(), test_case.target);
        if (!response.ok() || response->status_code != 200) {
          failures.fetch_add(1);
          continue;
        }
        if (ResultsFragment(response->body) != test_case.expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service.stats().responses_ok.load(),
            kClients * kRequestsPerClient);
  service.Shutdown();
}

TEST(SearchServiceTest, MalformedRequestsAreClean4xx) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  const struct {
    const char* target;
    int expected_code;
  } cases[] = {
      {"/search", 400},                          // missing q
      {"/search?q=", 400},                       // empty q
      {"/search?q=free&scheme=NoSuch", 404},     // unknown scheme
      {"/search?q=free&k=banana", 400},          // non-numeric k
      {"/search?q=free&k=-1", 400},              // negative k
      {"/search?q=free&k=999999999", 400},       // k over server limit
      {"/search?q=free&segments=3", 400},        // partitioning mismatch
      {"/search?q=free&deadline_ms=0", 400},     // zero deadline
      {"/search?q=free&deadline_ms=x", 400},     // non-numeric deadline
      {"/search?q=%28unbalanced", 400},          // query parse error
      {"/search?q=%zz", 400},                    // invalid percent-escape
      {"/nope", 404},                            // unknown endpoint
  };
  for (const auto& test_case : cases) {
    auto response = HttpGet(service.port(), test_case.target);
    ASSERT_TRUE(response.ok()) << test_case.target;
    EXPECT_EQ(response->status_code, test_case.expected_code)
        << test_case.target << ": " << response->body;
    EXPECT_NE(response->body.find("\"error\""), std::string::npos)
        << test_case.target;
  }
  // A request that is not even HTTP.
  {
    auto garbage = HttpGet(service.port(), "not a path");
    // "GET not a path HTTP/1.1" has too many request-line tokens -> 400.
    ASSERT_TRUE(garbage.ok()) << garbage.status();
    EXPECT_EQ(garbage->status_code, 400);
  }
  EXPECT_GT(service.stats().client_errors.load(), 0u);
  service.Shutdown();
}

TEST(SearchServiceTest, EarlyRejectedSearchesRecordLatency) {
  // search_latency covers every /search response, whatever its code: the
  // parameter checks that answer 400 before any engine work count too.
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  for (const char* target : {"/search", "/search?q=x&k=abc"}) {
    const uint64_t before = service.stats().search_latency.count();
    auto response = HttpGet(service.port(), target);
    ASSERT_TRUE(response.ok()) << target;
    EXPECT_EQ(response->status_code, 400) << target;
    EXPECT_EQ(service.stats().search_latency.count(), before + 1) << target;
  }
  service.Shutdown();
}

TEST(SearchServiceTest, SegmentsParamOneForcesMonolithic) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  auto segmented =
      HttpGet(service.port(), SearchTarget("software", "MeanSum", 5));
  auto monolithic = HttpGet(
      service.port(), SearchTarget("software", "MeanSum", 5) + "&segments=1");
  ASSERT_TRUE(segmented.ok() && monolithic.ok());
  ASSERT_EQ(segmented->status_code, 200);
  ASSERT_EQ(monolithic->status_code, 200);
  EXPECT_NE(segmented->body.find("\"segments_searched\":4"),
            std::string::npos)
      << segmented->body;
  EXPECT_NE(monolithic->body.find("\"segments_searched\":1"),
            std::string::npos)
      << monolithic->body;
  // Scores are segmentation-invariant.
  EXPECT_EQ(ResultsFragment(segmented->body),
            ResultsFragment(monolithic->body));
  service.Shutdown();
}

TEST(SearchServiceTest, OverloadGetsFast503NotUnboundedQueue) {
  ServiceOptions options;
  options.max_inflight = 2;
  options.handler_threads = 2;
  options.test_search_delay_ms = 300;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());

  constexpr size_t kClients = 8;
  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> rejected_count{0};
  std::atomic<size_t> other{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto response =
          HttpGet(service.port(), SearchTarget("software", "MeanSum", 5));
      if (!response.ok()) {
        other.fetch_add(1);
      } else if (response->status_code == 200) {
        ok_count.fetch_add(1);
      } else if (response->status_code == 503) {
        rejected_count.fetch_add(1);
        // Overload rejections must tell the client when to come back.
        const auto retry_after = response->headers.find("retry-after");
        if (retry_after == response->headers.end() ||
            retry_after->second != "1") {
          other.fetch_add(1);
        }
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(ok_count.load() + rejected_count.load(), kClients);
  // With a 300ms handler delay and a cap of 2, the 8 near-simultaneous
  // clients cannot all be admitted.
  EXPECT_GT(rejected_count.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_EQ(service.stats().rejected_overload.load(), rejected_count.load());
  service.Shutdown();
}

TEST(SearchServiceTest, DeadlineExceededAnswers504) {
  ServiceOptions options;
  options.test_search_delay_ms = 60;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());
  auto response = HttpGet(
      service.port(),
      SearchTarget("software", "MeanSum", 5) + "&deadline_ms=10");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 504) << response->body;
  // 504s carry Retry-After just like overload 503s.
  const auto retry_after = response->headers.find("retry-after");
  ASSERT_NE(retry_after, response->headers.end());
  EXPECT_EQ(retry_after->second, "1");
  EXPECT_EQ(service.stats().deadline_exceeded.load(), 1u);
  // A generous deadline still succeeds.
  auto fine = HttpGet(
      service.port(),
      SearchTarget("software", "MeanSum", 5) + "&deadline_ms=10000");
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_EQ(fine->status_code, 200) << fine->body;
  service.Shutdown();
}

TEST(SearchServiceTest, GracefulShutdownDrainsInFlight) {
  ServiceOptions options;
  options.test_search_delay_ms = 150;
  options.handler_threads = 4;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());
  const uint16_t port = service.port();

  constexpr size_t kClients = 4;
  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> rejected_count{0};
  std::atomic<size_t> broken{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto response =
          HttpGet(port, SearchTarget("software", "MeanSum", 5));
      if (response.ok() && response->status_code == 200) {
        ok_count.fetch_add(1);
      } else if (response.ok() && response->status_code == 503) {
        rejected_count.fetch_add(1);
      } else {
        broken.fetch_add(1);
      }
    });
  }
  // Wait until every client has been accepted, then shut down mid-flight
  // (the 150ms handler delay keeps them all in flight meanwhile).
  for (int spin = 0;
       service.stats().requests_total.load() < kClients && spin < 1000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  service.Shutdown();
  for (std::thread& t : clients) t.join();

  // Every admitted request was answered — drained, not dropped.
  EXPECT_EQ(broken.load(), 0u);
  EXPECT_EQ(ok_count.load() + rejected_count.load(), kClients);
  EXPECT_GT(ok_count.load(), 0u);

  // The listener is gone: new connections fail outright.
  auto after = HttpGet(port, "/healthz", /*timeout_ms=*/500);
  EXPECT_FALSE(after.ok());
}

TEST(SearchServiceTest, StatsEndpointReflectsTraffic) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(
      HttpGet(service.port(), SearchTarget("software", "MeanSum", 5)).ok());
  ASSERT_TRUE(
      HttpGet(service.port(), SearchTarget("software", "Lucene", 5)).ok());
  ASSERT_TRUE(HttpGet(service.port(), "/search?q=free&scheme=NoSuch").ok());
  auto stats = HttpGet(service.port(), "/stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->status_code, 200);
  for (const char* field :
       {"\"requests_total\":4", "\"responses_ok\":2", "\"client_errors\":1",
        "\"scheme_counts\":", "\"MeanSum\":1", "\"Lucene\":1",
        "\"search_latency\":", "\"p99_ms\":", "\"uptime_s\":",
        "\"index_generation\":1", "\"degraded\":false",
        "\"last_reload_error\":\"\"", "\"reloads_ok\":0"}) {
    EXPECT_NE(stats->body.find(field), std::string::npos)
        << field << " missing from " << stats->body;
  }
  service.Shutdown();
}

TEST(SearchServiceTest, ShardStatsEndpointReportsGenerationAndTermStats) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  const index::InvertedIndex& index = *SharedBundle().index;
  const TermId software = index.LookupTerm("software");
  ASSERT_NE(software, kInvalidTerm);
  auto response =
      HttpGet(service.port(), "/shard/stats?terms=software,nosuchterm");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status_code, 200) << response->body;
  EXPECT_NE(response->body.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(response->body.find(
                "\"doc_count\":" + std::to_string(index.doc_count())),
            std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find(
                "\"total_words\":" + std::to_string(index.total_words())),
            std::string::npos);
  EXPECT_NE(
      response->body.find("{\"term\":\"software\",\"df\":" +
                          std::to_string(index.DocFreq(software)) +
                          ",\"cf\":" +
                          std::to_string(index.CollectionFreq(software))),
      std::string::npos)
      << response->body;
  // Unknown terms are a normal partitioning outcome, reported as zeros.
  EXPECT_NE(
      response->body.find("{\"term\":\"nosuchterm\",\"df\":0,\"cf\":0}"),
      std::string::npos)
      << response->body;
  EXPECT_EQ(service.stats().shard_stats_requests.load(), 1u);
  auto stats = HttpGet(service.port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"shard_stats_requests\":1"),
            std::string::npos);
  service.Shutdown();
}

TEST(SearchServiceTest, GstatsOverlayOfOwnStatsIsBitIdentical) {
  // The degenerate one-shard deployment: pinning the server's OWN
  // statistics through gstats must reproduce its plain answers exactly —
  // the overlay path introduces no drift.
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  const index::InvertedIndex& index = *SharedBundle().index;
  for (const char* scheme : kSchemes) {
    for (const char* query : kQueries) {
      auto parsed = mcalc::ParseQuery(query);
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      PinnedStats pinned;
      pinned.doc_count = index.doc_count();
      pinned.total_words = index.total_words();
      for (const auto& variable : parsed->variables) {
        const TermId id = index.LookupTerm(variable.keyword);
        pinned.terms.push_back(
            {variable.keyword,
             id == kInvalidTerm ? 0 : index.DocFreq(id),
             id == kInvalidTerm ? 0 : index.CollectionFreq(id)});
      }
      const std::string target =
          SearchTarget(query, scheme, 10) +
          "&gstats=" + UrlEncode(EncodePinnedStats(pinned)) +
          "&expect_gen=1";
      auto overlaid = HttpGet(service.port(), target);
      ASSERT_TRUE(overlaid.ok()) << overlaid.status();
      ASSERT_EQ(overlaid->status_code, 200)
          << scheme << " " << query << ": " << overlaid->body;
      EXPECT_EQ(ResultsFragment(overlaid->body),
                ExpectedFragment(query, scheme, 10))
          << scheme << " " << query;
    }
  }
  service.Shutdown();
}

TEST(SearchServiceTest, ExpectGenMismatchAnswers409Conflict) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  // Matching fence: normal answer.
  auto matched = HttpGet(
      service.port(), SearchTarget("software", "MeanSum", 5) + "&expect_gen=1");
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(matched->status_code, 200);
  // Mismatched fence: 409 with both generations, counted distinctly.
  auto conflicted = HttpGet(
      service.port(), SearchTarget("software", "MeanSum", 5) + "&expect_gen=7");
  ASSERT_TRUE(conflicted.ok());
  EXPECT_EQ(conflicted->status_code, 409) << conflicted->body;
  EXPECT_NE(conflicted->body.find("\"error\":\"generation_conflict\""),
            std::string::npos);
  EXPECT_NE(conflicted->body.find("\"expected\":7"), std::string::npos);
  EXPECT_NE(conflicted->body.find("\"generation\":1"), std::string::npos);
  EXPECT_EQ(service.stats().generation_conflicts.load(), 1u);
  auto stats = HttpGet(service.port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"generation_conflicts\":1"),
            std::string::npos);
  // Malformed fence values are a client error, not a conflict.
  auto malformed = HttpGet(
      service.port(), SearchTarget("software", "MeanSum", 5) + "&expect_gen=x");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed->status_code, 400);
  EXPECT_EQ(service.stats().generation_conflicts.load(), 1u);
  service.Shutdown();
}

TEST(SearchServiceTest, MalformedGstatsIsClean400) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  auto response = HttpGet(
      service.port(),
      SearchTarget("software", "MeanSum", 5) + "&gstats=not-a-codec");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 400) << response->body;
  EXPECT_NE(response->body.find("\"error\""), std::string::npos);
  service.Shutdown();
}

}  // namespace
}  // namespace graft::server
