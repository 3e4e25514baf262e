// The top-k planner: EXPLAIN's strategy line, the monolithic search and
// the segmented search must name the same operator for every scheme, query
// shape, statistics overlay and pruning setting — they share one decision.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "index/segmented_index.h"
#include "text/corpus.h"

namespace graft::core {
namespace {

constexpr size_t kTopK = 10;

const index::InvertedIndex& CorpusIndex() {
  static const index::InvertedIndex& index = *[] {
    text::CorpusConfig config = text::WikipediaLikeConfig(1500, /*seed=*/29);
    index::IndexBuilder builder;
    text::CorpusGenerator generator(config);
    generator.Generate(
        [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
          builder.AddDocument(tokens);
        });
    return new index::InvertedIndex(builder.Build());
  }();
  return index;
}

const Engine& MonoEngine() {
  static const Engine engine(&CorpusIndex());
  return engine;
}

const Engine& SegmentedEngine() {
  static const index::SegmentedIndex& segmented = *[] {
    auto built = index::SegmentedIndex::BuildFromMonolithic(CorpusIndex(),
                                                            /*segments=*/3);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return new index::SegmentedIndex(std::move(built).value());
  }();
  static const Engine engine(&CorpusIndex(), &segmented,
                             /*pool_threads=*/2);
  return engine;
}

// The operator EXPLAIN's "top-k strategy" line names, in
// SearchResult::topk_operator's vocabulary ("" = full ranking + truncate).
std::string ExplainedOperator(const Engine& engine, const std::string& query,
                              const std::string& scheme,
                              const SearchOptions& options) {
  auto explained = engine.Explain(query, scheme, options);
  EXPECT_TRUE(explained.ok()) << explained.status().ToString();
  if (!explained.ok()) return "<explain failed>";
  const std::string marker =
      "top-k strategy (k=" + std::to_string(options.top_k) + "): ";
  const size_t begin = explained->find(marker);
  if (begin == std::string::npos) return "<no strategy line>";
  const size_t start = begin + marker.size();
  const std::string line =
      explained->substr(start, explained->find('\n', start) - start);
  if (line.rfind("block-max pruned top-k", 0) == 0) return "maxscore";
  if (line.rfind("threshold top-k", 0) == 0) return "hrjn";
  if (line.rfind("full ranking + truncate", 0) == 0) return "";
  return "<unknown strategy: " + line + ">";
}

TEST(TopKPlannerTest, ExplainHonorsRequestStatsOverlay) {
  SearchOptions options;
  options.top_k = kTopK;
  const std::string query = "free software";

  // Without an overlay AnySum prunes.
  auto plain = MonoEngine().Search(query, "AnySum", options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->topk_operator, "maxscore");

  // A per-request overlay overrides the stored block ceilings: pruning
  // stands down and the threshold engine runs — and EXPLAIN says so.
  const index::StatsOverlay overlay;
  options.stats_overlay = &overlay;
  auto explained = MonoEngine().Explain(query, "AnySum", options);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->find("top-k strategy (k=10): threshold top-k; "
                            "block-max prune blocked: stats overlay "
                            "overrides stored ceilings\n"),
            std::string::npos)
      << *explained;
  auto run = MonoEngine().Search(query, "AnySum", options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->topk_operator, "hrjn");
  EXPECT_EQ(ExplainedOperator(MonoEngine(), query, "AnySum", options),
            run->topk_operator);
}

TEST(TopKPlannerTest, ExplainAndSearchNameTheSameOperator) {
  const index::StatsOverlay overlay;
  const char* kQueries[] = {"free software", "free | software",
                            "\"free software\""};
  const char* kSchemes[] = {"AnySum",   "AnyProd",        "Lucene",
                            "MeanSum",  "JoinNormalized", "SumBest",
                            "EventModel", "BestSumMinDist"};
  std::set<std::string> operators_seen;
  for (const char* scheme : kSchemes) {
    for (const char* query : kQueries) {
      for (const bool with_overlay : {false, true}) {
        for (const bool pruning : {true, false}) {
          SCOPED_TRACE(std::string(scheme) + " / " + query +
                       (with_overlay ? " / overlay" : " / no overlay") +
                       (pruning ? " / pruning on" : " / pruning off"));
          SearchOptions options;
          options.top_k = kTopK;
          options.allow_block_max_pruning = pruning;
          options.stats_overlay = with_overlay ? &overlay : nullptr;

          const std::string explained =
              ExplainedOperator(MonoEngine(), query, scheme, options);
          auto mono = MonoEngine().Search(query, scheme, options);
          ASSERT_TRUE(mono.ok()) << mono.status().ToString();
          EXPECT_EQ(explained, mono->topk_operator);
          operators_seen.insert(mono->topk_operator);

          const std::string explained_seg =
              ExplainedOperator(SegmentedEngine(), query, scheme, options);
          EXPECT_EQ(explained_seg, explained);
          auto seg = SegmentedEngine().Search(query, scheme, options);
          if (with_overlay) {
            // Overlay doc ids are global: the segmented path refuses them.
            EXPECT_EQ(seg.status().code(), StatusCode::kInvalidArgument);
            continue;
          }
          ASSERT_TRUE(seg.ok()) << seg.status().ToString();
          EXPECT_EQ(seg->segments_searched, 3u);
          EXPECT_EQ(explained, seg->topk_operator);
        }
      }
    }
  }
  // The matrix reaches every branch of the planner.
  EXPECT_EQ(operators_seen, (std::set<std::string>{"", "hrjn", "maxscore"}));
}

}  // namespace
}  // namespace graft::core
