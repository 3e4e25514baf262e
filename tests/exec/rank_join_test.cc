// Top-k rank-join / rank-union: gating, exactness against the full
// engine's ranking, and early termination.

#include "exec/rank_join.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "exec/maxscore_topk.h"
#include "mcalc/parser.h"
#include "text/corpus.h"

namespace graft::exec {
namespace {

const index::InvertedIndex& CorpusIndex() {
  static const index::InvertedIndex& index = *[] {
    text::CorpusConfig config = text::WikipediaLikeConfig(3000, /*seed=*/13);
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

TEST(RankJoinGateTest, SupportsFollowsTable1) {
  auto conjunctive = mcalc::ParseQuery("free software");
  auto disjunctive = mcalc::ParseQuery("free | software");
  auto with_predicate = mcalc::ParseQuery("\"free software\"");
  ASSERT_TRUE(conjunctive.ok());
  ASSERT_TRUE(disjunctive.ok());
  ASSERT_TRUE(with_predicate.ok());

  const auto& registry = sa::SchemeRegistry::Global();
  // Diagonal + monotone ⊘ + idempotent ⊕ (the implementation's threshold
  // bound requirement): rank-join eligible.
  for (const char* name : {"AnySum", "Lucene"}) {
    EXPECT_TRUE(TopKRankEngine::Supports(*conjunctive,
                                         *registry.Lookup(name)))
        << name;
  }
  // Column-first / row-first schemes: not eligible. JoinNormalized and
  // MeanSum pass the Table-1 gate but their ⊕ accumulates multiplicities,
  // which the TA-style bounds cannot cover.
  for (const char* name : {"SumBest", "EventModel", "BestSumMinDist",
                           "JoinNormalized", "MeanSum"}) {
    EXPECT_FALSE(TopKRankEngine::Supports(*conjunctive,
                                          *registry.Lookup(name)))
        << name;
  }
  // Positional predicates always disqualify.
  EXPECT_FALSE(TopKRankEngine::Supports(*with_predicate,
                                        *registry.Lookup("AnySum")));
  // Disjunction: rank-union gate.
  EXPECT_TRUE(TopKRankEngine::Supports(*disjunctive,
                                       *registry.Lookup("AnySum")));
  EXPECT_FALSE(TopKRankEngine::Supports(*disjunctive,
                                        *registry.Lookup("SumBest")));
}

struct RankCase {
  std::string query;
  std::string scheme;
};

class RankExactnessTest : public ::testing::TestWithParam<RankCase> {};

TEST_P(RankExactnessTest, TopKEqualsFullRankingPrefix) {
  const RankCase& test_case = GetParam();
  auto query = mcalc::ParseQuery(test_case.query);
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup(test_case.scheme);
  ASSERT_NE(scheme, nullptr);

  // Full ranking from the regular optimized engine.
  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.allow_rank_processing = false;
  auto full = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  TopKRankEngine rank_engine(&CorpusIndex(), scheme);
  constexpr size_t kK = 10;
  auto top = rank_engine.TopK(*query, kK);
  ASSERT_TRUE(top.ok()) << top.status().ToString();

  const size_t expected = std::min(kK, full->results.size());
  ASSERT_EQ(top->size(), expected);
  for (size_t i = 0; i < expected; ++i) {
    EXPECT_EQ((*top)[i].doc, full->results[i].doc) << "rank " << i;
    EXPECT_NEAR((*top)[i].score, full->results[i].score,
                1e-7 * std::max(1.0, std::fabs(full->results[i].score)))
        << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EligibleSchemes, RankExactnessTest,
    ::testing::Values(RankCase{"free software", "AnySum"},
                      RankCase{"free software", "Lucene"},
                      RankCase{"free software windows", "Lucene"},
                      RankCase{"san francisco", "AnySum"},
                      RankCase{"free | software | service", "AnySum"},
                      RankCase{"fishing | hunting | dinosaur", "Lucene"},
                      RankCase{"free | windows", "Lucene"},
                      RankCase{"service", "AnySum"},
                      // An absent term's column is the ∅ cell, which
                      // AnyProd floors above zero.
                      RankCase{"neverseenword | free | software", "AnyProd"},
                      RankCase{"neverseenword | free", "Lucene"}));

TEST(RankJoinTest, EarlyTerminationOnSelectiveQueries) {
  auto query = mcalc::ParseQuery("free software");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("Lucene");
  TopKRankEngine rank_engine(&CorpusIndex(), scheme);
  auto top = rank_engine.TopK(*query, 5);
  ASSERT_TRUE(top.ok());
  const RankStats& stats = rank_engine.stats();
  // The threshold must fire before every candidate is examined.
  EXPECT_GT(stats.total_candidates, 0u);
  EXPECT_LT(stats.candidates_scored, stats.total_candidates);
}

TEST(RankJoinTest, RejectsIneligibleScheme) {
  auto query = mcalc::ParseQuery("free software");
  ASSERT_TRUE(query.ok());
  for (const char* name : {"BestSumMinDist", "MeanSum"}) {
    const sa::ScoringScheme* scheme =
        sa::SchemeRegistry::Global().Lookup(name);
    TopKRankEngine rank_engine(&CorpusIndex(), scheme);
    EXPECT_EQ(rank_engine.TopK(*query, 5).status().code(),
              StatusCode::kFailedPrecondition)
        << name;
  }
}

TEST(RankJoinTest, AbsentTermEmptyConjunction) {
  auto query = mcalc::ParseQuery("free nosuchtermever");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("AnySum");
  TopKRankEngine rank_engine(&CorpusIndex(), scheme);
  auto top = rank_engine.TopK(*query, 5);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->empty());
}

// k = 0 answers nothing, and k beyond the match count returns every match
// ranked exactly as the full engine ranks it — for both top-k operators
// and both query shapes.
TEST(TopKEdgeCaseTest, ZeroKAndOversizedK) {
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("AnySum");
  core::Engine engine(&CorpusIndex());
  core::SearchOptions full_opts;
  full_opts.allow_rank_processing = false;
  for (const char* text : {"free software", "free | software"}) {
    SCOPED_TRACE(text);
    auto query = mcalc::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    auto full = engine.SearchQuery(*query, *scheme, full_opts);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_FALSE(full->results.empty());
    const size_t oversized = full->results.size() + 100;

    TopKRankEngine rank_engine(&CorpusIndex(), scheme);
    MaxScoreTopK pruner(&CorpusIndex(), scheme);
    auto hrjn_empty = rank_engine.TopK(*query, 0);
    auto pruned_empty = pruner.TopK(*query, 0);
    ASSERT_TRUE(hrjn_empty.ok()) << hrjn_empty.status().ToString();
    ASSERT_TRUE(pruned_empty.ok()) << pruned_empty.status().ToString();
    EXPECT_TRUE(hrjn_empty->empty());
    EXPECT_TRUE(pruned_empty->empty());

    auto hrjn_all = rank_engine.TopK(*query, oversized);
    auto pruned_all = pruner.TopK(*query, oversized);
    ASSERT_TRUE(hrjn_all.ok()) << hrjn_all.status().ToString();
    ASSERT_TRUE(pruned_all.ok()) << pruned_all.status().ToString();
    ASSERT_EQ(hrjn_all->size(), full->results.size());
    ASSERT_EQ(pruned_all->size(), full->results.size());
    for (size_t i = 0; i < full->results.size(); ++i) {
      EXPECT_EQ((*hrjn_all)[i].doc, full->results[i].doc) << "rank " << i;
      EXPECT_EQ((*hrjn_all)[i].score, full->results[i].score) << "rank " << i;
      EXPECT_EQ((*pruned_all)[i].doc, full->results[i].doc) << "rank " << i;
      EXPECT_EQ((*pruned_all)[i].score, full->results[i].score)
          << "rank " << i;
    }
  }
}

// The block-max pruner's gate: bounded α on top of the rank gate, a pure
// keyword shape, block-max metadata, and no statistics overlay. Every
// verdict is EXPLAIN text, not just a boolean.
TEST(MaxScoreGateTest, FollowsBoundedGateAndExecutionRequirements) {
  auto conjunctive = mcalc::ParseQuery("free software");
  auto disjunctive = mcalc::ParseQuery("free | software");
  auto with_predicate = mcalc::ParseQuery("\"free software\"");
  ASSERT_TRUE(conjunctive.ok());
  ASSERT_TRUE(disjunctive.ok());
  ASSERT_TRUE(with_predicate.ok());

  const auto& registry = sa::SchemeRegistry::Global();
  const index::InvertedIndex& index = CorpusIndex();
  for (const char* name : {"AnySum", "AnyProd", "Lucene"}) {
    EXPECT_EQ(MaxScoreTopK::GateVerdict(*conjunctive, *registry.Lookup(name),
                                        index, nullptr),
              "")
        << name;
    EXPECT_EQ(MaxScoreTopK::GateVerdict(*disjunctive, *registry.Lookup(name),
                                        index, nullptr),
              "")
        << name;
  }
  for (const char* name : {"SumBest", "EventModel", "BestSumMinDist",
                           "JoinNormalized", "MeanSum"}) {
    EXPECT_EQ(MaxScoreTopK::GateVerdict(*conjunctive, *registry.Lookup(name),
                                        index, nullptr)
                  .rfind("blocked by gate: ", 0),
              0u)
        << name;
  }
  const sa::ScoringScheme& anysum = *registry.Lookup("AnySum");
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*with_predicate, anysum, index, nullptr),
            "blocked: not a pure keyword conjunction/disjunction");
  const index::StatsOverlay overlay;
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*conjunctive, anysum, index, &overlay),
            "blocked: stats overlay overrides stored ceilings");
  EXPECT_FALSE(MaxScoreTopK::Supports(*conjunctive, anysum, index, &overlay));
}

TEST(MaxScoreTopKTest, RejectsUnlicensedRuns) {
  auto conjunctive = mcalc::ParseQuery("free software");
  auto with_predicate = mcalc::ParseQuery("\"free software\"");
  ASSERT_TRUE(conjunctive.ok());
  ASSERT_TRUE(with_predicate.ok());
  for (const char* name : {"BestSumMinDist", "MeanSum"}) {
    MaxScoreTopK pruner(&CorpusIndex(),
                        sa::SchemeRegistry::Global().Lookup(name));
    EXPECT_EQ(pruner.TopK(*conjunctive, 5).status().code(),
              StatusCode::kFailedPrecondition)
        << name;
  }
  MaxScoreTopK pruner(&CorpusIndex(),
                      sa::SchemeRegistry::Global().Lookup("AnySum"));
  EXPECT_EQ(pruner.TopK(*with_predicate, 5).status().code(),
            StatusCode::kFailedPrecondition);
}

class TopKOperatorExactnessTest : public ::testing::TestWithParam<RankCase> {
};

// Both top-k operators evaluate the exact α/⊘/⊚/⊕/ω pipeline of the full
// engine, so their top-k is the full ranking's prefix with the same score
// bits — not merely close scores.
TEST_P(TopKOperatorExactnessTest, BothOperatorsEqualFullRankingPrefixBitwise) {
  const RankCase& test_case = GetParam();
  auto query = mcalc::ParseQuery(test_case.query);
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup(test_case.scheme);
  ASSERT_NE(scheme, nullptr);
  ASSERT_TRUE(TopKRankEngine::Supports(*query, *scheme));
  ASSERT_TRUE(MaxScoreTopK::Supports(*query, *scheme, CorpusIndex(), nullptr));

  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.allow_rank_processing = false;
  auto full = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  constexpr size_t kK = 10;
  const size_t expected = std::min(kK, full->results.size());

  TopKRankEngine rank_engine(&CorpusIndex(), scheme);
  auto hrjn_top = rank_engine.TopK(*query, kK);
  ASSERT_TRUE(hrjn_top.ok()) << hrjn_top.status().ToString();
  ASSERT_EQ(hrjn_top->size(), expected);

  MaxScoreTopK pruner(&CorpusIndex(), scheme);
  auto pruned_top = pruner.TopK(*query, kK);
  ASSERT_TRUE(pruned_top.ok()) << pruned_top.status().ToString();
  ASSERT_EQ(pruned_top->size(), expected);

  for (size_t i = 0; i < expected; ++i) {
    EXPECT_EQ((*hrjn_top)[i].doc, full->results[i].doc) << "HRJN rank " << i;
    EXPECT_EQ((*hrjn_top)[i].score, full->results[i].score)
        << "HRJN rank " << i;
    EXPECT_EQ((*pruned_top)[i].doc, full->results[i].doc)
        << "MaxScore rank " << i;
    EXPECT_EQ((*pruned_top)[i].score, full->results[i].score)
        << "MaxScore rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LicensedQueries, TopKOperatorExactnessTest,
    ::testing::Values(RankCase{"free software", "AnySum"},
                      RankCase{"free software", "AnyProd"},
                      RankCase{"free software", "Lucene"},
                      RankCase{"free software windows", "Lucene"},
                      RankCase{"san francisco", "AnySum"},
                      RankCase{"free | software | service", "AnySum"},
                      RankCase{"fishing | hunting | dinosaur", "Lucene"},
                      RankCase{"free | windows", "AnyProd"},
                      RankCase{"service", "AnySum"},
                      RankCase{"neverseenword free", "Lucene"},
                      RankCase{"neverseenword | free", "Lucene"}));

TEST(MaxScoreTopKTest, CountsItsWork) {
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("Lucene");
  for (const char* text : {"free software", "free | software"}) {
    SCOPED_TRACE(text);
    auto query = mcalc::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    MaxScoreTopK pruner(&CorpusIndex(), scheme);
    auto top = pruner.TopK(*query, 5);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    ASSERT_EQ(top->size(), 5u);
    const PruneStats& stats = pruner.stats();
    EXPECT_GT(stats.blocks_decoded, 0u);
    EXPECT_GT(stats.ceiling_probes, 0u);
    // Every returned document was scored and pushed onto the heap.
    EXPECT_GE(stats.candidates_scored, top->size());
    EXPECT_GE(stats.heap_ops, top->size());
  }
  // The disjunction re-partitions essential / non-essential terms each
  // time the k-th best score improves, starting when the heap first fills.
  auto disjunctive = mcalc::ParseQuery("free | software");
  ASSERT_TRUE(disjunctive.ok());
  MaxScoreTopK pruner(&CorpusIndex(), scheme);
  ASSERT_TRUE(pruner.TopK(*disjunctive, 5).ok());
  EXPECT_GT(pruner.stats().threshold_updates, 0u);
}

}  // namespace
}  // namespace graft::exec
