// Seeded query catalog and request sequence.
//
// The catalog is drawn from the index's own dictionary: keyword terms are
// picked by document-frequency band (InvertedIndex::TermText / DocFreq),
// positional queries come from the corpus' planted phrases and topic
// bundles (so they have matches), and full-ranking queries are 3-term
// disjunctions over rare terms asked at k = 0. Every query gets one of the
// registered scoring schemes. The request sequence first draws a query
// class by its share, then a query of that class by Zipf popularity over
// a seeded permutation, so the class mix stays fixed while popularity is
// long-tailed.

#ifndef PERFBENCH_CATALOG_H_
#define PERFBENCH_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "text/corpus.h"

namespace perfbench {

enum class QueryClass : uint8_t { kTopK = 0, kPositional = 1, kFullRank = 2 };
inline constexpr size_t kNumClasses = 3;
inline constexpr const char* kClassNames[kNumClasses] = {"topk", "positional",
                                                         "full_rank"};

struct CatalogQuery {
  std::string text;
  std::string scheme;
  size_t k = 10;
  QueryClass cls = QueryClass::kTopK;
  std::vector<std::string> terms;  // keywords in the query
};

struct CatalogSpec {
  size_t queries[kNumClasses] = {0, 0, 0};  // distinct queries per class
  double share[kNumClasses] = {0, 0, 0};    // request share per class
  // Popularity skew. Below 1 so a run's mix averages over many queries
  // and its cost does not hinge on which few a seed makes popular.
  double zipf_s = 0.7;
  size_t top_k = 10;  // k of the top-k and positional classes
};

struct Catalog {
  std::vector<CatalogQuery> queries;
  std::vector<uint32_t> by_class[kNumClasses];  // indexes into `queries`
};

Catalog BuildCatalog(const graft::index::InvertedIndex& index,
                     const graft::text::CorpusConfig& corpus,
                     const CatalogSpec& spec, uint64_t seed);

// `n` catalog indexes in request order.
std::vector<uint32_t> RequestSequence(const Catalog& catalog,
                                      const CatalogSpec& spec, size_t n,
                                      uint64_t seed);

// The catalog's shape as one JSON object: distinct queries and terms, and
// the share of queries per class and per scheme.
std::string CatalogShapeJson(const Catalog& catalog);

// Distinct keyword terms over the whole catalog.
size_t DistinctTerms(const Catalog& catalog);

// "/search?q=...&scheme=...&k=..." for a catalog query.
std::string SearchTarget(const CatalogQuery& query);

}  // namespace perfbench

#endif  // PERFBENCH_CATALOG_H_
