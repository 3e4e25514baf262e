// Inputs made from the corpus generator, the timed ingest, and the
// serving-index cache.
//
// Serving workloads search one fixed corpus: WikipediaLikeConfig at
// kServingDocs documents and the generator's default seed. Its v5 index
// (plus a contiguous two-shard split for the router) is built once per
// source tree and kept under the cache directory run.py names, which is
// keyed by a hash of the sources; a parent and a change never share it.
// Building it is not timed by any workload. The ingest workload times
// IndexBuilder over documents generated from the run's seed beforehand.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "index/block_cache.h"
#include "index/inverted_index.h"
#include "spans.h"
#include "text/corpus.h"

namespace perfbench {

inline constexpr uint64_t kServingDocs = 200000;
inline constexpr size_t kShards = 2;

// Documents as token ids into a vocabulary, generated before any timing.
struct TokenCorpus {
  std::vector<std::string> vocab;
  std::vector<uint32_t> tokens;        // every document, concatenated
  std::vector<uint64_t> doc_offsets;   // doc d = [offsets[d], offsets[d+1])
  uint64_t docs() const { return doc_offsets.size() - 1; }
  uint64_t words() const { return tokens.size(); }
};

TokenCorpus GenerateTokens(const graft::text::CorpusConfig& config);

struct ServingIndex {
  std::string full_path;
  std::string shard_paths[kShards];
};

// Returns the cached serving indexes under `cache_dir`, building them on
// a miss (into a temporary directory renamed into place).
bool EnsureServingIndex(const std::string& cache_dir, ServingIndex* out,
                        std::string* error);

// One timed ingest: AddDocument over every document, Build, SaveIndexV5,
// LoadIndexMapped + Engine construction, and one probe query answered.
struct IngestResult {
  double add_s = 0.0;
  double build_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;           // LoadIndexMapped + Engine construction
  double time_to_search_s = 0.0; // first AddDocument to probe answered
  double trace_s = 0.0;          // spent recording spans (after timing)
  uint64_t words = 0;
  uint64_t docs = 0;
  uint64_t file_bytes = 0;
  std::unique_ptr<graft::index::InvertedIndex> built;   // materialized
  std::unique_ptr<graft::index::InvertedIndex> mapped;  // v5, mmap
  std::unique_ptr<graft::core::Engine> mapped_engine;
};

// With `log`, the phases are recorded as spans under one "ingest" root.
bool Ingest(const TokenCorpus& corpus, const std::string& path,
            const std::string& probe_query, const std::string& probe_scheme,
            SpanLog* log, IngestResult* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
