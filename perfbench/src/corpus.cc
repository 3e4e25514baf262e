#include "corpus.h"

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <string_view>
#include <unordered_map>

#include "index/index_io.h"
#include "util.h"

namespace perfbench {

namespace fs = std::filesystem;
using graft::index::IndexBuilder;
using graft::index::InvertedIndex;

TokenCorpus GenerateTokens(const graft::text::CorpusConfig& config) {
  TokenCorpus corpus;
  std::unordered_map<std::string, uint32_t> ids;
  corpus.doc_offsets.push_back(0);
  graft::text::CorpusGenerator generator(config);
  generator.Generate([&](uint64_t, const std::vector<std::string_view>& doc) {
    for (std::string_view token : doc) {
      auto [it, inserted] = ids.try_emplace(
          std::string(token), static_cast<uint32_t>(corpus.vocab.size()));
      if (inserted) corpus.vocab.push_back(it->first);
      corpus.tokens.push_back(it->second);
    }
    corpus.doc_offsets.push_back(corpus.tokens.size());
  });
  return corpus;
}

namespace {

bool SaveBuilt(IndexBuilder* builder, const std::string& path,
               std::string* error) {
  const InvertedIndex index = builder->Build();
  const graft::Status saved = graft::index::SaveIndexV5(index, path);
  if (!saved.ok()) {
    *error = "SaveIndexV5 " + path + ": " + saved.ToString();
    return false;
  }
  return true;
}

}  // namespace

bool EnsureServingIndex(const std::string& cache_dir, ServingIndex* out,
                        std::string* error) {
  const auto fill = [&](const std::string& dir) {
    out->full_path = dir + "/full.v5";
    for (size_t s = 0; s < kShards; ++s) {
      out->shard_paths[s] = dir + "/shard" + std::to_string(s) + ".v5";
    }
  };
  // meta.txt is written last, so its presence marks a complete cache.
  struct stat st {};
  if (::stat((cache_dir + "/meta.txt").c_str(), &st) == 0) {
    fill(cache_dir);
    return true;
  }
  // Build into a private directory, then rename it into place.
  const std::string tmp = cache_dir + ".tmp" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  if (ec) {
    *error = "cannot create " + tmp + ": " + ec.message();
    return false;
  }
  fill(tmp);
  Log("building the serving index (%llu docs; once per source tree)",
      static_cast<unsigned long long>(kServingDocs));
  const Clock::time_point start = Clock::now();
  const graft::text::CorpusConfig config =
      graft::text::WikipediaLikeConfig(kServingDocs);
  uint64_t words = 0;
  {
    IndexBuilder full;
    graft::text::CorpusGenerator generator(config);
    generator.Generate(
        [&](uint64_t, const std::vector<std::string_view>& doc) {
          full.AddDocument(doc);
          words += doc.size();
        });
    if (!SaveBuilt(&full, out->full_path, error)) return false;
  }
  {
    // Contiguous split: shard s holds docs [s*n/S, (s+1)*n/S).
    auto shard = std::make_unique<IndexBuilder>();
    size_t current = 0;
    graft::text::CorpusGenerator generator(config);
    bool ok = true;
    generator.Generate(
        [&](uint64_t doc_id, const std::vector<std::string_view>& doc) {
          const size_t owner = doc_id * kShards / kServingDocs;
          if (owner != current && ok) {
            ok = SaveBuilt(shard.get(), out->shard_paths[current], error);
            shard = std::make_unique<IndexBuilder>();
            current = owner;
          }
          shard->AddDocument(doc);
        });
    if (!ok || !SaveBuilt(shard.get(), out->shard_paths[current], error)) {
      return false;
    }
  }
  FILE* meta = std::fopen((tmp + "/meta.txt").c_str(), "w");
  if (meta == nullptr) {
    *error = "cannot write " + tmp + "/meta.txt";
    return false;
  }
  std::fprintf(meta, "docs %llu words %llu\n",
               static_cast<unsigned long long>(kServingDocs),
               static_cast<unsigned long long>(words));
  std::fclose(meta);
  fs::remove_all(cache_dir, ec);
  fs::rename(tmp, cache_dir, ec);
  if (ec) {
    *error = "cannot rename " + tmp + ": " + ec.message();
    return false;
  }
  Log("serving index built in %.1f s", SecondsSince(start));
  fill(cache_dir);
  return true;
}

bool Ingest(const TokenCorpus& corpus, const std::string& path,
            const std::string& probe_query, const std::string& probe_scheme,
            SpanLog* log, IngestResult* out, std::string* error) {
  std::vector<std::string_view> doc;
  const Clock::time_point start = Clock::now();
  IndexBuilder builder;
  for (uint64_t d = 0; d < corpus.docs(); ++d) {
    doc.clear();
    for (uint64_t i = corpus.doc_offsets[d]; i < corpus.doc_offsets[d + 1];
         ++i) {
      doc.push_back(corpus.vocab[corpus.tokens[i]]);
    }
    builder.AddDocument(doc);
  }
  const Clock::time_point added = Clock::now();
  out->built = std::make_unique<InvertedIndex>(builder.Build());
  const Clock::time_point built = Clock::now();
  const graft::Status saved = graft::index::SaveIndexV5(*out->built, path);
  if (!saved.ok()) {
    *error = "SaveIndexV5: " + saved.ToString();
    return false;
  }
  const Clock::time_point save_done = Clock::now();
  auto mapped = graft::index::LoadIndexMapped(path);
  if (!mapped.ok()) {
    *error = "LoadIndexMapped: " + mapped.status().ToString();
    return false;
  }
  out->mapped = std::make_unique<InvertedIndex>(std::move(mapped).value());
  out->mapped_engine = std::make_unique<graft::core::Engine>(out->mapped.get());
  const Clock::time_point loaded = Clock::now();
  graft::core::SearchOptions options;
  options.top_k = 10;
  const auto probe =
      out->mapped_engine->Search(probe_query, probe_scheme, options);
  const Clock::time_point answered = Clock::now();
  if (!probe.ok()) {
    *error = "probe query failed: " + probe.status().ToString();
    return false;
  }
  if (log != nullptr) {
    const Clock::time_point trace_start = Clock::now();
    const int32_t root = log->Add("ingest", -1, 0, start, answered);
    log->Add("index.add", root, 0, start, added);
    log->Add("index.build", root, 0, added, built);
    log->Add("index.save_v5", root, 0, built, save_done);
    log->Add("index.load", root, 0, save_done, loaded);
    log->Add("exec.search", root, 0, loaded, answered);
    out->trace_s = SecondsSince(trace_start);
  }
  out->add_s = NanosBetween(start, added) / 1e9;
  out->build_s = NanosBetween(added, built) / 1e9;
  out->save_s = NanosBetween(built, save_done) / 1e9;
  out->load_s = NanosBetween(save_done, loaded) / 1e9;
  out->time_to_search_s = NanosBetween(start, answered) / 1e9;
  out->words = corpus.words();
  out->docs = corpus.docs();
  struct stat st {};
  out->file_bytes = ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
  return true;
}

}  // namespace perfbench
