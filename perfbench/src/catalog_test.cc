// Checks that the catalog and the request sequence are a function of the
// seed: the same seed yields the same inputs, another seed other inputs.
// Run with `python3 perfbench/run.py --self-test`.

#include <cstdio>
#include <string>
#include <vector>

#include "catalog.h"
#include "index/inverted_index.h"
#include "text/corpus.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<std::string> Render(const perfbench::Catalog& catalog) {
  std::vector<std::string> out;
  for (const perfbench::CatalogQuery& query : catalog.queries) {
    out.push_back(perfbench::SearchTarget(query));
  }
  return out;
}

}  // namespace

int main() {
  const graft::text::CorpusConfig config =
      graft::text::WikipediaLikeConfig(3000, 7);
  graft::index::IndexBuilder builder;
  graft::text::CorpusGenerator generator(config);
  generator.Generate([&](uint64_t, const std::vector<std::string_view>& doc) {
    builder.AddDocument(doc);
  });
  const graft::index::InvertedIndex index = builder.Build();

  perfbench::CatalogSpec spec;
  spec.queries[0] = 300;
  spec.queries[1] = 60;
  spec.queries[2] = 40;
  spec.share[0] = 0.8;
  spec.share[1] = 0.15;
  spec.share[2] = 0.05;

  const perfbench::Catalog a = perfbench::BuildCatalog(index, config, spec, 11);
  const perfbench::Catalog b = perfbench::BuildCatalog(index, config, spec, 11);
  const perfbench::Catalog c = perfbench::BuildCatalog(index, config, spec, 12);
  Expect(Render(a) == Render(b), "same seed, same catalog");
  Expect(Render(a) != Render(c), "other seed, other catalog");
  for (size_t cls = 0; cls < perfbench::kNumClasses; ++cls) {
    Expect(!a.by_class[cls].empty(), "every class has queries");
  }
  Expect(a.by_class[0].size() == spec.queries[0], "keyword class is full");

  const auto sa = perfbench::RequestSequence(a, spec, 5000, 11);
  const auto sb = perfbench::RequestSequence(b, spec, 5000, 11);
  const auto sc = perfbench::RequestSequence(a, spec, 5000, 12);
  Expect(sa == sb, "same seed, same request sequence");
  Expect(sa != sc, "other seed, other request sequence");
  size_t per_class[perfbench::kNumClasses] = {0, 0, 0};
  for (uint32_t q : sa) ++per_class[static_cast<size_t>(a.queries[q].cls)];
  for (size_t cls = 0; cls < perfbench::kNumClasses; ++cls) {
    const double share = static_cast<double>(per_class[cls]) / sa.size();
    Expect(share > spec.share[cls] * 0.8 && share < spec.share[cls] * 1.2,
           "class shares follow the spec");
  }
  std::fprintf(stderr, "%s\n", perfbench::CatalogShapeJson(a).c_str());
  std::fprintf(stderr, "catalog test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
