#include "catalog.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "sa/scoring_scheme.h"
#include "server/http.h"
#include "util.h"

namespace perfbench {

namespace {

using graft::index::InvertedIndex;
using graft::TermId;

// Document-frequency bands, as fractions of the collection. Terms above
// the top band behave like stopwords and are never drawn.
enum Band { kHigh = 0, kMid, kLow, kRare, kNumBands };
constexpr double kBandFloor[kNumBands] = {0.02, 0.002, 0.0002, 0.0};
constexpr double kBandCeiling = 0.10;
constexpr uint64_t kRareMinDocs = 3;

// Lower-case letters then digits: the generator's filler words ("city123")
// and planted words, all plain WORD tokens to the query parser.
bool PlainWord(const std::string& text) {
  if (text.empty() || text[0] < 'a' || text[0] > 'z') return false;
  for (char c : text) {
    if ((c < 'a' || c > 'z') && (c < '0' || c > '9')) return false;
  }
  return true;
}

class TermBands {
 public:
  explicit TermBands(const InvertedIndex& index) {
    const double docs = static_cast<double>(index.doc_count());
    for (TermId t = 0; t < index.term_count(); ++t) {
      const std::string& text = index.TermText(t);
      if (!PlainWord(text)) continue;
      const uint64_t df = index.DocFreq(t);
      const double fraction = static_cast<double>(df) / docs;
      if (fraction > kBandCeiling || df < kRareMinDocs) continue;
      for (int b = 0; b < kNumBands; ++b) {
        if (fraction >= kBandFloor[b]) {
          bands_[b].push_back(text);
          break;
        }
      }
    }
  }
  bool empty(Band band) const { return bands_[band].empty(); }
  const std::string& Draw(Band band, Rng& rng) const {
    const std::vector<std::string>& pool = bands_[band];
    return pool[rng.Below(pool.size())];
  }

 private:
  std::vector<std::string> bands_[kNumBands];
};

std::vector<std::string> DistinctDraw(const TermBands& bands,
                                      const std::vector<Band>& which,
                                      Rng& rng) {
  std::vector<std::string> terms;
  for (Band band : which) {
    // A small index may leave the rarest bands empty: use the next one up.
    while (band > kHigh && bands.empty(band)) band = static_cast<Band>(band - 1);
    if (bands.empty(band)) continue;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::string& term = bands.Draw(band, rng);
      if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
        terms.push_back(term);
        break;
      }
    }
  }
  return terms;
}

std::string Join(const std::vector<std::string>& terms, const char* sep) {
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += sep;
    out += terms[i];
  }
  return out;
}

std::string Quoted(const std::vector<std::string>& words) {
  std::string out = "\"";
  out += Join(words, " ");
  out += '"';
  return out;
}

// "(a b)PRED[arg]": a predicate over a group of keywords.
std::string Grouped(const std::vector<std::string>& terms, const char* pred,
                    uint32_t arg) {
  std::string out = "(";
  out += Join(terms, " ");
  out += ")";
  out += pred;
  out += "[";
  out += std::to_string(arg);
  out += "]";
  return out;
}

// A cheap keyword query: a conjunction anchored on a frequent term (so it
// rarely comes back empty) or a disjunction over mid and low terms. No
// query unions frequent terms: without a licensed top-k operator such a
// query ranks a large share of the collection.
CatalogQuery KeywordQuery(const TermBands& bands, Rng& rng) {
  CatalogQuery query;
  const bool three = rng.Below(3) == 0;
  if (rng.Below(2) == 0) {
    std::vector<Band> which = {kHigh, kMid};
    if (three) which.push_back(kHigh);
    query.terms = DistinctDraw(bands, which, rng);
    query.text = Join(query.terms, " ");
  } else {
    std::vector<Band> which = {rng.Below(3) == 0 ? kMid : kLow, kLow};
    if (three) which.push_back(kLow);
    query.terms = DistinctDraw(bands, which, rng);
    query.text = Join(query.terms, " | ");
  }
  query.cls = QueryClass::kTopK;
  return query;
}

// A positional query over one planted topic bundle: a phrase, a WINDOW
// over the bundle's span, a PROXIMITY pair, or a phrase combined with a
// windowed pair.
CatalogQuery PositionalQuery(const graft::text::CorpusConfig& corpus,
                             Rng& rng) {
  CatalogQuery query;
  query.cls = QueryClass::kPositional;
  const graft::text::TopicBundle& bundle =
      corpus.bundles[rng.Below(corpus.bundles.size())];
  std::vector<std::string> pool = bundle.terms;
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Below(i)]);
  }
  const size_t width = std::min<size_t>(pool.size(), 2 + rng.Below(2));
  const std::vector<std::string> group(pool.begin(), pool.begin() + width);
  const uint32_t span = bundle.span;
  // Single-term bundles only carry phrases.
  switch (pool.size() < 2 ? 0 : rng.Below(4)) {
    case 0: {
      const std::vector<std::string>& phrase =
          !bundle.phrases.empty()
              ? bundle.phrases[rng.Below(bundle.phrases.size())]
              : corpus.phrases[rng.Below(corpus.phrases.size())].words;
      query.terms = phrase;
      query.text = Quoted(phrase);
      break;
    }
    case 1:
      query.terms = group;
      query.text = Grouped(group, "WINDOW", span);
      break;
    case 2: {
      const std::vector<std::string> pair(group.begin(), group.begin() + 2);
      query.terms = pair;
      query.text = Grouped(pair, "PROXIMITY", span);
      break;
    }
    default: {
      const std::vector<std::string>& phrase =
          corpus.phrases[rng.Below(corpus.phrases.size())].words;
      const std::vector<std::string> pair(group.begin(), group.begin() + 2);
      query.terms = pair;
      query.terms.insert(query.terms.end(), phrase.begin(), phrase.end());
      query.text = Grouped(pair, "WINDOW", span);
      query.text += " (";
      query.text += pair[0];
      query.text += " | ";
      query.text += Quoted(phrase);
      query.text += ")";
      break;
    }
  }
  return query;
}

// A 3-term disjunction over low and rare terms, asked for every match.
CatalogQuery FullRankQuery(const TermBands& bands, Rng& rng) {
  CatalogQuery query;
  query.cls = QueryClass::kFullRank;
  query.terms = DistinctDraw(bands, {kLow, kRare, kRare}, rng);
  query.text = Join(query.terms, " | ");
  query.k = 0;
  return query;
}

}  // namespace

Catalog BuildCatalog(const InvertedIndex& index,
                     const graft::text::CorpusConfig& corpus,
                     const CatalogSpec& spec, uint64_t seed) {
  const TermBands bands(index);
  std::vector<std::string> schemes;
  for (const graft::sa::ScoringScheme* scheme :
       graft::sa::SchemeRegistry::Global().All()) {
    schemes.emplace_back(scheme->name());
  }
  std::sort(schemes.begin(), schemes.end());

  Catalog catalog;
  std::set<std::string> seen;
  for (size_t c = 0; c < kNumClasses; ++c) {
    Rng rng(SubSeed(seed, 100 + c));
    const QueryClass cls = static_cast<QueryClass>(c);
    // Positional queries have a small combinatorial space; stop drawing
    // once repeats dominate instead of looping forever.
    size_t misses = 0;
    while (catalog.by_class[c].size() < spec.queries[c] && misses < 20000) {
      CatalogQuery query;
      if (cls == QueryClass::kTopK) {
        query = KeywordQuery(bands, rng);
      } else if (cls == QueryClass::kPositional) {
        query = PositionalQuery(corpus, rng);
      } else {
        query = FullRankQuery(bands, rng);
      }
      if (cls != QueryClass::kFullRank) query.k = spec.top_k;
      query.scheme = schemes[rng.Below(schemes.size())];
      const std::string key =
          query.text + "\n" + query.scheme + "\n" + std::to_string(query.k);
      if (query.terms.size() < 2 || !seen.insert(key).second) {
        ++misses;
        continue;
      }
      catalog.by_class[c].push_back(
          static_cast<uint32_t>(catalog.queries.size()));
      catalog.queries.push_back(std::move(query));
    }
  }
  return catalog;
}

std::vector<uint32_t> RequestSequence(const Catalog& catalog,
                                      const CatalogSpec& spec, size_t n,
                                      uint64_t seed) {
  Rng rng(SubSeed(seed, 200));
  // Per class: a seeded popularity permutation and the Zipf CDF over it.
  std::vector<uint32_t> order[kNumClasses];
  std::vector<double> cdf[kNumClasses];
  double share_total = 0.0;
  for (size_t c = 0; c < kNumClasses; ++c) {
    order[c] = catalog.by_class[c];
    for (size_t i = order[c].size(); i > 1; --i) {
      std::swap(order[c][i - 1], order[c][rng.Below(i)]);
    }
    double sum = 0.0;
    for (size_t r = 0; r < order[c].size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
      cdf[c].push_back(sum);
    }
    for (double& v : cdf[c]) v /= sum;
    if (!order[c].empty()) share_total += spec.share[c];
  }
  std::vector<uint32_t> sequence;
  sequence.reserve(n);
  while (sequence.size() < n) {
    double pick = rng.Unit() * share_total;
    size_t c = 0;
    for (; c + 1 < kNumClasses; ++c) {
      if (order[c].empty()) continue;
      if (pick < spec.share[c]) break;
      pick -= spec.share[c];
    }
    if (order[c].empty()) continue;
    const size_t rank =
        std::lower_bound(cdf[c].begin(), cdf[c].end(), rng.Unit()) -
        cdf[c].begin();
    sequence.push_back(order[c][std::min(rank, order[c].size() - 1)]);
  }
  return sequence;
}

size_t DistinctTerms(const Catalog& catalog) {
  std::set<std::string> terms;
  for (const CatalogQuery& query : catalog.queries) {
    terms.insert(query.terms.begin(), query.terms.end());
  }
  return terms.size();
}

std::string CatalogShapeJson(const Catalog& catalog) {
  const double total = static_cast<double>(catalog.queries.size());
  std::map<std::string, size_t> per_scheme;
  for (const CatalogQuery& query : catalog.queries) ++per_scheme[query.scheme];
  char buf[64];
  std::string out = "{\"distinct_queries\":" +
                    std::to_string(catalog.queries.size()) +
                    ",\"distinct_terms\":" +
                    std::to_string(DistinctTerms(catalog)) + ",\"class\":{";
  for (size_t c = 0; c < kNumClasses; ++c) {
    std::snprintf(buf, sizeof(buf), "%.4f",
                  static_cast<double>(catalog.by_class[c].size()) / total);
    out += std::string(c ? "," : "") + "\"" + kClassNames[c] + "\":" + buf;
  }
  out += "},\"scheme\":{";
  bool first = true;
  for (const auto& [scheme, count] : per_scheme) {
    std::snprintf(buf, sizeof(buf), "%.4f",
                  static_cast<double>(count) / total);
    out += std::string(first ? "" : ",") + "\"" + scheme + "\":" + buf;
    first = false;
  }
  out += "}}";
  return out;
}

std::string SearchTarget(const CatalogQuery& query) {
  return "/search?q=" + graft::server::UrlEncode(query.text) +
         "&scheme=" + graft::server::UrlEncode(query.scheme) +
         "&k=" + std::to_string(query.k);
}

}  // namespace perfbench
