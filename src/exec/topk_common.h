// Shared machinery for the top-k operators (MaxScoreTopK, TopKRankEngine):
// the pure-keyword query-shape probe, the exact column/row scorer, and the
// bounded result list.
//
// The scorer reproduces the full engine's α/⊘/⊚/⊕/ω pipeline bit-for-bit:
// a column's score is α at the first offset, ⊗-scaled by the term
// frequency, with tf == 0 mapping to the ∅ cell; the document score folds
// the columns in keyword order with ⊘/⊚ and applies ω under the real
// document context. Only the *set of documents scored* may differ between
// operators — never a score.

#ifndef GRAFT_EXEC_TOPK_COMMON_H_
#define GRAFT_EXEC_TOPK_COMMON_H_

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "index/stats.h"
#include "ma/match_table.h"
#include "mcalc/ast.h"
#include "sa/scoring_scheme.h"

namespace graft::exec::topk {

// Query shape probe: And(keywords...) or Or(keywords...) or one keyword
// (a single keyword processes as a conjunction).
enum class Shape { kUnsupported, kConjunction, kDisjunction };

inline Shape QueryShape(const mcalc::Query& query,
                        std::vector<const mcalc::Node*>* keywords) {
  const mcalc::Node& root = *query.root;
  if (root.kind == mcalc::NodeKind::kKeyword) {
    keywords->push_back(&root);
    return Shape::kConjunction;
  }
  if (root.kind != mcalc::NodeKind::kAnd &&
      root.kind != mcalc::NodeKind::kOr) {
    return Shape::kUnsupported;
  }
  for (const mcalc::NodePtr& child : root.children) {
    if (child->kind != mcalc::NodeKind::kKeyword) {
      return Shape::kUnsupported;
    }
    keywords->push_back(child.get());
  }
  return root.kind == mcalc::NodeKind::kAnd ? Shape::kConjunction
                                            : Shape::kDisjunction;
}

class ColumnScorer {
 public:
  ColumnScorer(const index::StatsView* view, const sa::ScoringScheme* scheme,
               uint32_t num_columns)
      : view_(view), scheme_(scheme) {
    query_ctx_.num_columns = num_columns;
    generic_.length = 1;
    generic_.collection_size = view_->CollectionSize();
    generic_.avg_doc_length = view_->AverageDocLength();
  }

  sa::DocContext DocCtx(DocId doc) const {
    sa::DocContext ctx;
    ctx.doc = doc;
    ctx.length = view_->DocLength(doc);
    ctx.collection_size = view_->CollectionSize();
    ctx.avg_doc_length = view_->AverageDocLength();
    return ctx;
  }

  // A context standing for no concrete document (length 1): used for
  // stream-tail thresholds and block ceilings. Length 1 maximizes a
  // bounded α, and ω is monotone in the aggregate (and ignores the
  // document) for the rank-eligible schemes.
  const sa::DocContext& GenericDocCtx() const { return generic_; }

  // The column score: the ⊕-fold of the tf equal alternates = ⊗.
  sa::InternalScore ColumnScoreTf(TermId term, uint32_t tf, DocId doc) const {
    sa::ColumnContext col;
    col.term = term;
    col.doc_freq = term == kInvalidTerm ? 0 : view_->DocFreq(term);
    col.tf_in_doc = tf;
    const sa::DocContext dctx = DocCtx(doc);
    if (tf == 0) {
      return scheme_->Init(dctx, col, kEmptyOffset);
    }
    const sa::InternalScore unit = scheme_->Init(dctx, col, /*offset=*/0);
    return tf <= 1 ? unit : scheme_->Scale(unit, tf);
  }

  // The ∅ cell (tf = 0) under GenericDocCtx(): the column bound of a term
  // a document does not contain. Not always zero (AnyProd floors it).
  sa::InternalScore EmptyCell(TermId term) const {
    sa::ColumnContext col;
    col.term = term;
    col.doc_freq = term == kInvalidTerm ? 0 : view_->DocFreq(term);
    col.tf_in_doc = 0;
    return scheme_->Init(generic_, col, kEmptyOffset);
  }

  sa::InternalScore Combine(Shape shape, const sa::InternalScore& acc,
                            const sa::InternalScore& column) const {
    return shape == Shape::kConjunction ? scheme_->Conj(acc, column)
                                        : scheme_->Disj(acc, column);
  }

  double Finalize(DocId doc, const sa::InternalScore& acc) const {
    return scheme_->Finalize(DocCtx(doc), query_ctx_, acc);
  }

  // ω over GenericDocCtx(): the score bound of a ceiling/threshold fold.
  double FinalizeGeneric(const sa::InternalScore& acc) const {
    return scheme_->Finalize(generic_, query_ctx_, acc);
  }

 private:
  const index::StatsView* view_;
  const sa::ScoringScheme* scheme_;
  sa::QueryContext query_ctx_;
  sa::DocContext generic_;
};

// The best-k result list, kept sorted in the engine's result order (score
// desc, doc asc) so every top-k operator breaks ties identically.
// Requires k > 0; the operators answer k == 0 before building one.
class TopKList {
 public:
  explicit TopKList(size_t k) : k_(k) {}

  bool full() const { return top_.size() >= k_; }

  // Score of the k-th best result; -∞ until k results are kept.
  double worst_kept() const {
    return full() ? top_.back().score
                  : -std::numeric_limits<double>::infinity();
  }

  // Inserts the candidate, evicting the worst entry beyond k. Returns the
  // heap operations performed (inserts + evictions).
  uint64_t Insert(DocId doc, double score) {
    const ma::ScoredDoc candidate{doc, score};
    const auto position = std::upper_bound(
        top_.begin(), top_.end(), candidate,
        [](const ma::ScoredDoc& a, const ma::ScoredDoc& b) {
          if (a.score != b.score) return a.score > b.score;
          return a.doc < b.doc;
        });
    top_.insert(position, candidate);
    if (top_.size() > k_) {
      top_.pop_back();
      return 2;
    }
    return 1;
  }

  std::vector<ma::ScoredDoc> Take() { return std::move(top_); }

 private:
  size_t k_;
  std::vector<ma::ScoredDoc> top_;
};

}  // namespace graft::exec::topk

#endif  // GRAFT_EXEC_TOPK_COMMON_H_
