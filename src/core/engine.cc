#include "core/engine.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "core/cost_model.h"
#include "core/rewrite_rules.h"
#include "exec/maxscore_topk.h"
#include "ma/reference_evaluator.h"

namespace graft::core {

namespace {

// Score-desc, doc-asc: the engine's global result order. Per-segment
// result lists are already sorted this way (after local→global doc-id
// rebasing), so merging them with the same comparator reproduces the
// monolithic order exactly.
bool ScoredBefore(const ma::ScoredDoc& a, const ma::ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

// ExecStats accumulated across concurrent segment executors. Workers add
// their private executor counters once per segment (a handful of adds per
// query), so one mutex beats maintaining an atomic per counter field.
struct SharedExecStats {
  std::mutex mu;
  exec::ExecStats stats;

  void Add(const exec::ExecStats& s) {
    std::lock_guard<std::mutex> lock(mu);
    stats.Accumulate(s);
  }
};

// Folds threshold-algorithm counters into the per-query ExecStats view.
void FoldRankStats(const exec::RankStats& rank, exec::ExecStats* stats) {
  stats->rank_heap_ops += rank.heap_ops;
  stats->rank_stopping_depth += rank.stopping_depth;
  stats->docs_scored += rank.candidates_scored;
  stats->docs_pruned += rank.entries_pruned();
}

// Folds block-max pruning counters into the per-query ExecStats view.
void FoldPruneStats(const exec::PruneStats& prune, exec::ExecStats* stats) {
  stats->rank_heap_ops += prune.heap_ops;
  stats->docs_scored += prune.candidates_scored;
  stats->docs_pruned += prune.candidates_pruned;
  stats->topk_blocks_skipped += prune.blocks_skipped;
  stats->topk_blocks_decoded += prune.blocks_decoded;
  stats->topk_ceiling_probes += prune.ceiling_probes;
  stats->topk_threshold_updates += prune.threshold_updates;
}

// Stamps one count per fired rewrite rule (registry order) into the
// result's ExecStats — the per-rule counters /metrics aggregates.
void StampRuleCounters(SearchResult* result) {
  const auto& rules = RewriteRuleRegistry::Global().All();
  for (const RewriteAttempt& attempt : result->rewrite_attempts) {
    if (!attempt.fired) continue;
    for (size_t i = 0; i < rules.size() && i < exec::ExecStats::kMaxRules;
         ++i) {
      if (rules[i].opt == attempt.opt) {
        ++result->exec_stats.rule_fired[i];
        break;
      }
    }
  }
}

// Rewrite-attempt table for the rank-processing path, where the optimizer
// never runs: the gate verdicts are still what admitted rank processing,
// so EXPLAIN ANALYZE and ?explain=1 stay complete on this path too.
// `pruned` marks the block-max row as fired; otherwise `pruning_verdict`
// says why the pruned operator stood down.
std::vector<RewriteAttempt> RankPathAttempts(
    const mcalc::Query& query, const sa::ScoringScheme& scheme,
    const std::string& pruning_verdict, bool pruned) {
  const Optimization fired_opt = query.root->kind == mcalc::NodeKind::kOr
                                     ? Optimization::kRankUnion
                                     : Optimization::kRankJoin;
  std::vector<RewriteAttempt> attempts;
  for (const Optimization opt : kAllOptimizations) {
    RewriteAttempt attempt;
    attempt.opt = opt;
    if (opt == Optimization::kBlockMaxPruning) {
      attempt.fired = pruned;
      attempt.verdict =
          pruned ? "gate ok: " +
                       ExplainGate(opt, scheme.properties()).reason +
                       "; block-max dynamic pruning"
                 : pruning_verdict;
    } else if (opt == fired_opt) {
      attempt.fired = !pruned;
      attempt.verdict =
          pruned ? "superseded by block-max pruned top-k"
                 : "gate ok: " +
                       ExplainGate(opt, scheme.properties()).reason +
                       "; threshold top-k execution";
    } else {
      attempt.verdict = "not attempted (rank processing path)";
    }
    attempts.push_back(std::move(attempt));
  }
  return attempts;
}

// The top-k physical operators the planner chooses between.
enum class TopKOp { kMaxScore, kHrjn, kFull };

// The one top-k decision. Search (monolithic and segmented) and EXPLAIN
// all ask PlanTopK, so the strategy EXPLAIN prints is the operator that
// runs.
struct TopKPlan {
  TopKOp op = TopKOp::kFull;
  // Block-max gate verdict: empty iff op == kMaxScore; on kHrjn, why the
  // pruned operator stood down.
  std::string prune_verdict;
  // On kFull, why rank processing did not run.
  std::string reason;
};

// Decision order: block-max pruned top-k (MaxScore) when its gate passes,
// else the threshold rank engine (HRJN) when the Table-1 gate admits
// rank-join/rank-union, else full ranking + truncate. `overlay` is the
// statistics overlay the query scores against; it overrides the stored
// block ceilings, so pruning stands down under one.
TopKPlan PlanTopK(const mcalc::Query& query, const sa::ScoringScheme& scheme,
                  const index::InvertedIndex& index,
                  const index::StatsOverlay* overlay,
                  const SearchOptions& options) {
  TopKPlan plan;
  if (options.top_k == 0) {
    plan.reason = "no top-k requested";
  } else if (!options.allow_rank_processing) {
    plan.reason = "rank processing disabled";
  } else if (!exec::TopKRankEngine::Supports(query, scheme)) {
    plan.reason = "rank processing not licensed";
  } else {
    plan.prune_verdict =
        options.allow_block_max_pruning
            ? exec::MaxScoreTopK::GateVerdict(query, scheme, index, overlay)
            : "blocked: disabled by request options";
    plan.op = plan.prune_verdict.empty() ? TopKOp::kMaxScore : TopKOp::kHrjn;
  }
  return plan;
}

// Runs the planned rank operator (kMaxScore or kHrjn) over one index — the
// monolithic index, or one segment scored against the corpus-wide
// `global` statistics — and folds its counters into `stats`.
StatusOr<std::vector<ma::ScoredDoc>> RunRankOperator(
    TopKOp op, const mcalc::Query& query, const sa::ScoringScheme& scheme,
    size_t k, const index::InvertedIndex* index,
    const index::StatsOverlay* overlay, const index::GlobalStats* global,
    exec::ExecStats* stats) {
  if (op == TopKOp::kMaxScore) {
    exec::MaxScoreTopK pruner(index, &scheme, global);
    auto top = pruner.TopK(query, k);
    FoldPruneStats(pruner.stats(), stats);
    return top;
  }
  exec::TopKRankEngine rank_engine(index, &scheme, overlay, global);
  auto top = rank_engine.TopK(query, k);
  FoldRankStats(rank_engine.stats(), stats);
  return top;
}

// Fills the result fields every rank-processing run reports.
void StampRankResult(const TopKPlan& plan, const mcalc::Query& query,
                     const sa::ScoringScheme& scheme, SearchResult* result) {
  const bool pruned = plan.op == TopKOp::kMaxScore;
  result->used_rank_processing = true;
  result->used_block_max_pruning = pruned;
  result->topk_operator = pruned ? "maxscore" : "hrjn";
  result->applied_optimizations =
      pruned ? "block-max pruned top-k" : "rank-join/rank-union (top-k)";
  result->rewrite_attempts =
      RankPathAttempts(query, scheme, plan.prune_verdict, pruned);
}

// The per-request overlay replaces (not merges with) the engine overlay:
// a router shard must score against exactly the pinned statistics.
const index::StatsOverlay* RequestOverlay(
    const SearchOptions& options, const index::StatsOverlay* engine_overlay) {
  return options.stats_overlay != nullptr ? options.stats_overlay
                                          : engine_overlay;
}

std::string FormatExecStats(const exec::ExecStats& s) {
  std::string out =
      "  docs_visited=" + std::to_string(s.docs_visited) +
      " rows_built=" + std::to_string(s.rows_built) +
      " positions_scanned=" + std::to_string(s.positions_scanned) +
      " count_entries_scanned=" + std::to_string(s.count_entries_scanned) +
      "\n  blocks_decoded=" + std::to_string(s.blocks_decoded) +
      " gallop_probes=" + std::to_string(s.gallop_probes) +
      " skip_calls=" + std::to_string(s.skip_calls) +
      " skip_hits=" + std::to_string(s.skip_hits) + "\n";
  if (s.rank_heap_ops != 0 || s.docs_scored != 0 || s.docs_pruned != 0 ||
      s.rank_stopping_depth != 0) {
    out += "  rank: heap_ops=" + std::to_string(s.rank_heap_ops) +
           " stopping_depth=" + std::to_string(s.rank_stopping_depth) +
           " docs_scored=" + std::to_string(s.docs_scored) +
           " docs_pruned=" + std::to_string(s.docs_pruned) + "\n";
  }
  if (s.topk_blocks_skipped != 0 || s.topk_ceiling_probes != 0 ||
      s.topk_threshold_updates != 0 || s.topk_blocks_decoded != 0) {
    out += "  pruning: blocks_skipped=" +
           std::to_string(s.topk_blocks_skipped) +
           " blocks_decoded=" + std::to_string(s.topk_blocks_decoded) +
           " ceiling_probes=" + std::to_string(s.topk_ceiling_probes) +
           " threshold_updates=" + std::to_string(s.topk_threshold_updates) +
           "\n";
  }
  if (s.block_cache_hits != 0 || s.block_cache_misses != 0 ||
      s.block_cache_evictions != 0 || s.packed_payload_decodes != 0) {
    out += "  block_cache: hits=" + std::to_string(s.block_cache_hits) +
           " misses=" + std::to_string(s.block_cache_misses) +
           " evictions=" + std::to_string(s.block_cache_evictions) +
           " payload_decodes=" + std::to_string(s.packed_payload_decodes) +
           "\n";
  }
  std::string rules;
  const auto& catalog = RewriteRuleRegistry::Global().All();
  for (size_t i = 0; i < catalog.size() && i < exec::ExecStats::kMaxRules;
       ++i) {
    if (s.rule_fired[i] == 0) continue;
    if (!rules.empty()) rules += " ";
    rules += catalog[i].id + "=" + std::to_string(s.rule_fired[i]);
  }
  if (!rules.empty()) {
    out += "  rules_fired: " + rules + "\n";
  }
  return out;
}

// K-way merge of per-segment (score desc, doc asc) sorted lists into the
// global top-k (k == 0 → full sort merge). The heap holds one head per
// non-empty list — the Fagin-style merge of independently ranked streams.
std::vector<ma::ScoredDoc> MergeRanked(
    std::vector<std::vector<ma::ScoredDoc>>& partials, size_t k) {
  size_t total = 0;
  for (const auto& partial : partials) {
    total += partial.size();
  }
  std::vector<ma::ScoredDoc> merged;
  if (k == 0) {
    // Full-sort merge: concatenate and sort once (O(n log n) with tiny
    // constants beats heap-merging full result sets).
    merged.reserve(total);
    for (auto& partial : partials) {
      merged.insert(merged.end(), partial.begin(), partial.end());
    }
    std::sort(merged.begin(), merged.end(), ScoredBefore);
    return merged;
  }

  struct Head {
    const std::vector<ma::ScoredDoc>* list;
    size_t next;
  };
  // Max-heap on the best remaining entry of each list.
  const auto heap_after = [](const Head& a, const Head& b) {
    return ScoredBefore((*b.list)[b.next], (*a.list)[a.next]);
  };
  std::vector<Head> heap;
  heap.reserve(partials.size());
  for (const auto& partial : partials) {
    if (!partial.empty()) {
      heap.push_back(Head{&partial, 0});
    }
  }
  std::make_heap(heap.begin(), heap.end(), heap_after);
  merged.reserve(std::min(k, total));
  while (!heap.empty() && merged.size() < k) {
    std::pop_heap(heap.begin(), heap.end(), heap_after);
    Head head = heap.back();
    heap.pop_back();
    merged.push_back((*head.list)[head.next]);
    if (++head.next < head.list->size()) {
      heap.push_back(head);
      std::push_heap(heap.begin(), heap.end(), heap_after);
    }
  }
  return merged;
}

}  // namespace

Engine::Engine(const index::InvertedIndex* index,
               const index::SegmentedIndex* segmented, size_t pool_threads)
    : index_(index),
      segmented_(segmented),
      pool_(std::make_unique<common::ThreadPool>(pool_threads)) {}

StatusOr<const sa::ScoringScheme*> Engine::ResolveScheme(
    std::string_view name) const {
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup(name);
  if (scheme == nullptr) {
    return Status::NotFound("unknown scoring scheme: " + std::string(name));
  }
  return scheme;
}

StatusOr<SearchResult> Engine::Search(std::string_view query_text,
                                      std::string_view scheme_name,
                                      const SearchOptions& options) const {
  SearchOptions opts = options;
  // When the global tracer is on and the caller did not supply a trace,
  // trace into a local one and publish it to the ring on completion.
  common::QueryTrace ring_trace;
  const bool record_global =
      opts.trace == nullptr && common::Tracer::Global().enabled();
  if (record_global) {
    opts.trace = &ring_trace;
  }

  common::ScopedSpan parse_span(opts.trace, "parse");
  GRAFT_ASSIGN_OR_RETURN(mcalc::Query query, mcalc::ParseQuery(query_text));
  parse_span.End();
  GRAFT_ASSIGN_OR_RETURN(const sa::ScoringScheme* scheme,
                         ResolveScheme(scheme_name));
  auto result = SearchQuery(query, *scheme, opts);
  if (record_global) {
    common::Tracer::Global().Record(std::string(query_text), ring_trace);
  }
  return result;
}

StatusOr<SearchResult> Engine::SearchQuery(const mcalc::Query& query,
                                           const sa::ScoringScheme& scheme,
                                           const SearchOptions& options) const {
  // Harvest the calling thread's decoded-block cache traffic into the
  // query's ExecStats. Packed (v5 mmap) posting access runs on this thread
  // for every monolithic path; segmented queries execute over materialized
  // per-segment indexes, which produce no cache traffic.
  const index::BlockCacheTls before = index::TlsBlockCacheCounters();
  auto result = SearchQueryImpl(query, scheme, options);
  if (result.ok()) {
    const index::BlockCacheTls& after = index::TlsBlockCacheCounters();
    exec::ExecStats& s = result.value().exec_stats;
    s.block_cache_hits += after.hits - before.hits;
    s.block_cache_misses += after.misses - before.misses;
    s.block_cache_evictions += after.evictions - before.evictions;
    s.packed_payload_decodes += after.payload_decodes - before.payload_decodes;
  }
  return result;
}

StatusOr<SearchResult> Engine::SearchQueryImpl(
    const mcalc::Query& query, const sa::ScoringScheme& scheme,
    const SearchOptions& options) const {
  if (segmented_ != nullptr && options.use_segmented &&
      !options.use_canonical_reference) {
    if (options.stats_overlay != nullptr) {
      return Status::InvalidArgument(
          "stats_overlay is not supported on the segmented path (overlay "
          "doc ids are global); set use_segmented = false");
    }
    return SearchQuerySegmented(query, scheme, options);
  }

  const index::StatsOverlay* overlay = RequestOverlay(options, overlay_);

  SearchResult result;
  common::QueryTrace* trace = options.trace;
  const sa::QueryContext query_ctx = MakeQueryContext(query);

  if (options.use_canonical_reference) {
    common::ScopedSpan canonical_span(trace, "canonical-evaluate");
    GRAFT_ASSIGN_OR_RETURN(CanonicalBuild canonical,
                           BuildCanonicalPlan(query, scheme));
    GRAFT_RETURN_IF_ERROR(ma::ResolvePlan(canonical.plan.get(), *index_));
    ma::ReferenceEvaluator evaluator(index_, &scheme, query_ctx, overlay);
    GRAFT_ASSIGN_OR_RETURN(const ma::MatchTable table,
                           evaluator.Evaluate(*canonical.plan));
    GRAFT_ASSIGN_OR_RETURN(result.results, ma::ExtractRankedResults(table));
    result.plan_text = ma::PlanToString(*canonical.plan);
    result.applied_optimizations = "(canonical score-isolated plan)";
    if (options.top_k > 0 && result.results.size() > options.top_k) {
      result.results.resize(options.top_k);
    }
    return result;
  }

  const TopKPlan topk_plan =
      PlanTopK(query, scheme, *index_, overlay, options);
  if (topk_plan.op != TopKOp::kFull) {
    common::ScopedSpan rank_span(trace, "rank");
    GRAFT_ASSIGN_OR_RETURN(
        result.results,
        RunRankOperator(topk_plan.op, query, scheme, options.top_k, index_,
                        overlay, /*global=*/nullptr, &result.exec_stats));
    rank_span.End(topk_plan.op == TopKOp::kMaxScore
                      ? "blocks_skipped=" +
                            std::to_string(
                                result.exec_stats.topk_blocks_skipped)
                      : "stopping_depth=" +
                            std::to_string(
                                result.exec_stats.rank_stopping_depth));
    StampRankResult(topk_plan, query, scheme, &result);
    StampRuleCounters(&result);
    return result;
  }

  Optimizer optimizer(&scheme, options.optimizer);
  common::ScopedSpan optimize_span(trace, "optimize");
  GRAFT_ASSIGN_OR_RETURN(OptimizedPlan plan,
                         optimizer.Optimize(query, *index_, trace));
  optimize_span.End("applied: " + plan.AppliedToString());
  exec::Executor executor(index_, &scheme, query_ctx, overlay);
  common::ScopedSpan execute_span(trace, "execute");
  GRAFT_ASSIGN_OR_RETURN(result.results, executor.ExecuteRanked(*plan.plan));
  execute_span.End("docs_visited=" +
                   std::to_string(executor.stats().docs_visited));
  result.plan_text = ma::PlanToString(*plan.plan);
  result.applied_optimizations = plan.AppliedToString();
  result.rewrite_attempts = std::move(plan.attempts);
  result.exec_stats = executor.stats();
  StampRuleCounters(&result);
  if (options.top_k > 0 && result.results.size() > options.top_k) {
    result.results.resize(options.top_k);
  }
  return result;
}

StatusOr<SearchResult> Engine::SearchQuerySegmented(
    const mcalc::Query& query, const sa::ScoringScheme& scheme,
    const SearchOptions& options) const {
  SearchResult result;
  common::QueryTrace* trace = options.trace;
  const sa::QueryContext query_ctx = MakeQueryContext(query);
  const size_t num_segments = segmented_->segment_count();
  result.segments_searched = num_segments;

  // Per-segment output slots: distinct indexes, no locking needed; the
  // ParallelFor latch publishes all writes to this thread.
  std::vector<Status> statuses(num_segments, Status::Ok());
  std::vector<std::vector<ma::ScoredDoc>> partials(num_segments);
  SharedExecStats agg_stats;

  // Top-k rank processing: per-segment top-k against global statistics,
  // then a k-way merge — score-consistent because each segment's top-k is
  // exact for its documents. Per-segment pruning: each segment carries its
  // own block-max metadata (rebuilt over the rebased slice iff the source
  // index has it) and prunes against its local threshold.
  const TopKPlan topk_plan = PlanTopK(query, scheme, *index_,
                                      RequestOverlay(options, overlay_),
                                      options);
  if (topk_plan.op != TopKOp::kFull) {
    common::ScopedSpan rank_span(
        trace, "rank", "segments=" + std::to_string(num_segments));
    common::ParallelFor(
        pool_.get(), options.num_threads, num_segments, [&](size_t i) {
          common::ScopedSpan segment_span(trace,
                                          "segment " + std::to_string(i));
          const index::SegmentedIndex::Segment& seg = segmented_->segment(i);
          exec::ExecStats rank_stats;
          auto local = RunRankOperator(topk_plan.op, query, scheme,
                                       options.top_k, &seg.index,
                                       /*overlay=*/nullptr, &seg.stats,
                                       &rank_stats);
          if (!local.ok()) {
            statuses[i] = local.status();
            return;
          }
          partials[i] = std::move(local).value();
          for (ma::ScoredDoc& hit : partials[i]) {
            hit.doc += seg.base;
          }
          agg_stats.Add(rank_stats);
        });
    for (const Status& status : statuses) {
      GRAFT_RETURN_IF_ERROR(status);
    }
    rank_span.End();
    common::ScopedSpan merge_span(trace, "merge");
    result.results = MergeRanked(partials, options.top_k);
    merge_span.End("results=" + std::to_string(result.results.size()));
    StampRankResult(topk_plan, query, scheme, &result);
    result.applied_optimizations +=
        ", segmented ×" + std::to_string(num_segments);
    result.exec_stats = agg_stats.stats;
    StampRuleCounters(&result);
    return result;
  }

  // Optimize ONCE against the monolithic index (cost estimates use global
  // posting lengths); resolve the plan per segment.
  Optimizer optimizer(&scheme, options.optimizer);
  common::ScopedSpan optimize_span(trace, "optimize");
  GRAFT_ASSIGN_OR_RETURN(OptimizedPlan plan,
                         optimizer.Optimize(query, *index_, trace));
  optimize_span.End("applied: " + plan.AppliedToString());

  common::ScopedSpan execute_span(
      trace, "execute", "segments=" + std::to_string(num_segments));
  common::ParallelFor(
      pool_.get(), options.num_threads, num_segments, [&](size_t i) {
        common::ScopedSpan segment_span(trace,
                                        "segment " + std::to_string(i));
        const index::SegmentedIndex::Segment& seg = segmented_->segment(i);
        ma::PlanNodePtr local_plan = plan.plan->Clone();
        Status resolved = ma::ResolvePlan(local_plan.get(), seg.index);
        if (!resolved.ok()) {
          statuses[i] = std::move(resolved);
          return;
        }
        exec::Executor executor(&seg.index, &scheme, query_ctx,
                                /*overlay=*/nullptr, &seg.stats);
        auto local = executor.ExecuteRanked(*local_plan);
        if (!local.ok()) {
          statuses[i] = local.status();
          return;
        }
        partials[i] = std::move(local).value();
        for (ma::ScoredDoc& hit : partials[i]) {
          hit.doc += seg.base;
        }
        agg_stats.Add(executor.stats());
      });
  for (const Status& status : statuses) {
    GRAFT_RETURN_IF_ERROR(status);
  }
  execute_span.End();

  common::ScopedSpan merge_span(trace, "merge");
  result.results = MergeRanked(partials, options.top_k);
  merge_span.End("results=" + std::to_string(result.results.size()));
  result.plan_text = ma::PlanToString(*plan.plan);
  result.applied_optimizations =
      plan.AppliedToString() + ", segmented ×" + std::to_string(num_segments);
  result.rewrite_attempts = std::move(plan.attempts);
  result.exec_stats = agg_stats.stats;
  StampRuleCounters(&result);
  return result;
}

StatusOr<std::string> Engine::Explain(std::string_view query_text,
                                      std::string_view scheme_name,
                                      const SearchOptions& options) const {
  GRAFT_ASSIGN_OR_RETURN(mcalc::Query query, mcalc::ParseQuery(query_text));
  GRAFT_ASSIGN_OR_RETURN(const sa::ScoringScheme* scheme,
                         ResolveScheme(scheme_name));
  Optimizer optimizer(scheme, options.optimizer);
  GRAFT_ASSIGN_OR_RETURN(OptimizedPlan plan,
                         optimizer.Optimize(query, *index_));
  std::string out = "query: " + mcalc::ToMCalcString(query) + "\n";
  out += "scoring plan Φ: " + plan.phi->ToString() + "\n";
  out += "scheme: " + std::string(scheme->name()) + " (" +
         sa::DirectionName(scheme->properties().direction) + ")\n";
  out += "applied: " + plan.AppliedToString() + "\n";
  if (options.top_k > 0) {
    // Deterministic top-k strategy verdict (golden-snapshot friendly):
    // which top-k execution path SearchQuery would take, and why.
    out += "top-k strategy (k=" + std::to_string(options.top_k) + "): ";
    const TopKPlan topk_plan =
        PlanTopK(query, *scheme, *index_, RequestOverlay(options, overlay_),
                 options);
    switch (topk_plan.op) {
      case TopKOp::kMaxScore:
        out += "block-max pruned top-k\n";
        break;
      case TopKOp::kHrjn:
        out += "threshold top-k; block-max prune " +
               topk_plan.prune_verdict + "\n";
        break;
      case TopKOp::kFull:
        out += "full ranking + truncate (" + topk_plan.reason + ")\n";
        break;
    }
  }
  out += "rewrites:\n" + FormatRewriteAttempts(plan.attempts);
  if (plan.plan != nullptr) {
    const CostEstimate estimate = CostModel(index_).Estimate(*plan.plan);
    char line[96];
    std::snprintf(line, sizeof(line),
                  "cost estimate: docs=%.1f rows=%.1f cost=%.1f\n",
                  estimate.docs, estimate.rows, estimate.cost);
    out += line;
    out += ma::PlanToString(*plan.plan);
  }
  return out;
}

StatusOr<std::string> Engine::ExplainAnalyze(
    std::string_view query_text, std::string_view scheme_name,
    const SearchOptions& options) const {
  GRAFT_ASSIGN_OR_RETURN(std::string out,
                         Explain(query_text, scheme_name, options));

  // Execute under a local trace (chaining to any caller-supplied one
  // would double-count spans; EXPLAIN ANALYZE owns its trace).
  common::QueryTrace trace;
  SearchOptions opts = options;
  opts.trace = &trace;
  GRAFT_ASSIGN_OR_RETURN(SearchResult result,
                         Search(query_text, scheme_name, opts));

  out += "-- analyze --\n";
  out += "executed: " + result.applied_optimizations + "\n";
  out += "segments searched: " + std::to_string(result.segments_searched) +
         "\n";
  if (result.used_rank_processing) {
    out += "rank processing rewrites:\n" +
           FormatRewriteAttempts(result.rewrite_attempts);
  }
  out += "results: " + std::to_string(result.results.size()) + "\n";
  out += "measured operator work:\n" + FormatExecStats(result.exec_stats);
  out += "trace:\n" + trace.ToText();
  return out;
}

}  // namespace graft::core
