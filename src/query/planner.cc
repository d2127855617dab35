#include "src/query/planner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace xseq {

namespace {

/// a * b, saturating at `cap`.
uint64_t SatMul(uint64_t a, uint64_t b, uint64_t cap) {
  if (a == 0 || b == 0) return 0;
  if (a > cap / b) return cap;
  uint64_t p = a * b;
  return p > cap ? cap : p;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  return s < a ? UINT64_MAX : s;
}

/// Multiplies `acc` by the number of orderings of `n`'s identical-path
/// sibling groups and recurses, saturating at `cap` (mirrors the grouping
/// rule of ExpandIsomorphisms: only groups of >= 2 equal paths permute).
void OrderingsRec(const Node* n, const std::vector<PathId>& paths,
                  uint64_t cap, uint64_t* acc) {
  std::map<PathId, uint64_t> group_size;
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    ++group_size[paths[c->index]];
  }
  for (const auto& [p, k] : group_size) {
    (void)p;
    for (uint64_t f = 2; f <= k; ++f) {
      *acc = SatMul(*acc, f, cap);
      if (*acc >= cap) return;
    }
  }
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    OrderingsRec(c, paths, cap, acc);
    if (*acc >= cap) return;
  }
}

}  // namespace

size_t CompiledQuery::MemoryBytes() const {
  size_t bytes = sizeof(CompiledQuery);
  for (const QuerySeq& q : sequences) {
    bytes += sizeof(QuerySeq) + q.paths.size() * sizeof(PathId) +
             q.parent.size() * sizeof(int32_t);
  }
  return bytes;
}

std::string QueryExplain::ToJson() const {
  char buf[192];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"instantiations\":%zu,\"orderings\":%zu,\"pruned\":%zu,"
                "\"sequences\":%zu,",
                instantiations, orderings, pruned, sequences);
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "\"plan_cache_hit\":%s,\"result_cache_hit\":%s,"
                "\"truncated\":%s,",
                plan_cache_hit ? "true" : "false",
                result_cache_hit ? "true" : "false",
                truncated ? "true" : "false");
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "\"predicted_cost\":%" PRIu64 ",\"actual_cost\":%" PRIu64
                ",\"compile_us\":%" PRId64 ",\"match_us\":%" PRId64
                ",\"result_docs\":%zu,",
                predicted_cost, actual_cost, compile_micros, match_micros,
                result_docs);
  out.append(buf);
  out.append("\"seq\":[");
  for (size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) out.push_back(',');
    std::snprintf(buf, sizeof(buf),
                  "{\"positions\":%u,\"anchor\":%u,\"anchor_cardinality\":%"
                  PRIu64 ",\"shard\":%d}",
                  seq[i].positions, seq[i].anchor, seq[i].anchor_cardinality,
                  seq[i].shard);
    out.append(buf);
  }
  out.append("],\"shards\":[");
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out.push_back(',');
    std::snprintf(buf, sizeof(buf),
                  "{\"shard\":%d,\"docs\":%" PRIu64 ",\"entries_read\":%"
                  PRIu64 ",\"micros\":%" PRId64 "}",
                  shards[i].shard, shards[i].docs, shards[i].entries_read,
                  shards[i].micros);
    out.append(buf);
  }
  out.append("]}");
  return out;
}

std::string QueryExplain::ToString() const {
  char buf[192];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "plan: %zu instantiation(s), %zu ordering(s), %zu pruned, "
                "%zu sequence(s)%s%s%s\n",
                instantiations, orderings, pruned, sequences,
                plan_cache_hit ? " [plan cache hit]" : "",
                result_cache_hit ? " [result cache hit]" : "",
                truncated ? " [truncated]" : "");
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "cost: predicted %" PRIu64 " entries, actual %" PRIu64
                " read; compile %" PRId64 " us, match %" PRId64
                " us, %zu doc(s)\n",
                predicted_cost, actual_cost, compile_micros, match_micros,
                result_docs);
  out.append(buf);
  for (size_t i = 0; i < seq.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "  seq %zu: %u position(s), anchor @%u (cardinality %"
                  PRIu64 ")",
                  i, seq[i].positions, seq[i].anchor,
                  seq[i].anchor_cardinality);
    out.append(buf);
    if (seq[i].shard >= 0) {
      std::snprintf(buf, sizeof(buf), ", shard %d", seq[i].shard);
      out.append(buf);
    }
    out.push_back('\n');
  }
  for (const ShardBreakdown& s : shards) {
    std::snprintf(buf, sizeof(buf),
                  "  shard %d: %" PRIu64 " doc(s), %" PRIu64
                  " entries read, %" PRId64 " us\n",
                  s.shard, s.docs, s.entries_read, s.micros);
    out.append(buf);
  }
  return out;
}

uint64_t QueryPlanner::PredictedOrderings(const ConcreteQuery& query,
                                          uint64_t cap) {
  if (query.tree.root() == nullptr || cap == 0) return 0;
  uint64_t acc = 1;
  OrderingsRec(query.tree.root(), query.paths, cap, &acc);
  return acc;
}

uint64_t QueryPlanner::EstimatedMatchCost(const ConcreteQuery& query) const {
  uint64_t cost = 0;
  for (PathId p : query.paths) {
    uint64_t c = Cardinality(p);
    if (schema_ != nullptr && schema_->MayRepeat(p)) {
      c = SatAdd(c, c);  // sibling-cover checks roughly double the work
    }
    cost = SatAdd(cost, c);
  }
  return cost;
}

QueryPlanner::SeqSelectivity QueryPlanner::Selectivity(
    const QuerySeq& seq) const {
  SeqSelectivity out;
  if (seq.paths.empty()) return out;
  out.anchor = AnchorPosition(seq, [this](PathId p) { return Cardinality(p); });
  out.min_cardinality = Cardinality(seq.paths[out.anchor]);
  return out;
}

std::vector<uint32_t> QueryPlanner::PartOrder(
    const std::vector<QuerySeq>& seqs) const {
  std::vector<std::pair<uint64_t, uint32_t>> keyed;  // (min card, position)
  keyed.reserve(seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    const uint64_t c = Selectivity(seqs[i]).min_cardinality;
    // A zero-occurrence position can never be matched.
    if (c == 0 && !seqs[i].paths.empty()) continue;
    keyed.emplace_back(c, static_cast<uint32_t>(i));
  }
  // Stable on the original position so equal-selectivity sequences keep
  // their compile order (determinism under replay).
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<uint32_t> order;
  order.reserve(keyed.size());
  for (const auto& [c, i] : keyed) {
    (void)c;
    order.push_back(i);
  }
  return order;
}

size_t QueryPlanner::OrderBySelectivity(std::vector<QuerySeq>* seqs) const {
  const std::vector<uint32_t> order = PartOrder(*seqs);
  std::vector<QuerySeq> out;
  out.reserve(order.size());
  for (uint32_t i : order) out.push_back(std::move((*seqs)[i]));
  const size_t dropped = seqs->size() - out.size();
  *seqs = std::move(out);
  return dropped;
}

}  // namespace xseq
