#include "src/seq/path_dict.h"

#include <algorithm>

namespace xseq {

std::vector<Sym> PathDict::Steps(PathId p) const {
  std::vector<Sym> steps;
  while (p != kEpsilonPath && p != kInvalidPath) {
    steps.push_back(entries_[p].sym);
    p = entries_[p].parent;
  }
  std::reverse(steps.begin(), steps.end());
  return steps;
}

std::string PathDict::ToString(PathId p, const NameTable& names) const {
  if (p == kEpsilonPath) return "/";
  std::string out;
  for (Sym s : Steps(p)) {
    if (s.is_value()) {
      out += "=v";
      out += std::to_string(s.id());
    } else {
      out += '/';
      out += names.Lookup(s.id());
    }
  }
  return out;
}

void PathDict::EncodeTo(std::string* dst) const {
  PutFixed64(dst, entries_.size() - 1);
  for (size_t i = 1; i < entries_.size(); ++i) {
    PutFixed32(dst, entries_[i].parent);
    PutFixed32(dst, entries_[i].sym.raw());
  }
}

StatusOr<PathDict> PathDict::DecodeFrom(Decoder* in) {
  PathDict out;
  uint64_t n = 0;  // GCC can't see GetFixed64 under ASan
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t parent = 0, raw = 0;  // GCC can't see GetFixed32 under TSan
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&parent));
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&raw));
    if (parent >= out.entries_.size()) {
      return Status::Corruption("path dictionary parent out of range");
    }
    out.Intern(parent, Sym::FromRaw(raw));
  }
  return out;
}

PathId PathDict::Resolve(std::string_view slash_path,
                         const NameTable& names) const {
  PathId cur = kEpsilonPath;
  size_t i = 0;
  while (i < slash_path.size()) {
    if (slash_path[i] == '/') {
      ++i;
      continue;
    }
    size_t end = slash_path.find('/', i);
    if (end == std::string_view::npos) end = slash_path.size();
    NameId name = names.Find(slash_path.substr(i, end - i));
    if (name == Interner::kInvalidId) return kInvalidPath;
    cur = Find(cur, Sym::ForName(name));
    if (cur == kInvalidPath) return kInvalidPath;
    i = end;
  }
  return cur == kEpsilonPath ? kInvalidPath : cur;
}

std::unique_ptr<const PathDict::ElementOrder> PathDict::BuildElementOrder()
    const {
  const size_t n = entries_.size();
  // Element-subtree sizes: 1 per element path, summed into its parent.
  // Parents are interned before their children, so one ascending pass
  // marks the element tree and one descending pass sums it.
  std::vector<uint32_t> size(n, 0);
  size[kEpsilonPath] = 1;
  for (PathId p = 1; p < n; ++p) {
    if (entries_[p].sym.is_name() && size[entries_[p].parent] != 0) {
      size[p] = 1;
    }
  }
  for (PathId p = static_cast<PathId>(n); p-- > 1;) {
    if (size[p] != 0) size[entries_[p].parent] += size[p];
  }

  // Pre-order ranks and per-name postings. Child lists run newest (highest
  // id) first, so pushing them in list order pops the lowest id first.
  auto order = std::make_unique<ElementOrder>();
  order->rank.assign(n, ElementOrder::kNoRank);
  std::vector<PathId> stack = {kEpsilonPath};
  while (!stack.empty()) {
    PathId p = stack.back();
    stack.pop_back();
    const uint32_t r = static_cast<uint32_t>(order->path.size());
    order->rank[p] = r;
    order->path.push_back(p);
    order->end.push_back(r + size[p]);
    if (p != kEpsilonPath) {
      const NameId name = entries_[p].sym.id();
      if (name >= order->by_name.size()) order->by_name.resize(name + 1);
      order->by_name[name].push_back(p);
    }
    for (PathId c = entries_[p].first_child; c != kInvalidPath;
         c = entries_[c].next_sibling) {
      if (size[c] != 0) stack.push_back(c);
    }
  }
  return order;
}

const PathDict::ElementOrder& PathDict::OrderCache::Get(
    const PathDict& dict) {
  std::lock_guard<std::mutex> lock(mu_);
  if (owned_ == nullptr) owned_ = dict.BuildElementOrder();
  return *owned_;
}

std::span<const PathId> PathDict::DescendantElements(PathId p) const {
  const ElementOrder& o = order_.Get(*this);
  const uint32_t r = o.rank[p];
  if (r == ElementOrder::kNoRank) return {};
  return std::span<const PathId>(o.path).subspan(r + 1, o.end[r] - r - 1);
}

std::span<const PathId> PathDict::DescendantsNamed(PathId p,
                                                   NameId name) const {
  const ElementOrder& o = order_.Get(*this);
  const uint32_t r = o.rank[p];
  if (r == ElementOrder::kNoRank || name >= o.by_name.size()) return {};
  const std::vector<PathId>& postings = o.by_name[name];
  auto rank_below = [&o](PathId q, uint32_t bound) {
    return o.rank[q] < bound;
  };
  auto lo = std::lower_bound(postings.begin(), postings.end(), r + 1,
                             rank_below);
  auto hi = std::lower_bound(lo, postings.end(), o.end[r], rank_below);
  return std::span<const PathId>(lo, hi);
}

namespace {

void BindRec(const Node* n, PathId parent_path, PathDict* dict,
             std::vector<PathId>* out) {
  PathId p = dict->Intern(parent_path, n->sym);
  (*out)[n->index] = p;
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    BindRec(c, p, dict, out);
  }
}

void FindRec(const Node* n, PathId parent_path, const PathDict& dict,
             std::vector<PathId>* out) {
  PathId p = parent_path == kInvalidPath
                 ? kInvalidPath
                 : dict.Find(parent_path, n->sym);
  (*out)[n->index] = p;
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    FindRec(c, p, dict, out);
  }
}

}  // namespace

std::vector<PathId> BindPaths(const Document& doc, PathDict* dict) {
  std::vector<PathId> out(doc.node_count(), kInvalidPath);
  if (doc.root() != nullptr) BindRec(doc.root(), kEpsilonPath, dict, &out);
  return out;
}

std::vector<PathId> FindPaths(const Document& doc, const PathDict& dict) {
  std::vector<PathId> out(doc.node_count(), kInvalidPath);
  if (doc.root() != nullptr) FindRec(doc.root(), kEpsilonPath, dict, &out);
  return out;
}

}  // namespace xseq
