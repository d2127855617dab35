#include "src/vindex/compare.h"

#include <algorithm>
#include <functional>

namespace xseq {

namespace {

/// A step with its name resolved against one index's NameTable. A named
/// step whose name the table has never seen matches nothing there.
struct ResolvedStep {
  bool descendant = false;
  bool wildcard = false;
  NameId name = Interner::kInvalidId;
};

/// Resolves cmp.steps against `names`; false when a named step is unknown
/// (the comparison is unsatisfiable in that index).
bool ResolveSteps(const std::vector<ValueComparison::Step>& steps,
                  const NameTable& names, std::vector<ResolvedStep>* out) {
  out->clear();
  out->reserve(steps.size());
  for (const ValueComparison::Step& s : steps) {
    ResolvedStep r;
    r.descendant = s.descendant;
    r.wildcard = s.wildcard;
    if (!s.wildcard) {
      r.name = names.Find(s.name);
      if (r.name == Interner::kInvalidId) return false;
    }
    out->push_back(r);
  }
  return true;
}

ValueComparison::Step StepOf(const PatternNode& n) {
  ValueComparison::Step s;
  s.descendant = n.axis == PatternNode::Axis::kDescendant;
  s.wildcard = n.test == PatternNode::Test::kWildcard;
  if (!s.wildcard) s.name = n.name;
  return s;
}

std::unique_ptr<PatternNode> CloneRec(
    const PatternNode* n, std::vector<ValueComparison::Step>* chain,
    std::vector<ValueComparison>* out) {
  auto copy = std::make_unique<PatternNode>();
  copy->axis = n->axis;
  copy->test = n->test;
  copy->name = n->name;
  copy->value = n->value;
  copy->op = n->op;
  for (const auto& c : n->children) {
    if (c->test == PatternNode::Test::kValueCompare) {
      ValueComparison vc;
      vc.steps = *chain;
      vc.op = c->op;
      vc.literal = TypedValue::Of(c->value);
      out->push_back(std::move(vc));
      continue;
    }
    if (c->test == PatternNode::Test::kName ||
        c->test == PatternNode::Test::kWildcard) {
      chain->push_back(StepOf(*c));
      copy->children.push_back(CloneRec(c.get(), chain, out));
      chain->pop_back();
    } else {
      // Value leaves carry no comparisons below them.
      copy->children.push_back(CloneRec(c.get(), chain, out));
    }
  }
  return copy;
}

/// Every element path whose root chain matches the resolved steps,
/// ascending and distinct: one frontier per step, a '//' step answered by
/// the dictionary's element order.
std::vector<PathId> EnumerateHosts(const PathDict& dict,
                                   const std::vector<ResolvedStep>& steps) {
  std::vector<PathId> frontier = {kEpsilonPath};
  std::vector<PathId> next;
  for (const ResolvedStep& st : steps) {
    next.clear();
    for (PathId p : frontier) {
      if (st.descendant) {
        std::span<const PathId> below =
            st.wildcard ? dict.DescendantElements(p)
                        : dict.DescendantsNamed(p, st.name);
        next.insert(next.end(), below.begin(), below.end());
      } else if (st.wildcard) {
        for (PathId c = dict.FirstChild(p); c != kInvalidPath;
             c = dict.NextSibling(c)) {
          if (dict.sym(c).is_name()) next.push_back(c);
        }
      } else {
        PathId c = dict.Find(p, Sym::ForName(st.name));
        if (c != kInvalidPath) next.push_back(c);
      }
    }
    // Nested frontier paths reach the same paths through a '//' step.
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier.swap(next);
  }
  return frontier;
}

/// Document-tree twin of EnumerateHosts + Collect.
struct DocMatcher {
  const std::vector<ResolvedStep>& steps;
  const ValueComparison& cmp;

  bool HostHasValue(const Node* host) const {
    for (const Node* c = host->first_child; c != nullptr;
         c = c->next_sibling) {
      if (!c->is_value() || c->text == nullptr) continue;
      if (ValueSatisfies(c->text, cmp.op, cmp.literal)) return true;
    }
    return false;
  }

  bool AtParent(const Node* parent, size_t i) const {
    if (i == steps.size()) return HostHasValue(parent);
    return OverChildren(parent->first_child, i);
  }

  bool OverChildren(const Node* first, size_t i) const {
    const ResolvedStep& st = steps[i];
    for (const Node* c = first; c != nullptr; c = c->next_sibling) {
      if (!c->sym.is_name()) continue;
      if ((st.wildcard || c->sym.id() == st.name) && AtParent(c, i + 1)) {
        return true;
      }
      // '//' may pass through c: keep looking for step i below it.
      if (st.descendant && OverChildren(c->first_child, i)) return true;
    }
    return false;
  }
};

}  // namespace

bool HasComparisons(const QueryPattern& pattern) {
  std::function<bool(const PatternNode*)> rec =
      [&rec](const PatternNode* n) -> bool {
    if (n->test == PatternNode::Test::kValueCompare) return true;
    for (const auto& c : n->children) {
      if (rec(c.get())) return true;
    }
    return false;
  };
  return pattern.root != nullptr && rec(pattern.root.get());
}

QueryPattern StripComparisons(const QueryPattern& pattern,
                              std::vector<ValueComparison>* out) {
  QueryPattern skeleton;
  skeleton.source = pattern.source;
  if (pattern.root == nullptr) return skeleton;
  std::vector<ValueComparison::Step> chain;
  skeleton.root = CloneRec(pattern.root.get(), &chain, out);
  return skeleton;
}

bool ComparisonImpliesSkeleton(const QueryPattern& skeleton,
                               const std::vector<ValueComparison>& cmps) {
  if (skeleton.root == nullptr) return false;
  std::vector<ValueComparison::Step> chain;
  for (const PatternNode* n = skeleton.root.get(); !n->children.empty();) {
    if (n->children.size() != 1) return false;  // branching skeleton
    n = n->children.front().get();
    if (n->test != PatternNode::Test::kName &&
        n->test != PatternNode::Test::kWildcard) {
      return false;  // value constraints are not implied by candidacy
    }
    chain.push_back(StepOf(*n));
  }
  if (chain.empty()) return false;
  for (const ValueComparison& c : cmps) {
    if (c.steps.size() != chain.size()) continue;
    bool same = true;
    for (size_t i = 0; i < chain.size() && same; ++i) {
      same = c.steps[i].descendant == chain[i].descendant &&
             c.steps[i].wildcard == chain[i].wildcard &&
             c.steps[i].name == chain[i].name;
    }
    if (same) return true;
  }
  return false;
}

std::vector<PathId> ComparisonHosts(const PathDict& dict,
                                    const NameTable& names,
                                    const ValueComparison& cmp) {
  std::vector<ResolvedStep> steps;
  if (!ResolveSteps(cmp.steps, names, &steps)) return {};
  return EnumerateHosts(dict, steps);
}

std::vector<DocId> CandidateDocs(const ValueIndex& vindex,
                                 const PathDict& dict,
                                 const NameTable& names,
                                 const ValueComparison& cmp,
                                 uint64_t* probes, uint64_t* candidates) {
  std::vector<DocId> docs;
  std::vector<PathId> hosts = ComparisonHosts(dict, names, cmp);
  for (PathId h : hosts) {
    vindex.Collect(h, cmp.op, cmp.literal, &docs);
  }
  if (probes != nullptr) *probes += hosts.size();
  if (candidates != nullptr) *candidates += docs.size();
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  return docs;
}

bool DocMatchesComparison(const Document& doc, const NameTable& names,
                          const ValueComparison& cmp) {
  const Node* root = doc.root();
  if (root == nullptr) return false;
  std::vector<ResolvedStep> steps;
  if (!ResolveSteps(cmp.steps, names, &steps)) return false;
  DocMatcher m{steps, cmp};
  if (steps.empty()) return false;  // comparisons always have a host step
  return m.OverChildren(root, 0);
}

bool DocMatchesComparisons(const Document& doc, const NameTable& names,
                           const std::vector<ValueComparison>& cmps) {
  for (const ValueComparison& c : cmps) {
    if (!DocMatchesComparison(doc, names, c)) return false;
  }
  return true;
}

}  // namespace xseq
