#include "src/query/instantiate.h"

#include <functional>

#include "src/xml/value_chain.h"

namespace xseq {

namespace {

/// Pattern nodes flattened in pre-order with parent indices, so assignments
/// can be rolled through a simple DFS product enumeration.
struct FlatPattern {
  std::vector<const PatternNode*> nodes;
  std::vector<int32_t> parent;  // index into nodes, -1 for top nodes
};

void FlattenRec(const PatternNode* n, int32_t parent, FlatPattern* out) {
  int32_t me = static_cast<int32_t>(out->nodes.size());
  out->nodes.push_back(n);
  out->parent.push_back(parent);
  for (const auto& c : n->children) FlattenRec(c.get(), me, out);
}

/// Rejects a descendant-axis node that tests a value: '//' resolves
/// against element paths only, and the parser never builds such a node.
Status CheckDescendantTest(const PatternNode& pn) {
  using Test = PatternNode::Test;
  if (pn.axis != PatternNode::Axis::kDescendant || pn.test == Test::kName ||
      pn.test == Test::kWildcard) {
    return Status::OK();
  }
  std::string msg = "'//' must be followed by a name or '*', not the ";
  msg += pn.test == Test::kValue         ? "value"
         : pn.test == Test::kValuePrefix ? "starts-with()"
                                         : "comparison";
  msg += " test '";
  msg += pn.value;
  msg += "'";
  return Status::InvalidArgument(msg);
}

/// Walks `text`'s character chain below `parent` in the dictionary,
/// optionally closing with the terminator. Returns the final PathId or
/// kInvalidPath when any step is missing.
PathId WalkCharChain(const PathDict& dict, PathId parent,
                     std::string_view text, bool with_terminator) {
  PathId cur = parent;
  for (unsigned char c : text) {
    cur = dict.Find(cur, Sym::ForValue(static_cast<ValueId>(c)));
    if (cur == kInvalidPath) return kInvalidPath;
  }
  if (with_terminator) {
    cur = dict.Find(cur, Sym::ForValue(kChainTerminator));
  }
  return cur;
}

}  // namespace

StatusOr<InstantiateResult> InstantiatePattern(
    const QueryPattern& pattern, const PathDict& dict, const NameTable& names,
    const ValueEncoder& values, const InstantiateOptions& options) {
  InstantiateResult result;
  if (pattern.root == nullptr || pattern.root->children.empty()) {
    return Status::InvalidArgument("pattern has no steps");
  }
  if (pattern.root->children.size() > 1) {
    return Status::Unimplemented(
        "patterns with multiple top-level branches are not supported");
  }

  const bool chain_mode = values.mode() == ValueMode::kCharSequence;

  FlatPattern flat;
  FlattenRec(pattern.root->children[0].get(), -1, &flat);
  size_t n = flat.nodes.size();
  for (const PatternNode* pn : flat.nodes) {
    XSEQ_RETURN_IF_ERROR(CheckDescendantTest(*pn));
  }

  // Resolve the name / value of each pattern node once. Unknown names or
  // values make the whole pattern unsatisfiable. For prefix tests in exact
  // mode, precompute the matching value designators.
  std::vector<NameId> want_name(n, Interner::kInvalidId);
  std::vector<ValueId> want_value(n, Interner::kInvalidId);
  std::vector<std::vector<ValueId>> prefix_values(n);
  for (size_t i = 0; i < n; ++i) {
    const PatternNode& pn = *flat.nodes[i];
    switch (pn.test) {
      case PatternNode::Test::kName:
        want_name[i] = names.Find(pn.name);
        if (want_name[i] == Interner::kInvalidId) return result;  // empty
        break;
      case PatternNode::Test::kValue:
        if (chain_mode) break;  // resolved by chain walking
        want_value[i] = values.EncodeForLookup(pn.value);
        if (want_value[i] == Interner::kInvalidId) return result;  // empty
        break;
      case PatternNode::Test::kValuePrefix:
        if (chain_mode) break;
        if (values.mode() == ValueMode::kHashed) {
          return Status::Unimplemented(
              "starts-with() requires exact or char-sequence value mode "
              "(hashed designators lose the value text)");
        }
        for (ValueId v = 0; v < values.size(); ++v) {
          if (values.Lookup(v).starts_with(pn.value)) {
            prefix_values[i].push_back(v);
          }
        }
        if (prefix_values[i].empty()) return result;  // empty
        break;
      case PatternNode::Test::kValueCompare:
        // The executor rewrites comparison predicates into a skeleton
        // pattern plus value-index probes before instantiating; reaching
        // one here means a caller skipped that rewrite.
        return Status::InvalidArgument(
            "comparison predicates cannot be instantiated directly; strip "
            "them with StripComparisons() and intersect with the value "
            "index");
      case PatternNode::Test::kWildcard:
        break;
    }
  }

  std::vector<PathId> assignment(n, kInvalidPath);

  // Emits the concrete tree for the current assignment: every pattern node
  // contributes the chain of dictionary steps between its parent's path and
  // its own path (wildcard expansions and character chains materialize the
  // intermediate nodes). Chains are never shared between sibling branches.
  auto emit = [&]() {
    ConcreteQuery cq;
    std::vector<Node*> node_of(n, nullptr);
    auto attach_chain = [&](Node* from, PathId from_path,
                            PathId to_path) -> Node* {
      std::vector<PathId> chain;
      for (PathId p = to_path; p != from_path; p = dict.parent(p)) {
        chain.push_back(p);
      }
      Node* cur = from;
      for (size_t k = chain.size(); k-- > 0;) {
        Sym s = dict.sym(chain[k]);
        Node* nn = s.is_value() ? cq.tree.CreateValue(s.id())
                                : cq.tree.CreateElement(s.id());
        cq.paths.push_back(chain[k]);
        if (cur == nullptr) {
          cq.tree.SetRoot(nn);
        } else {
          cq.tree.AppendChild(cur, nn);
        }
        cur = nn;
      }
      return cur;
    };

    for (size_t i = 0; i < n; ++i) {
      Node* parent_node =
          flat.parent[i] == -1 ? nullptr
                               : node_of[static_cast<size_t>(flat.parent[i])];
      PathId parent_path =
          flat.parent[i] == -1
              ? kEpsilonPath
              : assignment[static_cast<size_t>(flat.parent[i])];
      node_of[i] = attach_chain(parent_node, parent_path, assignment[i]);
    }
    result.queries.push_back(std::move(cq));
  };

  // Pruning predicate wrapper: counts every candidate it rejects.
  auto viable = [&](PathId p) -> bool {
    if (!options.viable || options.viable(p)) return true;
    ++result.pruned;
    return false;
  };

  // Candidate enumeration per pattern node given the parent's path.
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == n) {
      if (result.queries.size() >= options.max_instantiations) {
        result.truncated = true;
        return false;  // stop enumeration
      }
      emit();
      return true;
    }
    const PatternNode& pn = *flat.nodes[i];
    PathId parent_path =
        flat.parent[i] == -1
            ? kEpsilonPath
            : assignment[static_cast<size_t>(flat.parent[i])];

    if (pn.axis == PatternNode::Axis::kChild) {
      switch (pn.test) {
        case PatternNode::Test::kWildcard: {
          for (PathId c = dict.FirstChild(parent_path); c != kInvalidPath;
               c = dict.NextSibling(c)) {
            if (!dict.sym(c).is_name()) continue;
            if (!viable(c)) continue;
            assignment[i] = c;
            if (!rec(i + 1)) return false;
          }
          return true;
        }
        case PatternNode::Test::kName: {
          PathId c = dict.Find(parent_path, Sym::ForName(want_name[i]));
          if (c == kInvalidPath || !viable(c)) return true;  // dead branch
          assignment[i] = c;
          return rec(i + 1);
        }
        case PatternNode::Test::kValue: {
          PathId c =
              chain_mode
                  ? WalkCharChain(dict, parent_path, pn.value,
                                  /*with_terminator=*/true)
                  : dict.Find(parent_path, Sym::ForValue(want_value[i]));
          if (c == kInvalidPath || !viable(c)) return true;  // dead branch
          assignment[i] = c;
          return rec(i + 1);
        }
        case PatternNode::Test::kValuePrefix: {
          if (chain_mode) {
            PathId c = WalkCharChain(dict, parent_path, pn.value,
                                     /*with_terminator=*/false);
            if (c == kInvalidPath || !viable(c)) return true;
            assignment[i] = c;
            return rec(i + 1);
          }
          for (ValueId v : prefix_values[i]) {
            PathId c = dict.Find(parent_path, Sym::ForValue(v));
            if (c == kInvalidPath || !viable(c)) continue;
            assignment[i] = c;
            if (!rec(i + 1)) return false;
          }
          return true;
        }
        case PatternNode::Test::kValueCompare:
          return true;  // rejected above; unreachable
      }
      return true;
    }

    // Descendant axis (a name or '*', checked above): the element paths
    // strictly below parent_path that pass the test, in the dictionary's
    // element order.
    std::span<const PathId> below =
        pn.test == PatternNode::Test::kWildcard
            ? dict.DescendantElements(parent_path)
            : dict.DescendantsNamed(parent_path, want_name[i]);
    for (PathId p : below) {
      if (!viable(p)) continue;
      assignment[i] = p;
      if (!rec(i + 1)) return false;
    }
    return true;
  };

  rec(0);
  return result;
}

}  // namespace xseq
