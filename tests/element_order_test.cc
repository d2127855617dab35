// Element-order tests. '//name' and '//*' steps are resolved from the path
// dictionary's pre-order ranks and per-name postings; that must equal the
// depth-first walk over the dictionary trie it replaced, tree for tree and
// host for host, on every corpus and in every value mode. The order must
// also follow a dictionary that keeps growing, survive copies, and reject
// descendant steps that test a value.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/collection_index.h"
#include "src/gen/dblp.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "src/query/instantiate.h"
#include "src/vindex/compare.h"
#include "src/xml/value_chain.h"

namespace xseq {
namespace {

using NodeTest = PatternNode::Test;

std::vector<PathId> Ids(std::span<const PathId> s) {
  return std::vector<PathId>(s.begin(), s.end());
}

// --- PathDict element order -----------------------------------------------

TEST(ElementOrder, PreOrderAscendingIdsWithoutValuePaths) {
  PathDict dict;
  const Sym a = Sym::ForName(0), b = Sym::ForName(1), c = Sym::ForName(2);
  PathId pa = dict.Intern(kEpsilonPath, a);  // /a
  PathId pc = dict.Intern(pa, c);            // /a/c
  PathId pb = dict.Intern(pa, b);            // /a/b
  PathId pv = dict.Intern(pc, Sym::ForValue(7));  // /a/c=v7
  PathId pcb = dict.Intern(pc, b);           // /a/c/b
  PathId pbb = dict.Intern(pb, b);           // /a/b/b
  // A name under a value never comes from a document; it is not an element
  // path and is never returned.
  PathId under_value = dict.Intern(pv, b);

  EXPECT_EQ(Ids(dict.DescendantElements(kEpsilonPath)),
            (std::vector<PathId>{pa, pc, pcb, pb, pbb}));
  EXPECT_EQ(Ids(dict.DescendantElements(pa)),
            (std::vector<PathId>{pc, pcb, pb, pbb}));
  EXPECT_EQ(Ids(dict.DescendantElements(pcb)), std::vector<PathId>{});
  EXPECT_EQ(Ids(dict.DescendantsNamed(kEpsilonPath, 1)),
            (std::vector<PathId>{pcb, pb, pbb}));
  EXPECT_EQ(Ids(dict.DescendantsNamed(pb, 1)), std::vector<PathId>{pbb});
  EXPECT_EQ(Ids(dict.DescendantsNamed(pc, 1)), std::vector<PathId>{pcb});
  EXPECT_EQ(Ids(dict.DescendantsNamed(pa, 0)), std::vector<PathId>{});
  // Unknown names and value paths have no element descendants.
  EXPECT_TRUE(dict.DescendantsNamed(kEpsilonPath, 99).empty());
  EXPECT_TRUE(dict.DescendantElements(pv).empty());
  EXPECT_TRUE(dict.DescendantsNamed(pv, 1).empty());
  EXPECT_TRUE(dict.DescendantElements(under_value).empty());
}

TEST(ElementOrder, InternAfterLookupIsSeenOnTheNextLookup) {
  PathDict dict;
  PathId a = dict.Intern(kEpsilonPath, Sym::ForName(0));
  PathId b = dict.Intern(a, Sym::ForName(1));
  EXPECT_EQ(Ids(dict.DescendantsNamed(kEpsilonPath, 1)),
            std::vector<PathId>{b});
  PathId bb = dict.Intern(b, Sym::ForName(1));
  PathId c = dict.Intern(kEpsilonPath, Sym::ForName(2));
  PathId cb = dict.Intern(c, Sym::ForName(1));
  EXPECT_EQ(Ids(dict.DescendantsNamed(kEpsilonPath, 1)),
            (std::vector<PathId>{b, bb, cb}));
  EXPECT_EQ(Ids(dict.DescendantElements(kEpsilonPath)),
            (std::vector<PathId>{a, b, bb, c, cb}));
  // Re-interning a known path changes nothing.
  EXPECT_EQ(dict.Intern(a, Sym::ForName(1)), b);
  EXPECT_EQ(Ids(dict.DescendantElements(a)), (std::vector<PathId>{b, bb}));
}

TEST(ElementOrder, CopiesAnswerForTheirOwnPaths) {
  PathDict dict;
  PathId a = dict.Intern(kEpsilonPath, Sym::ForName(0));
  PathId b = dict.Intern(a, Sym::ForName(1));
  ASSERT_EQ(Ids(dict.DescendantElements(kEpsilonPath)),
            (std::vector<PathId>{a, b}));
  PathDict copy = dict;
  PathId c = copy.Intern(b, Sym::ForName(1));
  EXPECT_EQ(Ids(copy.DescendantsNamed(kEpsilonPath, 1)),
            (std::vector<PathId>{b, c}));
  EXPECT_EQ(Ids(dict.DescendantsNamed(kEpsilonPath, 1)),
            std::vector<PathId>{b});
  PathDict moved = std::move(copy);
  EXPECT_EQ(Ids(moved.DescendantElements(a)), (std::vector<PathId>{b, c}));
}

// --- Robustness -----------------------------------------------------------

QueryPattern PatternWithDescendantTest(NodeTest test, const std::string& text) {
  QueryPattern pattern;
  pattern.root = std::make_unique<PatternNode>();
  auto a = std::make_unique<PatternNode>();
  a->name = "a";
  auto v = std::make_unique<PatternNode>();
  v->axis = PatternNode::Axis::kDescendant;
  v->test = test;
  v->value = text;
  a->children.push_back(std::move(v));
  pattern.root->children.push_back(std::move(a));
  return pattern;
}

TEST(ElementOrder, DescendantValueTestIsInvalidArgument) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  NameId a = names.Intern("a");
  PathId pa = dict.Intern(kEpsilonPath, Sym::ForName(a));
  dict.Intern(pa, Sym::ForValue(values.Encode("v")));
  struct Case {
    NodeTest test;
    const char* kind;
  };
  for (Case c : {Case{NodeTest::kValue, "value"},
                 Case{NodeTest::kValuePrefix, "starts-with()"},
                 Case{NodeTest::kValueCompare, "comparison"}}) {
    auto r = InstantiatePattern(PatternWithDescendantTest(c.test, "v"), dict,
                                names, values);
    ASSERT_FALSE(r.ok()) << c.kind;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().message().find(c.kind), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("'v'"), std::string::npos)
        << r.status().ToString();
  }
}

// --- Reference: the depth-first instantiation the element order replaced --

struct RefResult {
  std::vector<std::vector<PathId>> paths;  ///< per tree, as ConcreteQuery
  bool truncated = false;
  size_t pruned = 0;
};

RefResult RefInstantiate(const QueryPattern& pattern, const PathDict& dict,
                         const NameTable& names, const ValueEncoder& values,
                         const InstantiateOptions& options) {
  RefResult out;
  std::vector<const PatternNode*> nodes;
  std::vector<int32_t> parent;
  std::function<void(const PatternNode*, int32_t)> flatten =
      [&](const PatternNode* n, int32_t up) {
        int32_t me = static_cast<int32_t>(nodes.size());
        nodes.push_back(n);
        parent.push_back(up);
        for (const auto& c : n->children) flatten(c.get(), me);
      };
  flatten(pattern.root->children[0].get(), -1);
  const size_t n = nodes.size();
  const bool chain_mode = values.mode() == ValueMode::kCharSequence;
  std::vector<NameId> want_name(n, Interner::kInvalidId);
  std::vector<ValueId> want_value(n, Interner::kInvalidId);
  for (size_t i = 0; i < n; ++i) {
    if (nodes[i]->test == NodeTest::kName) {
      want_name[i] = names.Find(nodes[i]->name);
      if (want_name[i] == Interner::kInvalidId) return out;
    } else if (nodes[i]->test == NodeTest::kValue && !chain_mode) {
      want_value[i] = values.EncodeForLookup(nodes[i]->value);
      if (want_value[i] == Interner::kInvalidId) return out;
    }
  }
  std::vector<PathId> assignment(n, kInvalidPath);
  auto from_of = [&](size_t i) {
    return parent[i] == -1 ? kEpsilonPath
                           : assignment[static_cast<size_t>(parent[i])];
  };
  auto viable = [&](PathId p) {
    if (!options.viable || options.viable(p)) return true;
    ++out.pruned;
    return false;
  };
  auto matches = [&](size_t i, Sym s) {
    switch (nodes[i]->test) {
      case NodeTest::kName:
        return s.is_name() && s.id() == want_name[i];
      case NodeTest::kWildcard:
        return s.is_name();
      case NodeTest::kValue:
        return s.is_value() && s.id() == want_value[i];
      default:
        return false;
    }
  };
  auto char_chain = [&](PathId from, const std::string& text) {
    PathId cur = from;
    for (unsigned char c : text) {
      cur = dict.Find(cur, Sym::ForValue(static_cast<ValueId>(c)));
      if (cur == kInvalidPath) return kInvalidPath;
    }
    return dict.Find(cur, Sym::ForValue(kChainTerminator));
  };
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == n) {
      if (out.paths.size() >= options.max_instantiations) {
        out.truncated = true;
        return false;
      }
      std::vector<PathId> paths;
      for (size_t k = 0; k < n; ++k) {
        std::vector<PathId> chain;
        for (PathId p = assignment[k]; p != from_of(k); p = dict.parent(p)) {
          chain.push_back(p);
        }
        paths.insert(paths.end(), chain.rbegin(), chain.rend());
      }
      out.paths.push_back(std::move(paths));
      return true;
    }
    const PatternNode& pn = *nodes[i];
    const PathId from = from_of(i);
    auto take = [&](PathId p) {
      assignment[i] = p;
      return rec(i + 1);
    };
    if (pn.axis == PatternNode::Axis::kChild) {
      if (pn.test == NodeTest::kWildcard) {
        for (PathId c = dict.FirstChild(from); c != kInvalidPath;
             c = dict.NextSibling(c)) {
          if (!dict.sym(c).is_name() || !viable(c)) continue;
          if (!take(c)) return false;
        }
        return true;
      }
      PathId c = kInvalidPath;
      if (pn.test == NodeTest::kName) {
        c = dict.Find(from, Sym::ForName(want_name[i]));
      } else if (chain_mode) {
        c = char_chain(from, pn.value);
      } else {
        c = dict.Find(from, Sym::ForValue(want_value[i]));
      }
      if (c == kInvalidPath || !viable(c)) return true;
      return take(c);
    }
    std::vector<PathId> stack;
    for (PathId c = dict.FirstChild(from); c != kInvalidPath;
         c = dict.NextSibling(c)) {
      stack.push_back(c);
    }
    while (!stack.empty()) {
      PathId p = stack.back();
      stack.pop_back();
      for (PathId c = dict.FirstChild(p); c != kInvalidPath;
           c = dict.NextSibling(c)) {
        stack.push_back(c);
      }
      if (matches(i, dict.sym(p)) && viable(p) && !take(p)) return false;
    }
    return true;
  };
  rec(0);
  return out;
}

// --- Reference: the recursive host walk the element order replaced --------

struct RefStep {
  bool descendant = false;
  bool wildcard = false;
  NameId name = Interner::kInvalidId;
};

void RefEnumerateHosts(const PathDict& dict, const std::vector<RefStep>& steps,
                       size_t i, PathId p, std::vector<PathId>* hosts) {
  if (i == steps.size()) {
    hosts->push_back(p);
    return;
  }
  const RefStep& st = steps[i];
  for (PathId c = dict.FirstChild(p); c != kInvalidPath;
       c = dict.NextSibling(c)) {
    if (!dict.sym(c).is_name()) continue;
    if (st.wildcard || dict.sym(c).id() == st.name) {
      RefEnumerateHosts(dict, steps, i + 1, c, hosts);
    }
    if (st.descendant) RefEnumerateHosts(dict, steps, i, c, hosts);
  }
}

std::vector<PathId> RefHosts(const PathDict& dict, const NameTable& names,
                             const ValueComparison& cmp) {
  std::vector<RefStep> steps;
  for (const ValueComparison::Step& s : cmp.steps) {
    RefStep r{s.descendant, s.wildcard, Interner::kInvalidId};
    if (!s.wildcard) {
      r.name = names.Find(s.name);
      if (r.name == Interner::kInvalidId) return {};
    }
    steps.push_back(r);
  }
  std::vector<PathId> hosts;
  RefEnumerateHosts(dict, steps, 0, kEpsilonPath, &hosts);
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  return hosts;
}

// --- Corpora and query shapes ---------------------------------------------

enum class Corpus { kHeavySibling, kDepthFirst, kXMark, kDblp };

const char* CorpusName(Corpus c) {
  switch (c) {
    case Corpus::kHeavySibling:
      return "heavy_sibling";
    case Corpus::kDepthFirst:
      return "depth_first";
    case Corpus::kXMark:
      return "xmark";
    case Corpus::kDblp:
      return "dblp";
  }
  return "?";
}

const char* ModeName(ValueMode m) {
  switch (m) {
    case ValueMode::kExact:
      return "exact";
    case ValueMode::kHashed:
      return "hashed";
    case ValueMode::kCharSequence:
      return "chars";
  }
  return "?";
}

CollectionIndex BuildCorpus(Corpus corpus, ValueMode mode) {
  IndexOptions opts;
  opts.value_mode = mode;
  opts.keep_documents = true;
  if (corpus == Corpus::kDepthFirst) {
    opts.sequencer = SequencerKind::kDepthFirst;
  }
  CollectionBuilder builder(opts);
  std::function<Document(DocId)> gen;
  DocId docs = 120;
  std::unique_ptr<SyntheticDataset> synthetic;
  std::unique_ptr<XMarkGenerator> xmark;
  std::unique_ptr<DblpGenerator> dblp;
  switch (corpus) {
    case Corpus::kHeavySibling:
    case Corpus::kDepthFirst: {
      SyntheticParams params;
      params.identical_percent = corpus == Corpus::kHeavySibling ? 85 : 100;
      params.value_percent = 25;
      params.value_vocab = 6;
      synthetic = std::make_unique<SyntheticDataset>(params, builder.names(),
                                                     builder.values());
      gen = [&](DocId d) { return synthetic->Generate(d); };
      break;
    }
    case Corpus::kXMark: {
      XMarkParams params;
      params.persons = 300;
      params.categories = 40;
      params.days = 30;
      xmark = std::make_unique<XMarkGenerator>(params, builder.names(),
                                               builder.values());
      gen = [&](DocId d) { return xmark->Generate(d); };
      docs = 60;
      break;
    }
    case Corpus::kDblp: {
      DblpParams params;
      params.author_pool = 80;
      dblp = std::make_unique<DblpGenerator>(params, builder.names(),
                                             builder.values());
      gen = [&](DocId d) { return dblp->Generate(d); };
      break;
    }
  }
  for (DocId d = 0; d < docs; ++d) {
    EXPECT_TRUE(builder.Add(gen(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  EXPECT_TRUE(idx.ok());
  return std::move(*idx);
}

/// A value node under two element ancestors: root/.../outer/inner='text'.
struct ValueSite {
  std::string root, outer, inner, text;
  bool outer_is_root = false;
};

/// Up to `want` sampled value sites; with `below_root`, only those whose
/// outer element is not the document root.
std::vector<ValueSite> SampleValueSites(const CollectionIndex& idx, Rng* rng,
                                        size_t want, bool below_root) {
  std::vector<ValueSite> sites;
  const auto& docs = idx.documents();
  for (size_t tries = 0; tries < 40 * want && sites.size() < want;
       ++tries) {
    const Document& doc = docs[rng->Uniform(static_cast<uint32_t>(
        docs.size()))];
    const Node* v = doc.nodes()[rng->Uniform(
        static_cast<uint32_t>(doc.node_count()))];
    if (!v->is_value() || v->text == nullptr) continue;
    std::string text = v->text;
    if (text.empty() || text.find('\'') != std::string::npos ||
        text.size() > 40) {
      continue;
    }
    const Node* inner = v->parent;
    if (inner == nullptr || inner->parent == nullptr) continue;
    const Node* outer = inner->parent;
    if (below_root && outer == doc.root()) continue;
    ValueSite s;
    s.root = idx.names().Lookup(doc.root()->sym.id());
    s.outer = idx.names().Lookup(outer->sym.id());
    s.inner = idx.names().Lookup(inner->sym.id());
    s.text = text;
    s.outer_is_root = outer == doc.root();
    sites.push_back(std::move(s));
  }
  return sites;
}

/// Element paths of the dictionary (every step a name), ascending.
std::vector<PathId> ElementPaths(const PathDict& dict) {
  std::vector<PathId> out;
  std::vector<bool> element(dict.size(), false);
  element[kEpsilonPath] = true;
  for (PathId p = 1; p < dict.size(); ++p) {
    element[p] = dict.sym(p).is_name() && element[dict.parent(p)];
    if (element[p]) out.push_back(p);
  }
  return out;
}

/// The step names of up to `want` sampled element paths at least three
/// steps deep.
std::vector<std::vector<std::string>> DeepChains(const CollectionIndex& idx,
                                                 Rng* rng, size_t want) {
  std::vector<PathId> elements = ElementPaths(idx.dict());
  std::vector<std::vector<std::string>> out;
  for (size_t tries = 0; tries < 50 * want && out.size() < want; ++tries) {
    PathId p = elements[rng->Uniform(static_cast<uint32_t>(elements.size()))];
    std::vector<Sym> steps = idx.dict().Steps(p);
    if (steps.size() < 3) continue;
    std::vector<std::string> chain;
    for (Sym s : steps) chain.push_back(idx.names().Lookup(s.id()));
    out.push_back(std::move(chain));
  }
  return out;
}

/// The `//name`, `//*`, `/a//b//c`, `//a/*` and `//a[b='v']` shapes, with
/// names and values drawn from the corpus.
std::vector<std::string> StructuralShapes(const CollectionIndex& idx,
                                          Rng* rng) {
  std::vector<std::string> element_names;
  for (PathId p : ElementPaths(idx.dict())) {
    element_names.push_back(idx.names().Lookup(idx.dict().sym(p).id()));
  }
  std::sort(element_names.begin(), element_names.end());
  element_names.erase(
      std::unique(element_names.begin(), element_names.end()),
      element_names.end());
  std::vector<std::string> out = {"//*"};
  for (const std::string& name : element_names) {
    out.push_back("//" + name);
    out.push_back("//" + name + "/*");
  }
  for (const auto& chain : DeepChains(idx, rng, 8)) {
    size_t mid = 1 + rng->Uniform(static_cast<uint32_t>(chain.size() - 2));
    out.push_back("/" + chain[0] + "//" + chain[mid] + "//" + chain.back());
  }
  for (const ValueSite& s : SampleValueSites(idx, rng, 8, false)) {
    out.push_back("//" + s.outer + "[" + s.inner + "='" + s.text + "']");
  }
  return out;
}

/// The `//x[v < N]`, `/a//b[v > N]` and `//*[v != N]` comparison shapes:
/// over sampled values (N is the value), and over deep element chains,
/// which reach hosts below the top level even where no value sits there.
std::vector<std::string> ComparisonShapes(const CollectionIndex& idx,
                                          Rng* rng) {
  std::vector<ValueSite> sites = SampleValueSites(idx, rng, 8, true);
  for (ValueSite& s : SampleValueSites(idx, rng, 4, false)) {
    sites.push_back(std::move(s));
  }
  for (const auto& chain : DeepChains(idx, rng, 6)) {
    ValueSite s;
    s.root = chain[0];
    s.outer = chain[chain.size() - 2];
    s.inner = chain.back();
    s.text = "50";
    sites.push_back(std::move(s));
  }
  std::vector<std::string> out;
  for (const ValueSite& s : sites) {
    const std::string lit = "'" + s.text + "'";
    out.push_back("//" + s.outer + "[" + s.inner + " < " + lit + "]");
    if (!s.outer_is_root) {
      out.push_back("/" + s.root + "//" + s.outer + "[" + s.inner + " > " +
                    lit + "]");
    }
    out.push_back("//*[" + s.inner + " != " + lit + "]");
  }
  return out;
}

class ElementOrderDifferential
    : public ::testing::TestWithParam<std::tuple<Corpus, ValueMode>> {};

TEST_P(ElementOrderDifferential, InstantiationMatchesDepthFirstWalk) {
  const auto [corpus, mode] = GetParam();
  CollectionIndex idx = BuildCorpus(corpus, mode);
  Rng rng(0xE1E5, static_cast<uint64_t>(corpus) * 3 +
                      static_cast<uint64_t>(mode));
  std::vector<std::string> shapes = StructuralShapes(idx, &rng);

  std::vector<InstantiateOptions> variants(5);
  variants[1].max_instantiations = 1;
  variants[2].max_instantiations = 2;
  variants[3].max_instantiations = 7;
  variants[4].viable = [](PathId p) { return p % 3 != 0; };
  const char* variant_names[5] = {"default", "cap1", "cap2", "cap7",
                                  "viable"};

  size_t multi_tree = 0, truncated = 0, pruned = 0;
  for (const std::string& xpath : shapes) {
    auto pattern = ParseXPath(xpath);
    ASSERT_TRUE(pattern.ok()) << xpath;
    for (size_t v = 0; v < variants.size(); ++v) {
      const std::string what = xpath + " [" + variant_names[v] + "]";
      auto got = InstantiatePattern(*pattern, idx.dict(), idx.names(),
                                    idx.values(), variants[v]);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
      RefResult want = RefInstantiate(*pattern, idx.dict(), idx.names(),
                                      idx.values(), variants[v]);
      ASSERT_EQ(got->queries.size(), want.paths.size()) << what;
      for (size_t t = 0; t < want.paths.size(); ++t) {
        EXPECT_EQ(got->queries[t].paths, want.paths[t]) << what << " #" << t;
        EXPECT_EQ(got->queries[t].tree.node_count(), want.paths[t].size())
            << what << " #" << t;
      }
      EXPECT_EQ(got->truncated, want.truncated) << what;
      EXPECT_EQ(got->pruned, want.pruned) << what;
      if (v == 0 && want.paths.size() > 1) ++multi_tree;
      if (got->truncated) ++truncated;
      pruned += got->pruned;
    }
  }
  // The shapes must exercise ordering, truncation and pruning.
  EXPECT_GT(multi_tree, 0u);
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(pruned, 0u);
}

TEST_P(ElementOrderDifferential, ComparisonHostsMatchRecursiveWalk) {
  const auto [corpus, mode] = GetParam();
  CollectionIndex idx = BuildCorpus(corpus, mode);
  Rng rng(0xC0DE, static_cast<uint64_t>(corpus) * 3 +
                      static_cast<uint64_t>(mode));
  size_t nonempty = 0;
  for (const std::string& xpath : ComparisonShapes(idx, &rng)) {
    auto pattern = ParseXPath(xpath);
    ASSERT_TRUE(pattern.ok()) << xpath;
    std::vector<ValueComparison> cmps;
    StripComparisons(*pattern, &cmps);
    ASSERT_EQ(cmps.size(), 1u) << xpath;
    const ValueComparison& cmp = cmps[0];

    std::vector<PathId> want_hosts = RefHosts(idx.dict(), idx.names(), cmp);
    EXPECT_EQ(ComparisonHosts(idx.dict(), idx.names(), cmp), want_hosts)
        << xpath;
    std::vector<DocId> want_docs;
    for (PathId h : want_hosts) {
      idx.vindex().Collect(h, cmp.op, cmp.literal, &want_docs);
    }
    std::sort(want_docs.begin(), want_docs.end());
    want_docs.erase(std::unique(want_docs.begin(), want_docs.end()),
                    want_docs.end());
    uint64_t probes = 0;
    EXPECT_EQ(CandidateDocs(idx.vindex(), idx.dict(), idx.names(), cmp,
                            &probes, nullptr),
              want_docs)
        << xpath;
    EXPECT_EQ(probes, want_hosts.size()) << xpath;
    if (!want_docs.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpora, ElementOrderDifferential,
    ::testing::Combine(::testing::Values(Corpus::kHeavySibling,
                                         Corpus::kDepthFirst, Corpus::kXMark,
                                         Corpus::kDblp),
                       ::testing::Values(ValueMode::kExact, ValueMode::kHashed,
                                         ValueMode::kCharSequence)),
    [](const ::testing::TestParamInfo<std::tuple<Corpus, ValueMode>>& info) {
      return std::string(CorpusName(std::get<0>(info.param))) + "_" +
             ModeName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace xseq
