#include "src/gen/querygen.h"

#include <string_view>
#include <unordered_map>
#include <vector>

namespace xseq {

QueryPattern SampleQueryPattern(const Document& doc, const NameTable& names,
                                size_t length, Rng* rng,
                                double value_bias) {
  QueryPattern q;
  q.root = std::make_unique<PatternNode>();
  q.root->test = PatternNode::Test::kWildcard;  // virtual node
  if (doc.root() == nullptr || length == 0) return q;

  // Grow a connected node set from the document root.
  std::vector<const Node*> selected{doc.root()};
  std::vector<const Node*> frontier;
  for (const Node* c = doc.root()->first_child; c != nullptr;
       c = c->next_sibling) {
    frontier.push_back(c);
  }
  while (selected.size() < length && !frontier.empty()) {
    size_t i = rng->Uniform(static_cast<uint32_t>(frontier.size()));
    if (value_bias > 0.0 && !frontier[i]->is_value() &&
        rng->Bernoulli(value_bias)) {
      // Prefer a value leaf when one is available.
      for (size_t k = 0; k < frontier.size(); ++k) {
        if (frontier[k]->is_value()) {
          i = k;
          break;
        }
      }
    }
    const Node* n = frontier[i];
    frontier[i] = frontier.back();
    frontier.pop_back();
    selected.push_back(n);
    for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      // Value nodes without retained text cannot be rendered as literals.
      if (c->is_value() && c->text == nullptr) continue;
      frontier.push_back(c);
    }
  }

  // Mirror the selected nodes as pattern nodes.
  std::unordered_map<const Node*, PatternNode*> mirror;
  for (const Node* n : selected) {
    auto pn = std::make_unique<PatternNode>();
    pn->axis = PatternNode::Axis::kChild;
    if (n->is_value()) {
      pn->test = PatternNode::Test::kValue;
      pn->value = n->text != nullptr ? n->text : "";
    } else {
      pn->test = PatternNode::Test::kName;
      pn->name = names.Lookup(n->sym.id());
    }
    PatternNode* raw = pn.get();
    PatternNode* parent =
        n->parent == nullptr ? q.root.get() : mirror.at(n->parent);
    parent->children.push_back(std::move(pn));
    mirror.emplace(n, raw);
  }
  q.source = PatternToString(q);
  return q;
}

namespace {

/// First element child of `n` named `tag` (null when absent or n is null).
const Node* ChildNamed(const Node* n, const NameTable& names,
                       std::string_view tag) {
  if (n == nullptr) return nullptr;
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    if (!c->is_value() && names.Lookup(c->sym.id()) == tag) return c;
  }
  return nullptr;
}

/// Text of the value leaf under `n` ("" when absent).
std::string LeafText(const Node* n) {
  if (n == nullptr) return "";
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    if (c->is_value() && c->text != nullptr) return c->text;
  }
  return "";
}

}  // namespace

std::vector<std::string> XMarkQ1Texts(const XMarkGenerator& gen,
                                      const NameTable& names, DocId docs,
                                      size_t count, Rng* rng) {
  std::vector<std::string> out;
  const uint32_t items = (docs + 3) / 4;  // kinds cycle from item at id 0
  // Most items carry a mail; the draw cap only ends a search for texts a
  // collection cannot supply.
  for (size_t draws = 0; out.size() < count && items > 0 &&
                         draws < 64 * count;
       ++draws) {
    Document d = gen.Generate(static_cast<DocId>(rng->Uniform(items) * 4));
    const Node* region = ChildNamed(d.root(), names, "regions");
    region = region != nullptr ? region->first_child : nullptr;
    const Node* item = ChildNamed(region, names, "item");
    const std::string loc = LeafText(ChildNamed(item, names, "location"));
    if (loc.empty()) continue;
    for (const Node* mail = item->first_child;
         mail != nullptr && out.size() < count; mail = mail->next_sibling) {
      if (mail->is_value() || names.Lookup(mail->sym.id()) != "mail") {
        continue;
      }
      const std::string from = LeafText(ChildNamed(mail, names, "from"));
      const std::string date = LeafText(ChildNamed(mail, names, "date"));
      if (from.empty() || date.empty()) continue;
      std::string q = "/site/";
      if (out.size() % 2 == 1) {
        q += "regions/";
        q += names.Lookup(region->sym.id());
      }
      q += "/item[location='";
      q += loc;
      q += "']/mail[from='";
      q += from;
      q += "']/date[text='";
      q += date;
      q += "']";
      out.push_back(std::move(q));
    }
  }
  return out;
}

}  // namespace xseq
