#include "src/xml/writer.h"

namespace xseq {

std::string EscapeXml(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

std::string ValueText(const Node* v) {
  if (v->text != nullptr) return v->text;
  std::string text = "v";
  text += std::to_string(v->sym.id());
  return text;
}

void WriteNode(const Node* n, const NameTable& names,
               const WriteOptions& options, int depth, std::string* out) {
  auto pad = [&]() {
    if (options.indent) out->append(static_cast<size_t>(depth) * 2, ' ');
  };

  if (n->is_value()) {
    pad();
    *out += EscapeXml(ValueText(n));
    if (options.indent) *out += '\n';
    return;
  }

  pad();
  *out += '<';
  *out += names.Lookup(n->sym.id());

  // Leading attribute children become tag attributes.
  const Node* c = n->first_child;
  for (; c != nullptr && c->kind == NodeKind::kAttribute;
       c = c->next_sibling) {
    *out += ' ';
    *out += names.Lookup(c->sym.id());
    *out += "=\"";
    *out += c->first_child != nullptr ? EscapeXml(ValueText(c->first_child))
                                      : "";
    *out += '"';
  }

  if (c == nullptr) {
    *out += "/>";
    if (options.indent) *out += '\n';
    return;
  }
  *out += '>';
  if (options.indent) *out += '\n';
  for (; c != nullptr; c = c->next_sibling) {
    WriteNode(c, names, options, depth + 1, out);
  }
  pad();
  *out += "</";
  *out += names.Lookup(n->sym.id());
  *out += '>';
  if (options.indent) *out += '\n';
}

}  // namespace

std::string WriteXml(const Document& doc, const NameTable& names,
                     const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"1.0\"?>";
    if (options.indent) out += '\n';
  }
  if (doc.root() != nullptr) {
    WriteNode(doc.root(), names, options, 0, &out);
  }
  return out;
}

}  // namespace xseq
