#include "queries.h"

#include <algorithm>
#include <random>
#include <string_view>

#include "src/gen/xmark.h"
#include "src/xml/name_table.h"
#include "src/xml/tree.h"
#include "src/xml/writer.h"

namespace perfbench {

namespace {

/// Reads literals off generated records. Records are regenerated against
/// private vocabulary tables; the generator is deterministic in (seed, id).
class RecordReader {
 public:
  explicit RecordReader(uint64_t corpus_seed) {
    xseq::XMarkParams params;
    params.seed = corpus_seed;
    gen_ = std::make_unique<xseq::XMarkGenerator>(params, &names_, &values_);
  }

  xseq::Document Record(xseq::DocId id) const { return gen_->Generate(id); }

  /// First element child of `n` named `tag`.
  const xseq::Node* Child(const xseq::Node* n, std::string_view tag) const {
    if (n == nullptr) return nullptr;
    for (const xseq::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      if (!c->is_value() && names_.Lookup(c->sym.id()) == tag) return c;
    }
    return nullptr;
  }

  /// Text of the value leaf under `n` ("" when absent).
  static std::string Text(const xseq::Node* n) {
    if (n == nullptr) return "";
    for (const xseq::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_value() && c->text != nullptr) return c->text;
    }
    return "";
  }

  std::string Name(const xseq::Node* n) const {
    return names_.Lookup(n->sym.id());
  }

 private:
  xseq::NameTable names_;
  xseq::ValueEncoder values_;
  std::unique_ptr<xseq::XMarkGenerator> gen_;
};

/// The wildcard and child-only forms of one Table-7-shaped query.
struct Forms {
  std::string wildcard, child;
};

/// Appends the forms `record` supports for `shape`: Q1 once per mail of an
/// item, Q2 for a person with a profile, Q3 for a closed auction.
void RecordForms(const RecordReader& rr, const xseq::Document& d, int shape,
                 std::vector<Forms>* out) {
  if (shape == 0) {
    // Q1: /site//item[location='C']/mail/date[text='D'], narrowed by the
    // mail's sender.
    const xseq::Node* regions = rr.Child(d.root(), "regions");
    const xseq::Node* region =
        regions != nullptr ? regions->first_child : nullptr;
    const xseq::Node* item = rr.Child(region, "item");
    const std::string loc = RecordReader::Text(rr.Child(item, "location"));
    if (item == nullptr || loc.empty()) return;
    for (const xseq::Node* mail = item->first_child; mail != nullptr;
         mail = mail->next_sibling) {
      if (mail->is_value() || rr.Name(mail) != "mail") continue;
      const std::string from = RecordReader::Text(rr.Child(mail, "from"));
      const std::string date = RecordReader::Text(rr.Child(mail, "date"));
      if (from.empty() || date.empty()) continue;
      const std::string tail = "item[location='" + loc + "']/mail[from='" +
                               from + "']/date[text='" + date + "']";
      out->push_back({"/site//" + tail,
                      "/site/regions/" + rr.Name(region) + "/" + tail});
    }
    return;
  }
  if (shape == 1) {
    // Q2: /site//person/*/age[text='A'], narrowed by the email address.
    const xseq::Node* person =
        rr.Child(rr.Child(d.root(), "people"), "person");
    const std::string email =
        RecordReader::Text(rr.Child(person, "emailaddress"));
    const std::string age =
        RecordReader::Text(rr.Child(rr.Child(person, "profile"), "age"));
    if (email.empty() || age.empty()) return;
    const std::string pred = "[emailaddress='" + email + "']";
    out->push_back(
        {"/site//person" + pred + "/*/age[text='" + age + "']",
         "/site/people/person" + pred + "/profile/age[text='" + age + "']"});
    return;
  }
  // Q3: //closed_auction[seller/person='P']/date[text='D'].
  const xseq::Node* ca =
      rr.Child(rr.Child(d.root(), "closed_auctions"), "closed_auction");
  const std::string seller =
      RecordReader::Text(rr.Child(rr.Child(ca, "seller"), "person"));
  const std::string date = RecordReader::Text(rr.Child(ca, "date"));
  if (seller.empty() || date.empty()) return;
  const std::string tail = "closed_auction[seller/person='" + seller +
                           "']/date[text='" + date + "']";
  out->push_back({"//" + tail, "/site/closed_auctions/" + tail});
}

}  // namespace

std::vector<QueryText> ParamTexts(uint64_t corpus_seed, uint64_t stream_seed,
                                  xseq::DocId docs, size_t count) {
  // Every record of a shape's kind yields its forms once; records are
  // visited in a seeded order, so texts repeat only after a list runs out.
  RecordReader rr(corpus_seed);
  std::mt19937_64 rng(stream_seed);
  constexpr int kKindOfShape[3] = {0, 1, 3};  // item, person, closed_auction
  std::vector<Forms> forms[3];
  for (int shape = 0; shape < 3; ++shape) {
    std::vector<xseq::DocId> ids;
    for (xseq::DocId d = static_cast<xseq::DocId>(kKindOfShape[shape]);
         d < docs; d += 4) {
      ids.push_back(d);
    }
    std::shuffle(ids.begin(), ids.end(), rng);
    for (xseq::DocId id : ids) {
      RecordForms(rr, rr.Record(id), shape, &forms[shape]);
      if (forms[shape].size() >= count) break;
    }
  }
  std::vector<QueryText> out;
  out.reserve(count);
  size_t next_wild[3] = {}, next_child[3] = {};
  for (size_t i = 0; i < count; ++i) {
    const int shape = static_cast<int>((i / 3 + i) % 3);
    const std::vector<Forms>& list = forms[shape];
    QueryText q;
    q.wildcard = i % 3 != 2;  // two wildcard texts, then one child-only
    // Child-only forms walk the list from its far end, so a record's two
    // forms are not sent back to back.
    if (q.wildcard) {
      q.xpath = list[next_wild[shape]++ % list.size()].wildcard;
    } else {
      q.xpath = list[list.size() - 1 - next_child[shape]++ % list.size()].child;
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<QueryText> RangeTexts(uint64_t stream_seed, size_t count) {
  // Bounds are spread evenly over each family's range, shifted by one
  // seeded offset: the texts change with the seed, their mix of answer
  // sizes (and so of costs) hardly does.
  std::mt19937_64 rng(stream_seed);
  const double offset = static_cast<double>(rng() % 1000) / 1000.0;
  const size_t per_family = std::max<size_t>(1, count / 4);
  auto bound = [&](size_t i, int lo, int hi) {
    const double f = (static_cast<double>(i / 4) + offset) / per_family;
    return std::to_string(lo + static_cast<int>(f * (hi - lo)));
  };
  std::vector<QueryText> out;
  for (size_t i = 0; i < count; ++i) {
    QueryText q;
    switch (i % 4) {
      case 0:  // prices are 10..1009
        q.xpath = "//closed_auction[price < " + bound(i, 20, 60) + "]";
        q.wildcard = true;
        break;
      case 1:  // ages are 18..67
        q.xpath = "/site/people/person/profile[age >= " + bound(i, 63, 68) +
                  "]";
        break;
      case 2:  // current bids are 10..1009
        q.xpath = "//open_auction[current > " + bound(i, 960, 1000) + "]";
        q.wildcard = true;
        break;
      default:  // incomes are 20000..99999
        q.xpath = "/site/people/person/profile[income < " +
                  bound(i, 21000, 24000) + "]";
        break;
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<Mutation> MakeMutations(uint64_t corpus_seed, xseq::DocId docs,
                                    size_t count,
                                    std::vector<std::string>* xml) {
  // Replacement records come from a generator with another seed: same
  // record kind for the id, different values.
  xseq::NameTable names;
  xseq::ValueEncoder values;
  xseq::XMarkParams params;
  params.seed = corpus_seed ^ 0x5eed5eedULL;
  xseq::XMarkGenerator gen(params, &names, &values);
  std::mt19937_64 rng(corpus_seed * 31 + 7);
  std::vector<Mutation> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Mutation m;
    m.update = (rng() & 1) != 0;
    m.id = static_cast<xseq::DocId>(rng() % docs);
    if (m.update) {
      m.version = static_cast<int>(xml->size());
      xml->push_back(xseq::WriteXml(gen.Generate(m.id), names));
    }
    out.push_back(m);
  }
  return out;
}

}  // namespace perfbench
