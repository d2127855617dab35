#include "src/gen/synthetic.h"

namespace xseq {

std::string SyntheticParams::Name() const {
  std::string name = "L";
  name += std::to_string(max_height);
  name += "F";
  name += std::to_string(max_fanout);
  name += "A";
  name += std::to_string(value_percent);
  name += "I";
  name += std::to_string(identical_percent);
  name += "P";
  name += std::to_string(prob_floor);
  return name;
}

SyntheticDataset::SyntheticDataset(const SyntheticParams& params,
                                   NameTable* names, ValueEncoder* values)
    : params_(params), names_(names), values_(values) {
  BuildSchema();
}

int SyntheticDataset::BuildSlot(Rng* rng, int depth, int* name_counter) {
  int index = static_cast<int>(slots_.size());
  slots_.push_back(Slot{});
  {
    Slot& s = slots_[static_cast<size_t>(index)];
    std::string name = "e";
    name += std::to_string((*name_counter)++);
    s.name = names_->Intern(name);
    s.prob = params_.prob_floor / 100.0 +
             rng->NextDouble() * (1.0 - params_.prob_floor / 100.0);
    s.vocab_base = 0;
  }

  if (depth + 1 >= params_.max_height) return index;

  // "Maximum fanout": every non-leaf schema node gets F child slots; the
  // occurrence probabilities (and value slots, which are leaves) thin the
  // instantiated fanout below F.
  for (int f = 0; f < params_.max_fanout; ++f) {
    bool is_value = rng->Bernoulli(params_.value_percent / 100.0);
    if (is_value) {
      int child = static_cast<int>(slots_.size());
      slots_.push_back(Slot{});
      Slot& v = slots_[static_cast<size_t>(child)];
      v.is_value = true;
      v.prob = params_.prob_floor / 100.0 +
               rng->NextDouble() * (1.0 - params_.prob_floor / 100.0);
      v.vocab_base = static_cast<int>(rng->Uniform(1 << 20));
      slots_[static_cast<size_t>(index)].children.push_back(child);
      continue;
    }
    int child = BuildSlot(rng, depth + 1, name_counter);
    slots_[static_cast<size_t>(child)].repeatable =
        rng->Bernoulli(params_.identical_percent / 100.0);
    slots_[static_cast<size_t>(index)].children.push_back(child);
  }
  return index;
}

void SyntheticDataset::BuildSchema() {
  Rng rng(params_.seed, /*stream=*/0xD7D);
  int name_counter = 0;
  root_slot_ = BuildSlot(&rng, 0, &name_counter);
  // The root always exists.
  slots_[static_cast<size_t>(root_slot_)].prob = 1.0;
}

void SyntheticDataset::Instantiate(int slot_index, Node* parent,
                                   Document* doc, Rng* rng) const {
  const Slot& s = slots_[static_cast<size_t>(slot_index)];
  int copies = 1;
  if (s.repeatable) {
    // Identical siblings come in (mostly) pairs: a present repeatable slot
    // instantiates 2 copies, occasionally max_repeat. Keeping multiplicity
    // near-constant matches the paper's generator (variance in multiplicity
    // would dominate index sharing regardless of the sequencing strategy).
    copies = rng->Bernoulli(0.15) ? params_.max_repeat : 2;
  }
  for (int k = 0; k < copies; ++k) {
    if (s.is_value) {
      // Zipf-skewed values: a few common values dominate each slot, as in
      // real data — this is what probability-ordered sequencing exploits.
      int v = s.vocab_base +
              static_cast<int>(rng->Zipf(
                  static_cast<uint32_t>(params_.value_vocab), 1.0));
      std::string text = "v";
      text += std::to_string(v);
      Node* n = doc->CreateValue(values_->Encode(text), text);
      doc->AppendChild(parent, n);
      continue;
    }
    Node* n = doc->CreateElement(s.name);
    if (parent == nullptr) {
      doc->SetRoot(n);
    } else {
      doc->AppendChild(parent, n);
    }
    for (int child : s.children) {
      const Slot& c = slots_[static_cast<size_t>(child)];
      if (rng->Bernoulli(c.prob)) Instantiate(child, n, doc, rng);
    }
  }
}

Document SyntheticDataset::Generate(DocId id) const {
  Document doc(id);
  Rng rng(params_.seed ^ 0x9E3779B97F4A7C15ULL, /*stream=*/id * 2 + 1);
  Instantiate(root_slot_, nullptr, &doc, &rng);
  return doc;
}

}  // namespace xseq
