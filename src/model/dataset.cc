#include "model/dataset.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <fstream>

#include "common/csv.h"
#include "common/json.h"
#include "common/stringutil.h"

namespace copydetect {

uint64_t Dataset::NextGeneration() {
  // Starts at 1 so 0 stays free as an "empty cache" sentinel.
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

SlotId Dataset::slot_of(SourceId s, ItemId item) const {
  std::span<const ItemId> items = items_of(s);
  auto it = std::lower_bound(items.begin(), items.end(), item);
  if (it == items.end() || *it != item) return kInvalidSlot;
  size_t offset = static_cast<size_t>(it - items.begin());
  return obs_slot_[src_begin_[s] + offset];
}

Status Dataset::SaveCsv(const std::string& path) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(num_observations() + 1);
  rows.push_back({"source", "item", "value"});
  for (SourceId s = 0; s < num_sources(); ++s) {
    std::span<const ItemId> items = items_of(s);
    std::span<const SlotId> slots = slots_of(s);
    for (size_t i = 0; i < items.size(); ++i) {
      rows.push_back({std::string(source_name(s)),
                      std::string(item_name(items[i])),
                      std::string(slot_value(slots[i]))});
    }
  }
  return WriteCsvFile(path, rows);
}

StatusOr<Dataset> Dataset::LoadCsv(const std::string& path) {
  auto rows = ReadCsvFile(path);
  if (!rows.ok()) return rows.status();
  DatasetBuilder builder;
  bool first = true;
  for (const auto& row : *rows) {
    if (first) {
      first = false;
      // Tolerate an optional header row.
      if (row.size() == 3 && row[0] == "source" && row[1] == "item") {
        continue;
      }
    }
    if (row.size() != 3) {
      return Status::InvalidArgument(
          StrFormat("%s: expected 3 fields per row, got %zu", path.c_str(),
                    row.size()));
    }
    builder.Add(row[0], row[1], row[2]);
  }
  return builder.Build();
}

Status Dataset::SaveJson(const std::string& path) const {
  std::string text;
  for (SourceId s = 0; s < num_sources(); ++s) {
    std::span<const ItemId> items = items_of(s);
    std::span<const SlotId> slots = slots_of(s);
    for (size_t i = 0; i < items.size(); ++i) {
      text += "{\"source\":";
      AppendJsonString(source_name(s), &text);
      text += ",\"item\":";
      AppendJsonString(item_name(items[i]), &text);
      text += ",\"value\":";
      AppendJsonString(slot_value(slots[i]), &text);
      text += "}\n";
    }
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::IOError(path + ": cannot open for writing");
  }
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  file.flush();
  if (!file) return Status::IOError(path + ": write failed");
  return Status::OK();
}

StatusOr<Dataset> Dataset::LoadJson(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError(path + ": cannot open");
  DatasetBuilder builder;
  std::string line;
  size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    auto parsed = ParseJson(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", path.c_str(), line_number,
                    parsed.status().message().c_str()));
    }
    if (!parsed->is_object()) {
      return Status::InvalidArgument(StrFormat(
          "%s:%zu: expected one JSON object per line", path.c_str(),
          line_number));
    }
    std::string_view source, item, value;
    for (const auto& [key, member] : parsed->members()) {
      std::string_view* field = nullptr;
      if (key == "source") {
        field = &source;
      } else if (key == "item") {
        field = &item;
      } else if (key == "value") {
        field = &value;
      } else {
        return Status::InvalidArgument(
            StrFormat("%s:%zu: unknown member \"%s\" (want source, "
                      "item, value)",
                      path.c_str(), line_number, key.c_str()));
      }
      if (!member.is_string()) {
        return Status::InvalidArgument(
            StrFormat("%s:%zu: member \"%s\" must be a string",
                      path.c_str(), line_number, key.c_str()));
      }
      *field = member.text();
    }
    // Distinguishes an absent member from a present-but-empty one:
    // empty *values* are legal (LoadCsv accepts them), absent members
    // are not.
    if (parsed->Find("source") == nullptr ||
        parsed->Find("item") == nullptr ||
        parsed->Find("value") == nullptr) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: object needs the three members source, "
                    "item, value",
                    path.c_str(), line_number));
    }
    builder.Add(source, item, value);
  }
  return builder.Build();
}

SourceId DatasetBuilder::AddSource(std::string_view name) {
  auto it = source_lookup_.find(std::string(name));
  if (it != source_lookup_.end()) return it->second;
  SourceId id = static_cast<SourceId>(source_names_.size());
  source_names_.emplace_back(name);
  source_lookup_.emplace(std::string(name), id);
  return id;
}

ItemId DatasetBuilder::AddItem(std::string_view name) {
  auto it = item_lookup_.find(std::string(name));
  if (it != item_lookup_.end()) return it->second;
  ItemId id = static_cast<ItemId>(item_names_.size());
  item_names_.emplace_back(name);
  item_lookup_.emplace(std::string(name), id);
  return id;
}

uint32_t DatasetBuilder::InternValue(std::string_view v) {
  auto it = value_lookup_.find(std::string(v));
  if (it != value_lookup_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(value_strings_.size());
  value_strings_.emplace_back(v);
  value_lookup_.emplace(std::string(v), id);
  return id;
}

void DatasetBuilder::Add(SourceId source, ItemId item,
                         std::string_view value) {
  assert(source < source_names_.size());
  assert(item < item_names_.size());
  obs_.push_back(Obs{source, item, InternValue(value)});
}

void DatasetBuilder::Add(std::string_view source, std::string_view item,
                         std::string_view value) {
  Add(AddSource(source), AddItem(item), value);
}

StatusOr<Dataset> DatasetBuilder::Build() {
  // Validation pass: sort by (source, item) so every observation of
  // one cell is adjacent — the only ordering under which an adjacent
  // check catches *all* conflicts (sorting by (item, value, source)
  // first, as the layout pass does, lets another source's same-value
  // observation separate a conflicting pair).
  std::sort(obs_.begin(), obs_.end(), [](const Obs& a, const Obs& b) {
    if (a.source != b.source) return a.source < b.source;
    if (a.item != b.item) return a.item < b.item;
    return a.value_idx < b.value_idx;
  });
  for (size_t i = 1; i < obs_.size(); ++i) {
    const Obs& a = obs_[i - 1];
    const Obs& b = obs_[i];
    if (a.item == b.item && a.source == b.source &&
        a.value_idx != b.value_idx) {
      return Status::InvalidArgument(StrFormat(
          "source '%s' provides two values for item '%s'",
          source_names_[a.source].c_str(), item_names_[a.item].c_str()));
    }
  }
  // Drop exact duplicates (adjacent after the validation sort).
  obs_.erase(std::unique(obs_.begin(), obs_.end(),
                         [](const Obs& a, const Obs& b) {
                           return a.item == b.item &&
                                  a.source == b.source &&
                                  a.value_idx == b.value_idx;
                         }),
             obs_.end());

  // Layout pass: sort by (item, value *string*, source). Ordering
  // slots by value string — not by interning order — makes the layout
  // canonical: any feed order of the same observations (with the same
  // name-registration order) freezes into a bit-identical Dataset,
  // which is what lets Dataset::Apply splice updated items into an
  // existing snapshot without a global rebuild. Value ids are ranked
  // once so the sort itself stays integer-keyed.
  std::vector<uint32_t> by_string(value_strings_.size());
  for (uint32_t v = 0; v < by_string.size(); ++v) by_string[v] = v;
  std::sort(by_string.begin(), by_string.end(),
            [this](uint32_t a, uint32_t b) {
              return value_strings_[a] < value_strings_[b];
            });
  std::vector<uint32_t> value_rank(value_strings_.size());
  for (uint32_t r = 0; r < by_string.size(); ++r) {
    value_rank[by_string[r]] = r;
  }
  std::sort(obs_.begin(), obs_.end(),
            [&value_rank](const Obs& a, const Obs& b) {
              if (a.item != b.item) return a.item < b.item;
              if (a.value_idx != b.value_idx) {
                return value_rank[a.value_idx] < value_rank[b.value_idx];
              }
              return a.source < b.source;
            });

  Dataset d;
  d.source_names_ = std::move(source_names_);
  d.item_names_ = std::move(item_names_);

  const size_t num_items = d.item_names_.size();
  const size_t num_sources = d.source_names_.size();

  // A freshly constructed Dataset is owned-mode, so these are the
  // empty vectors the layout passes fill in.
  std::vector<std::string>& slot_value = d.slot_value_.MutableOwned();
  std::vector<ItemId>& slot_item = d.slot_item_.MutableOwned();
  std::vector<SlotId>& item_slot_begin = d.item_slot_begin_.MutableOwned();
  std::vector<uint32_t>& provider_begin = d.provider_begin_.MutableOwned();
  std::vector<SourceId>& providers = d.providers_.MutableOwned();
  std::vector<uint32_t>& src_begin = d.src_begin_.MutableOwned();
  std::vector<ItemId>& obs_item = d.obs_item_.MutableOwned();
  std::vector<SlotId>& obs_slot = d.obs_slot_.MutableOwned();

  item_slot_begin.assign(num_items + 1, 0);
  // First pass: create slots (contiguous per item, in (item, value) order)
  // and the provider CSR.
  std::vector<SlotId> obs_to_slot(obs_.size());
  for (size_t i = 0; i < obs_.size();) {
    size_t j = i;
    while (j < obs_.size() && obs_[j].item == obs_[i].item &&
           obs_[j].value_idx == obs_[i].value_idx) {
      ++j;
    }
    SlotId slot = static_cast<SlotId>(slot_value.size());
    slot_value.push_back(value_strings_[obs_[i].value_idx]);
    slot_item.push_back(obs_[i].item);
    provider_begin.push_back(static_cast<uint32_t>(providers.size()));
    for (size_t k = i; k < j; ++k) {
      providers.push_back(obs_[k].source);
      obs_to_slot[k] = slot;
    }
    i = j;
  }
  provider_begin.push_back(static_cast<uint32_t>(providers.size()));

  // item -> slot range (slots already grouped by item in order).
  for (SlotId v = 0; v < slot_value.size(); ++v) {
    item_slot_begin[slot_item[v] + 1] = v + 1;
  }
  // Items with no slots inherit the previous boundary.
  for (size_t i = 1; i <= num_items; ++i) {
    if (item_slot_begin[i] < item_slot_begin[i - 1]) {
      item_slot_begin[i] = item_slot_begin[i - 1];
    }
  }

  // Second pass: per-source CSR sorted by item.
  src_begin.assign(num_sources + 1, 0);
  for (const Obs& o : obs_) src_begin[o.source + 1]++;
  for (size_t s = 0; s < num_sources; ++s) {
    src_begin[s + 1] += src_begin[s];
  }
  obs_item.resize(obs_.size());
  obs_slot.resize(obs_.size());
  std::vector<uint32_t> cursor(src_begin.begin(), src_begin.end() - 1);
  // obs_ is sorted by (item, value, source); emitting in this order per
  // source yields per-source arrays sorted by item (values within an
  // item are unique per source).
  for (size_t i = 0; i < obs_.size(); ++i) {
    uint32_t pos = cursor[obs_[i].source]++;
    obs_item[pos] = obs_[i].item;
    obs_slot[pos] = obs_to_slot[i];
  }

  // Reset the builder.
  value_strings_.clear();
  source_lookup_.clear();
  item_lookup_.clear();
  value_lookup_.clear();
  obs_.clear();

  return d;
}

}  // namespace copydetect
