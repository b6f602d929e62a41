#include "core/copy_result.h"

namespace copydetect {

void CopyResult::Set(SourceId a, SourceId b,
                     const PairPosterior& posterior) {
  auto [slot, fresh] = map_.Insert(PairKey(a, b));
  if (!fresh && slot->IsCopying()) --num_copying_;
  *slot = posterior;
  if (posterior.IsCopying()) ++num_copying_;
}

PairPosterior CopyResult::Get(SourceId a, SourceId b) const {
  const PairPosterior* p = map_.Find(PairKey(a, b));
  return p ? *p : PairPosterior{};
}

double CopyResult::PrCopies(SourceId copier, SourceId original) const {
  const PairPosterior* p = map_.Find(PairKey(copier, original));
  if (p == nullptr) return 0.0;
  return copier < original ? p->p_first_copies : p->p_second_copies;
}

bool CopyResult::IsCopying(SourceId a, SourceId b) const {
  const PairPosterior* p = map_.Find(PairKey(a, b));
  return p != nullptr && p->IsCopying();
}

std::vector<uint64_t> CopyResult::CopyingPairs() const {
  std::vector<uint64_t> out;
  map_.ForEach([&out](uint64_t key, const PairPosterior& p) {
    if (p.IsCopying()) out.push_back(key);
  });
  return out;
}

}  // namespace copydetect
