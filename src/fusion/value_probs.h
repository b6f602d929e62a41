#ifndef COPYDETECT_FUSION_VALUE_PROBS_H_
#define COPYDETECT_FUSION_VALUE_PROBS_H_

#include <vector>

#include "core/copy_result.h"
#include "core/params.h"
#include "model/dataset.h"

namespace copydetect {

class Executor;

/// Initial per-slot value probabilities: the vote share of each value
/// among its item's providers (the natural prior before any accuracy
/// estimates exist).
std::vector<double> InitialValueProbs(const Dataset& data);

/// Uniform initial accuracies (the iterative loop's round-1 state).
std::vector<double> InitialAccuracies(size_t num_sources,
                                      double a0 = 0.8);

/// One round of value-probability computation in the style of Dong,
/// Berti-Equille, Srivastava (VLDB 2009), the loop the paper plugs its
/// detectors into:
///  * each source votes with weight A'(S) = ln(n·A(S) / (1 - A(S))),
///    with A clamped by ClampAccuracy;
///  * a source's vote for a value is discounted by its probability of
///    having copied it: providers of the same value are visited in
///    vote order (accuracy descending, ties by ascending id) and each
///    later provider S is scaled by Π (1 - s·Pr(S copies S')) over
///    earlier same-value providers S', in that order (only pairs
///    concluded as copying contribute, so detectors that skip
///    hopeless pairs yield identical fusion results);
///  * a value's vote is the sum of its providers' discounted weights
///    in vote order, starting from 0;
///  * P(v) = softmax over the item's provided values plus
///    (n + 1 - #provided) unprovided candidates with vote 0.
/// The vote pass walks the sources in vote order, and each source adds
/// its discounted weight to the values it provides (Dataset::slots_of),
/// so every value's sum runs in vote order with no per-value sort.
/// What depends only on the round or on a source is computed once per
/// call: every source's weight, its place in the vote order, and a CSR
/// of each source's concluded-copying partners with Pr(source copies
/// partner), built in one walk over `copies`. Before a source's values
/// are summed, its partners earlier in vote order are marked in a
/// dense per-source array; a value's discount multiplies its marked
/// providers in vote order (almost always none or one, so they are
/// sorted only when there are more). Those reuse the exact doubles a
/// per-observation evaluation would produce, so the probabilities are
/// bit-identical to the per-observation loop (kept as the oracle of
/// ValueProbs.MatchesReferenceLoop in tests/fusion_test.cc). The
/// per-item softmax runs in parallel over `params.executor` when one
/// is set; results are bit-identical to the sequential loop.
void ComputeValueProbs(const Dataset& data,
                       const std::vector<double>& accuracies,
                       const CopyResult& copies,
                       const DetectionParams& params,
                       std::vector<double>* probs);

/// Accuracy update: A(S) = mean probability of S's provided values,
/// clamped away from {0, 1}. Sources with no observations keep 0.5.
/// Parallelizes over `executor` when given (bit-identical).
void ComputeAccuracies(const Dataset& data,
                       const std::vector<double>& probs,
                       std::vector<double>* accuracies,
                       Executor* executor = nullptr);

/// Per-item argmax slot ("the truth"); kInvalidSlot for empty items.
std::vector<SlotId> ChooseTruth(const Dataset& data,
                                const std::vector<double>& probs);

}  // namespace copydetect

#endif  // COPYDETECT_FUSION_VALUE_PROBS_H_
