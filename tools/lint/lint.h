#ifndef COPYDETECT_TOOLS_LINT_LINT_H_
#define COPYDETECT_TOOLS_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

namespace copydetect::lint {

/// One rule violation: `file` is root-relative with forward slashes,
/// `line` is 1-based, `rule` is a stable id from AllRuleIds().
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  /// The canonical `file:line: [rule] message` output line.
  std::string Format() const;
};

struct Options {
  /// Repository root; `src/`, `examples/` and `bench/` beneath it are
  /// scanned (each optional — fixture mini-trees carry a subset).
  std::string root;
  /// Rule ids and/or group names (`layering`, `determinism`, `banned`,
  /// `suppression`) to run. Empty = everything.
  std::vector<std::string> checks;
};

/// Stable rule ids, suppressible as `// cd-lint: allow(<id>) <reason>`
/// on the offending line or the line directly above:
///  * layering            — include edge violates the module layer map
///                          (docs/ARCHITECTURE.md); examples/ and
///                          bench/ may reach only `copydetect/` (api)
///                          and `common/` utility headers.
///  * unordered-iteration — result-bearing modules (core, fusion,
///                          simjoin, model) iterating a
///                          std::unordered_{map,set}.
///  * pointer-keyed       — std::{map,set,unordered_*} keyed on a
///                          pointer type in a result-bearing module
///                          (address order varies run to run).
///  * banned-rng          — rand()/srand()/std::random_device or a
///                          time-seeded RNG in a result-bearing module
///                          (common/random.h is the seeded project
///                          RNG).
///  * nonfixed-reduction  — floating-point accumulation with unordered
///                          semantics (std::reduce, std::execution
///                          policies, OpenMP reductions,
///                          std::atomic<float/double>) in a
///                          result-bearing module.
///  * banned-new-delete   — naked new/delete anywhere in src/
///                          (placement new is allowed; `= delete`
///                          declarations are not flagged).
///  * banned-assert       — assert() in src/api or src/snapshot, where
///                          Status is the error convention.
///  * deprecated-shim     — a retired name coming back: the
///                          FlagParser class, its forwarding include
///                          in common/stringutil.h, a single-argument
///                          Session::Load overload in the api layer
///                          (use LoadOptions), or a name of the old
///                          detector plumbing (DetectorKind,
///                          MakeDetector, RunFusion,
///                          ParallelIndexDetector, DetectorRegistry,
///                          ... — use the detector table and Session)
///                          or of the retired runtime layers
///                          (ThreadPool, ArenaHashMap, ArenaAllocator,
///                          ArenaLease, AcquireArena — use Executor
///                          and plain containers).
///  * suppression         — malformed/unknown/unjustified/unused
///                          cd-lint annotations (not itself
///                          suppressible).
std::vector<std::string> AllRuleIds();

/// True when `checks` (empty = all) enables `rule`, by id or group.
bool RuleEnabled(const Options& options, std::string_view rule);

/// Lints a single in-memory file (no cross-header declaration harvest
/// or include resolution beyond what `relpath` implies). Unit-test
/// entry point; LintTree is the real scan.
std::vector<Finding> LintText(const Options& options,
                              std::string_view relpath,
                              std::string_view text);

/// Scans root/src, root/examples and root/bench (*.h, *.cc) and
/// returns all findings sorted by (file, line, rule). On an unreadable
/// root, returns a single finding with rule "error".
std::vector<Finding> LintTree(const Options& options);

}  // namespace copydetect::lint

#endif  // COPYDETECT_TOOLS_LINT_LINT_H_
