#include "lint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "lexer.h"

namespace copydetect::lint {

namespace {

namespace fs = std::filesystem;
constexpr size_t kNpos = std::string_view::npos;

/// Module dependency matrix — the executable twin of the layer map in
/// docs/ARCHITECTURE.md and src/CMakeLists.txt. Values are the full
/// transitive closure: PUBLIC link deps make every transitive header
/// reachable, so an include of any closed-over module is legal.
const std::map<std::string, std::set<std::string>, std::less<>>&
AllowedDeps() {
  static const std::map<std::string, std::set<std::string>, std::less<>>
      deps{
          {"common", {}},
          {"model", {"common"}},
          {"topk", {"common"}},
          {"simjoin", {"model", "common"}},
          {"core", {"simjoin", "topk", "model", "common"}},
          {"fusion", {"core", "simjoin", "topk", "model", "common"}},
          {"datagen", {"model", "common"}},
          {"eval",
           {"fusion", "datagen", "core", "simjoin", "topk", "model",
            "common"}},
          {"snapshot",
           {"fusion", "core", "simjoin", "topk", "model", "common"}},
          {"api",
           {"eval", "snapshot", "fusion", "datagen", "core", "simjoin",
            "topk", "model", "common"}},
          // The serving layer sits ON TOP of the facade: deliberately
          // narrower than its link-time closure. copydetectd must not
          // grow ties into engine internals — everything goes through
          // copydetect/*.h, plus snapshot for state-dir recovery.
          {"serve", {"api", "snapshot", "common"}},
      };
  return deps;
}

/// Modules whose output feeds results and must therefore be
/// bit-deterministic (the repo's parallel/serial and Save/Load
/// equivalence guarantees rest on them).
bool IsDeterminismModule(std::string_view mod) {
  return mod == "core" || mod == "fusion" || mod == "simjoin" ||
         mod == "model";
}

/// "src/core/foo.h" -> "core"; "src/api/copydetect/session.h" ->
/// "api"; examples/ and bench/ -> "@app"; anything else -> "".
std::string LayerOf(std::string_view relpath) {
  if (relpath.rfind("src/", 0) == 0) {
    std::string_view rest = relpath.substr(4);
    size_t slash = rest.find('/');
    if (slash == kNpos) return "";
    std::string mod(rest.substr(0, slash));
    return AllowedDeps().count(mod) ? mod : "";
  }
  if (relpath.rfind("examples/", 0) == 0 ||
      relpath.rfind("bench/", 0) == 0) {
    return "@app";
  }
  return "";
}

/// Module an include path points into ("" when it is not a src/
/// module header — system headers and harness-local headers).
std::string IncludeModule(std::string_view inc) {
  size_t slash = inc.find('/');
  if (slash == kNpos) return "";
  std::string head(inc.substr(0, slash));
  if (head == "copydetect") return "api";
  return AllowedDeps().count(head) ? head : "";
}

struct IncludeDirective {
  int line;
  std::string path;
};

/// `#include "..."` directives from the raw text (quoted form only —
/// system includes carry no layering information).
std::vector<IncludeDirective> ExtractIncludes(std::string_view text) {
  static const std::regex re(
      R"re(^\s*#\s*include\s*"([^"]+)")re");
  std::vector<IncludeDirective> out;
  int line = 1;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == kNpos) eol = text.size();
    std::string l(text.substr(pos, eol - pos));
    std::smatch m;
    if (std::regex_search(l, m, re)) {
      out.push_back({line, m[1].str()});
    }
    if (eol == text.size()) break;
    pos = eol + 1;
    ++line;
  }
  return out;
}

struct Suppression {
  int line;
  std::string rule;
  bool has_reason;
  bool used = false;
};

/// Parses `cd-lint: allow(<rule>) <reason>` annotations out of the
/// comment stream. A `cd-lint` token that does not match the syntax
/// becomes a malformed-suppression finding immediately.
std::vector<Suppression> ParseSuppressions(
    const CleanedSource& cleaned, const std::string& relpath,
    std::vector<Finding>* findings) {
  static const std::regex re(
      R"(cd-lint:\s*allow\(\s*([A-Za-z0-9-]+)\s*\)[ \t]*([^\r\n]*))");
  std::vector<Suppression> out;
  for (const auto& [line, text] : cleaned.comments) {
    if (text.find("cd-lint") == std::string::npos) continue;
    auto begin =
        std::sregex_iterator(text.begin(), text.end(), re);
    auto end = std::sregex_iterator();
    if (begin == end) {
      findings->push_back(
          {relpath, line, "suppression",
           "malformed cd-lint annotation (expected `cd-lint: "
           "allow(<rule>) <reason>`)"});
      continue;
    }
    for (auto it = begin; it != end; ++it) {
      std::string reason = (*it)[2].str();
      // Strip a block comment's trailing `*/` before judging the
      // reason text.
      size_t close = reason.rfind("*/");
      if (close != std::string::npos) reason.resize(close);
      while (!reason.empty() &&
             (reason.back() == ' ' || reason.back() == '\t')) {
        reason.pop_back();
      }
      out.push_back({line, (*it)[1].str(), !reason.empty()});
    }
  }
  return out;
}

/// Names declared in `code` as std::unordered_{map,set} variables or
/// members (including function parameters).
void HarvestUnorderedNames(std::string_view code,
                           std::set<std::string, std::less<>>* names) {
  for (const char* word : {"unordered_map", "unordered_set"}) {
    for (size_t pos : FindWord(code, word)) {
      size_t p = SkipSpace(code, pos + std::strlen(word));
      if (p == kNpos || code[p] != '<') continue;
      size_t after = SkipBalanced(code, p);
      if (after == kNpos) continue;
      p = SkipSpace(code, after);
      while (p != kNpos && p < code.size() &&
             (code[p] == '&' || code[p] == '*')) {
        p = SkipSpace(code, p + 1);
      }
      if (p == kNpos) continue;
      size_t q = p;
      while (q < code.size() && IsIdentChar(code[q])) ++q;
      if (q == p) continue;
      std::string name(code.substr(p, q - p));
      if (name == "const") continue;
      names->insert(std::move(name));
    }
  }
}

/// First template argument after the `<` at `open`, or "" on a parse
/// failure.
std::string FirstTemplateArg(std::string_view code, size_t open) {
  int depth = 0;
  size_t begin = open + 1;
  for (size_t i = open; i < code.size(); ++i) {
    char c = code[i];
    if (c == '<' || c == '(' || c == '[') {
      ++depth;
    } else if (c == '>' || c == ')' || c == ']') {
      --depth;
      if (depth == 0) return std::string(code.substr(begin, i - begin));
    } else if (c == ',' && depth == 1) {
      return std::string(code.substr(begin, i - begin));
    } else if (depth == 1 && (c == ';' || c == '{')) {
      break;  // was a comparison, not a template argument list
    }
  }
  return "";
}

std::string Trim(std::string s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  size_t e = s.find_last_not_of(" \t\r\n");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

/// The scan state for one file.
struct FileScan {
  const Options& options;
  std::string relpath;
  std::string layer;  // module, "@app", or ""
  CleanedSource cleaned;
  std::vector<IncludeDirective> includes;
  /// unordered container names visible to this file (own declarations
  /// plus, in LintTree, those of directly included repo headers).
  std::set<std::string, std::less<>> unordered_names;
  std::vector<Finding> findings;

  void Add(size_t offset, const char* rule, std::string message) {
    findings.push_back({relpath, cleaned.LineOf(offset), rule,
                        std::move(message)});
  }
};

void CheckLayering(FileScan* scan) {
  const std::string& layer = scan->layer;
  for (const IncludeDirective& inc : scan->includes) {
    std::string target = IncludeModule(inc.path);
    if (target.empty() || target == layer) continue;
    if (layer == "@app") {
      if (target == "api" || target == "common") continue;
      scan->findings.push_back(
          {scan->relpath, inc.line, "layering",
           "examples/ and bench/ reach the engine through the facade "
           "(copydetect/session.h) plus common/ utilities; \"" +
               inc.path + "\" is an internal " + target + " header"});
      continue;
    }
    const auto& deps = AllowedDeps().at(layer);
    if (deps.count(target)) continue;
    std::string allowed;
    for (const auto& d : deps) {
      if (!allowed.empty()) allowed += ", ";
      allowed += d;
    }
    scan->findings.push_back(
        {scan->relpath, inc.line, "layering",
         "module '" + layer + "' must not include \"" + inc.path +
             "\" (module '" + target + "'); its layer map allows: {" +
             (allowed.empty() ? "standard library only" : allowed) +
             "} (docs/ARCHITECTURE.md)"});
  }
}

void CheckUnorderedIteration(FileScan* scan) {
  const std::string& code = scan->cleaned.code;
  if (scan->unordered_names.empty()) return;
  // Range-for whose range expression mentions an unordered container.
  for (size_t pos : FindWord(code, "for")) {
    size_t p = SkipSpace(code, pos + 3);
    if (p == kNpos || code[p] != '(') continue;
    size_t end = SkipBalanced(code, p);
    if (end == kNpos) continue;
    std::string_view inside(code.data() + p + 1, end - 1 - (p + 1));
    // Top-level ':' that is not part of '::'.
    size_t colon = kNpos;
    int depth = 0;
    for (size_t i = 0; i < inside.size(); ++i) {
      char c = inside[i];
      if (c == '(' || c == '[' || c == '{') {
        ++depth;
      } else if (c == ')' || c == ']' || c == '}') {
        --depth;
      } else if (c == ':' && depth == 0) {
        const bool dbl = (i + 1 < inside.size() && inside[i + 1] == ':') ||
                         (i > 0 && inside[i - 1] == ':');
        if (!dbl) {
          colon = i;
          break;
        }
      }
    }
    if (colon == kNpos) continue;
    std::string_view range = inside.substr(colon + 1);
    for (const std::string& name : scan->unordered_names) {
      bool iterates_container = false;
      for (size_t hit : FindWord(range, name)) {
        // `m[key]` / `m.at(key)` range over the *mapped* value, whose
        // order is the mapped type's business, not the bucket order.
        size_t after = SkipSpace(range, hit + name.size());
        if (after != kNpos &&
            (range[after] == '[' ||
             (range[after] == '.' &&
              range.compare(after, 4, ".at(") == 0))) {
          continue;
        }
        iterates_container = true;
        break;
      }
      if (iterates_container) {
        scan->Add(pos, "unordered-iteration",
                  "iteration over std::unordered container '" + name +
                      "' in result-bearing module '" + scan->layer +
                      "' — bucket order is nondeterministic; iterate "
                      "sorted keys or sort the output");
        break;
      }
    }
  }
  // Explicit iterator loops: name.begin() / name.cbegin() / .rbegin().
  for (const char* word : {"begin", "cbegin", "rbegin"}) {
    for (size_t pos : FindWord(code, word)) {
      size_t i = pos;
      while (i > 0 && (code[i - 1] == ' ' || code[i - 1] == '\t')) --i;
      if (i == 0 || code[i - 1] != '.') continue;
      size_t dot = i - 1;
      i = dot;
      while (i > 0 && (code[i - 1] == ' ' || code[i - 1] == '\t')) --i;
      size_t name_end = i;
      while (i > 0 && IsIdentChar(code[i - 1])) --i;
      if (i == name_end) continue;
      std::string name = code.substr(i, name_end - i);
      if (!scan->unordered_names.count(name)) continue;
      scan->Add(pos, "unordered-iteration",
                "'" + name + "." + word +
                    "()' walks a std::unordered container in "
                    "result-bearing module '" +
                    scan->layer + "' — bucket order is nondeterministic");
    }
  }
}

void CheckPointerKeyed(FileScan* scan) {
  const std::string& code = scan->cleaned.code;
  for (const char* word :
       {"map", "set", "unordered_map", "unordered_set", "multimap",
        "multiset"}) {
    for (size_t pos : FindWord(code, word)) {
      if (pos < 5 || code.compare(pos - 5, 5, "std::") != 0) continue;
      size_t p = SkipSpace(code, pos + std::strlen(word));
      if (p == kNpos || code[p] != '<') continue;
      std::string key = Trim(FirstTemplateArg(code, p));
      if (key.empty() || key.back() != '*') continue;
      scan->Add(pos, "pointer-keyed",
                "std::" + std::string(word) + " keyed on pointer type '" +
                    key +
                    "' in result-bearing module '" + scan->layer +
                    "' — address order varies run to run; key on a "
                    "stable id");
    }
  }
}

void CheckBannedRng(FileScan* scan) {
  const std::string& code = scan->cleaned.code;
  for (const char* word : {"rand", "srand", "drand48"}) {
    for (size_t pos : FindWord(code, word)) {
      size_t p = SkipSpace(code, pos + std::strlen(word));
      if (p == kNpos || code[p] != '(') continue;
      scan->Add(pos, "banned-rng",
                std::string(word) +
                    "() in result-bearing module '" + scan->layer +
                    "' — use the seeded Rng in common/random.h");
    }
  }
  for (size_t pos : FindWord(code, "random_device")) {
    scan->Add(pos, "banned-rng",
              "std::random_device in result-bearing module '" +
                  scan->layer +
                  "' — nondeterministic seed; use the seeded Rng in "
                  "common/random.h");
  }
  for (size_t pos : FindWord(code, "time")) {
    size_t p = SkipSpace(code, pos + 4);
    if (p == kNpos || code[p] != '(') continue;
    size_t end = SkipBalanced(code, p);
    if (end == kNpos) continue;
    std::string arg = Trim(code.substr(p + 1, end - 1 - (p + 1)));
    if (arg == "nullptr" || arg == "NULL" || arg == "0") {
      scan->Add(pos, "banned-rng",
                "wall-clock seed (time(" + arg +
                    ")) in result-bearing module '" + scan->layer +
                    "' — results must not depend on launch time");
    }
  }
}

void CheckNonfixedReduction(FileScan* scan) {
  const std::string& code = scan->cleaned.code;
  struct Pattern {
    const char* needle;
    const char* what;
  };
  static constexpr Pattern kPatterns[] = {
      {"std::reduce", "std::reduce accumulates in unspecified order"},
      {"std::transform_reduce",
       "std::transform_reduce accumulates in unspecified order"},
      {"std::execution::par",
       "parallel execution policies reorder floating-point reduction"},
      {"std::atomic<float", "std::atomic<float> accumulation commits in "
                            "scheduling order"},
      {"std::atomic<double",
       "std::atomic<double> accumulation commits in scheduling order"},
  };
  for (const Pattern& pat : kPatterns) {
    size_t pos = 0;
    while ((pos = code.find(pat.needle, pos)) != std::string::npos) {
      scan->Add(pos, "nonfixed-reduction",
                std::string(pat.what) + " in result-bearing module '" +
                    scan->layer +
                    "' — keep reductions in the fixed sequential "
                    "shard order (core/sharded_scan.h)");
      pos += std::strlen(pat.needle);
    }
  }
  size_t pos = 0;
  while ((pos = code.find("#pragma", pos)) != std::string::npos) {
    size_t eol = code.find('\n', pos);
    std::string_view line(
        code.data() + pos,
        (eol == std::string::npos ? code.size() : eol) - pos);
    if (line.find("omp") != kNpos && line.find("reduction") != kNpos) {
      scan->Add(pos, "nonfixed-reduction",
                "OpenMP reduction reorders floating-point accumulation "
                "in result-bearing module '" +
                    scan->layer + "'");
    }
    pos += 7;
  }
}

void CheckBannedNewDelete(FileScan* scan) {
  const std::string& code = scan->cleaned.code;
  for (size_t pos : FindWord(code, "new")) {
    size_t p = SkipSpace(code, pos + 3);
    if (p == kNpos) continue;
    if (code[p] == '(') continue;  // placement new: no allocation
    if (!IsIdentChar(code[p]) && code[p] != ':') continue;
    scan->Add(pos, "banned-new-delete",
              "naked `new` — use std::make_unique/make_shared or a "
              "container");
  }
  for (size_t pos : FindWord(code, "delete")) {
    size_t i = pos;
    while (i > 0 && (code[i - 1] == ' ' || code[i - 1] == '\t' ||
                     code[i - 1] == '\n' || code[i - 1] == '\r')) {
      --i;
    }
    if (i > 0 && code[i - 1] == '=') continue;  // deleted function
    scan->Add(pos, "banned-new-delete",
              "naked `delete` — ownership belongs in RAII types "
              "(unique_ptr/shared_ptr, containers)");
  }
}

void CheckBannedAssert(FileScan* scan) {
  const std::string& code = scan->cleaned.code;
  for (size_t pos : FindWord(code, "assert")) {
    size_t p = SkipSpace(code, pos + 6);
    if (p == kNpos || code[p] != '(') continue;
    scan->Add(pos, "banned-assert",
              "assert() in module '" + scan->layer +
                  "' — this layer validates input and returns Status "
                  "(common/status.h), it does not abort");
  }
}

/// Retired names and what replaced them: a use of the word anywhere,
/// harnesses included, is a finding.
struct RetiredName {
  const char* word;
  const char* message;
};

constexpr RetiredName kRetiredNames[] = {
    {"FlagParser",
     "FlagParser was removed after its one-release deprecation window "
     "— use FlagSet (common/flags.h)"},
    {"DetectorKind",
     "the DetectorKind enum was removed — name detectors by their "
     "detector-table string (CreateDetector/ResolveDetector, "
     "core/detector_registry.h)"},
    {"DetectorKindName",
     "DetectorKindName was removed — detectors are named by their "
     "detector-table string (ResolveDetector)"},
    {"ParseDetectorKind",
     "ParseDetectorKind was removed — use ResolveDetector"},
    {"MakeDetector",
     "MakeDetector was removed — use CreateDetector(name, params)"},
    {"MakeSampledDetector",
     "MakeSampledDetector was removed — run a Session with "
     "sample_method/sample_rate/sample_seed"},
    {"RunFusion",
     "RunFusion was removed — Session (copydetect/session.h) is the "
     "one path that runs a detector to a report"},
    {"RunFusionWithDetector",
     "RunFusionWithDetector was removed — run through Session, or "
     "IterativeFusion(...).Run for a hand-built detector"},
    {"ParallelIndexDetector",
     "ParallelIndexDetector was removed — use the 'index' detector; "
     "it scans in parallel on the session executor (threads > 1)"},
    {"CD_REGISTER_DETECTOR",
     "detector self-registration was removed — add a row to the "
     "detector table in core/detector_registry.cc"},
    {"DetectorRegistry",
     "the DetectorRegistry class was removed — the detector table in "
     "core/detector_registry.cc names every detector "
     "(CreateDetector/ResolveDetector/ListDetectors)"},
    {"ShardedDetector",
     "the in-process ShardedDetector harness was removed — the scans "
     "split rows across the executor's workers; set the width with "
     "SessionOptions::threads"},
    {"SharedOverlaps",
     "the process-wide SharedOverlaps registry was removed — the run's "
     "owner holds one OverlapCache and hands it to every round through "
     "DetectionInput::overlaps"},
    {"MaintainedOverlaps",
     "MaintainedOverlaps was removed — OverlapCache holds a session's "
     "counts, installs loaded ones (Set) and steps them across a delta "
     "(Advance)"},
    {"ArenaHashMap",
     "ArenaHashMap was removed — a scan shard's pair table is a plain "
     "std::vector indexed by the run's pair ids (PairPlan, "
     "simjoin/overlap.h)"},
    {"ArenaAllocator",
     "the scan arena and its allocator were removed — round scratch is "
     "a std::vector or a FlatHashMap sized once per round"},
    {"ArenaLease",
     "the executor's arena leases were removed — a scan shard owns its "
     "round scratch"},
    {"AcquireArena",
     "the executor's arena leases were removed — a scan shard owns its "
     "round scratch"},
    {"ThreadPool",
     "the ThreadPool layer was folded into Executor (common/executor.h) "
     "— run parallel work through Executor::ParallelFor"},
    {"ShardPlan",
     "the multi-process shard plan was removed — the scans split rows "
     "across the executor's workers (OwnsRow, core/sharded_scan.h); set "
     "the width with SessionOptions::threads"},
    {"ShardResult",
     "shard files were removed with the multi-process mode — one "
     "process runs every pair; set the width with "
     "SessionOptions::threads"},
    {"BspState",
     "state files were removed with the multi-process mode — a Session "
     "runs the whole fusion loop (Run, or Start and Step)"},
    {"MergeShardResults",
     "the shard merge was removed with the multi-process mode — "
     "RunShardedScan (core/sharded_scan.h) merges its workers' pairs"},
    {"InitShardedRun",
     "the multi-process mode was removed — run through Session::Run, "
     "or Start and Step"},
    {"RunShardRound",
     "the multi-process mode was removed — run through Session::Run, "
     "or Start and Step"},
    {"MergeShardRound",
     "the multi-process mode was removed — run through Session::Run, "
     "or Start and Step"},
    {"ShardPairReservation",
     "ShardPairReservation was removed — a scan shard's pair table is "
     "a std::vector indexed by the run's pair ids, sized by the pair "
     "plan (OverlapCache::Plan, simjoin/overlap.h)"},
};

/// Shims that completed their one-release deprecation window must not
/// creep back in: once the window closes, the old spelling is a lint
/// error, not a courtesy. The table above and the checks below name
/// each retired shim and how to spot a reintroduction.
void CheckDeprecatedShim(FileScan* scan) {
  const std::string& code = scan->cleaned.code;

  for (const RetiredName& retired : kRetiredNames) {
    for (size_t pos : FindWord(code, retired.word)) {
      scan->Add(pos, "deprecated-shim", retired.message);
    }
  }

  // PR 9 deprecation, removed PR 10: the forwarding include that let
  // old code reach the flag parser through common/stringutil.h.
  if (scan->relpath == "src/common/stringutil.h") {
    for (const IncludeDirective& inc : scan->includes) {
      if (inc.path == "common/flags.h") {
        scan->findings.push_back(
            {scan->relpath, inc.line, "deprecated-shim",
             "the FlagParser forwarding include was removed — "
             "stringutil stays flag-free; include common/flags.h at "
             "use sites"});
      }
    }
  }

  // PR 9 deprecation, removed PR 10: the single-argument
  // Session::Load(path) forwarder (superseded by LoadOptions). A
  // one-parameter `Load(... std::string ...)` declaration in the api
  // layer is the forwarder coming back under any spelling.
  if (scan->layer == "api") {
    for (size_t pos : FindWord(code, "Load")) {
      size_t p = SkipSpace(code, pos + 4);
      if (p == kNpos || p >= code.size() || code[p] != '(') continue;
      size_t end = SkipBalanced(code, p);
      if (end == kNpos) continue;
      std::string_view params(code.data() + p + 1, end - 1 - (p + 1));
      if (params.find(',') != kNpos) continue;  // two-arg form: fine
      if (params.find("string") == kNpos) continue;  // not a decl
      scan->Add(pos, "deprecated-shim",
                "single-argument Session::Load(path) was removed "
                "after its one-release deprecation window — take "
                "LoadOptions (docs/API.md)");
    }
  }
}

void ApplySuppressions(FileScan* scan,
                       std::vector<Suppression>* suppressions) {
  std::vector<Finding> kept;
  for (Finding& f : scan->findings) {
    bool suppressed = false;
    if (f.rule != "suppression") {
      for (Suppression& s : *suppressions) {
        if (s.rule == f.rule &&
            (s.line == f.line || s.line == f.line - 1)) {
          s.used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  scan->findings = std::move(kept);
  // Audit the annotations themselves.
  const std::vector<std::string> known = AllRuleIds();
  for (const Suppression& s : *suppressions) {
    if (std::find(known.begin(), known.end(), s.rule) == known.end()) {
      scan->findings.push_back(
          {scan->relpath, s.line, "suppression",
           "cd-lint: allow(" + s.rule + ") names an unknown rule"});
      continue;
    }
    if (!s.has_reason) {
      scan->findings.push_back(
          {scan->relpath, s.line, "suppression",
           "cd-lint: allow(" + s.rule +
               ") carries no justification — every sanctioned "
               "exemption must say why"});
      continue;
    }
    if (!s.used && RuleEnabled(scan->options, s.rule)) {
      scan->findings.push_back(
          {scan->relpath, s.line, "suppression",
           "cd-lint: allow(" + s.rule +
               ") suppresses nothing — remove the stale annotation"});
    }
  }
}

std::vector<Finding> ScanOne(const Options& options,
                             std::string relpath, std::string_view text,
                             const std::set<std::string, std::less<>>*
                                 extra_unordered_names) {
  FileScan scan{options, std::move(relpath), "", CleanSource(text),
                {}, {}, {}};
  scan.layer = LayerOf(scan.relpath);
  if (scan.layer.empty()) return {};
  scan.includes = ExtractIncludes(text);
  std::vector<Suppression> suppressions =
      ParseSuppressions(scan.cleaned, scan.relpath, &scan.findings);
  const bool suppression_enabled = RuleEnabled(options, "suppression");
  if (!suppression_enabled) scan.findings.clear();

  if (RuleEnabled(options, "layering")) CheckLayering(&scan);
  if (scan.layer != "@app" && IsDeterminismModule(scan.layer)) {
    if (RuleEnabled(options, "unordered-iteration")) {
      HarvestUnorderedNames(scan.cleaned.code, &scan.unordered_names);
      if (extra_unordered_names != nullptr) {
        scan.unordered_names.insert(extra_unordered_names->begin(),
                                    extra_unordered_names->end());
      }
      CheckUnorderedIteration(&scan);
    }
    if (RuleEnabled(options, "pointer-keyed")) CheckPointerKeyed(&scan);
    if (RuleEnabled(options, "banned-rng")) CheckBannedRng(&scan);
    if (RuleEnabled(options, "nonfixed-reduction")) {
      CheckNonfixedReduction(&scan);
    }
  }
  if (scan.layer != "@app") {
    if (RuleEnabled(options, "banned-new-delete")) {
      CheckBannedNewDelete(&scan);
    }
    if ((scan.layer == "api" || scan.layer == "snapshot") &&
        RuleEnabled(options, "banned-assert")) {
      CheckBannedAssert(&scan);
    }
  }
  // Every layer including @app: retired shims stay retired in
  // harnesses and examples too.
  if (RuleEnabled(options, "deprecated-shim")) CheckDeprecatedShim(&scan);

  if (suppression_enabled) {
    ApplySuppressions(&scan, &suppressions);
  } else {
    // Still honor the annotations as suppressions, just without the
    // unused/malformed audit.
    ApplySuppressions(&scan, &suppressions);
    std::vector<Finding> kept;
    for (Finding& f : scan.findings) {
      if (f.rule != "suppression") kept.push_back(std::move(f));
    }
    scan.findings = std::move(kept);
  }
  return std::move(scan.findings);
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace

std::string Finding::Format() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

std::vector<std::string> AllRuleIds() {
  return {"layering",          "unordered-iteration",
          "pointer-keyed",     "banned-rng",
          "nonfixed-reduction", "banned-new-delete",
          "banned-assert",     "deprecated-shim",
          "suppression"};
}

bool RuleEnabled(const Options& options, std::string_view rule) {
  if (options.checks.empty()) return true;
  for (const std::string& c : options.checks) {
    if (c == rule) return true;
    if (c == "determinism" &&
        (rule == "unordered-iteration" || rule == "pointer-keyed" ||
         rule == "banned-rng" || rule == "nonfixed-reduction")) {
      return true;
    }
    if (c == "banned" &&
        (rule == "banned-new-delete" || rule == "banned-assert" ||
         rule == "deprecated-shim")) {
      return true;
    }
  }
  return false;
}

std::vector<Finding> LintText(const Options& options,
                              std::string_view relpath,
                              std::string_view text) {
  std::vector<Finding> findings =
      ScanOne(options, std::string(relpath), text, nullptr);
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> LintTree(const Options& options) {
  std::vector<Finding> findings;
  const fs::path root(options.root.empty() ? "." : options.root);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return {{options.root, 0, "error",
             "root is not a readable directory"}};
  }

  std::vector<fs::path> files;
  for (const char* top : {"src", "examples", "bench"}) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc") files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());

  auto read_file = [](const fs::path& p, std::string* out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
  };

  // Cache of unordered-container names declared in repo headers, so a
  // .cc iterating a member declared in its header is still caught.
  std::map<std::string, std::set<std::string, std::less<>>>
      header_names;
  auto names_of_header =
      [&](const std::string& inc)
      -> const std::set<std::string, std::less<>>* {
    auto it = header_names.find(inc);
    if (it != header_names.end()) return &it->second;
    std::string content;
    bool found = false;
    for (const fs::path& cand : {root / "src" / inc,
                                 root / "src" / "api" / inc}) {
      if (fs::is_regular_file(cand, ec) && read_file(cand, &content)) {
        found = true;
        break;
      }
    }
    auto& slot = header_names[inc];
    if (found) {
      CleanedSource cleaned = CleanSource(content);
      HarvestUnorderedNames(cleaned.code, &slot);
    }
    return &slot;
  };

  for (const fs::path& file : files) {
    const std::string relpath =
        fs::relative(file, root, ec).generic_string();
    std::string text;
    if (!read_file(file, &text)) {
      findings.push_back(
          {relpath, 0, "error", "file became unreadable mid-scan"});
      continue;
    }
    std::set<std::string, std::less<>> extra;
    const std::string layer = LayerOf(relpath);
    if (IsDeterminismModule(layer) &&
        RuleEnabled(options, "unordered-iteration")) {
      for (const IncludeDirective& inc : ExtractIncludes(text)) {
        const auto* names = names_of_header(inc.path);
        extra.insert(names->begin(), names->end());
      }
    }
    std::vector<Finding> file_findings =
        ScanOne(options, relpath, text, &extra);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  SortFindings(&findings);
  return findings;
}

}  // namespace copydetect::lint
