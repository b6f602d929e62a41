// The public Session facade: whole-struct option validation with
// aggregated error messages, and bit-identical equivalence of
// Session::Run / the streaming API with the pre-facade
// IterativeFusion wiring for every registered detector.
#include "copydetect/session.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace copydetect {
namespace {

// ---------------------------------------------------------------------
// SessionOptions::Validate.

void ExpectInvalidWith(const SessionOptions& options,
                       const std::string& fragment) {
  Status status = options.Validate();
  ASSERT_FALSE(status.ok()) << "expected failure for: " << fragment;
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(fragment), std::string::npos)
      << status.message();
}

TEST(SessionOptionsValidate, DefaultsAreValid) {
  EXPECT_TRUE(SessionOptions().Validate().ok());
}

// Each range rule inherited from DetectionParams::Validate(), checked
// one at a time — and cross-checked against DetectionParams so the
// two layers cannot drift apart silently.
TEST(SessionOptionsValidate, AlphaRange) {
  for (double alpha : {0.0, -0.1, 0.25, 0.5}) {
    SessionOptions options;
    options.alpha = alpha;
    ExpectInvalidWith(options, "alpha must be in (0, 0.25)");
    EXPECT_FALSE(options.ToDetectionParams().Validate().ok());
  }
  SessionOptions ok;
  ok.alpha = 0.2;
  EXPECT_TRUE(ok.Validate().ok());
}

TEST(SessionOptionsValidate, SelectivityRange) {
  for (double s : {0.0, -1.0, 1.0, 2.0}) {
    SessionOptions options;
    options.s = s;
    ExpectInvalidWith(options, "s must be in (0, 1)");
    EXPECT_FALSE(options.ToDetectionParams().Validate().ok());
  }
}

TEST(SessionOptionsValidate, FalseValueCountRange) {
  for (double n : {0.0, 0.5, -3.0}) {
    SessionOptions options;
    options.n = n;
    ExpectInvalidWith(options, "n must be >= 1");
    EXPECT_FALSE(options.ToDetectionParams().Validate().ok());
  }
  SessionOptions ok;
  ok.n = 1.0;
  EXPECT_TRUE(ok.Validate().ok());
}

TEST(SessionOptionsValidate, RhoAccuracyPositive) {
  for (double rho : {0.0, -0.2}) {
    SessionOptions options;
    options.rho_accuracy = rho;
    ExpectInvalidWith(options, "rho_accuracy must be positive");
    EXPECT_FALSE(options.ToDetectionParams().Validate().ok());
  }
}

TEST(SessionOptionsValidate, RhoValuePositive) {
  for (double rho : {0.0, -1.0}) {
    SessionOptions options;
    options.rho_value = rho;
    ExpectInvalidWith(options, "rho_value must be positive");
    EXPECT_FALSE(options.ToDetectionParams().Validate().ok());
  }
}

// Facade-level rules.
TEST(SessionOptionsValidate, LoopControls) {
  SessionOptions options;
  options.max_rounds = -1;
  ExpectInvalidWith(options, "max_rounds must be >= 0");

  options = SessionOptions();
  options.epsilon = 0.0;
  ExpectInvalidWith(options, "epsilon must be positive");

  options = SessionOptions();
  options.initial_accuracy = 1.0;
  ExpectInvalidWith(options, "initial_accuracy must be in (0, 1)");

  options = SessionOptions();
  options.damping = 1.0;
  ExpectInvalidWith(options, "damping must be in [0, 1)");

  options = SessionOptions();
  options.sample_rate = 1.5;
  ExpectInvalidWith(options, "sample_rate must be in [0, 1]");
}

TEST(SessionOptionsValidate, UnknownDetectorListsRegistry) {
  SessionOptions options;
  options.detector = "typo";
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown detector 'typo'"),
            std::string::npos);
  for (const std::string& name : ListDetectors()) {
    EXPECT_NE(status.message().find(name), std::string::npos) << name;
  }
  // The detector name is irrelevant for the accuracy-only baseline.
  options.use_copy_detection = false;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SessionOptionsValidate, AggregatesEveryViolationInOneMessage) {
  SessionOptions options;
  options.alpha = 0.7;
  options.s = 2.0;
  options.n = 0.0;
  options.rho_accuracy = 0.0;
  options.rho_value = -1.0;
  options.max_rounds = -2;
  options.epsilon = -1e-3;
  options.initial_accuracy = 0.0;
  options.damping = 1.5;
  options.detector = "typo";
  options.sample_rate = -0.5;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  const std::string& message = status.message();
  for (const char* fragment :
       {"invalid SessionOptions", "alpha must be in (0, 0.25)",
        "s must be in (0, 1)", "n must be >= 1",
        "rho_accuracy must be positive", "rho_value must be positive",
        "max_rounds must be >= 0", "epsilon must be positive",
        "initial_accuracy must be in (0, 1)",
        "damping must be in [0, 1)", "unknown detector 'typo'",
        "sample_rate must be in [0, 1]"}) {
    EXPECT_NE(message.find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << message;
  }
}

TEST(SessionCreate, RejectsInvalidOptionsWithAggregate) {
  SessionOptions options;
  options.alpha = 0.9;
  options.s = -1.0;
  auto session = Session::Create(options);
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("alpha"),
            std::string::npos);
  EXPECT_NE(session.status().message().find("s must be"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Bit-identical equivalence with the pre-facade wiring.

void ExpectSameCopies(const CopyResult& got, const CopyResult& want) {
  EXPECT_EQ(got.NumTracked(), want.NumTracked());
  size_t checked = 0;
  want.ForEach([&](SourceId a, SourceId b, const PairPosterior& w) {
    PairPosterior g = got.Get(a, b);
    EXPECT_EQ(g.p_indep, w.p_indep) << "pair " << a << "," << b;
    EXPECT_EQ(g.p_first_copies, w.p_first_copies)
        << "pair " << a << "," << b;
    EXPECT_EQ(g.p_second_copies, w.p_second_copies)
        << "pair " << a << "," << b;
    ++checked;
  });
  EXPECT_EQ(checked, want.NumTracked());
}

void ExpectSameFusion(const FusionResult& got, const FusionResult& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.converged, want.converged);
  // Bitwise: EXPECT_EQ on doubles is exact equality, no tolerance.
  ASSERT_EQ(got.value_probs.size(), want.value_probs.size());
  for (size_t v = 0; v < want.value_probs.size(); ++v) {
    EXPECT_EQ(got.value_probs[v], want.value_probs[v]) << "slot " << v;
  }
  ASSERT_EQ(got.accuracies.size(), want.accuracies.size());
  for (size_t s = 0; s < want.accuracies.size(); ++s) {
    EXPECT_EQ(got.accuracies[s], want.accuracies[s]) << "source " << s;
  }
  EXPECT_EQ(got.truth, want.truth);
  ExpectSameCopies(got.copies, want.copies);
}

/// The pre-facade path: hand-built Executor + registry detector +
/// IterativeFusion, exactly what callers wired before Session existed.
FusionResult RunPreFacade(const Dataset& data,
                          const SessionOptions& options) {
  Executor executor(options.threads);
  FusionOptions fusion_options = options.ToFusionOptions();
  fusion_options.params.executor = &executor;
  std::unique_ptr<CopyDetector> detector;
  if (options.use_copy_detection) {
    auto made = CreateDetector(options.detector, fusion_options.params);
    CD_CHECK_OK(made.status());
    detector = std::move(made).value();
  }
  auto result =
      IterativeFusion(fusion_options).Run(data, detector.get());
  CD_CHECK_OK(result.status());
  return std::move(result).value();
}

Report RunSession(const Dataset& data, const SessionOptions& options) {
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  auto report = session->Run(data);
  CD_CHECK_OK(report.status());
  return std::move(report).value();
}

TEST(SessionEquivalence, MotivatingExampleEveryDetector) {
  World world = MotivatingExample();
  for (const std::string& name : ListDetectors()) {
    SCOPED_TRACE(name);
    SessionOptions options;
    options.detector = name;
    Report report = RunSession(world.data, options);
    EXPECT_EQ(report.detector, name);
    ExpectSameFusion(report.fusion,
                     RunPreFacade(world.data, options));
  }
}

TEST(SessionEquivalence, MotivatingExampleAccuracyOnly) {
  World world = MotivatingExample();
  SessionOptions options;
  options.use_copy_detection = false;
  Report report = RunSession(world.data, options);
  EXPECT_EQ(report.detector, "");
  ExpectSameFusion(report.fusion, RunPreFacade(world.data, options));
}

// The acceptance anchor: the book data set, serial and at 4 threads,
// through the facade vs the pre-facade wiring, bit for bit.
TEST(SessionEquivalence, BookDatasetThreads1And4) {
  auto world = MakeWorldByName("book-cs", 0.15, 7);
  CD_CHECK_OK(world.status());
  for (const std::string& name : {std::string("hybrid"),
                                  std::string("index"),
                                  std::string("incremental")}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      SessionOptions options;
      options.detector = name;
      options.n = world->suggested_n;
      options.max_rounds = 6;
      options.threads = threads;
      Report report = RunSession(world->data, options);
      EXPECT_EQ(report.threads, threads);
      ExpectSameFusion(report.fusion,
                       RunPreFacade(world->data, options));
    }
  }
}

TEST(SessionEquivalence, SampledSessionMatchesSampledDetector) {
  auto world = MakeWorldByName("book-cs", 0.1, 11);
  CD_CHECK_OK(world.status());
  SessionOptions options;
  options.detector = "incremental";
  options.n = world->suggested_n;
  options.sample_rate = 0.3;
  options.sample_seed = 11;
  Report report = RunSession(world->data, options);

  // Pre-facade sampled wiring (what book_aggregator used to build).
  FusionOptions fusion_options = options.ToFusionOptions();
  auto base = CreateDetector("incremental", fusion_options.params);
  CD_CHECK_OK(base.status());
  SampleSpec spec;
  spec.method = SamplingMethod::kScaleSample;
  spec.rate = 0.3;
  spec.seed = 11;
  SampledDetector sampled(fusion_options.params, std::move(base).value(),
                          spec);
  auto want = IterativeFusion(fusion_options).Run(world->data, &sampled);
  CD_CHECK_OK(want.status());
  ExpectSameFusion(report.fusion, *want);
  // The sampling wrapper must not hide the incremental detector's
  // per-round pass statistics from the report.
  EXPECT_EQ(report.incremental_rounds.size(),
            static_cast<size_t>(report.rounds()));
}

// ---------------------------------------------------------------------
// Streaming-round API.

TEST(SessionStreaming, StepByStepMatchesOneShot) {
  World world = MotivatingExample();
  SessionOptions options;
  options.detector = "incremental";

  Report one_shot = RunSession(world.data, options);

  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  ASSERT_TRUE(session->Start(world.data).ok());
  EXPECT_TRUE(session->running());
  int rounds = 0;
  while (true) {
    auto stepped = session->Step();
    CD_CHECK_OK(stepped.status());
    if (!*stepped) break;
    ++rounds;
    // The per-round snapshot exposes the loop state and a usable
    // truth at every round.
    const Report& snapshot = session->report();
    EXPECT_EQ(snapshot.fusion.rounds, rounds);
    EXPECT_EQ(snapshot.fusion.truth.size(), world.data.num_items());
    EXPECT_EQ(snapshot.incremental_rounds.size(),
              static_cast<size_t>(rounds));
  }
  EXPECT_FALSE(session->running());
  EXPECT_EQ(rounds, one_shot.rounds());

  const Report& streamed = session->report();
  ExpectSameFusion(streamed.fusion, one_shot.fusion);
  EXPECT_EQ(streamed.counters.Total(), one_shot.counters.Total());
  ASSERT_EQ(streamed.incremental_rounds.size(),
            one_shot.incremental_rounds.size());
  for (size_t i = 0; i < streamed.incremental_rounds.size(); ++i) {
    EXPECT_EQ(streamed.incremental_rounds[i].pass1,
              one_shot.incremental_rounds[i].pass1);
    EXPECT_EQ(streamed.incremental_rounds[i].from_scratch,
              one_shot.incremental_rounds[i].from_scratch);
  }

  // Once finished, further Steps are no-ops reporting completion.
  auto extra = session->Step();
  CD_CHECK_OK(extra.status());
  EXPECT_FALSE(*extra);
}

TEST(SessionStreaming, MovedMidRunKeepsStepping) {
  // The running loop borrows the session's detector and overlap
  // counts; a Session moved mid-run must keep stepping on them after
  // the moved-from object is gone.
  World world = MotivatingExample();
  SessionOptions options;
  options.detector = "hybrid";
  Report straight = RunSession(world.data, options);

  std::optional<Session> moved;
  {
    auto source = Session::Create(options);
    CD_CHECK_OK(source.status());
    ASSERT_TRUE(source->Start(world.data).ok());
    CD_CHECK_OK(source->Step().status());
    moved.emplace(std::move(source).value());
  }  // the moved-from source is destroyed here
  while (true) {
    auto stepped = moved->Step();
    CD_CHECK_OK(stepped.status());
    if (!*stepped) break;
  }
  ExpectSameFusion(moved->report().fusion, straight.fusion);
}

TEST(SessionStreaming, StepBeforeStartFails) {
  auto session = Session::Create(SessionOptions());
  CD_CHECK_OK(session.status());
  auto stepped = session->Step();
  ASSERT_FALSE(stepped.ok());
  EXPECT_EQ(stepped.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionStreaming, SessionIsReusableAcrossRuns) {
  // INCREMENTAL keeps cross-round state; a second Run on the same
  // Session must match a fresh Session bit for bit.
  World world = MotivatingExample();
  SessionOptions options;
  options.detector = "incremental";
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  auto first = session->Run(world.data);
  CD_CHECK_OK(first.status());
  auto second = session->Run(world.data);
  CD_CHECK_OK(second.status());
  ExpectSameFusion(second->fusion, first->fusion);
}

TEST(SessionReport, BundlesGraphCountersAndTiming) {
  World world = MotivatingExample();
  SessionOptions options;
  options.detector = "hybrid";
  Report report = RunSession(world.data, options);
  EXPECT_GT(report.counters.Total(), 0u);
  EXPECT_GT(report.fusion.total_seconds, 0.0);
  EXPECT_EQ(report.fusion.trace.size(),
            static_cast<size_t>(report.rounds()));
  // The motivating example plants copier groups; the analyzed graph
  // must reflect the detected pairs.
  EXPECT_EQ(report.graph.NumPairs(),
            report.copies().CopyingPairs().size());
  EXPECT_GT(report.graph.clusters.size(), 0u);
}

}  // namespace
}  // namespace copydetect
