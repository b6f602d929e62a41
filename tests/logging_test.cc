#include "common/logging.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/executor.h"

namespace copydetect {
namespace {

std::vector<std::string> g_captured;

void CaptureSink(LogLevel /*level*/, const char* /*file*/, int /*line*/,
                 const char* message) {
  g_captured.emplace_back(message);
}

TEST(Logging, DefaultLevelIsWarning) {
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
}

TEST(Logging, SetAndGetRoundTrip) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(original);
}

TEST(Logging, FilteredMessagesDoNotEvaluateStream) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return 42;
  };
  CD_LOG(Debug) << "never shown " << expensive();
  EXPECT_EQ(evaluations, 0);  // short-circuited by the level check
  CD_LOG(Error) << "shown " << expensive();
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(original);
}

TEST(Logging, SinkReceivesEmittedMessagesAndNullRestoresStderr) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  g_captured.clear();
  SetLogSink(&CaptureSink);
  CD_LOG(Warning) << "captured " << 7;
  CD_LOG(Debug) << "below the level, never reaches the sink";
  SetLogSink(nullptr);
  CD_LOG(Error) << "back on stderr, not captured";  // visible in logs
  SetLogLevel(original);
  ASSERT_EQ(g_captured.size(), 1u);
  EXPECT_EQ(g_captured[0], "captured 7");
}

TEST(Logging, SinkSerializesConcurrentWriters) {
  // The sink mutex (g_sink_mu in logging.cc) must make concurrent
  // CD_LOG emissions atomic: every message arrives exactly once,
  // whole. Under the tsan CI preset this also proves the annotation.
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  g_captured.clear();
  SetLogSink(&CaptureSink);
  constexpr int kMessages = 64;
  {
    Executor executor(4);
    executor.ParallelFor(kMessages, [](size_t) { CD_LOG(Info) << "tick"; });
  }
  SetLogSink(nullptr);
  SetLogLevel(original);
  ASSERT_EQ(g_captured.size(), static_cast<size_t>(kMessages));
  for (const std::string& m : g_captured) EXPECT_EQ(m, "tick");
}

TEST(Logging, MacroCompilesForAllLevels) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // silence output during tests
  CD_LOG(Debug) << "d";
  CD_LOG(Info) << "i";
  CD_LOG(Warning) << "w";
  SetLogLevel(original);
}

}  // namespace
}  // namespace copydetect
