#include "copydetect/session_manager.h"

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace copydetect {
namespace {

World ExampleWorld() {
  auto world = MakeWorldByName("example", 1.0, 42);
  CD_CHECK_OK(world.status());
  return std::move(world).value();
}

SessionOptions FastOptions() {
  SessionOptions options;
  options.detector = "index";
  options.n = 10.0;
  return options;
}

std::unique_ptr<SessionManager> StartManager(
    const std::string& state_dir = "") {
  SessionManagerOptions options;
  options.state_dir = state_dir;
  auto manager = SessionManager::Start(options);
  CD_CHECK_OK(manager.status());
  return std::move(*manager);
}

TEST(SessionManager, OpenPublishesVersionZero) {
  auto manager = StartManager();
  World world = ExampleWorld();
  auto ref = manager->Open("books", FastOptions(), world.data);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_TRUE(ref->valid());
  EXPECT_EQ(ref->name(), "books");
  auto snap = ref->report();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->num_sources, world.data.num_sources());
  EXPECT_EQ(snap->num_items, world.data.num_items());
  EXPECT_FALSE(snap->json.empty());
}

TEST(SessionManager, PublishedJsonMatchesReportToJson) {
  auto manager = StartManager();
  World world = ExampleWorld();
  auto ref = manager->Open("books", FastOptions(), world.data);
  ASSERT_TRUE(ref.ok());
  // The published snapshot's JSON is exactly what a direct Session
  // run renders for the same data/options.
  SessionOptions options = FastOptions();
  options.online_updates = true;  // Open forces it on
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Run(world.data).ok());
  EXPECT_EQ(ref->report()->json,
            session->report().ToJson(*session->current_data()));
}

TEST(SessionManager, RejectsBadNamesAndDuplicates) {
  auto manager = StartManager();
  World world = ExampleWorld();
  EXPECT_EQ(manager->Open("", FastOptions(), world.data).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager->Open("a/b", FastOptions(), world.data)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(manager->Open("dup", FastOptions(), world.data).ok());
  EXPECT_EQ(
      manager->Open("dup", FastOptions(), world.data).status().code(),
      StatusCode::kAlreadyExists);
}

TEST(SessionManager, AttachCloseNames) {
  auto manager = StartManager();
  World world = ExampleWorld();
  ASSERT_TRUE(manager->Open("b", FastOptions(), world.data).ok());
  ASSERT_TRUE(manager->Open("a", FastOptions(), world.data).ok());
  EXPECT_EQ(manager->Names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(manager->Attach("a").ok());
  EXPECT_EQ(manager->Attach("zzz").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(manager->Close("a").ok());
  EXPECT_EQ(manager->Close("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(manager->Names(), (std::vector<std::string>{"b"}));
}

TEST(SessionManager, RefsOutliveCloseSafely) {
  auto manager = StartManager();
  World world = ExampleWorld();
  auto ref = manager->Open("books", FastOptions(), world.data);
  ASSERT_TRUE(ref.ok());
  auto snap_before = ref->report();
  ASSERT_TRUE(manager->Close("books").ok());
  // The old snapshot stays valid (shared_ptr), new work is refused.
  EXPECT_FALSE(snap_before->json.empty());
  DatasetDelta delta;
  delta.Set("newsrc", "item", "1");
  EXPECT_EQ(ref->Update(delta).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ref->Save().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionManager, UpdateBumpsVersionAndMatchesRebuild) {
  auto manager = StartManager();
  World world = ExampleWorld();
  auto ref = manager->Open("books", FastOptions(), world.data);
  ASSERT_TRUE(ref.ok());

  DatasetDelta delta;
  delta.Set("brand_new_source", "new_item", "7");
  ASSERT_TRUE(ref->Update(delta).ok());
  auto snap = ref->report();
  EXPECT_EQ(snap->version, 1u);

  // Bit-identity against a from-scratch session that applied the same
  // delta (Session::Update's own invariant, surfaced through the
  // manager's published JSON).
  SessionOptions options = FastOptions();
  options.online_updates = true;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Run(world.data).ok());
  ASSERT_TRUE(session->Update(delta).ok());
  EXPECT_EQ(snap->json,
            session->report().ToJson(*session->current_data()));
}

TEST(SessionManager, AsyncUpdatesApplyInOrder) {
  auto manager = StartManager();
  World world = ExampleWorld();
  auto ref = manager->Open("books", FastOptions(), world.data);
  ASSERT_TRUE(ref.ok());
  for (int i = 0; i < 5; ++i) {
    DatasetDelta delta;
    delta.Set("s_async", "item_" + std::to_string(i), "1");
    ASSERT_TRUE(ref->EnqueueUpdate(std::move(delta)).ok());
  }
  // A sync update behind the async ones flushes the queue: its
  // completion implies all five applied first (single worker, FIFO).
  DatasetDelta last;
  last.Set("s_async", "final", "1");
  ASSERT_TRUE(ref->Update(last).ok());
  EXPECT_EQ(ref->report()->version, 6u);
  EXPECT_EQ(ref->rejected_updates(), 0u);
}

TEST(SessionManager, SaveWithoutStateDirIsRefused) {
  auto manager = StartManager();
  World world = ExampleWorld();
  auto ref = manager->Open("books", FastOptions(), world.data);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->Save().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionManager, RecoversSavedSessionsByteIdentically) {
  const std::string state_dir =
      ::testing::TempDir() + "/cd_manager_recovery";
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);
  World world = ExampleWorld();

  std::string saved_json;
  {
    auto manager = StartManager(state_dir);
    auto ref = manager->Open("books", FastOptions(), world.data);
    ASSERT_TRUE(ref.ok());
    DatasetDelta delta;
    delta.Set("newsrc", "new_item", "3");
    ASSERT_TRUE(ref->Update(delta).ok());
    ASSERT_TRUE(ref->Save().ok());
    saved_json = ref->report()->json;
    manager->Shutdown();
  }

  auto manager = StartManager(state_dir);
  EXPECT_EQ(manager->Names(), (std::vector<std::string>{"books"}));
  auto ref = manager->Attach("books");
  ASSERT_TRUE(ref.ok());
  auto snap = ref->report();
  EXPECT_EQ(snap->version, 0u);  // version counts from recovery
  EXPECT_EQ(snap->json, saved_json);

  // The recovered session keeps serving updates.
  DatasetDelta delta;
  delta.Set("newsrc", "another_item", "4");
  EXPECT_TRUE(ref->Update(delta).ok());
  EXPECT_EQ(ref->report()->version, 1u);
  std::filesystem::remove_all(state_dir);
}

TEST(SessionManager, MissingStateDirIsFreshStart) {
  auto manager = StartManager(::testing::TempDir() +
                              "/cd_manager_never_created");
  EXPECT_TRUE(manager->Names().empty());
}

TEST(SessionManager, CorruptSnapshotFailsStart) {
  const std::string state_dir =
      ::testing::TempDir() + "/cd_manager_corrupt";
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);
  {
    std::ofstream out(state_dir + "/bad.cdsnap", std::ios::binary);
    out << "not a snapshot";
  }
  SessionManagerOptions options;
  options.state_dir = state_dir;
  auto manager = SessionManager::Start(options);
  EXPECT_FALSE(manager.ok());
  std::filesystem::remove_all(state_dir);
}

/// Start over a state dir holding one `<name>.cdsnap` that is not a
/// regular file (made by `make`) must refuse it with a Status naming the
/// file — not block in open() or read until memory runs out.
void ExpectNonRegularSnapshotFailsStart(
    const std::string& dir_name,
    const std::function<int(const std::string&)>& make) {
  const std::string state_dir = ::testing::TempDir() + "/" + dir_name;
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);
  const std::string path = state_dir + "/odd.cdsnap";
  ASSERT_EQ(make(path), 0) << path;
  SessionManagerOptions options;
  options.state_dir = state_dir;
  auto manager = SessionManager::Start(options);
  ASSERT_FALSE(manager.ok());
  EXPECT_NE(manager.status().message().find(path), std::string::npos)
      << manager.status().message();
  EXPECT_NE(manager.status().message().find("not a regular file"),
            std::string::npos)
      << manager.status().message();
  std::filesystem::remove_all(state_dir);
}

// Registered with a short ctest TIMEOUT (tests/CMakeLists.txt): a
// blocking open() of the FIFO would hang daemon start-up here.
TEST(SessionManager, FifoSnapshotFailsStart) {
  ExpectNonRegularSnapshotFailsStart(
      "cd_manager_fifo",
      [](const std::string& path) { return mkfifo(path.c_str(), 0600); });
}

TEST(SessionManager, DevZeroLinkSnapshotFailsStart) {
  ExpectNonRegularSnapshotFailsStart(
      "cd_manager_dev_zero", [](const std::string& path) {
        return symlink("/dev/zero", path.c_str());
      });
}

TEST(SessionManager, ShutdownIsIdempotentAndStopsOpens) {
  auto manager = StartManager();
  World world = ExampleWorld();
  ASSERT_TRUE(manager->Open("books", FastOptions(), world.data).ok());
  manager->Shutdown();
  manager->Shutdown();
  EXPECT_TRUE(manager->Names().empty());
  EXPECT_EQ(
      manager->Open("after", FastOptions(), world.data).status().code(),
      StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace copydetect
