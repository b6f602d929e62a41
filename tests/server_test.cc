#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "serve/wire.h"

namespace copydetect {
namespace serve {
namespace {

std::string TestSocketPath(const char* tag) {
  // sun_path is ~108 bytes; gtest temp dirs stay well under that.
  return ::testing::TempDir() + "/cd_" + tag + ".sock";
}

std::unique_ptr<Server> StartTestServer(const char* tag,
                                        std::string state_dir = "") {
  ServerOptions options;
  options.socket_path = TestSocketPath(tag);
  options.manager.state_dir = std::move(state_dir);
  auto server = Server::Start(options);
  CD_CHECK_OK(server.status());
  return std::move(*server);
}

/// A blocking test client: one ndjson request out, one response in.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  JsonValue Call(const std::string& request) {
    SendRaw(request + "\n");
    return ReadResponse();
  }

  /// Bytes on the wire verbatim — no newline appended, no framing
  /// assumptions. For the malformed-traffic tests.
  void SendRaw(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::write(fd_, data.data() + sent, data.size() - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// One response line, parsed. Fails the test on EOF or non-JSON —
  /// exactly the "never disconnect, never desync" contract.
  JsonValue ReadResponse() {
    std::string response;
    char c;
    while (::read(fd_, &c, 1) == 1 && c != '\n') response.push_back(c);
    auto parsed = ParseJson(response);
    CD_CHECK_OK(parsed.status());
    return std::move(*parsed);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

const char* kOpenRequest =
    "{\"verb\":\"open\",\"session\":\"books\","
    "\"data\":{\"generate\":\"example\"},"
    "\"options\":{\"detector\":\"index\",\"n\":10}}";

TEST(Server, SocketRoundTrip) {
  auto server = StartTestServer("roundtrip");
  Client client(server->socket_path());
  ASSERT_TRUE(client.connected());

  JsonValue opened = client.Call(kOpenRequest);
  ASSERT_TRUE(opened.GetBool("ok", false)) << opened.Dump();
  EXPECT_EQ(opened.GetUint64("version", 99), 0u);
  EXPECT_GT(opened.GetUint64("num_sources", 0), 0u);

  JsonValue updated = client.Call(
      "{\"verb\":\"update\",\"session\":\"books\","
      "\"set\":[[\"newsrc\",\"item\",\"7\"]]}");
  ASSERT_TRUE(updated.GetBool("ok", false)) << updated.Dump();
  EXPECT_EQ(updated.GetUint64("version", 0), 1u);

  JsonValue queried =
      client.Call("{\"verb\":\"query\",\"session\":\"books\"}");
  ASSERT_TRUE(queried.GetBool("ok", false)) << queried.Dump();
  const JsonValue* report = queried.Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->GetString("detector"), "index");

  JsonValue stats = client.Call("{\"verb\":\"stats\"}");
  ASSERT_TRUE(stats.GetBool("ok", false));
  ASSERT_NE(stats.Find("sessions"), nullptr);
  EXPECT_EQ(stats.Find("sessions")->items().size(), 1u);

  JsonValue closed =
      client.Call("{\"verb\":\"close\",\"session\":\"books\"}");
  EXPECT_TRUE(closed.GetBool("ok", false));
}

TEST(Server, MultipleConcurrentConnections) {
  auto server = StartTestServer("concurrent");
  {
    Client opener(server->socket_path());
    ASSERT_TRUE(opener.connected());
    ASSERT_TRUE(opener.Call(kOpenRequest).GetBool("ok", false));
  }  // and the daemon outlives the connection
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&server, &ok_count] {
      Client client(server->socket_path());
      ASSERT_TRUE(client.connected());
      for (int j = 0; j < 10; ++j) {
        JsonValue response = client.Call(
            "{\"verb\":\"query\",\"session\":\"books\"}");
        if (response.GetBool("ok", false)) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), 40);
}

/// This process's VmSize in KiB (/proc/self/status), or -1.
long VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtol(line.c_str() + 7, nullptr, 10);
    }
  }
  return -1;
}

// A finished connection's thread is joined, so its stack is unmapped:
// a daemon that has served many connections, one after another, maps
// no more than one that has served a few.
TEST(Server, SequentialConnectionsKeepVmSizeFlat) {
#if defined(__GLIBC__)
  // glibc maps 64 MiB for each malloc arena it adds when two threads
  // allocate at once, which a connection thread finishing while the
  // next one starts can trigger. One arena leaves thread stacks as the
  // only mappings a served connection can keep.
  mallopt(M_ARENA_MAX, 1);
#endif
  auto server = StartTestServer("sequential");
  auto serve_one = [&server] {
    Client client(server->socket_path());
    ASSERT_TRUE(client.connected());
    EXPECT_TRUE(client.Call("{\"verb\":\"stats\"}").GetBool("ok", false));
  };
  for (int i = 0; i < 10; ++i) serve_one();
  const long after_10 = VmSizeKiB();
  ASSERT_GT(after_10, 0);
  for (int i = 10; i < 200; ++i) serve_one();
  const long after_200 = VmSizeKiB();
  EXPECT_LE(after_200 - after_10, 64 * 1024)
      << "VmSize " << after_10 << " kB after 10 connections, "
      << after_200 << " kB after 200";
}

TEST(Server, ShutdownUnblocksClientsAndRemovesSocket) {
  auto server = StartTestServer("shutdown");
  const std::string socket_path = server->socket_path();
  Client client(socket_path);
  ASSERT_TRUE(client.connected());
  server->Shutdown();
  server->Shutdown();  // idempotent
  EXPECT_FALSE(std::filesystem::exists(socket_path));
  Client late(socket_path);
  EXPECT_FALSE(late.connected());
}

// HandleLine is the full request dispatcher without the transport —
// error paths are easier to pin down here than through a socket.
TEST(Server, HandleLineErrorPaths) {
  auto server = StartTestServer("handleline");
  auto error_code = [&](const std::string& line) {
    auto parsed = ParseJson(server->HandleLine(line));
    CD_CHECK_OK(parsed.status());
    EXPECT_FALSE(parsed->GetBool("ok", true)) << line;
    const JsonValue* error = parsed->Find("error");
    return error == nullptr ? std::string() : error->GetString("code");
  };
  EXPECT_EQ(error_code("not json at all"), "InvalidArgument");
  EXPECT_EQ(error_code("{\"verb\":\"jump\"}"), "InvalidArgument");
  EXPECT_EQ(error_code("{\"verb\":\"query\"}"), "InvalidArgument");
  EXPECT_EQ(error_code("{\"verb\":\"query\",\"session\":\"none\"}"),
            "NotFound");
  EXPECT_EQ(error_code("{\"verb\":\"open\",\"session\":\"x\"}"),
            "InvalidArgument");  // no data spec
  // Save without a state dir configured.
  ASSERT_TRUE(
      ParseJson(server->HandleLine(kOpenRequest))->GetBool("ok", false));
  EXPECT_EQ(error_code("{\"verb\":\"save\",\"session\":\"books\"}"),
            "FailedPrecondition");
}

TEST(Server, MalformedTrafficGetsEnvelopesNeverDisconnects) {
  auto server = StartTestServer("malformed");
  Client client(server->socket_path());
  ASSERT_TRUE(client.connected());

  // Every hostile line must come back as one {"ok":false,...}
  // envelope on the same still-open connection.
  const std::string hostile[] = {
      "complete garbage, not json",
      std::string("\x01\x02\xfe\xff binary", 11),
      "{\"verb\":\"query\",\"session\":\"bo",  // truncated JSON
      "{\"verb\":\"jump\",\"session\":\"x\"}",   // unknown verb
      "[1,2,3]",                                  // non-object
      "",                                         // empty line
  };
  for (const std::string& line : hostile) {
    JsonValue response = client.Call(line);
    EXPECT_FALSE(response.GetBool("ok", true)) << response.Dump();
    const JsonValue* error = response.Find("error");
    ASSERT_NE(error, nullptr) << response.Dump();
    EXPECT_FALSE(error->GetString("code").empty()) << response.Dump();
  }

  // The connection survived all of it: a valid open still works.
  JsonValue opened = client.Call(kOpenRequest);
  EXPECT_TRUE(opened.GetBool("ok", false)) << opened.Dump();
}

TEST(Server, OversizedLineIsRefusedAndConnectionStaysFramed) {
  auto server = StartTestServer("oversized");
  Client client(server->socket_path());
  ASSERT_TRUE(client.connected());

  // Push past the 1 MiB line cap without ever sending a newline. The
  // server must answer with an error envelope while the line is still
  // open — an unbounded buffer would just grow forever instead.
  const std::string flood((1 << 20) + (1 << 16), 'x');
  client.SendRaw(flood);
  JsonValue refused = client.ReadResponse();
  EXPECT_FALSE(refused.GetBool("ok", true)) << refused.Dump();
  const JsonValue* error = refused.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "InvalidArgument");
  EXPECT_NE(error->GetString("message").find("exceeds"),
            std::string::npos)
      << error->Dump();

  // Finish the oversized line (it was answered once, the tail is
  // drained silently), then prove the framing recovered: garbage on
  // the tail, a fresh valid request right after.
  client.SendRaw("tail of the flood, still the same line\n");
  JsonValue opened = client.Call(kOpenRequest);
  ASSERT_TRUE(opened.GetBool("ok", false)) << opened.Dump();
  JsonValue queried =
      client.Call("{\"verb\":\"query\",\"session\":\"books\"}");
  EXPECT_TRUE(queried.GetBool("ok", false)) << queried.Dump();
}

TEST(Server, QueryReportBytesAreStableAcrossRestart) {
  const std::string state_dir =
      ::testing::TempDir() + "/cd_server_restart";
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);

  std::string report_before;
  {
    auto server = StartTestServer("restart_a", state_dir);
    ASSERT_TRUE(ParseJson(server->HandleLine(kOpenRequest))
                    ->GetBool("ok", false));
    ASSERT_TRUE(
        ParseJson(server->HandleLine(
                      "{\"verb\":\"update\",\"session\":\"books\","
                      "\"set\":[[\"newsrc\",\"item\",\"7\"]]}"))
            ->GetBool("ok", false));
    ASSERT_TRUE(ParseJson(server->HandleLine(
                              "{\"verb\":\"save\",\"session\":\"books\"}"))
                    ->GetBool("ok", false));
    auto queried = ParseJson(server->HandleLine(
        "{\"verb\":\"query\",\"session\":\"books\"}"));
    report_before = queried->Find("report")->Dump();
    // No clean close: the server object goes away as after a crash
    // (Shutdown only drains threads; it never saves).
  }

  auto server = StartTestServer("restart_b", state_dir);
  auto queried = ParseJson(
      server->HandleLine("{\"verb\":\"query\",\"session\":\"books\"}"));
  ASSERT_TRUE(queried->GetBool("ok", false)) << queried->Dump();
  EXPECT_EQ(queried->Find("report")->Dump(), report_before);
  std::filesystem::remove_all(state_dir);
}

}  // namespace
}  // namespace serve
}  // namespace copydetect
