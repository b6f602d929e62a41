// copydetectd — the long-lived serving daemon (docs/SERVER.md).
//
// Holds many named sessions behind a SessionManager, speaks the
// newline-delimited JSON protocol of serve/wire.h on a local socket,
// and recovers every session saved in --state-dir on startup:
//
//   copydetectd --socket=/tmp/copydetect.sock --state-dir=state/
//
// SIGINT/SIGTERM shut down cleanly: stop accepting, drain every
// session's update queue, join all threads. State is persisted only
// by explicit `save` requests — a kill -9 loses exactly the updates
// not saved, and a restart serves the last saved state byte-for-byte
// (the serve-smoke CI leg proves it).

#include <signal.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <string>

#include "copydetect/session.h"
#include "serve/server.h"

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // One malloc arena, set before any thread starts. glibc adds an
  // arena, with a 64 MiB address-space reservation, whenever two
  // threads allocate at once (up to 8 per core); a connection thread
  // that starts while the previous one is still exiting does that, so
  // under connection churn VmSize stepped up 64 MiB at a time.
  // docs/SERVER.md records what the cap costs.
  mallopt(M_ARENA_MAX, 1);
#endif
  // Block the shutdown signals in every thread (spawned threads
  // inherit this mask), then sigwait below — the portable way to turn
  // signals into a plain blocking call.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  std::string socket_path = "/tmp/copydetectd.sock";
  std::string state_dir;
  uint64_t queue_capacity = 64;
  bool mapped_recovery = false;

  copydetect::FlagSet flags(
      "copydetectd: serve copy-detection sessions over a local socket");
  flags.String("socket", &socket_path, "listening socket path");
  flags.String("state-dir", &state_dir,
               "snapshot directory for save + crash recovery "
               "(empty disables persistence)");
  flags.Uint64("queue-capacity", &queue_capacity,
               "per-session bound on unapplied update batches");
  flags.Bool("mapped-recovery", &mapped_recovery,
             "recover snapshots via the zero-copy mmap backend");
  flags.ParseOrDie(argc, argv);

  copydetect::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.manager.state_dir = state_dir;
  options.manager.queue_capacity = queue_capacity;
  options.manager.recovery_load_mode =
      mapped_recovery ? copydetect::LoadMode::kMapped
                      : copydetect::LoadMode::kOwned;

  auto server = copydetect::serve::Server::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "copydetectd: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  {
    const auto names = (*server)->manager().Names();
    std::fprintf(stderr,
                 "copydetectd: serving on %s (%zu session(s) recovered)\n",
                 socket_path.c_str(), names.size());
    for (const std::string& name : names) {
      std::fprintf(stderr, "copydetectd:   recovered '%s'\n",
                   name.c_str());
    }
  }

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::fprintf(stderr, "copydetectd: signal %d, draining\n",
               signal_number);
  (*server)->Shutdown();
  return 0;
}
