//===- serve/Session.h - Session-oriented serving API -----------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving tier's front door: a SessionService owns the worker
/// fleet (serve/BatchService.h) and hands out Sessions — persistent
/// named contexts that own snapshots, in-flight quotas and result
/// buffers. The verb set is deliberately small and identical
/// in-process and over the wire (src/net/ maps each verb to one
/// line-delimited JSON message; docs/SERVING.md has the grammar):
///
///   createSession  SessionService::createSession
///   submit         Session::submit        (non-blocking, AdmitStatus)
///   poll           Session::poll          (live job state by id)
///   stream         Session::stream        (completed results, in order)
///   cancel         Session::cancel        (best-effort, queued jobs)
///   close          Session::close / tryClose
///
/// Sessions buffer every completed result until stream() collects it,
/// so a network client can submit a burst and read results back at its
/// own pace; the buffer is bounded (drop-oldest, counted) so a client
/// that never streams cannot hold the server's memory hostage.
/// Snapshots captured through a session are owned by it — that
/// ownership is what MachinePool::trim respects when autoscaling
/// shrinks the fleet under an open session.
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_SERVE_SESSION_H
#define LLSC_SERVE_SESSION_H

#include "serve/BatchService.h"

#include <deque>
#include <map>
#include <memory>

namespace llsc {
namespace serve {

/// Per-session knobs (the create-session verb's parameters).
struct SessionConfig {
  /// Session name; empty = auto-assigned ("s1", "s2", ...).
  std::string Name;
  /// Jobs this session may have in flight (queued or running) at once;
  /// submits beyond it answer QuotaExceeded. 0 = unlimited (the fleet
  /// queue still backpressures).
  unsigned MaxInFlight = 0;
  /// Completed results buffered for stream(); beyond it the oldest
  /// buffered result is dropped (counted in droppedResults()). The same
  /// bound caps the finished-job states poll() remembers: the oldest is
  /// forgotten, and polling it answers nullopt. 0 = unbounded.
  size_t MaxBufferedResults = 1024;
};

/// Service-wide knobs: the fleet the sessions share.
struct ServiceConfig {
  BatchConfig Fleet;
};

class SessionService;

/// One serving session. Thread-safe; created via
/// SessionService::createSession and shared by pointer (the fleet's
/// completion callbacks co-own it, so a session outlives its in-flight
/// jobs even if the creator drops it).
class Session : public std::enable_shared_from_this<Session> {
public:
  /// Non-blocking submit. Rejects with QuotaExceeded / Draining /
  /// Closed / QueueFull (retry-after hint) without enqueueing; on
  /// Accepted the job's result lands in this session's buffer when it
  /// finishes and the admission carries a live JobHandle.
  Admission submit(JobSpec Spec);

  /// Captures a warm machine snapshot from \p Donor (an Image-source
  /// spec; see BatchService::captureSnapshot) and stores it in this
  /// session under \p Name. Blocking — the donor loads, warms and
  /// images before this returns.
  ErrorOr<std::shared_ptr<const MachineSnapshot>>
  captureSnapshot(const std::string &Name, const JobSpec &Donor,
                  bool Warm = true);

  /// \returns the session-owned snapshot named \p Name, or null.
  std::shared_ptr<const MachineSnapshot>
  findSnapshot(const std::string &Name) const;

  /// Live state of job \p JobId (Queued/Running while in flight, the
  /// terminal state after), or nullopt for an id this session never
  /// admitted or whose terminal state has been evicted (only the newest
  /// MaxBufferedResults finished jobs are remembered).
  std::optional<JobState> poll(uint64_t JobId) const;

  /// Collects up to \p Max buffered results in completion order,
  /// waiting up to \p TimeoutSeconds for the first one. May return
  /// fewer (or none on timeout / when the session is idle and closed).
  std::vector<JobResult> stream(size_t Max, double TimeoutSeconds);

  /// Best-effort cancel of job \p JobId: a still-queued job completes
  /// as Cancelled without running. \returns false for unknown/finished
  /// ids.
  bool cancel(uint64_t JobId);

  /// Non-blocking close: stops admissions; \returns true when the
  /// session is already idle (no in-flight jobs — snapshots dropped),
  /// false when jobs are still in flight (the close completes when
  /// they finish; watch idle()). The event loop's flavor.
  bool tryClose();

  /// Blocking close: stops admissions, waits for in-flight jobs,
  /// drops the session's snapshots. Buffered results stay streamable.
  void close();

  /// Closed and nothing in flight.
  bool idle() const;

  bool closed() const;
  size_t inFlight() const;
  size_t buffered() const;
  uint64_t droppedResults() const;
  uint64_t submitted() const;
  const std::string &name() const { return Config.Name; }

  /// Hook invoked (unlocked) after each completion lands in the buffer
  /// — the daemon's event-loop wakeup. One notifier per session.
  void setNotifier(std::function<void()> Fn);

private:
  friend class SessionService;
  Session(SessionService &Svc, const SessionConfig &Config)
      : Svc(Svc), Config(Config) {}

  /// Fleet completion callback (worker thread): files the result.
  void onJobComplete(const JobResult &Result);
  /// Drops snapshots once closed and empty; call with Mutex held.
  void finishCloseLocked();

  SessionService &Svc;
  SessionConfig Config;

  mutable std::mutex Mutex;
  std::condition_variable Cv; ///< Results arriving / in-flight emptying.
  std::map<uint64_t, JobHandle> Active; ///< In-flight, by job id.
  std::deque<JobResult> Ready;          ///< Completed, awaiting stream().
  std::map<uint64_t, JobState> Terminal; ///< Final state by job id.
  std::deque<uint64_t> TerminalOrder;    ///< Terminal's ids, oldest first.
  std::map<std::string, std::shared_ptr<const MachineSnapshot>> Snapshots;
  std::function<void()> Notifier;
  bool Closed = false;
  uint64_t Submitted = 0;
  uint64_t Dropped = 0;
};

/// The service: one shared worker fleet plus the session registry.
/// This is the object both tools/llsc-serve (in-process) and the
/// net::Server (over TCP) drive.
class SessionService {
public:
  explicit SessionService(const ServiceConfig &Config = ServiceConfig());

  /// Opens a session. Fails on a duplicate name or while draining.
  ErrorOr<std::shared_ptr<Session>>
  createSession(const SessionConfig &Config = SessionConfig());

  /// \returns the open session named \p Name, or null.
  std::shared_ptr<Session> find(const std::string &Name) const;

  /// Blocking close + unregister of the session named \p Name.
  void closeSession(const std::string &Name);

  /// Stops admissions service-wide (every submit answers Draining) —
  /// the SIGTERM half-close; in-flight jobs keep running. Idempotent.
  void beginDrain();
  bool draining() const { return Draining.load(std::memory_order_acquire); }

  /// Blocks until every admitted job has finished.
  void drain() { Fleet.drain(); }

  BatchService &fleet() { return Fleet; }
  const BatchService &fleet() const { return Fleet; }

  /// Open sessions, for the daemon's drain sweep and stats verb.
  std::vector<std::shared_ptr<Session>> sessions() const;

private:
  BatchService Fleet;
  std::atomic<bool> Draining{false};
  mutable std::mutex Mutex;
  std::map<std::string, std::shared_ptr<Session>> Sessions;
  uint64_t NextAutoName = 1;
};

} // namespace serve
} // namespace llsc

#endif // LLSC_SERVE_SESSION_H
