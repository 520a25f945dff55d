//===- serve/Session.cpp - Session-oriented serving API ----------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Session.h"

#include <algorithm>
#include <cstdio>

using namespace llsc;
using namespace llsc::serve;

Admission Session::submit(JobSpec Spec) {
  Admission A;
  if (Svc.draining()) {
    A.Status = AdmitStatus::Draining;
    return A;
  }
  // The session mutex is held across admission so the completion
  // callback (worker thread, takes the same mutex) cannot observe a
  // job that was admitted but not yet filed in Active. Lock order is
  // session -> queue -> fleet; no path takes them in reverse.
  std::unique_lock<std::mutex> Lock(Mutex);
  if (Closed) {
    A.Status = AdmitStatus::Closed;
    return A;
  }
  if (Config.MaxInFlight && Active.size() >= Config.MaxInFlight) {
    A.Status = AdmitStatus::QuotaExceeded;
    return A;
  }

  std::shared_ptr<Session> Self = shared_from_this();
  A = Svc.fleet().trySubmit(
      std::move(Spec),
      [Self](const JobResult &Result) { Self->onJobComplete(Result); });
  if (A.Status == AdmitStatus::Accepted) {
    ++Submitted;
    Active.emplace(A.Handle.id(), A.Handle);
  }
  return A;
}

ErrorOr<std::shared_ptr<const MachineSnapshot>>
Session::captureSnapshot(const std::string &Name, const JobSpec &Donor,
                         bool Warm) {
  if (Svc.draining())
    return makeError("session '%s': service is draining",
                     Config.Name.c_str());
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Closed)
      return makeError("session '%s' is closed", Config.Name.c_str());
    if (Snapshots.count(Name))
      return makeError("session '%s': duplicate snapshot '%s'",
                       Config.Name.c_str(), Name.c_str());
  }
  // Capture outside the lock — the donor loads, warms and images, which
  // takes as long as one full job.
  auto SnapOrErr = Svc.fleet().captureSnapshot(Donor, Warm);
  if (!SnapOrErr)
    return SnapOrErr.error();
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Closed)
    return makeError("session '%s' closed during snapshot capture",
                     Config.Name.c_str());
  Snapshots[Name] = *SnapOrErr;
  return std::move(*SnapOrErr);
}

std::shared_ptr<const MachineSnapshot>
Session::findSnapshot(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Snapshots.find(Name);
  return It == Snapshots.end() ? nullptr : It->second;
}

std::optional<JobState> Session::poll(uint64_t JobId) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (auto It = Active.find(JobId); It != Active.end())
    return It->second.state();
  if (auto It = Terminal.find(JobId); It != Terminal.end())
    return It->second;
  return std::nullopt;
}

std::vector<JobResult> Session::stream(size_t Max, double TimeoutSeconds) {
  std::vector<JobResult> Out;
  if (Max == 0)
    return Out;
  std::unique_lock<std::mutex> Lock(Mutex);
  Cv.wait_for(Lock, std::chrono::duration<double>(TimeoutSeconds), [this] {
    return !Ready.empty() || (Closed && Active.empty());
  });
  while (!Ready.empty() && Out.size() < Max) {
    Out.push_back(std::move(Ready.front()));
    Ready.pop_front();
  }
  return Out;
}

bool Session::cancel(uint64_t JobId) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Active.find(JobId);
  if (It == Active.end())
    return false;
  It->second.requestCancel();
  return true;
}

void Session::finishCloseLocked() {
  // The session's snapshot references are what keeps parked clone
  // buckets alive through MachinePool::trim; dropping them here is
  // what finally lets the pool reclaim that capacity.
  Snapshots.clear();
}

bool Session::tryClose() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Closed = true;
  if (!Active.empty())
    return false;
  finishCloseLocked();
  return true;
}

void Session::close() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Closed = true;
  Cv.wait(Lock, [this] { return Active.empty(); });
  finishCloseLocked();
}

bool Session::idle() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Closed && Active.empty();
}

bool Session::closed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Closed;
}

size_t Session::inFlight() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Active.size();
}

size_t Session::buffered() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Ready.size();
}

uint64_t Session::droppedResults() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Dropped;
}

uint64_t Session::submitted() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Submitted;
}

void Session::setNotifier(std::function<void()> Fn) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Notifier = std::move(Fn);
}

void Session::onJobComplete(const JobResult &Result) {
  std::function<void()> Notify;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Active.erase(Result.JobId);
    Terminal[Result.JobId] = Result.State;
    TerminalOrder.push_back(Result.JobId);
    Ready.push_back(Result);
    if (Config.MaxBufferedResults &&
        Ready.size() > Config.MaxBufferedResults) {
      Ready.pop_front();
      ++Dropped;
    }
    // A long-lived session would otherwise remember every job it ever
    // ran; keep only the newest finished states.
    if (Config.MaxBufferedResults &&
        TerminalOrder.size() > Config.MaxBufferedResults) {
      Terminal.erase(TerminalOrder.front());
      TerminalOrder.pop_front();
    }
    if (Closed && Active.empty())
      finishCloseLocked();
    Notify = Notifier;
  }
  Cv.notify_all();
  if (Notify)
    Notify();
}

SessionService::SessionService(const ServiceConfig &Config)
    : Fleet(Config.Fleet) {}

ErrorOr<std::shared_ptr<Session>>
SessionService::createSession(const SessionConfig &Config) {
  if (draining())
    return makeError("service is draining; no new sessions");
  std::lock_guard<std::mutex> Lock(Mutex);
  SessionConfig Cfg = Config;
  if (Cfg.Name.empty()) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "s%llu",
                  static_cast<unsigned long long>(NextAutoName++));
    Cfg.Name = Buf;
  }
  if (Sessions.count(Cfg.Name))
    return makeError("session '%s' already exists", Cfg.Name.c_str());
  // make_shared needs a public ctor; Session's is private to keep the
  // registry authoritative, so allocate directly.
  std::shared_ptr<Session> S(new Session(*this, Cfg));
  Sessions[Cfg.Name] = S;
  return S;
}

std::shared_ptr<Session> SessionService::find(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sessions.find(Name);
  return It == Sessions.end() ? nullptr : It->second;
}

void SessionService::closeSession(const std::string &Name) {
  std::shared_ptr<Session> S;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Sessions.find(Name);
    if (It == Sessions.end())
      return;
    S = It->second;
    Sessions.erase(It);
  }
  S->close(); // Outside the registry lock: this waits on in-flight jobs.
}

void SessionService::beginDrain() {
  Draining.store(true, std::memory_order_release);
}

std::vector<std::shared_ptr<Session>> SessionService::sessions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::shared_ptr<Session>> Out;
  Out.reserve(Sessions.size());
  for (const auto &Entry : Sessions)
    Out.push_back(Entry.second);
  return Out;
}
