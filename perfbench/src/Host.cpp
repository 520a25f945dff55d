//===- perfbench/src/Host.cpp - Host noise and process memory -------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Host.h"

#include <cstdio>
#include <dirent.h>
#include <sched.h>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <unistd.h>

namespace perfbench {

CpuTicks readCpuTicks() {
  CpuTicks T;
  FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return T;
  // cpu user nice system idle iowait irq softirq steal [guest guest_nice]
  // guest time is already counted in user/nice, so it is not summed.
  unsigned long long V[8] = {};
  if (std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                  &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]) == 8) {
    for (unsigned long long X : V)
      T.Total += X;
    T.Steal = V[7];
  }
  std::fclose(F);
  return T;
}

double stealPercent(const CpuTicks &Begin, const CpuTicks &End) {
  if (End.Total <= Begin.Total)
    return 0;
  return 100.0 * static_cast<double>(End.Steal - Begin.Steal) /
         static_cast<double>(End.Total - Begin.Total);
}

unsigned onlineCpus() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

double loadAverage1m() {
  double Load = 0;
  if (FILE *F = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(F, "%lf", &Load) != 1)
      Load = 0;
    std::fclose(F);
  }
  return Load;
}

double referenceLoopMs() {
  timespec T0, T1;
  clock_gettime(CLOCK_MONOTONIC, &T0);
  volatile uint64_t Sink = 0;
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (unsigned I = 0; I < (1u << 23); ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  Sink = X;
  (void)Sink;
  clock_gettime(CLOCK_MONOTONIC, &T1);
  return static_cast<double>(T1.tv_sec - T0.tv_sec) * 1e3 +
         static_cast<double>(T1.tv_nsec - T0.tv_nsec) * 1e-6;
}

CpuRotation::CpuRotation(unsigned Width) : Width(Width) {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Set))
        Cpus.push_back(Cpu);
  if (this->Width > Cpus.size())
    this->Width = static_cast<unsigned>(Cpus.size());
}

void CpuRotation::step() {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (unsigned I = 0; I < Width; ++I)
    CPU_SET(Cpus[(Next + I) % Cpus.size()], &Set);
  Next = (Next + 1) % Cpus.size();
  DIR *Tasks = opendir("/proc/self/task");
  if (!Tasks)
    return;
  while (dirent *Entry = readdir(Tasks)) {
    pid_t Tid = static_cast<pid_t>(std::atoi(Entry->d_name));
    // A thread that exits meanwhile fails with ESRCH; nothing to move.
    if (Tid > 0)
      sched_setaffinity(Tid, sizeof(Set), &Set);
  }
  closedir(Tasks);
}

double peakRssMiB() {
  FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0) {
      KiB = std::strtod(Line + 6, nullptr);
      break;
    }
  std::fclose(F);
  return KiB / 1024.0;
}

} // namespace perfbench
