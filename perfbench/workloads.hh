/**
 * @file
 * The benchmark's four workloads. Each call runs one repetition:
 * build a testbed, set up its connections, run a fixed amount of
 * simulated work, check every delivered byte, and tear down. The
 * repetition reports its host-time phase stamps, its simulated
 * outputs (which must be identical on every repetition of one seed)
 * and, when traced, the simulator's deterministic counters.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace qpip::sim {
class Simulation;
class ParallelEngine;
} // namespace qpip::sim

namespace perfbench {

/** Seeded payload bytes, readable at any stream offset. */
class Pattern
{
  public:
    Pattern(std::uint64_t seed, std::size_t bytes);
    std::size_t size() const { return size_; }
    /** Copy the stream bytes [off, off+len) into @p dst. */
    void fill(std::uint64_t off, std::uint8_t *dst, std::size_t len) const;
    /** True when @p data equals the stream bytes [off, off+len). */
    bool matches(std::uint64_t off, const std::uint8_t *data,
                 std::size_t len) const;
    std::uint8_t byteAt(std::uint64_t off) const
    {
        return bytes_[off % size_];
    }

  private:
    std::size_t size_;
    std::vector<std::uint8_t> bytes_;
};

/** Deliberate output faults for the benchmark's self-test. */
struct Inject
{
    enum class Kind { None, CorruptByte, DropCompletion };
    Kind kind = Kind::None;
    bool fired = false;

    /** Flip one byte of the first delivery offered. */
    void
    corrupt(std::uint8_t *data, std::size_t len)
    {
        if (kind == Kind::CorruptByte && !fired && len > 0) {
            data[len / 2] ^= 0x5a;
            fired = true;
        }
    }
    /** True exactly once: the checker loses this completion. */
    bool
    drop()
    {
        if (kind == Kind::DropCompletion && !fired) {
            fired = true;
            return true;
        }
        return false;
    }
};

/** Host-time stamp: monotonic wall plus process CPU. */
struct Stamp
{
    std::int64_t wallNs = 0;
    double cpuSeconds = 0.0;
    std::uint64_t allocs = 0;
};
Stamp stamp();

/** One repetition's results. */
struct RepResult
{
    bool completed = false;
    Stamp start, setupDone, measureDone, end;
    std::uint64_t opsAttempted = 0;
    std::uint64_t opsCompleted = 0;
    /** Completed and passed payload, length and order checks. */
    std::uint64_t opsOk = 0;
    /** Simulated outputs: exact, identical across repetitions. */
    std::map<std::string, double> model;
    /** Deterministic per-layer counts (measured phase). */
    std::map<std::string, double> counts;
};

/** What a workload needs besides its seed. */
struct WorkloadArgs
{
    std::uint64_t seed = 1;
    /** Work per repetition in the workload's own unit (0: default). */
    std::uint64_t size = 0;
    int threads = 1;
    bool traced = false;
    Inject *inject = nullptr;
    const Pattern *pattern = nullptr;
};

struct Workload
{
    const char *name;
    const char *sizeUnit;
    std::uint64_t defaultSize;
    /** Engine threads the workload runs on (1: serial). */
    int threads;
    RepResult (*run)(const WorkloadArgs &);
};

/** The workload called @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);
const std::vector<Workload> &allWorkloads();

} // namespace perfbench
