/**
 * @file
 * Host-time spans around the benchmark's calls into each layer of the
 * simulator, plus a heap-allocation counter. Spans are kept in memory
 * (one buffer per thread, so engine worker threads record without a
 * lock) and analysed after each repetition: self time per layer,
 * call-duration percentiles, and Chrome trace_event JSON in the same
 * shape as sim::Tracer's output, so one viewer opens both.
 *
 * Recording is off unless a traced repetition is running; an
 * untraced repetition pays one relaxed atomic load per span site.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** The simulator modules a span can charge. */
enum class Layer : std::uint8_t {
    Bench,     ///< the benchmark's own code and callbacks
    Apps,      ///< testbed construction and teardown
    Sim,       ///< Simulation::runUntil* (event execution)
    SimEngine, ///< ParallelEngine construction and partitioning
    Host,      ///< host::HostStack / TcpSocket calls
    Qpip,      ///< verbs calls
    NumLayers,
};

constexpr int numLayers = static_cast<int>(Layer::NumLayers);

const char *layerName(Layer l);

/** Monotonic host time in nanoseconds. */
std::int64_t nowNs();

/**
 * Span recording for one repetition at a time. begin() ... end()
 * bracket the repetition; every thread that records into it must
 * have been joined before end() (the testbeds join their engine
 * workers on destruction, which happens inside the repetition).
 */
class SpanRecorder
{
  public:
    /** Start recording a repetition that runs on @p threads threads. */
    static void begin(int threads);
    /** Stop recording; the spans stay until the next begin(). */
    static void end();
    static bool
    on()
    {
        return recording_.load(std::memory_order_relaxed);
    }

    /** Open a span on the calling thread. @return its handle. */
    static std::int32_t open(const char *name, Layer layer);
    static void close(std::int32_t handle);

  private:
    static std::atomic<bool> recording_;
};

/** RAII span; a no-op when recording is off. */
class Span
{
  public:
    Span(const char *name, Layer layer)
        : handle_(SpanRecorder::on() ? SpanRecorder::open(name, layer)
                                     : -1)
    {}
    ~Span()
    {
        if (handle_ >= 0)
            SpanRecorder::close(handle_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::int32_t handle_;
};

/** Run @p fn inside a span named @p name. */
template <typename Fn>
decltype(auto)
traced(const char *name, Layer layer, Fn &&fn)
{
    Span s(name, layer);
    return fn();
}

/** The analysed spans of one traced repetition. */
struct SpanReport
{
    struct Flat
    {
        const char *name = nullptr;
        Layer layer = Layer::Bench;
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int32_t parent = -1; ///< index into spans, or -1
        std::uint32_t tid = 0;    ///< 0 = the thread that called begin()
        double selfSeconds = 0.0;
    };
    std::vector<Flat> spans;
    /** Self time per layer; the rows sum to rootSeconds. */
    double selfSeconds[numLayers] = {};
    /** Duration of the outermost span (the traced wall time). */
    double rootSeconds = 0.0;

    /** Summed duration of every span named @p name. */
    double inclusiveSeconds(const char *name) const;
    /** Durations in ns of the spans whose name is in @p names. */
    std::vector<double>
    durationsNs(const std::vector<std::string> &names) const;
};

/**
 * Analyse the spans recorded since the last begin(). A span's self
 * time is its duration minus what its children cover. While the
 * main thread is inside a Sim span, each of the repetition's threads
 * owns 1/threads of the wall clock: a thread inside a span charges
 * that span, and an engine worker outside every span is executing
 * events or waiting at a barrier, which charges the Sim span. With
 * one thread this is the ordinary self time; in every case the
 * per-layer rows add up to the root span.
 */
SpanReport analyseSpans();

/**
 * Write @p r as Chrome trace_event JSON, timestamps in host
 * microseconds from the root span's start. @return false on I/O
 * failure.
 */
bool writeChromeTrace(const SpanReport &r, const std::string &path);

/** Heap allocations (operator new) counted while enabled. */
struct AllocCounter
{
    static void enable(bool on);
    static std::uint64_t count();
};

} // namespace perfbench
