#include "span_trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>

namespace perfbench {

namespace {

/**
 * Allocator for the recorder's own storage: it goes straight to
 * malloc so recording never shows up in the allocation count.
 */
template <typename T>
struct MallocAlloc
{
    using value_type = T;
    MallocAlloc() = default;
    template <typename U>
    MallocAlloc(const MallocAlloc<U> &)
    {}
    T *
    allocate(std::size_t n)
    {
        if (void *p = std::malloc(n * sizeof(T)))
            return static_cast<T *>(p);
        throw std::bad_alloc();
    }
    void deallocate(T *p, std::size_t) { std::free(p); }
    template <typename U>
    bool operator==(const MallocAlloc<U> &) const
    {
        return true;
    }
};

struct Rec
{
    const char *name;
    Layer layer;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
};

struct ThreadBuf
{
    std::uint32_t tid = 0;
    std::vector<Rec, MallocAlloc<Rec>> spans;
    std::vector<std::int32_t, MallocAlloc<std::int32_t>> stack;
};

std::mutex bufsMutex;
/** Buffers of the current repetition, index = tid. */
std::vector<ThreadBuf *, MallocAlloc<ThreadBuf *>> bufs;
/** Bumped by begin(): a thread-local buffer from an older rep is dead. */
std::uint64_t generation = 0;
int repThreads = 1;

thread_local ThreadBuf *myBuf = nullptr;
thread_local std::uint64_t myGeneration = ~std::uint64_t{0};

ThreadBuf *
newBuf(std::uint32_t tid)
{
    void *mem = std::malloc(sizeof(ThreadBuf));
    if (mem == nullptr)
        throw std::bad_alloc();
    auto *b = new (mem) ThreadBuf;
    b->tid = tid;
    b->spans.reserve(1 << 14);
    return b;
}

void
freeBuf(ThreadBuf *b)
{
    b->~ThreadBuf();
    std::free(b);
}

ThreadBuf &
threadBuf()
{
    if (myBuf == nullptr || myGeneration != generation) {
        std::lock_guard<std::mutex> g(bufsMutex);
        myBuf = newBuf(static_cast<std::uint32_t>(bufs.size()));
        bufs.push_back(myBuf);
        myGeneration = generation;
    }
    return *myBuf;
}

std::atomic<bool> allocOn{false};
std::atomic<std::uint64_t> allocCount{0};

} // namespace

std::atomic<bool> SpanRecorder::recording_{false};

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Bench: return "bench";
      case Layer::Apps: return "apps";
      case Layer::Sim: return "sim";
      case Layer::SimEngine: return "sim.engine";
      case Layer::Host: return "host";
      case Layer::Qpip: return "qpip";
      case Layer::NumLayers: break;
    }
    return "?";
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanRecorder::begin(int threads)
{
    {
        std::lock_guard<std::mutex> g(bufsMutex);
        for (ThreadBuf *b : bufs)
            freeBuf(b);
        bufs.clear();
        ++generation;
        repThreads = std::max(1, threads);
    }
    threadBuf(); // the calling thread is tid 0
    recording_.store(true, std::memory_order_relaxed);
}

void
SpanRecorder::end()
{
    recording_.store(false, std::memory_order_relaxed);
}

std::int32_t
SpanRecorder::open(const char *name, Layer layer)
{
    ThreadBuf &b = threadBuf();
    const std::int32_t parent = b.stack.empty() ? -1 : b.stack.back();
    const auto idx = static_cast<std::int32_t>(b.spans.size());
    b.spans.push_back(Rec{name, layer, nowNs(), 0, parent});
    b.stack.push_back(idx);
    return idx;
}

void
SpanRecorder::close(std::int32_t handle)
{
    ThreadBuf &b = threadBuf();
    b.spans[static_cast<std::size_t>(handle)].end = nowNs();
    if (!b.stack.empty() && b.stack.back() == handle)
        b.stack.pop_back();
}

double
SpanReport::inclusiveSeconds(const char *name) const
{
    const std::string want(name);
    std::int64_t ns = 0;
    for (const auto &s : spans) {
        if (want == s.name)
            ns += s.end - s.start;
    }
    return static_cast<double>(ns) * 1e-9;
}

std::vector<double>
SpanReport::durationsNs(const std::vector<std::string> &names) const
{
    std::vector<double> out;
    for (const auto &s : spans) {
        if (std::find(names.begin(), names.end(), s.name) != names.end())
            out.push_back(static_cast<double>(s.end - s.start));
    }
    return out;
}

SpanReport
analyseSpans()
{
    SpanReport r;
    std::lock_guard<std::mutex> g(bufsMutex);

    // Flatten: global index = per-thread offset + local index.
    std::vector<std::size_t> offset(bufs.size(), 0);
    std::size_t total = 0;
    for (std::size_t t = 0; t < bufs.size(); ++t) {
        offset[t] = total;
        total += bufs[t]->spans.size();
    }
    r.spans.reserve(total);
    std::vector<int> depth;
    depth.reserve(total);
    for (std::size_t t = 0; t < bufs.size(); ++t) {
        for (const Rec &s : bufs[t]->spans) {
            SpanReport::Flat f;
            f.name = s.name;
            f.layer = s.layer;
            f.start = s.start;
            f.end = s.end;
            f.parent = s.parent < 0
                           ? -1
                           : static_cast<std::int32_t>(
                                 offset[t] +
                                 static_cast<std::size_t>(s.parent));
            f.tid = static_cast<std::uint32_t>(t);
            depth.push_back(f.parent < 0
                                ? 0
                                : depth[static_cast<std::size_t>(
                                      f.parent)] + 1);
            r.spans.push_back(f);
        }
    }
    if (r.spans.empty())
        return r;

    // Sweep the span boundaries in time order. At equal times ends go
    // before starts, inner ends before outer ends, outer starts before
    // inner starts, so zero-length gaps never invert nesting.
    struct Edge
    {
        std::int64_t t;
        int kind; ///< 0 = end, 1 = start
        int order;
        std::int32_t idx;
    };
    std::vector<Edge> edges;
    edges.reserve(2 * r.spans.size());
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        const auto idx = static_cast<std::int32_t>(i);
        edges.push_back({r.spans[i].start, 1, depth[i], idx});
        edges.push_back({r.spans[i].end, 0, -depth[i], idx});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.order != b.order)
                      return a.order < b.order;
                  return a.idx < b.idx;
              });

    const std::size_t nThreads =
        std::max<std::size_t>(bufs.size(), std::size_t(repThreads));
    std::vector<std::vector<std::int32_t>> open(nThreads);
    std::vector<double> self(r.spans.size(), 0.0);
    std::int32_t simOpen = -1; // outermost open Sim span of thread 0
    std::int64_t prev = edges.front().t;
    for (const Edge &e : edges) {
        const double dt = static_cast<double>(e.t - prev);
        prev = e.t;
        if (dt > 0 && !open[0].empty()) {
            if (simOpen >= 0 && repThreads > 1) {
                const double share = dt / repThreads;
                for (int t = 0; t < repThreads; ++t) {
                    const auto &st = open[static_cast<std::size_t>(t)];
                    const std::int32_t who =
                        st.empty() ? simOpen : st.back();
                    self[static_cast<std::size_t>(who)] += share;
                }
            } else {
                self[static_cast<std::size_t>(open[0].back())] += dt;
            }
        }
        auto &s = r.spans[static_cast<std::size_t>(e.idx)];
        auto &st = open[s.tid];
        if (e.kind == 1) {
            // A worker's outermost span hangs under the main thread's
            // innermost span at that moment (the engine run).
            if (s.parent < 0 && s.tid != 0 && !open[0].empty())
                s.parent = open[0].back();
            st.push_back(e.idx);
            if (s.tid == 0 && s.layer == Layer::Sim && simOpen < 0)
                simOpen = e.idx;
        } else {
            auto it = std::find(st.rbegin(), st.rend(), e.idx);
            if (it != st.rend())
                st.erase(std::next(it).base());
            if (e.idx == simOpen)
                simOpen = -1;
        }
    }

    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        r.spans[i].selfSeconds = self[i] * 1e-9;
        r.selfSeconds[static_cast<int>(r.spans[i].layer)] +=
            r.spans[i].selfSeconds;
    }
    std::int64_t lo = r.spans.front().start, hi = r.spans.front().end;
    for (const auto &s : r.spans) {
        if (s.tid == 0 && s.parent < 0) {
            lo = std::min(lo, s.start);
            hi = std::max(hi, s.end);
        }
    }
    r.rootSeconds = static_cast<double>(hi - lo) * 1e-9;
    return r;
}

bool
writeChromeTrace(const SpanReport &r, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::int64_t origin = r.spans.empty() ? 0 : r.spans.front().start;
    std::uint32_t maxTid = 0;
    for (const auto &s : r.spans) {
        origin = std::min(origin, s.start);
        maxTid = std::max(maxTid, s.tid);
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    const char *sep = "\n";
    for (std::uint32_t t = 0; t <= maxTid; ++t) {
        std::fprintf(f,
                     "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                     "\"name\": \"thread_name\", \"args\": {\"name\": "
                     "\"%s%u\"}}",
                     sep, t, t == 0 ? "main" : "worker", t);
        sep = ",\n";
    }
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        const auto &s = r.spans[i];
        std::fprintf(
            f,
            "%s{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
            "\"ts\": %.3f, \"dur\": %.3f, \"name\": \"%s\", "
            "\"cat\": \"%s\", \"args\": {\"id\": %zu, \"parent\": %d, "
            "\"self_us\": %.3f}}",
            sep, s.tid, static_cast<double>(s.start - origin) * 1e-3,
            static_cast<double>(s.end - s.start) * 1e-3, s.name,
            layerName(s.layer), i, s.parent, s.selfSeconds * 1e6);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
AllocCounter::enable(bool on)
{
    allocOn.store(on, std::memory_order_relaxed);
}

std::uint64_t
AllocCounter::count()
{
    return allocCount.load(std::memory_order_relaxed);
}

} // namespace perfbench

// The counting hook: every operator new in this binary passes here.
// It counts only while a traced repetition has enabled it, so the
// untraced repetitions pay one relaxed load per allocation.

namespace {

void *
countedAlloc(std::size_t n)
{
    if (perfbench::allocOn.load(std::memory_order_relaxed))
        perfbench::allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (perfbench::allocOn.load(std::memory_order_relaxed))
        perfbench::allocCount.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) /
                                a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
