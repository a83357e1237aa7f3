/**
 * @file
 * Hierarchical statistics registry: every Counter/SampleStat/Histogram
 * in the simulation is published under a dotted path (e.g.
 * "host0.qnic.fw.stage.getWr") so tests, benches and reports can
 * enumerate, pattern-match and dump them uniformly instead of
 * hand-plumbing struct fields. The registry holds one node per
 * StatGroup: the group's prefix plus its table of (leaf, stat). Dotted
 * paths are built only where someone reads them, so publishing and
 * withdrawing a group costs one node insert and one node erase however
 * many stats it carries. StatGroup ties the node to the owning object
 * so paths never dangle.
 */

#pragma once

#include <functional>
#include <initializer_list>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace qpip::sim {

/**
 * Match @p path against a glob @p pattern where '*' matches any run of
 * characters (including dots) and '?' matches exactly one.
 */
bool statPatternMatch(const std::string &pattern,
                      const std::string &path);

/** One stat of a group, published as "<prefix>.<name>". */
struct StatLeaf
{
    StatLeaf(std::string leaf, const Counter &c)
        : name(std::move(leaf)), counter(&c)
    {}
    StatLeaf(std::string leaf, const SampleStat &s)
        : name(std::move(leaf)), sample(&s)
    {}
    StatLeaf(std::string leaf, const Histogram &h)
        : name(std::move(leaf)), histogram(&h)
    {}

    std::string name;
    const Counter *counter = nullptr;
    const SampleStat *sample = nullptr;
    const Histogram *histogram = nullptr;
};

class StatGroup;

/**
 * The registry. One per Simulation. Lookups and dumps speak full
 * dotted paths; enumeration and JSON dumps are sorted by full path so
 * they are deterministic.
 */
class StatRegistry
{
  public:
    bool contains(const std::string &path) const;
    /** Number of registered stats (leaves, not groups). */
    std::size_t size() const;

    /** Typed lookup; nullptr when absent or a different kind. */
    const Counter *counter(const std::string &path) const;
    const SampleStat *sample(const std::string &path) const;
    const Histogram *histogram(const std::string &path) const;

    /** Counter value, or 0 when absent (benches' common case). */
    std::uint64_t counterValue(const std::string &path) const;

    /** All registered paths matching @p pattern, sorted. */
    std::vector<std::string>
    match(const std::string &pattern = "*") const;

    /**
     * JSON dump of every stat matching @p pattern: one flat object
     * keyed by path, each value an object carrying "kind" plus the
     * kind's fields. Deterministic (sorted, fixed number formatting).
     */
    std::string jsonDump(const std::string &pattern = "*") const;

  private:
    friend class StatGroup;

    /** Nodes keyed by prefix; the key views the group's own prefix. */
    using Nodes = std::unordered_multimap<std::string_view, StatGroup *>;

    /** Lets the span index be probed with a string_view. */
    struct SpanHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>()(s);
        }
    };
    using Spans = std::unordered_map<std::string, std::size_t, SpanHash,
                                     std::equal_to<>>;

    /**
     * Append @p fresh to @p group, making the group a node on its
     * first leaf. Panics if any resulting path is already registered.
     */
    void attach(StatGroup &group, std::span<const StatLeaf> fresh);
    /** Withdraw @p group's node (it must hold at least one leaf). */
    void detach(StatGroup &group);
    /** Count (@p add) or uncount the prefixes @p leaves span. */
    void indexSpans(std::string_view prefix,
                    std::span<const StatLeaf> leaves, bool add);

    /** Panic if "<prefix>.<leaf>" exists for any leaf of @p fresh. */
    void checkFree(std::string_view prefix,
                   std::span<const StatLeaf> fresh) const;
    /** The leaf @p name of a group at exactly @p prefix, if any. */
    const StatLeaf *leafOf(std::string_view prefix,
                           std::string_view name) const;
    const StatLeaf *find(std::string_view path) const;
    /** (path, leaf) of every stat matching @p pattern, sorted. */
    std::vector<std::pair<std::string, const StatLeaf *>>
    collect(const std::string &pattern) const;

    /**
     * Registration happens at runtime (per-connection TCP stats), so
     * under a parallel engine concurrent partitions may attach and
     * detach groups; the node map and every registered group's leaf
     * table are guarded by this lock. Stat *values* are written only
     * by their single owning partition and read after runs.
     */
    mutable std::mutex m_;
    Nodes nodes_;
    /**
     * The prefixes that dotted leaves span, each with the number of
     * leaves spanning it: leaf "x.y" of the group at "p" spans "p.x".
     * A group's leaves can only clash with an ancestor group's leaf
     * if that leaf spans the group's prefix.
     */
    Spans spans_;
    std::size_t leaves_ = 0;
};

/**
 * A set of stats sharing a prefix whose lifetime is bound to the
 * owning object: one registry node while it holds any leaf, withdrawn
 * by the destructor.
 */
class StatGroup
{
  public:
    StatGroup() = default;
    ~StatGroup() { clear(); }

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /**
     * Bind to @p registry with @p prefix (must be unbound) and publish
     * the leaf table @p leaves, if any, as one registry node.
     */
    void init(StatRegistry &registry, std::string prefix,
              std::initializer_list<StatLeaf> leaves = {});

    bool bound() const { return registry_ != nullptr; }
    const std::string &prefix() const { return prefix_; }

    /** Publish @p stat as "<prefix>.<leaf>". @pre bound(). */
    template <typename Stat>
    void
    add(std::string leaf, const Stat &stat)
    {
        const StatLeaf l(std::move(leaf), stat);
        registry_->attach(*this, {&l, 1});
    }

    /** Withdraw every leaf and unbind. */
    void clear();

  private:
    friend class StatRegistry;

    StatRegistry *registry_ = nullptr;
    std::string prefix_;
    /** A registry node exactly while this holds any leaf. */
    std::vector<StatLeaf> leaves_;
};

} // namespace qpip::sim
