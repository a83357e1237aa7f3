/**
 * @file
 * Hierarchical statistics registry: every Counter/SampleStat/Histogram
 * in the simulation is published under a dotted path (e.g.
 * "host0.qnic.fw.stage.getWr") so tests, benches and reports can
 * enumerate, pattern-match and dump them uniformly instead of
 * hand-plumbing struct fields. The registry holds one node per
 * StatGroup: the group's prefix plus its table of (leaf, stat). Every
 * leaf in a node is one path segment, so a node is keyed by the exact
 * parent path of its stats and a full path has one split, at its last
 * dot. A group given a dotted leaf "<head>.<tail>" publishes it in a
 * child group at "<prefix>.<head>" that it owns. Dotted paths are
 * built only where someone reads them, so publishing and withdrawing
 * a group costs one node insert and one node erase however many stats
 * it carries. StatGroup ties the node to the owning object so paths
 * never dangle.
 */

#pragma once

#include <forward_list>
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

    /**
     * Nodes keyed by exact parent path; the key views the group's own
     * prefix.
     */
    using Nodes = std::unordered_multimap<std::string_view, StatGroup *>;

    /**
     * Append the one-segment leaves @p fresh to @p group, making the
     * group a node on its first leaf. Panics if any resulting path is
     * already registered.
     */
    void attach(StatGroup &group, std::span<const StatLeaf> fresh);
    /** Withdraw @p group's node (it must hold at least one leaf). */
    void detach(StatGroup &group);

    /**
     * Panic if "<prefix>.<leaf>" exists for any leaf of @p fresh: one
     * scan of the groups at exactly @p prefix.
     */
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
    std::size_t leaves_ = 0;
};

/**
 * A set of stats sharing a prefix whose lifetime is bound to the
 * owning object: one registry node while it holds any one-segment
 * leaf, plus one owned child group per head of its dotted leaves, all
 * withdrawn by the destructor.
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
     * the leaf table @p leaves, if any. Leaves must have no empty
     * segment.
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
        publish({&l, 1});
    }

    /** Withdraw every leaf and child group, and unbind. */
    void clear();

  private:
    friend class StatRegistry;

    /**
     * Attach the one-segment leaves of @p leaves to this group's node
     * and each dotted "<head>.<tail>" (split at its last dot) as leaf
     * <tail> of child(<head>). A table with no dotted leaf goes to the
     * registry as is.
     */
    void publish(std::span<const StatLeaf> leaves);
    /** The child group at "<prefix>.<head>", bound on first use. */
    StatGroup &child(std::string_view head);

    StatRegistry *registry_ = nullptr;
    std::string prefix_;
    /** A registry node exactly while this holds any leaf. */
    std::vector<StatLeaf> leaves_;
    /** The groups holding this group's dotted leaves. */
    std::forward_list<StatGroup> children_;
};

} // namespace qpip::sim
