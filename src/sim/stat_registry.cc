#include "sim/stat_registry.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace qpip::sim {

bool
statPatternMatch(const std::string &pattern, const std::string &path)
{
    // Iterative glob with single-star backtracking.
    std::size_t p = 0, s = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (s < path.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == path[s])) {
            ++p;
            ++s;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = s;
        } else if (star != std::string::npos) {
            p = star + 1;
            s = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

namespace {

/** "<prefix>.<leaf>", or just the leaf under the unnamed prefix. */
std::string
joinPath(std::string_view prefix, std::string_view leaf)
{
    std::string out;
    out.reserve(prefix.size() + 1 + leaf.size());
    if (!prefix.empty()) {
        out += prefix;
        out += '.';
    }
    out += leaf;
    return out;
}

} // namespace

void
StatRegistry::attach(StatGroup &group, std::span<const StatLeaf> fresh)
{
    if (fresh.empty())
        return;
    std::lock_guard<std::mutex> lock(m_);
    checkFree(group.prefix_, fresh);
    if (group.leaves_.empty())
        nodes_.emplace(group.prefix_, &group);
    group.leaves_.insert(group.leaves_.end(), fresh.begin(), fresh.end());
    leaves_ += fresh.size();
}

void
StatRegistry::detach(StatGroup &group)
{
    std::lock_guard<std::mutex> lock(m_);
    // Groups sharing a prefix are adjacent, and this one is among them.
    auto it = nodes_.equal_range(group.prefix_).first;
    while (it->second != &group)
        ++it;
    nodes_.erase(it);
    leaves_ -= group.leaves_.size();
}

const StatLeaf *
StatRegistry::leafOf(std::string_view prefix, std::string_view name) const
{
    const auto [first, last] = nodes_.equal_range(prefix);
    for (auto it = first; it != last; ++it) {
        for (const StatLeaf &l : it->second->leaves_) {
            if (l.name == name)
                return &l;
        }
    }
    return nullptr;
}

void
StatRegistry::checkFree(std::string_view prefix,
                        std::span<const StatLeaf> fresh) const
{
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        bool taken = leafOf(prefix, fresh[i].name) != nullptr;
        for (std::size_t j = 0; j < i && !taken; ++j)
            taken = fresh[j].name == fresh[i].name;
        if (taken)
            panic("StatRegistry: duplicate stat path '%s'",
                  joinPath(prefix, fresh[i].name).c_str());
    }
}

const StatLeaf *
StatRegistry::find(std::string_view path) const
{
    // Leaves are one segment, so the last dot is the only split.
    const std::size_t dot = path.rfind('.');
    if (dot == std::string_view::npos)
        return leafOf({}, path);
    return leafOf(path.substr(0, dot), path.substr(dot + 1));
}

std::vector<std::pair<std::string, const StatLeaf *>>
StatRegistry::collect(const std::string &pattern) const
{
    std::vector<std::pair<std::string, const StatLeaf *>> out;
    // Hash order: the sort below fixes the order anyone sees.
    for (const auto &[prefix, group] : nodes_) {
        for (const StatLeaf &l : group->leaves_) {
            std::string path = joinPath(prefix, l.name);
            if (statPatternMatch(pattern, path))
                out.emplace_back(std::move(path), &l);
        }
    }
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.first < b.first;
    });
    return out;
}

bool
StatRegistry::contains(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    return find(path) != nullptr;
}

std::size_t
StatRegistry::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return leaves_;
}

const Counter *
StatRegistry::counter(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    const StatLeaf *l = find(path);
    return l == nullptr ? nullptr : l->counter;
}

const SampleStat *
StatRegistry::sample(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    const StatLeaf *l = find(path);
    return l == nullptr ? nullptr : l->sample;
}

const Histogram *
StatRegistry::histogram(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    const StatLeaf *l = find(path);
    return l == nullptr ? nullptr : l->histogram;
}

std::uint64_t
StatRegistry::counterValue(const std::string &path) const
{
    const Counter *c = counter(path);
    return c != nullptr ? c->value() : 0;
}

std::vector<std::string>
StatRegistry::match(const std::string &pattern) const
{
    std::vector<std::string> out;
    std::lock_guard<std::mutex> lock(m_);
    for (auto &entry : collect(pattern))
        out.push_back(std::move(entry.first));
    return out;
}

namespace {

// %.17g round-trips doubles exactly; JSON forbids bare inf/nan but no
// registered stat produces them (SampleStat min/max report 0 on empty).
std::string
jsonNumber(double v)
{
    return strfmt("%.17g", v);
}

std::string
jsonNumber(std::uint64_t v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

} // namespace

std::string
StatRegistry::jsonDump(const std::string &pattern) const
{
    std::string out = "{";
    bool first = true;
    std::lock_guard<std::mutex> lock(m_);
    for (const auto &[path, stat] : collect(pattern)) {
        if (!first)
            out += ",";
        first = false;
        out += "\n  \"" + path + "\": ";
        if (stat->counter != nullptr) {
            out += "{\"kind\": \"counter\", \"value\": " +
                   jsonNumber(stat->counter->value()) + "}";
        } else if (stat->sample != nullptr) {
            const auto &s = *stat->sample;
            out += "{\"kind\": \"sample\", \"count\": " +
                   jsonNumber(s.count()) +
                   ", \"total\": " + jsonNumber(s.total()) +
                   ", \"mean\": " + jsonNumber(s.mean()) +
                   ", \"min\": " + jsonNumber(s.min()) +
                   ", \"max\": " + jsonNumber(s.max()) + "}";
        } else {
            const auto &h = *stat->histogram;
            out += "{\"kind\": \"histogram\", \"count\": " +
                   jsonNumber(h.count()) +
                   ", \"underflow\": " + jsonNumber(h.underflow()) +
                   ", \"overflow\": " + jsonNumber(h.overflow()) +
                   ", \"buckets\": [";
            for (std::size_t i = 0; i < h.numBuckets(); ++i) {
                if (i > 0)
                    out += ", ";
                out += jsonNumber(h.bucket(i));
            }
            out += "]}";
        }
    }
    out += first ? "}" : "\n}";
    return out;
}

void
StatGroup::init(StatRegistry &registry, std::string prefix,
                std::initializer_list<StatLeaf> leaves)
{
    if (registry_ != nullptr)
        panic("StatGroup: already bound to '%s'", prefix_.c_str());
    registry_ = &registry;
    prefix_ = std::move(prefix);
    publish({leaves.begin(), leaves.size()});
}

void
StatGroup::publish(std::span<const StatLeaf> leaves)
{
    bool dotted = false;
    for (const StatLeaf &l : leaves) {
        const std::string_view name = l.name;
        if (name.empty() || name.front() == '.' || name.back() == '.' ||
            name.find("..") != name.npos)
            panic("StatRegistry: empty segment in stat leaf '%s' under "
                  "'%s'",
                  l.name.c_str(), prefix_.c_str());
        dotted = dotted || name.find('.') != name.npos;
    }
    if (!dotted) {
        registry_->attach(*this, leaves);
        return;
    }
    for (const StatLeaf &l : leaves) {
        const std::size_t dot = l.name.rfind('.');
        if (dot == std::string::npos) {
            registry_->attach(*this, {&l, 1});
            continue;
        }
        StatLeaf tail = l;
        tail.name.erase(0, dot + 1);
        child(std::string_view(l.name).substr(0, dot)).publish({&tail, 1});
    }
}

StatGroup &
StatGroup::child(std::string_view head)
{
    std::string prefix = joinPath(prefix_, head);
    for (StatGroup &c : children_) {
        if (c.prefix_ == prefix)
            return c;
    }
    StatGroup &c = children_.emplace_front();
    c.init(*registry_, std::move(prefix));
    return c;
}

void
StatGroup::clear()
{
    if (registry_ == nullptr)
        return;
    children_.clear();
    if (!leaves_.empty())
        registry_->detach(*this);
    leaves_.clear();
    registry_ = nullptr;
    prefix_.clear();
}

} // namespace qpip::sim
