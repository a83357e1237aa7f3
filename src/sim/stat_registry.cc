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

/**
 * The part of leaf @p name below @p rel: the whole name when rel is
 * empty, "<x>" when the name is "<rel>.<x>", otherwise empty (no leaf
 * is ever empty, so empty means "not below rel").
 */
std::string_view
leafBelow(std::string_view name, std::string_view rel)
{
    if (rel.empty())
        return name;
    if (name.size() > rel.size() + 1 && name.starts_with(rel) &&
        name[rel.size()] == '.')
        return name.substr(rel.size() + 1);
    return {};
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
    indexSpans(group.prefix_, fresh, true);
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
    indexSpans(group.prefix_, group.leaves_, false);
}

void
StatRegistry::indexSpans(std::string_view prefix,
                         std::span<const StatLeaf> leaves, bool add)
{
    for (const StatLeaf &l : leaves) {
        const std::string_view name = l.name;
        for (std::size_t dot = name.find('.'); dot != name.npos;
             dot = name.find('.', dot + 1)) {
            const std::string spanned = joinPath(prefix, name.substr(0, dot));
            if (add) {
                ++spans_[spanned];
            } else if (auto it = spans_.find(spanned); --it->second == 0) {
                spans_.erase(it);
            }
        }
    }
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
    const auto clash = [prefix](const std::string &leaf) {
        panic("StatRegistry: duplicate stat path '%s'",
              joinPath(prefix, leaf).c_str());
    };
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        if (fresh[i].name.empty())
            panic("StatRegistry: empty stat leaf under '%.*s'",
                  static_cast<int>(prefix.size()), prefix.data());
        for (std::size_t j = 0; j < i; ++j) {
            if (fresh[j].name == fresh[i].name)
                clash(fresh[i].name);
        }
    }

    // A leaf of the group at q prints as "<prefix>.<l>" when q is the
    // prefix or one of its dot-ancestors (down to the unnamed group)
    // and the leaf reads "<rel>.<l>", rel being the prefix below q.
    // Such an ancestor's leaf spans the prefix, so the ancestors are
    // walked only when the span index holds it.
    const std::size_t stop = spans_.contains(prefix) ? 0 : prefix.size();
    for (std::size_t cut = prefix.size();;) {
        const std::string_view q = prefix.substr(0, cut);
        const std::string_view rel =
            cut == prefix.size() ? std::string_view()
                                 : prefix.substr(cut == 0 ? 0 : cut + 1);
        const auto [first, last] = nodes_.equal_range(q);
        for (auto it = first; it != last; ++it) {
            for (const StatLeaf &m : it->second->leaves_) {
                const std::string_view tail = leafBelow(m.name, rel);
                if (tail.empty())
                    continue;
                for (const StatLeaf &l : fresh) {
                    if (tail == l.name)
                        clash(l.name);
                }
            }
        }
        if (cut == stop)
            break;
        const std::size_t dot = prefix.rfind('.', cut - 1);
        cut = dot == std::string_view::npos ? 0 : dot;
    }

    // Or the group sits below the prefix, inside a dotted leaf: "x.y"
    // under the prefix clashes with leaf "y" of the group at "<prefix>.x".
    for (const StatLeaf &l : fresh) {
        const std::string_view name = l.name;
        for (std::size_t dot = name.find('.'); dot != name.npos;
             dot = name.find('.', dot + 1)) {
            const std::string below = joinPath(prefix, name.substr(0, dot));
            if (leafOf(below, name.substr(dot + 1)) != nullptr)
                clash(l.name);
        }
    }
}

const StatLeaf *
StatRegistry::find(std::string_view path) const
{
    // Every split "<prefix>.<leaf>", deepest prefix first, then the
    // whole path under the unnamed prefix. Full paths are unique, so
    // the first hit is the only one.
    for (std::size_t dot = path.rfind('.');
         dot != std::string_view::npos && dot > 0;
         dot = path.rfind('.', dot - 1)) {
        if (const StatLeaf *l =
                leafOf(path.substr(0, dot), path.substr(dot + 1)))
            return l;
    }
    return leafOf({}, path);
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
    registry.attach(*this, {leaves.begin(), leaves.size()});
}

void
StatGroup::clear()
{
    if (registry_ == nullptr)
        return;
    if (!leaves_.empty())
        registry_->detach(*this);
    leaves_.clear();
    registry_ = nullptr;
    prefix_.clear();
}

} // namespace qpip::sim
