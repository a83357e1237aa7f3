#include "sim/partition.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace qpip::sim {

namespace detail {

namespace {
thread_local ExecContext *gExecContext = nullptr;
} // namespace

ExecContext *
currentExecContext()
{
    return gExecContext;
}

void
setCurrentExecContext(ExecContext *ctx)
{
    gExecContext = ctx;
}

} // namespace detail

Partition::Partition(std::uint32_t id, std::string name,
                     std::uint64_t seed)
    : id_(id), name_(std::move(name)), rng_(seed)
{
    eq_.setLabel(name_);
    ctx_.eq = &eq_;
    ctx_.rng = &rng_;
}

void
Mailbox::sortBatch()
{
    const auto before = [](const Msg &a, const Msg &b) {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    };
    std::sort(msgs_.begin(), msgs_.end(), before);
}

void
Mailbox::panicBelowHorizon(Tick when) const
{
    panic("Mailbox p%u(%s) -> p%u(%s): post at tick %llu violates the "
          "destination's epoch horizon %llu (edge lookahead %llu "
          "too large for the links it carries?)",
          src_.id(), src_.name().c_str(), dst_.id(),
          dst_.name().c_str(), static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(dst_.epochHorizon()),
          static_cast<unsigned long long>(lookahead_));
}

} // namespace qpip::sim
