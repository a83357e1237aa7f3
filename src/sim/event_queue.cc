#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace qpip::sim {

using detail::EventRecord;
using detail::EventState;

void
EventQueue::panicPast(Tick when) const
{
    panic("%s: event scheduled in the past (when=%llu now=%llu)",
          label_.empty() ? "event queue" : label_.c_str(),
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now_));
}

void
EventQueue::advanceTo(Tick t)
{
    if (t == maxTick || t <= now_)
        return;
    const Tick next = nextEventTick();
    if (next < t) {
        panic("%s: advanceTo(%llu) would skip a runnable event at "
              "%llu",
              label_.empty() ? "event queue" : label_.c_str(),
              static_cast<unsigned long long>(t),
              static_cast<unsigned long long>(next));
    }
    now_ = t;
}

bool
EventQueue::handlePending(std::uint32_t slot, std::uint32_t gen) const
{
    const EventRecord &rec = slab_[slot];
    return rec.gen == gen && rec.state == EventState::Pending;
}

void
EventQueue::handleCancel(std::uint32_t slot, std::uint32_t gen)
{
    EventRecord &rec = slab_[slot];
    if (rec.gen == gen && rec.state == EventState::Pending) {
        // The slot stays out of the freelist until its heap entry is
        // popped (lazily, by skipCancelled/step) so a heap entry can
        // never refer to a recycled slot.
        rec.state = EventState::Cancelled;
    }
}

Tick
EventQueue::handleWhen(std::uint32_t slot, std::uint32_t gen) const
{
    const EventRecord &rec = slab_[slot];
    if (rec.gen != gen || rec.state != EventState::Pending)
        return maxTick;
    return rec.when;
}

bool
EventQueue::empty() const
{
    // Cancelled events may linger in the heap; sweep them first.
    auto *self = const_cast<EventQueue *>(this);
    self->skipCancelled();
    return heap_.empty();
}

Tick
EventQueue::nextEventTick() const
{
    auto *self = const_cast<EventQueue *>(this);
    self->skipCancelled();
    return heap_.empty() ? maxTick : heap_.front().when;
}

void
EventQueue::clear()
{
    // Every entry goes, so no heap order need be kept: release the
    // slots in array order. Destroying a closure may re-enter
    // schedule() (dropped via clearing_) or cancel() another dropped
    // event (marks it Cancelled; its slot is released here all the
    // same).
    clearing_ = true;
    std::vector<HeapEntry> dropped;
    dropped.swap(heap_);
    for (const HeapEntry &e : dropped)
        releaseSlot(e.slot);
    dropped.clear();
    heap_.swap(dropped); // keep the heap's capacity
    clearing_ = false;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    while (step(until))
        ++n;
    if (until != maxTick && until > now_)
        now_ = until;
    return n;
}

} // namespace qpip::sim
