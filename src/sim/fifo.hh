/**
 * @file
 * The simulator's FIFO queue: the work rings, completion rings,
 * transport windows and device queues that every per-object queue in
 * the model is built from.
 *
 * It is a ring over one power-of-two array of slots. An empty,
 * default-constructed Fifo owns no storage at all; the first push
 * allocates, and the array doubles when it fills. Popping and
 * clear() keep the array, so a queue that drains and refills
 * allocates nothing after it has reached its high-water mark. This
 * matters at QP scale: std::deque allocates a map and a 512 B node
 * on construction, for every queue of every endpoint, used or not.
 *
 * Unlike std::deque, a push that grows the array relocates every
 * element: references, pointers and iterators into a Fifo are valid
 * only until the next push to the same Fifo. A pop invalidates only
 * what refers to the popped element.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace qpip::sim {

template <typename T>
class Fifo
{
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "growth relocates elements by move");

    /** Oldest to newest, for range-for. */
    class Iter
    {
      public:
        Iter(Fifo *q, std::size_t i) : q_(q), i_(i) {}

        T &operator*() const { return (*q_)[i_]; }

        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }

        bool operator==(const Iter &) const = default;

      private:
        Fifo *q_;
        std::size_t i_;
    };

  public:
    Fifo() = default;
    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    Fifo(Fifo &&other) noexcept
        : slots_(std::exchange(other.slots_, nullptr)),
          cap_(std::exchange(other.cap_, 0)),
          head_(std::exchange(other.head_, 0)),
          size_(std::exchange(other.size_, 0))
    {}

    ~Fifo()
    {
        clear();
        std::allocator<T>().deallocate(slots_, cap_);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Slots allocated: 0 until the first push, then kept. */
    std::size_t capacity() const { return cap_; }

    /** The @p i-th oldest element. @pre i < size() */
    T &operator[](std::size_t i) { return slots_[slot(i)]; }
    const T &operator[](std::size_t i) const { return slots_[slot(i)]; }

    T &front() { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        if (size_ == cap_) {
            growAppend(std::forward<Args>(args)...);
            return;
        }
        std::construct_at(slots_ + slot(size_), std::forward<Args>(args)...);
        ++size_;
    }

    /** Destroy the oldest element. @pre !empty() */
    void
    pop_front()
    {
        std::destroy_at(slots_ + head_);
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Destroy every element; the capacity stays. */
    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

    Iter begin() { return {this, 0}; }
    Iter end() { return {this, size_}; }

  private:
    /** First allocation: at least four slots, or 256 B of them. */
    static constexpr std::size_t firstCapacity =
        std::bit_ceil(std::max<std::size_t>(4, 256 / sizeof(T)));

    std::size_t
    slot(std::size_t i) const
    {
        return (head_ + i) & (cap_ - 1);
    }

    /**
     * Append into a fresh array of twice the capacity. The new
     * element is built first, so @p args may refer into this Fifo.
     */
    template <typename... Args>
    void
    growAppend(Args &&...args)
    {
        std::allocator<T> alloc;
        const std::size_t cap = cap_ == 0 ? firstCapacity : 2 * cap_;
        T *slots = alloc.allocate(cap);
        try {
            std::construct_at(slots + size_, std::forward<Args>(args)...);
        } catch (...) {
            alloc.deallocate(slots, cap);
            throw;
        }
        for (std::size_t i = 0; i < size_; ++i) {
            T &old = (*this)[i];
            std::construct_at(slots + i, std::move(old));
            std::destroy_at(&old);
        }
        alloc.deallocate(slots_, cap_);
        slots_ = slots;
        cap_ = cap;
        head_ = 0;
        ++size_;
    }

    T *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace qpip::sim
