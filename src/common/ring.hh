/**
 * @file
 * Growable FIFO ring buffer for trivially copyable elements.
 *
 * Replaces std::deque where the FIFO sits on a hot path or often
 * stays empty: a default-constructed Ring allocates nothing (a
 * libstdc++ deque allocates its map and a first node up front), and
 * push/pop are an index mask instead of chunk bookkeeping. Capacity
 * is a power of two, doubling when full; it is never given back.
 */

#ifndef VP_COMMON_RING_HH
#define VP_COMMON_RING_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace vp {

/** FIFO of trivially copyable T over a power-of-two ring. */
template <typename T>
class Ring
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "Ring holds trivially copyable elements");

  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Oldest element. The ring must not be empty. */
    T& front() { return buf_[head_]; }
    const T& front() const { return buf_[head_]; }

    /** Newest element. The ring must not be empty. */
    const T& back() const { return (*this)[count_ - 1]; }

    /** The @p i-th oldest element. */
    const T&
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    void
    push_back(const T& v)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & (buf_.size() - 1)] = v;
        ++count_;
    }

    /** Drop the oldest element. The ring must not be empty. */
    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
    }

    /** Drop every element (the storage is kept). */
    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    /** Replace the contents with @p n copies of @p v. */
    void
    assign(std::size_t n, const T& v)
    {
        clear();
        for (std::size_t i = 0; i < n; ++i)
            push_back(v);
    }

  private:
    /** Double the capacity (16 at first), unrolling the ring. */
    void
    grow()
    {
        std::vector<T> grown(buf_.empty() ? 16 : buf_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            grown[i] = (*this)[i];
        buf_ = std::move(grown);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace vp

#endif // VP_COMMON_RING_HH
