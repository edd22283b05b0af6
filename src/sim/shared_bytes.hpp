// A refcounted, fixed-size byte buffer: one allocation holding the share
// count, the size and the bytes.
//
// Packets carry row bodies by reference (see network.hpp) and dense arrays
// keep each extended row in one.  std::shared_ptr<std::byte[]> would do the
// same job, but its control block adds 48 bytes to every allocation in
// libstdc++ — more than a one-element row itself.  Here the header is 16
// bytes, so a row costs what a std::vector's heap block did.
//
// Sharing is by value: a buffer with more than one share must not be
// written (writers copy first; see DenseArray::row_data).
//
// The share count is a plain integer although shares cross rank threads:
// only the thread holding the simulation baton (msg::Machine) ever runs,
// and every handoff is a semaphore release/acquire, so all count updates
// are ordered.  ThreadSanitizer checks that in CI.  An atomic count cost
// about 15 ns per shared row (a locked add on copy and on release), which
// a replica refresh that re-ships every row pays once per row per cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace dynmpi::sim {

class SharedBytes {
public:
    SharedBytes() = default;

    /// A new buffer of `size` bytes with one share; zero-filled if `zero`.
    static SharedBytes allocate(std::size_t size, bool zero) {
        void* mem = ::operator new(sizeof(Header) + size);
        SharedBytes out;
        out.h_ = ::new (mem) Header{1, size};
        if (zero && size > 0) std::memset(out.data(), 0, size);
        return out;
    }

    SharedBytes(const SharedBytes& other) noexcept : h_(other.h_) {
        if (h_) ++h_->shares;
    }
    SharedBytes(SharedBytes&& other) noexcept
        : h_(std::exchange(other.h_, nullptr)) {}
    SharedBytes& operator=(SharedBytes other) noexcept {
        std::swap(h_, other.h_);
        return *this;
    }
    ~SharedBytes() {
        if (h_ && --h_->shares == 0) ::operator delete(h_);
    }

    explicit operator bool() const { return h_ != nullptr; }
    std::size_t size() const { return h_ ? h_->size : 0; }
    std::byte* data() const {
        return h_ ? reinterpret_cast<std::byte*>(h_ + 1) : nullptr;
    }
    /// Shares of this buffer (0 when empty).
    std::uint32_t use_count() const { return h_ ? h_->shares : 0; }

private:
    struct alignas(16) Header {
        std::uint32_t shares;
        std::size_t size;
    };

    Header* h_ = nullptr;
};

}  // namespace dynmpi::sim
