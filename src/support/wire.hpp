// The one fixed-width byte codec for everything the runtime puts on the
// wire: the row header of RowPayload and the follower message.  Each of
// those formats starts with a u8 format version its reader checks.
//
// Fields are stored in host byte order (the simulated cluster is one
// process) with no padding: u8, u32, u64, f64, and vectors of int (i32
// entries) or double behind a u32 element count.  The Reader throws
// dynmpi::Error on a short read, on a vector count larger than the bytes
// left (checked before allocating), and on trailing bytes in finish().
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/error.hpp"

namespace dynmpi::wire {

/// Appends fields to a caller-owned buffer.
class Writer {
public:
    explicit Writer(std::vector<std::byte>& out) : out_(out) {}

    Writer& u8(std::uint8_t v) { return put(v); }
    Writer& u32(std::uint32_t v) { return put(v); }
    Writer& u64(std::uint64_t v) { return put(v); }
    Writer& f64(double v) { return put(v); }
    Writer& ints(const std::vector<int>& v) { return seq<std::int32_t>(v); }
    Writer& doubles(const std::vector<double>& v) { return seq<double>(v); }

    /// Overwrite the u32 already written at byte offset `at`.
    void patch_u32(std::size_t at, std::uint32_t v) {
        DYNMPI_REQUIRE(at + sizeof v <= out_.size(), "wire: patch past end");
        std::memcpy(out_.data() + at, &v, sizeof v);
    }

private:
    template <typename T>
    Writer& put(T v) {
        const std::size_t at = out_.size();
        out_.resize(at + sizeof v);
        std::memcpy(out_.data() + at, &v, sizeof v);
        return *this;
    }
    template <typename W, typename T>
    Writer& seq(const std::vector<T>& v) {
        put(static_cast<std::uint32_t>(v.size()));
        for (const T& x : v) put(static_cast<W>(x));
        return *this;
    }

    std::vector<std::byte>& out_;
};

/// Reads fields back from a byte range it does not own.
class Reader {
public:
    explicit Reader(const std::vector<std::byte>& in)
        : data_(in.data()), size_(in.size()) {}

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    double f64() { return get<double>(); }
    std::vector<int> ints() { return seq<std::int32_t, int>(); }
    std::vector<double> doubles() { return seq<double, double>(); }

    /// Reject a count of `elem_bytes`-sized entries the bytes left cannot
    /// hold; for callers reading a sequence of their own.
    std::uint32_t count(std::size_t elem_bytes) {
        const std::uint32_t n = u32();
        DYNMPI_REQUIRE(n <= remaining() / elem_bytes,
                       "wire: vector length exceeds the bytes left");
        return n;
    }
    /// The unread bytes start at here(); skip() consumes `n` of them.
    const std::byte* here() const { return data_ + pos_; }
    void skip(std::size_t n) {
        DYNMPI_REQUIRE(n <= remaining(), "wire: short read");
        pos_ += n;
    }
    std::size_t remaining() const { return size_ - pos_; }
    void finish() const {
        DYNMPI_REQUIRE(pos_ == size_, "wire: trailing bytes");
    }

private:
    template <typename T>
    T get() {
        DYNMPI_REQUIRE(sizeof(T) <= remaining(), "wire: short read");
        T v;
        std::memcpy(&v, data_ + pos_, sizeof v);
        pos_ += sizeof v;
        return v;
    }
    template <typename W, typename T>
    std::vector<T> seq() {
        std::vector<T> v(count(sizeof(W)));
        for (T& x : v) x = static_cast<T>(get<W>());
        return v;
    }

    const std::byte* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

}  // namespace dynmpi::wire
