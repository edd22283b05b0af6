// Element-type generality of the dense allocator: the paper registers arrays
// with an element size (Figure 2 passes sizeof(double) and an MPI datatype);
// float, int, and struct payloads must all round-trip.
#include <gtest/gtest.h>

#include "dynmpi/dense_array.hpp"

namespace dynmpi {
namespace {

struct Cell {
    float density;
    int flags;
    bool operator==(const Cell&) const = default;
};
static_assert(std::is_trivially_copyable_v<Cell>);

template <typename T>
class DenseTyped : public ::testing::Test {};

using Types = ::testing::Types<float, int, long, Cell>;
TYPED_TEST_SUITE(DenseTyped, Types);

template <typename T>
T test_value(int row, int j);
template <>
float test_value<float>(int row, int j) { return row * 2.5f + j; }
template <>
int test_value<int>(int row, int j) { return row * 100 + j; }
template <>
long test_value<long>(int row, int j) { return row * 1000L - j; }
template <>
Cell test_value<Cell>(int row, int j) {
    return Cell{row * 1.5f, row ^ j};
}

TYPED_TEST(DenseTyped, WriteReadPackUnpack) {
    DenseArray src("A", 12, 5, sizeof(TypeParam));
    src.ensure_rows(RowSet(2, 9));
    for (int row = 2; row < 9; ++row)
        for (int j = 0; j < 5; ++j)
            src.at<TypeParam>(row, j) = test_value<TypeParam>(row, j);

    DenseArray dst("A", 12, 5, sizeof(TypeParam));
    dst.unpack_rows(src.pack_rows(RowSet(3, 8)));
    for (int row = 3; row < 8; ++row)
        for (int j = 0; j < 5; ++j)
            EXPECT_EQ(dst.at<TypeParam>(row, j),
                      test_value<TypeParam>(row, j));
}

TYPED_TEST(DenseTyped, ElementSizeMismatchRejected) {
    DenseArray a("A", 4, 2, sizeof(TypeParam));
    a.ensure_rows(RowSet(0, 4));
    if constexpr (sizeof(TypeParam) != sizeof(double)) {
        EXPECT_THROW(a.template at<double>(0, 0), Error);
    } else {
        SUCCEED();
    }
}

TYPED_TEST(DenseTyped, NominalBytesMatchElementSize) {
    DenseArray a("A", 4, 3, sizeof(TypeParam));
    EXPECT_EQ(a.fixed_row_bytes(), 3 * sizeof(TypeParam));
}

}  // namespace
}  // namespace dynmpi
