#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "tensor/buffer.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vector.hpp"

namespace vqmc {
namespace {

TEST(AlignedBuffer, ZeroInitialized) {
  AlignedBuffer<Real> buf(17);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0);
}

TEST(AlignedBuffer, AlignmentIs64Bytes) {
  AlignedBuffer<Real> buf(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kTensorAlignment,
            0u);
}

TEST(AlignedBuffer, DeepCopySemantics) {
  AlignedBuffer<Real> a(4);
  a[0] = 1.5;
  AlignedBuffer<Real> b = a;
  b[0] = 2.5;
  EXPECT_EQ(a[0], 1.5);
  EXPECT_EQ(b[0], 2.5);
  a = b;
  EXPECT_EQ(a[0], 2.5);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<Real> a(4);
  a[2] = 9;
  const Real* p = a.data();
  AlignedBuffer<Real> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[2], 9);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBuffer, SelfAssignmentIsSafe) {
  AlignedBuffer<Real> a(2);
  a[0] = 3;
  AlignedBuffer<Real>& ref = a;
  a = ref;
  EXPECT_EQ(a[0], 3);
}

TEST(AlignedBuffer, EmptyBufferIsValid) {
  AlignedBuffer<Real> a;
  EXPECT_EQ(a.size(), 0u);
  AlignedBuffer<Real> b = a;
  EXPECT_EQ(b.size(), 0u);
}

TEST(Vector, InitializerListAndNorm) {
  Vector v{3.0, 4.0};
  EXPECT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
}

TEST(Vector, FillAndSpan) {
  Vector v(5);
  v.fill(2.0);
  Real acc = 0;
  for (Real x : v.span()) acc += x;
  EXPECT_DOUBLE_EQ(acc, 10.0);
}

TEST(Vector, RangeForIteration) {
  Vector v{1, 2, 3};
  Real sum = 0;
  for (Real x : v) sum += x;
  EXPECT_DOUBLE_EQ(sum, 6.0);
}

TEST(Matrix, RowMajorIndexing) {
  Matrix m(2, 3);
  m(1, 2) = 7;
  EXPECT_EQ(m.data()[1 * 3 + 2], 7);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
}

TEST(Matrix, RowViewIsContiguous) {
  Matrix m(3, 4);
  m(2, 0) = 1;
  m(2, 3) = 4;
  auto row = m.row(2);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 1);
  EXPECT_EQ(row[3], 4);
  row[1] = 9;
  EXPECT_EQ(m(2, 1), 9);
}

TEST(Matrix, FillSetsEveryElement) {
  Matrix m(2, 2);
  m.fill(-1);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], -1);
}

TEST(Matrix, EnsureShapeKeepsStorageThatIsLargeEnough) {
  Matrix m(8, 6);
  m.fill(1);
  const Real* storage = m.data();
  ensure_shape(m, 5, 6);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 6u);
  EXPECT_EQ(m.data(), storage);
  ensure_shape(m, 3, 16);  // 48 elements, as many as the storage holds
  EXPECT_EQ(m.size(), 48u);
  EXPECT_EQ(m.data(), storage);
  ensure_shape(m, 7, 7);  // 49: a fresh, zeroed allocation
  EXPECT_NE(m.data(), storage);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0);
}

TEST(Matrix, CopyAssignmentKeepsStorageThatIsLargeEnough) {
  Matrix big(4, 5), small(2, 3);
  for (std::size_t i = 0; i < small.size(); ++i) small.data()[i] = Real(i + 1);
  const Real* storage = big.data();
  big = small;
  EXPECT_EQ(big.rows(), 2u);
  EXPECT_EQ(big.cols(), 3u);
  EXPECT_EQ(big.data(), storage);
  for (std::size_t i = 0; i < small.size(); ++i)
    EXPECT_EQ(big.data()[i], small.data()[i]);
  // A moved-from matrix is empty, so ensure_shape allocates for it.
  Matrix moved = std::move(big);
  EXPECT_EQ(moved.data(), storage);
  EXPECT_EQ(big.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(big.data(), nullptr);
  ensure_shape(big, 2, 3);
  EXPECT_NE(big.data(), nullptr);
}

}  // namespace
}  // namespace vqmc
