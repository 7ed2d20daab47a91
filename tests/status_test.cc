#include "support/status.h"

#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace pgivm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, CopyAndMoveKeepValueOrError) {
  Result<std::string> value = std::string("kept");
  Result<std::string> copied = value;
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied.value(), "kept");
  EXPECT_TRUE(copied.status().ok());
  Result<std::string> moved = std::move(copied);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), "kept");

  Result<std::string> error = Status::OutOfRange("past the end");
  Result<std::string> error_copy = error;
  EXPECT_FALSE(error_copy.ok());
  EXPECT_EQ(error_copy.status(), Status::OutOfRange("past the end"));
  Result<std::string> error_moved = std::move(error_copy);
  EXPECT_FALSE(error_moved.ok());
  EXPECT_EQ(error_moved.status().code(), StatusCode::kOutOfRange);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PGIVM_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);

  Result<int> outer_fail = Quarter(6);  // 6/2 = 3, then odd
  EXPECT_FALSE(outer_fail.ok());
  EXPECT_EQ(outer_fail.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusCodeNameTest, StableNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

}  // namespace
}  // namespace pgivm
