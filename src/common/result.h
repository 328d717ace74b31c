#ifndef SMARTSSD_COMMON_RESULT_H_
#define SMARTSSD_COMMON_RESULT_H_

#include <utility>
#include <variant>

#include "common/macros.h"
#include "common/status.h"

namespace smartssd {

// Result<T> carries either a value or a non-OK Status (absl::StatusOr
// equivalent). Accessing value() on an error result aborts: that is a
// programmer error, not a runtime condition. Only an error holds a
// Status, so an OK result never builds or destroys one (nor its message
// string); its status() is one shared OK Status.
template <typename T>
class Result {
 public:
  // Implicit construction from a value or an error Status keeps call
  // sites readable ("return tuple;" / "return NotFoundError(...)"): this
  // mirrors absl::StatusOr and is the one place we intentionally allow an
  // implicit one-argument constructor.
  Result(T value)  // NOLINT
      : state_(std::in_place_index<1>, std::move(value)) {}
  Result(Status status)  // NOLINT
      : state_(std::in_place_index<0>, std::move(status)) {
    SMARTSSD_CHECK(!std::get_if<0>(&state_)->ok());  // OK must carry a value.
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  bool ok() const { return state_.index() == 1; }

  const Status& status() const& {
    return ok() ? SharedOk() : *std::get_if<0>(&state_);
  }
  Status status() && {
    return ok() ? Status() : std::move(*std::get_if<0>(&state_));
  }

  const T& value() const& {
    SMARTSSD_CHECK(ok());
    return *std::get_if<1>(&state_);
  }
  T& value() & {
    SMARTSSD_CHECK(ok());
    return *std::get_if<1>(&state_);
  }
  T&& value() && {
    SMARTSSD_CHECK(ok());
    return std::move(*std::get_if<1>(&state_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &const_cast<Result*>(this)->value(); }

  T value_or(T fallback) const {
    return ok() ? *std::get_if<1>(&state_) : std::move(fallback);
  }

 private:
  static const Status& SharedOk() {
    static const Status ok;
    return ok;
  }

  std::variant<Status, T> state_;  // index 0: a non-OK Status
};

}  // namespace smartssd

#endif  // SMARTSSD_COMMON_RESULT_H_
