#include "engine/ingest.h"

namespace smartssd::engine {

IngestTask::IngestTask(Database* db, const IngestBatchSpec* spec,
                       SimTime start)
    : db_(db), spec_(spec), t_(start) {
  SMARTSSD_CHECK(db != nullptr);
  SMARTSSD_CHECK(spec != nullptr);
}

StepOutcome IngestTask::FailWith(const Status& error) {
  final_result_ = error;
  state_ = State::kDone;
  return StepOutcome{.at = t_, .finished = true};
}

StepOutcome IngestTask::Step() {
  switch (state_) {
    case State::kStart: {
      if (spec_->with_update) {
        auto cursor = UpdateCursor::Open(db_, spec_->table,
                                         spec_->update_predicate,
                                         spec_->mutate);
        if (!cursor.ok()) return FailWith(cursor.status());
        update_.emplace(std::move(cursor).value());
        state_ = State::kUpdate;
      } else if (spec_->append_rows > 0) {
        auto cursor =
            AppendCursor::Open(db_, spec_->table, spec_->append_rows,
                               spec_->append_gen);
        if (!cursor.ok()) return FailWith(cursor.status());
        append_.emplace(std::move(cursor).value());
        state_ = State::kAppend;
      } else {
        state_ = State::kFlush;
      }
      return StepOutcome{.at = t_};
    }
    case State::kUpdate: {
      auto at = update_->StepPage(t_);
      if (!at.ok()) return FailWith(at.status());
      t_ = at.value();
      if (update_->done()) {
        stats_.rows_updated = update_->stats().rows_matched;
        stats_.pages_dirtied += update_->stats().pages_dirtied;
        if (spec_->append_rows > 0) {
          auto cursor =
              AppendCursor::Open(db_, spec_->table, spec_->append_rows,
                                 spec_->append_gen);
          if (!cursor.ok()) return FailWith(cursor.status());
          append_.emplace(std::move(cursor).value());
          state_ = State::kAppend;
        } else {
          state_ = State::kFlush;
        }
      }
      return StepOutcome{.at = t_};
    }
    case State::kAppend: {
      auto at = append_->StepPage(t_);
      if (!at.ok()) return FailWith(at.status());
      t_ = at.value();
      if (append_->done()) {
        stats_.rows_appended = append_->stats().rows_appended;
        stats_.pages_dirtied += append_->stats().pages_dirtied;
        state_ = State::kFlush;
      }
      return StepOutcome{.at = t_};
    }
    case State::kFlush: {
      auto info = db_->catalog().GetTable(spec_->table);
      if (!info.ok()) return FailWith(info.status());
      // Walk dirty pages in LPN order across the whole extent (the
      // reservation, so appended pages are covered too).
      const auto next = db_->buffer_pool().NextDirtyInRange(
          info.value()->first_lpn, info.value()->reserved_pages);
      if (!next.has_value()) {
        stats_.end = t_;
        state_ = State::kDone;
        return StepOutcome{.at = t_, .finished = true};
      }
      auto at = db_->buffer_pool().FlushPage(*next, t_);
      if (!at.ok()) return FailWith(at.status());
      t_ = at.value();
      ++stats_.pages_flushed;
      return StepOutcome{.at = t_};
    }
    case State::kDone:
      return StepOutcome{.at = t_, .finished = true};
  }
  return StepOutcome{.at = t_, .finished = true};
}

Result<IngestStats> IngestTask::TakeResult() {
  SMARTSSD_CHECK(finished());
  if (final_result_.has_value()) {
    return *std::move(final_result_);
  }
  return stats_;
}

}  // namespace smartssd::engine
