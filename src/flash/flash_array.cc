#include "flash/flash_array.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace smartssd::flash {

FlashArray::FlashArray(const Geometry& geometry, const Timings& timings,
                       const Reliability& reliability)
    : geometry_(geometry),
      timings_(timings),
      reliability_(reliability),
      error_rng_(reliability.seed),
      store_(geometry) {
  SMARTSSD_CHECK(geometry.Valid());
  blocks_.resize(static_cast<std::size_t>(geometry.total_blocks()));
  for (std::uint64_t i = 0; i < geometry.total_chips(); ++i) {
    chips_.push_back(
        std::make_unique<sim::RateServer>("chip" + std::to_string(i)));
  }
  for (int i = 0; i < geometry.channels; ++i) {
    channels_.push_back(
        std::make_unique<sim::RateServer>("chan" + std::to_string(i)));
  }
  const SimDuration bus = TransferTime(geometry.page_size_bytes,
                                       timings.channel_bytes_per_second);
  // ECC decoding is pipelined with the bus transfer in the channel
  // controller; the slower of the two paces the channel.
  page_transfer_time_ = std::max(bus, timings.ecc_per_page);
}

void FlashArray::AttachTracer(obs::Tracer* tracer,
                              std::string_view process) {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i]->AttachTracer(tracer, process,
                               "flash chan " + std::to_string(i));
  }
}

void FlashArray::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_reads_ = nullptr;
    m_corrected_ = nullptr;
    m_retries_ = nullptr;
    m_uncorrectable_ = nullptr;
    m_read_latency_ = nullptr;
    return;
  }
  m_reads_ = metrics->counter("flash.page_reads");
  m_corrected_ = metrics->counter("flash.ecc_corrected");
  m_retries_ = metrics->counter("flash.ecc_retries");
  m_uncorrectable_ = metrics->counter("flash.uncorrectable_reads");
  m_read_latency_ = metrics->histogram("flash.page_read_ns");
}

Status FlashArray::CheckAddress(const PageAddress& addr) const {
  if (!InBounds(geometry_, addr)) {
    return OutOfRangeError("flash page address out of bounds");
  }
  return Status::OK();
}

std::uint32_t FlashArray::SampleBitErrors(std::uint32_t attempt) {
  if (reliability_.raw_bit_error_rate <= 0.0) return 0;
  // Read-retry with adjusted thresholds roughly halves the raw error
  // rate per attempt.
  const double rate =
      reliability_.raw_bit_error_rate / static_cast<double>(1u << attempt);
  const double lambda =
      rate * 8.0 * static_cast<double>(geometry_.page_size_bytes);
  // Poisson sampling: inversion for small lambda, normal approximation
  // for large (where exact shape no longer matters).
  if (lambda > 64.0) {
    // Mean +/- a couple of sigmas via averaging uniforms (CLT).
    double sum = 0;
    for (int i = 0; i < 12; ++i) sum += error_rng_.NextDouble();
    const double gaussian = sum - 6.0;  // ~N(0,1)
    const double v = lambda + gaussian * std::sqrt(lambda);
    return v < 0 ? 0 : static_cast<std::uint32_t>(v);
  }
  const double limit = std::exp(-lambda);
  std::uint32_t k = 0;
  double product = error_rng_.NextDouble();
  while (product > limit) {
    ++k;
    product *= error_rng_.NextDouble();
  }
  return k;
}

Result<SimTime> FlashArray::ReadPageTiming(const PageAddress& addr,
                                           SimTime ready) {
  SMARTSSD_RETURN_IF_ERROR(CheckAddress(addr));
  sim::RateServer& chip = *chips_[ChipIndex(geometry_, addr)];
  sim::RateServer& channel = *channels_[addr.channel];
  obs::Tracer* tracer = channel.tracer();
  SimTime sensed = chip.Serve(ready, timings_.read_page);
  SimTime at_controller =
      channel.Serve(sensed, page_transfer_time_, "page read");
  ++reads_;
  obs::BumpCounter(m_reads_);

  // Injected uncorrectable read: the controller still pays for its full
  // retry ladder (threshold-adjusted re-senses) before declaring the
  // page lost, so the failure costs the retry penalty on the clock.
  if (fault_injector_ != nullptr &&
      fault_injector_->OnPageRead(sim::FaultKind::kUncorrectableRead,
                                  at_controller)) {
    for (std::uint32_t a = 0; a < reliability_.max_read_retries; ++a) {
      ++read_retries_;
      obs::BumpCounter(m_retries_);
      sensed = chip.Serve(at_controller,
                          timings_.read_page + reliability_.retry_penalty);
      at_controller =
          channel.Serve(sensed, page_transfer_time_, "ecc retry");
    }
    ++uncorrectable_reads_;
    obs::BumpCounter(m_uncorrectable_);
    if (tracer != nullptr) {
      tracer->Instant(channel.track(), "uncorrectable page", "flash",
                      at_controller);
    }
    return CorruptionError(
        "uncorrectable flash read (injected fault, ECC exhausted retries)");
  }

  // ECC: correct raw bit errors, retrying the sense with adjusted
  // thresholds when the error count exceeds the correction strength.
  std::uint32_t errors = SampleBitErrors(0);
  if (errors > 0 && errors <= reliability_.ecc_correctable_bits) {
    ++reads_corrected_;
    obs::BumpCounter(m_corrected_);
  }
  std::uint32_t attempt = 0;
  while (errors > reliability_.ecc_correctable_bits) {
    if (attempt >= reliability_.max_read_retries) {
      ++uncorrectable_reads_;
      obs::BumpCounter(m_uncorrectable_);
      if (tracer != nullptr) {
        tracer->Instant(channel.track(), "uncorrectable page", "flash",
                        at_controller);
      }
      return CorruptionError(
          "uncorrectable flash read (ECC exhausted retries)");
    }
    ++attempt;
    ++read_retries_;
    obs::BumpCounter(m_retries_);
    sensed = chip.Serve(at_controller,
                        timings_.read_page + reliability_.retry_penalty);
    at_controller = channel.Serve(sensed, page_transfer_time_, "ecc retry");
    errors = SampleBitErrors(attempt);
  }
  obs::RecordHistogram(m_read_latency_, at_controller - ready);
  return at_controller;
}

Result<SimTime> FlashArray::ReadPage(const PageAddress& addr, SimTime ready,
                                     std::span<std::byte> out) {
  SMARTSSD_ASSIGN_OR_RETURN(SimTime done, ReadPageTiming(addr, ready));
  if (!out.empty()) {
    SMARTSSD_RETURN_IF_ERROR(store_.Read(PageIndex(geometry_, addr), out));
  }
  return done;
}

Result<SimTime> FlashArray::ProgramPage(const PageAddress& addr,
                                        std::span<const std::byte> data,
                                        SimTime ready) {
  SMARTSSD_RETURN_IF_ERROR(CheckAddress(addr));
  if (data.size() > geometry_.page_size_bytes) {
    return InvalidArgumentError("program data larger than a flash page");
  }
  BlockState& block = blocks_[BlockIndex(geometry_, addr)];
  if (block.write_pointer >= geometry_.pages_per_block) {
    return FailedPreconditionError("program to a full block");
  }
  if (addr.page != block.write_pointer) {
    return FailedPreconditionError(
        "NAND pages must be programmed sequentially within a block");
  }
  // Data crosses the channel bus first, then the chip programs it.
  sim::RateServer& chip = *chips_[ChipIndex(geometry_, addr)];
  sim::RateServer& channel = *channels_[addr.channel];
  const SimTime at_chip = channel.Serve(ready, page_transfer_time_);
  const SimTime done = chip.Serve(at_chip, timings_.program_page);
  SMARTSSD_RETURN_IF_ERROR(store_.Program(PageIndex(geometry_, addr), data));
  ++block.write_pointer;
  ++programs_;
  return done;
}

Result<SimTime> FlashArray::EraseBlock(int channel, int chip,
                                       std::uint32_t block, SimTime ready) {
  PageAddress addr{channel, chip, block, 0};
  SMARTSSD_RETURN_IF_ERROR(CheckAddress(addr));
  const std::uint64_t block_index = BlockIndex(geometry_, addr);
  BlockState& state = blocks_[block_index];
  sim::RateServer& chip_server = *chips_[ChipIndex(geometry_, addr)];
  const SimTime done = chip_server.Serve(ready, timings_.erase_block);
  store_.EraseBlock(block_index);
  state.write_pointer = 0;
  ++state.erase_count;
  ++erases_;
  return done;
}

SimDuration FlashArray::total_channel_busy() const {
  SimDuration total = 0;
  for (const auto& c : channels_) total += c->busy_time();
  return total;
}

SimDuration FlashArray::total_chip_busy() const {
  SimDuration total = 0;
  for (const auto& c : chips_) total += c->busy_time();
  return total;
}

void FlashArray::ResetTiming() {
  for (auto& c : chips_) c->Reset();
  for (auto& c : channels_) c->Reset();
}

}  // namespace smartssd::flash
